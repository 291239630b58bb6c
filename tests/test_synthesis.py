"""Tests for pole placement, the Riccati solver, robust gain synthesis,
gain-region checks, and the eigenvalue sweep."""

import collections
import functools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from ctrlkit import (
    CareNoSolution,
    RobustConfig,
    UncertaintyBounds,
    char_poly_ascending,
    design_gain_matrix,
    eig_sweep,
    robust_riccati_gain,
    sip_coefficients,
    sip_pole_gain,
    sip_region_bounds,
    sip_region_feasible,
    solve_care,
    vertex_interval_char_poly,
)
from ctrlkit import control, scenarios, synthesis
from ctrlkit.models import G, sip_design_pair, sip_frozen_coefficients
from ctrlkit.stability import interval_poly_stable, routh_stable

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

THETA_MAX = 0.4 * math.pi
DA21 = abs(10.0 * math.sin(THETA_MAX) / THETA_MAX - 10.0)
DB2 = abs(1.0 - math.cos(THETA_MAX))


def pendulum_bounds():
    dA = np.zeros((3, 3))
    dA[1, 0] = DA21
    dB = np.zeros(3)
    dB[1] = DB2
    return UncertaintyBounds(dA_max=dA, dB_max=dB)


class TestDesignGainMatrix:
    def test_pendulum_partial_model_triple_pole(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        K = design_gain_matrix(A, B, [-4.0, -4.0, -4.0])
        assert K == pytest.approx([-58.0, -18.4, -6.4], rel=1e-12)

    def test_places_requested_eigenvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=n)
            poles = -rng.uniform(0.5, 5.0, size=n)
            poles += np.arange(n) * 1e-3  # keep them distinct
            K = design_gain_matrix(A, B, poles)
            got = np.sort(np.linalg.eigvals(A - np.outer(B, K)).real)
            assert got == pytest.approx(np.sort(poles), rel=1e-6, abs=1e-6)

    def test_accepts_conjugate_pair(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        K = design_gain_matrix(A, B, [-1 + 2j, -1 - 2j, -3.0])
        got = np.linalg.eigvals(A - np.outer(B, K))
        assert sorted(got.imag) == pytest.approx([-2.0, 0.0, 2.0], abs=1e-9)

    def test_rejects_unpaired_complex_pole(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-1 + 2j, -1 + 2j, -3.0])

    def test_rejects_wrong_pole_count(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-1.0, -2.0])

    def test_rejects_uncontrollable_pair(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-3.0, -4.0])


POLES3 = (-4.0, -4.0, -4.0)
POLE_SETS = {"triple": POLES3, "conjugate": (-1 + 2j, -1 - 2j, -3.0)}


def _ackermann(a, b, poles):
    return design_gain_matrix(*sip_design_pair(a, b), poles).tolist()


def _draw_pairs(kind, n):
    """n seeded (a, b) pairs of one kind, every one well conditioned (no warning)."""
    rng = np.random.default_rng({"wide": 1401, "tie": 1402, "pendulum": 1403, "sysid": 1404}[kind])
    signs = [rng.choice([-1.0, 1.0], size=n) for _ in range(2)]
    b = signs[1] * 10.0 ** rng.uniform(-3, 2, n)
    if kind == "wide":  # both pivots and every sign
        a = signs[0] * 10.0 ** rng.uniform(-3, 3, n)
    elif kind == "tie":  # |a| = 1, where |ab| = |b| pivots on b, and its neighbours
        a = signs[0] * (1.0 + rng.integers(-4, 5, n) * 2.0 ** -52)
    elif kind == "pendulum":  # the frozen pendulum up to the horizontal, and past it
        theta = rng.uniform(-1.5, 1.5, n)
        a, b = G * np.sinc(theta / np.pi), -np.cos(theta)
    else:  # the spread of the default sip_adaptive_sysid estimates
        a, b = rng.uniform(-30.0, 130.0, n), rng.uniform(-3.0, 6.0, n)
    return list(zip(a.tolist(), b.tolist()))


def _outcome(design):
    """("raise", message) or (gain, warning messages) of one design call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            gain = design().tolist()
        except ValueError as exc:
            return "raise", str(exc)
    return gain, [str(w.message) for w in caught]


class TestMonicCoefficients:
    @staticmethod
    def np_poly_reference(desired):
        """The np.poly form _monic_coefficients replaces, kept as its oracle."""
        coeffs = np.poly(np.asarray(desired, dtype=complex))
        if np.max(np.abs(coeffs.imag)) > 1e-9:
            raise ValueError("desired eigenvalues must be closed under conjugation")
        return coeffs.real

    @staticmethod
    def draw(rng, kind, n):
        scale = 10.0 ** rng.integers(-2, 4)
        if kind == "real":
            return rng.normal(size=n) * scale
        pairs = rng.normal(size=n // 2) * scale + 1j * rng.uniform(0.1, 1.0, size=n // 2) * scale
        roots = np.concatenate([pairs, pairs.conj(), rng.normal(size=n % 2) * scale])
        if kind == "near-pairs":  # off by 1e-13 relative: np.poly returns complex coefficients
            roots = roots + 1e-13j * scale * rng.normal(size=roots.size)
        if kind == "unpaired":
            roots = roots + 1e-3j * scale * rng.normal(size=roots.size)
        return rng.permutation(roots)  # split pairs leave imaginary rounding in exact-pair sums

    @pytest.mark.parametrize("kind", ["real", "pairs", "near-pairs", "unpaired"])
    def test_bit_identical_to_np_poly(self, kind):
        rng = np.random.default_rng(["real", "pairs", "near-pairs", "unpaired"].index(kind))
        outcomes = collections.Counter()
        for _ in range(500):
            n = int(rng.integers(1, 8))
            roots = self.draw(rng, kind, n)
            try:
                ref = self.np_poly_reference(roots)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    synthesis._monic_coefficients(roots, n)
                outcomes["raise"] += 1
                continue
            got = synthesis._monic_coefficients(list(roots), n)
            assert got.tobytes() == ref.tobytes()
            products = functools.reduce(np.convolve, [[1, -z] for z in roots], [1 + 0j])
            outcomes["large-imag" if np.max(np.abs(products.imag)) > 1e-9 else "small-imag"] += 1
        if kind == "pairs":  # exact pairs pass np.poly's own test, whatever the rounding left
            assert outcomes["large-imag"] > 25 and not outcomes["raise"]
        elif kind == "unpaired":
            assert outcomes["raise"] > 400
        else:
            assert outcomes["small-imag"] > 250


class TestSipPoleGain:
    """The closed form against its oracle, Ackermann on sip_design_pair, compared with ==."""

    @pytest.mark.parametrize("poles", POLE_SETS.values(), ids=POLE_SETS.keys())
    @pytest.mark.parametrize("kind", ["wide", "tie", "pendulum", "sysid"])
    def test_bit_identical_to_ackermann(self, kind, poles):
        coeffs = sip_coefficients(poles)
        pivots = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in _draw_pairs(kind, 12_500):  # 100,000 draws over the 8 cases
                assert sip_pole_gain(a, b, coeffs).tolist() == _ackermann(a, b, poles), (a, b)
                pivots["ab" if abs(a * b) > abs(b) else "b"] += 1
        if kind in ("wide", "tie"):
            assert min(pivots["ab"], pivots["b"]) > 1000

    @pytest.mark.parametrize("sid", ["sip_adaptive_sysid", "sip_adaptive_online"])
    def test_replays_every_gain_of_the_default_adaptive_runs(self, sid, monkeypatch):
        calls = []

        def recording(a, b, coeffs):
            K = synthesis.sip_pole_gain(a, b, coeffs)
            calls.append((a, b, K.tolist()))
            return K

        monkeypatch.setattr(scenarios, "sip_pole_gain", recording)
        monkeypatch.setattr(control, "sip_pole_gain", recording)
        scenarios.run_scenario(sid)
        assert len(calls) > 2900
        assert all(K == _ackermann(a, b, POLES3) for a, b, K in calls)
        if sid == "sip_adaptive_sysid":  # a few of its estimates pivot on b
            assert 0 < sum(abs(a * b) <= abs(b) for a, b, _ in calls) < 10

    @pytest.mark.parametrize("theta", [0.0, 0.05, -0.3, math.pi / 4, THETA_MAX])
    def test_stabilizing_gain_is_ackermann(self, theta):
        K = scenarios.sip_stabilizing_gain(theta)
        assert K.tolist() == _ackermann(*sip_frozen_coefficients(theta), POLES3)

    @pytest.mark.parametrize("a, b, verdict", [
        (0.0, 1.0, "raise"), (10.0, 0.0, "raise"), (10.0, 1e-14, "raise"),
        (10.0, 1e-10, "quiet"), (10.0, 1e-11, "warn"), (-10.0, -1e-11, "warn"),
        (1e13, 1.0, "raise"), (1e11, 1.0, "warn"), (1e9, 1.0, "quiet"),
    ])
    def test_failures_and_warnings_match_ackermann(self, a, b, verdict):
        got = _outcome(lambda: sip_pole_gain(a, b, sip_coefficients(POLES3)))
        assert got == _outcome(lambda: design_gain_matrix(*sip_design_pair(a, b), POLES3))
        assert verdict == ("raise" if got[0] == "raise" else "warn" if got[1] else "quiet")

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                      (1.0, math.nan), (0.0, math.inf)])
    def test_non_finite_pair_raises_value_error(self, a, b):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):  # LinAlgError is one
            design_gain_matrix(*sip_design_pair(a, b), POLES3)
        with pytest.raises(ValueError, match="not controllable"):
            sip_pole_gain(a, b, sip_coefficients(POLES3))


class TestSolveCare:
    def test_matches_scipy_on_random_stabilizable_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 1))
            C = rng.normal(size=(n, n))
            Q = C.T @ C + 0.1 * np.eye(n)
            P = solve_care(A, B @ B.T, Q)
            assert not isinstance(P, CareNoSolution)
            ref = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(1))
            assert P == pytest.approx(ref, rel=1e-7, abs=1e-9)

    def test_residual_and_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 1))
            C = rng.normal(size=(n, n))
            Q = C.T @ C + 0.1 * np.eye(n)
            M = B @ B.T
            P = solve_care(A, M, Q)
            assert np.array_equal(P, P.T)
            res = P @ A + A.T @ P - P @ M @ P + Q
            assert np.linalg.norm(res, "fro") <= 1e-9 * (1 + np.linalg.norm(Q, "fro"))

    def test_imaginary_axis_hamiltonian_rejected(self):
        # A=1, M=-1, Q=3 puts both Hamiltonian eigenvalues on the axis
        with pytest.raises(ValueError):
            solve_care([[1.0]], [[-1.0]], [[3.0]])

    @pytest.mark.parametrize("A, M, Q, message", [
        (np.eye(2), np.eye(3), np.eye(2), "M must be 2x2, got shape (3, 3)"),
        (np.eye(2), np.eye(2), np.ones((2, 3)), "Q must be 2x2, got shape (2, 3)"),
        (np.ones((2, 3)), np.eye(2), np.eye(2), "A must be 2x2, got shape (2, 3)"),
    ], ids=["M", "Q", "A"])
    def test_rejects_a_matrix_of_the_wrong_shape(self, A, M, Q, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy sees the shapes
            with pytest.raises(ValueError) as ei:
                solve_care(A, M, Q)
        assert str(ei.value) == message

    def test_non_definite_candidate_reported(self):
        out = solve_care([[-1.0]], [[1.0]], [[-0.5]])
        assert isinstance(out, CareNoSolution)
        assert out.p_eigenvalues.max() < 0
        assert out.M.shape == (1, 1)


def robust_op_lapack_inputs(n_ops):
    """Every Hamiltonian and Newton-step closed loop that solve_care hands to LAPACK on n_ops
    robust operations drawn as the design workload draws them, as (Hamiltonians, [(a, q), ...])."""
    hams, loops = [], []
    real_schur, lyapunov = synthesis._real_schur, synthesis._lyapunov

    def record_schur(a, select, sort):
        if sort:
            hams.append(a.copy())
        return real_schur(a, select, sort)

    def record_lyapunov(a, q):
        loops.append((a.copy(), q.copy()))
        return lyapunov(a, q)

    rng = np.random.default_rng(9101)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_real_schur", record_schur)
        mp.setattr(synthesis, "_lyapunov", record_lyapunov)
        for _ in range(n_ops):
            workloads._run_robust({"theta_max": rng.uniform(0.3 * math.pi, 0.45 * math.pi),
                                   "bar": rng.uniform(200.0, 400.0),
                                   "epsilon": rng.uniform(0.005, 0.02)})
    return hams, loops


class TestLapackHelpers:
    """The direct dgees/dtrsyl calls of solve_care against scipy, the oracle, bit for bit."""

    @pytest.fixture(scope="class")
    def workload_inputs(self):
        # make_inputs("design", seed) would spend 0.7 s on the placement draws first
        hams, loops = robust_op_lapack_inputs(300)
        assert len(hams) > 250 and len(loops) > 250
        return hams, loops

    @staticmethod
    def random_inputs(n_draws=200):
        rng = np.random.default_rng(16)
        for _ in range(n_draws):
            n = int(rng.integers(1, 7))
            yield rng.normal(size=(n, n)), rng.normal(size=(n, n))

    @staticmethod
    def assert_schur_matches_scipy(ham):
        T, Z, sdim = synthesis._real_schur(ham, synthesis._lhp, 1)
        T_ref, Z_ref, sdim_ref = scipy.linalg.schur(ham, output="real", sort="lhp")
        assert sdim == sdim_ref
        assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)

    def test_stable_schur_equals_scipy_on_workload_hamiltonians(self, workload_inputs):
        for ham in workload_inputs[0]:
            self.assert_schur_matches_scipy(ham)

    def test_stable_schur_equals_scipy_on_random_matrices(self):
        for a, _ in self.random_inputs():
            self.assert_schur_matches_scipy(a)

    def test_lyapunov_equals_scipy_on_workload_closed_loops(self, workload_inputs):
        for a, q in workload_inputs[1]:
            assert np.array_equal(synthesis._lyapunov(a, q),
                                  scipy.linalg.solve_continuous_lyapunov(a, q))

    def test_lyapunov_equals_scipy_on_random_matrices(self):
        for a, q in self.random_inputs():
            # the transposed view is the layout solve_care passes
            for a_in in (a, a.T):
                assert np.array_equal(synthesis._lyapunov(a_in, q),
                                      scipy.linalg.solve_continuous_lyapunov(a_in, q))

    def test_workspace_size_equals_a_fresh_query(self):
        """The per-size dgees lwork is what the query returns for any matrix of that size."""
        rng = np.random.default_rng(1703)
        dgees = synthesis._scipy_lapack().dgees
        for n in range(1, 9):
            for a in (rng.normal(size=(n, n)), 1e6 * rng.normal(size=(n, n)), np.eye(n)):
                assert int(dgees(synthesis._no_sort, a, lwork=-1)[-2][0]) == synthesis._dgees_lwork(n)

    def test_lyapunov_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            synthesis._lyapunov(np.array([[np.nan]]), np.eye(1))
        with pytest.raises(ValueError):
            synthesis._lyapunov(-np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_importing_ctrlkit_leaves_scipy_unloaded():
    src = str(pathlib.Path(synthesis.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, ctrlkit\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


class TestRobustRiccatiGain:
    def test_zero_bounds_reduces_to_double_effort_lqr(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        zero = UncertaintyBounds(dA_max=np.zeros((3, 3)), dB_max=np.zeros(3))
        cfg = RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        K = robust_riccati_gain(A, B, zero, cfg)
        P = scipy.linalg.solve_continuous_are(A, B.reshape(-1, 1),
                                              np.eye(3), np.array([[0.005]]))
        expected = (P @ B / 0.01).ravel()
        assert K == pytest.approx(expected, rel=1e-7)

    def test_pendulum_vertex_gain_regression(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        cfg = RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        K = robust_riccati_gain(A, B, pendulum_bounds(), cfg)
        assert K == pytest.approx([-170.16110901, -54.7429347, -10.60763659],
                                  rel=1e-6)
        Ac = A - np.outer(B, K)
        assert np.linalg.eigvals(Ac).real.max() < 0

    def test_small_caps_return_retunable_outcome(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        cfg = RobustConfig(a_bar=0.2, b_bar=0.2, epsilon=0.5,
                           Q=np.eye(3), R=[[0.01]])
        out = robust_riccati_gain(A, B, pendulum_bounds(), cfg)
        assert isinstance(out, CareNoSolution)
        assert out.p_eigenvalues.min() <= 0
        assert out.M.shape == (3, 3)

    @pytest.mark.parametrize("bar", ["a_bar", "b_bar"])
    def test_zero_bar_with_non_zero_bound_rejected(self, bar):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        cfg = RobustConfig(**{"a_bar": 300.0, "b_bar": 300.0, bar: 0.0}, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        bound = "dA_max" if bar == "a_bar" else "dB_max"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any division by the bar
            with pytest.raises(ValueError, match=f"^{bar} must be positive when {bound} is non-zero$"):
                robust_riccati_gain(A, B, pendulum_bounds(), cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("A", np.zeros((2, 3)), "A must be 2x2, got shape (2, 3)"),
        ("B", [-1.0, 1.0], "B must be 3x1, got shape (2, 1)"),
        ("dA_max", [[2.4]], "dA_max must be 3x3, got shape (1, 1)"),
        ("dB_max", [0.7], "dB_max must be 3x1, got shape (1, 1)"),
        ("Q", [[0.1]], "Q must be 3x3, got shape (1, 1)"),
        ("R", np.diag([0.01, 0.01]), "R must be 1x1, got shape (2, 2)"),
        ("R", [[0.01, 0.0]], "R must be 1x1, got shape (1, 2)"),
    ], ids=["A", "B", "dA_max", "dB_max", "Q", "R", "R-not-square"])
    def test_rejects_a_matrix_of_the_wrong_shape(self, field, value, message):
        """numpy would broadcast each of these into a gain for some other problem."""
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        args = {"A": A, "B": B, "dA_max": pendulum_bounds().dA_max,
                "dB_max": pendulum_bounds().dB_max, "Q": np.eye(3), "R": [[0.01]], field: value}
        bounds = UncertaintyBounds(args["dA_max"], args["dB_max"])
        cfg = RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01, Q=args["Q"], R=args["R"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as ei:
                robust_riccati_gain(args["A"], args["B"], bounds, cfg)
        assert str(ei.value) == message

    def test_zero_bar_with_zero_bound_is_valid(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        bounds = UncertaintyBounds(dA_max=np.zeros((3, 3)), dB_max=[0.0, DB2, 0.0])
        K = robust_riccati_gain(A, B, bounds, RobustConfig(a_bar=0.0, b_bar=300.0, epsilon=0.01,
                                                           Q=np.eye(3), R=[[0.01]]))
        K_ref = robust_riccati_gain(A, B, bounds, RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01,
                                                               Q=np.eye(3), R=[[0.01]]))
        assert np.array_equal(K, K_ref)

    @pytest.mark.parametrize("R", [[[0.0]], [[-1.0]], [[np.nan]], [[1.0, 0.0], [0.0, -1.0]]],
                             ids=["zero", "negative", "nan", "indefinite"])
    def test_config_rejects_r_not_positive_definite(self, R):
        with pytest.raises(ValueError, match="^R must be positive definite$"):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=R)

    @pytest.mark.parametrize("Q", [[[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                   np.diag([-1.0, 1.0, 1.0]), [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["non-symmetric", "indefinite", "nan"])
    def test_config_rejects_q_not_symmetric_positive_semi_definite(self, Q):
        with pytest.raises(ValueError, match="^Q must be symmetric positive semi-definite$"):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=Q, R=[[0.01]])

    def test_config_accepts_q_semi_definite_up_to_rounding(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(2, 3))
        almost = C.T @ C  # rank 2: its smallest eigenvalue is zero up to rounding
        almost[0, 1] += 1e-14 * np.abs(almost).max()
        for Q in (np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]), almost):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=Q, R=[[0.01]])

    def test_config_and_bounds_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(a_bar=-1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=[[0.01]])
        with pytest.raises(ValueError):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.0, Q=np.eye(3), R=[[0.01]])
        with pytest.raises(ValueError):
            UncertaintyBounds(dA_max=-np.ones((2, 2)), dB_max=np.zeros(2))


class TestNonFiniteInputsFailAtTheBoundary:
    """A nan or infinite input raises a ValueError naming it, not a nan result or a LAPACK error."""

    @pytest.mark.parametrize("field", ["a_bar", "b_bar", "epsilon"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_robust_config_scalars(self, field, bad):
        args = {"a_bar": 300.0, "b_bar": 300.0, "epsilon": 0.01, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            RobustConfig(**args, Q=np.eye(3), R=[[0.01]])

    @pytest.mark.parametrize("R", [[[np.inf]], np.diag([np.inf, 1.0])], ids=["1x1", "2x2"])
    def test_robust_config_infinite_r(self, R):
        with pytest.raises(ValueError, match="^R must be positive definite$"):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=R)

    @pytest.mark.parametrize("Q", [np.diag([np.inf, 1.0, 1.0]), [[1.0, np.inf], [5.0, 1.0]]],
                             ids=["diagonal", "off-diagonal"])
    def test_robust_config_infinite_q(self, Q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Q must be symmetric positive semi-definite$"):
                RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=Q, R=[[0.01]])

    @pytest.mark.parametrize("field", ["dA_max", "dB_max"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_uncertainty_bounds(self, field, bad):
        args = {"dA_max": np.zeros((3, 3)), "dB_max": np.zeros(3)}
        args[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            UncertaintyBounds(**args)

    @pytest.mark.parametrize("field", ["A", "B"])
    def test_robust_riccati_gain_model(self, field):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        model = {"A": A.copy(), "B": B.copy()}
        model[field].flat[1] = np.nan
        cfg = RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01, Q=np.eye(3), R=[[0.01]])
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            robust_riccati_gain(model["A"], model["B"], pendulum_bounds(), cfg)

    @pytest.mark.parametrize("field, bad", [
        ("A", np.nan), ("A", np.inf), ("B", -np.inf),
        ("desired_eigs", np.nan), ("desired_eigs", complex(-1.0, np.inf)),
    ])
    def test_design_gain_matrix(self, field, bad):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        args = {"A": A, "B": B, "desired_eigs": np.array([-1.0, -2.0, -3.0], dtype=complex)}
        args[field] = args[field].copy()
        args[field].flat[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                design_gain_matrix(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_region_gain(self, bad):
        a_lo, a_hi, b_lo, b_hi = workloads.REGION
        A_family = [np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]) for a in (a_lo, a_hi)]
        B_family = [np.array([0.0, -b, 1.0]) for b in (b_lo, b_hi)]
        K = [-110.0, bad, -10.0]
        for check in (lambda: vertex_interval_char_poly(A_family, B_family, K),
                      lambda: sip_region_feasible(K, *workloads.REGION),
                      lambda: sip_region_bounds(K, a_hi, b_lo)):
            with pytest.raises(ValueError, match="^K must be finite$"):
                check()

    def test_region_parameter_bounds(self):
        with pytest.raises(ValueError, match="^parameter bounds must be finite$"):
            sip_region_feasible([-110.0, -50.0, -10.0], 5.0, np.inf, 0.31, 1.0)
        with pytest.raises(ValueError, match="^b_lo must be positive$"):
            sip_region_bounds([-110.0, -50.0, -10.0], 10.0, 0.0)
        # a nan, a -0.0 or an infinite bound was once returned, and read as a verdict
        for a_hi, b_lo in [(np.nan, 0.3), (10.0, np.nan), (10.0, np.inf), (np.inf, 0.3), (-np.inf, 0.3)]:
            with pytest.raises(ValueError, match="^a_hi and b_lo must be finite$"):
                sip_region_bounds([-110.0, -50.0, -10.0], a_hi, b_lo)

    def test_vertex_families_that_overflow(self):
        A_family = [np.full((3, 3), 1e200)]
        with pytest.raises(ValueError, match="non-finite characteristic coefficient"):
            vertex_interval_char_poly(A_family, [np.zeros(3)], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite characteristic coefficient"):
            vertex_interval_char_poly([np.eye(3) * np.nan], [np.zeros(3)], [0.0, 0.0, 0.0])

    def test_vertex_families_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="^each A\\* must be 3x3 and each B\\* must have 3 entries"):
            vertex_interval_char_poly([np.eye(3)], [np.zeros(2)], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="^each A\\* must be 2x2"):
            vertex_interval_char_poly([np.eye(3)], [np.zeros(3)], [1.0, 1.0])


class TestCharPolyAndVertexFamilies:
    def test_char_poly_ascending_quadratic(self):
        m = [[0.0, 1.0], [-6.0, -5.0]]
        assert char_poly_ascending(m) == pytest.approx([6.0, 5.0, 1.0])

    @staticmethod
    def leverrier(m):
        """Ascending characteristic coefficients by Faddeev-LeVerrier in exact integers."""
        n = len(m)
        coeffs = [1]
        M = [[0] * n for _ in range(n)]
        for k in range(1, n + 1):
            M = [[sum(m[i][t] * M[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
                  for j in range(n)] for i in range(n)]
            trace = sum(m[i][t] * M[t][i] for i in range(n) for t in range(n))
            assert trace % k == 0
            coeffs.append(-trace // k)
        return coeffs[::-1]

    def test_char_poly_ascending_3x3_exact_on_integer_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = rng.integers(-9, 10, size=(3, 3))
            got = char_poly_ascending(m)
            assert got.tolist() == [float(c) for c in self.leverrier(m.tolist())]

    def test_char_poly_ascending_3x3_matches_np_poly(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            m = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-2, 3)
            ref = np.poly(m)[::-1]
            got = char_poly_ascending(m)
            assert got.shape == (4,) and got[-1] == 1.0
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    @staticmethod
    def vertex_box_numpy(A_family, B_family, K):
        """The numpy closed loops and box vertex_interval_char_poly replaced, kept as its
        bit-for-bit oracle: (lower, upper) arrays."""
        def char_poly_3x3(m):
            (a, b, c), (d, e, f), (g, h, i) = m
            minor_ei = e * i - f * h
            det = a * minor_ei - b * (d * i - f * g) + c * (d * h - e * g)
            return [-det, (a * e - b * d) + (a * i - c * g) + minor_ei, -(a + e + i), 1.0]

        K = np.asarray(K, dtype=float).ravel()
        A = np.array([np.atleast_2d(A_v) for A_v in A_family], dtype=float)
        B = np.array([np.ravel(B_v) for B_v in B_family], dtype=float)
        closed = (A[:, None] - B[None, :, :, None] * K).reshape(-1, *A.shape[1:])
        if closed.shape[1:] == (3, 3):
            coeff_rows = np.array([char_poly_3x3(m) for m in closed.tolist()])
        else:
            coeff_rows = np.array([np.poly(m)[::-1] for m in closed])
        return coeff_rows.min(axis=0), coeff_rows.max(axis=0)

    def assert_box_matches_numpy(self, A_family, B_family, K):
        ip = vertex_interval_char_poly(A_family, B_family, K)
        lower, upper = self.vertex_box_numpy(A_family, B_family, K)
        assert np.array(ip.lower).tobytes() == lower.tobytes()
        assert np.array(ip.upper).tobytes() == upper.tobytes()
        return ip

    def test_box_bit_identical_to_numpy_on_the_workload_family(self):
        """The design workload's region family, its gain draw, and gains with signed zeros."""
        a_lo, a_hi, b_lo, b_hi = workloads.REGION
        A_family = [np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]) for a in (a_lo, a_hi)]
        B_family = [np.array([0.0, -b, 1.0]) for b in (b_lo, b_hi)]
        rng = np.random.default_rng(1704)
        for i in range(600):
            K = rng.uniform(-200.0, 5.0, size=3)
            if i % 2:
                K[rng.random(3) < 0.5] = rng.choice([0.0, -0.0])
            self.assert_box_matches_numpy(A_family, B_family, K)

    def test_box_bit_identical_to_numpy_where_signed_zeros_tie(self):
        """Small-integer families with signed zeros: min and max must keep numpy's choice of zero."""
        rng = np.random.default_rng(1705)
        levels = np.array([0.0, -0.0, 1.0, -1.0, 2.0])
        negative_zero_bounds = 0
        for _ in range(400):
            n_a, n_b = rng.integers(1, 4, size=2)
            ip = self.assert_box_matches_numpy(list(rng.choice(levels, size=(n_a, 3, 3))),
                                               list(rng.choice(levels, size=(n_b, 3))),
                                               rng.choice(levels, size=3))
            negative_zero_bounds += sum(v == 0 and math.copysign(1.0, v) < 0 for v in ip.lower + ip.upper)
        assert negative_zero_bounds > 50

    def test_box_bit_identical_to_numpy_on_other_sizes(self):
        rng = np.random.default_rng(1706)
        for n in (1, 2, 4):
            for _ in range(20):
                self.assert_box_matches_numpy(list(rng.normal(size=(2, n, n))),
                                              list(rng.normal(size=(2, n))), rng.normal(size=n))

    def test_vertex_interval_covers_all_pairs(self):
        A_family = [np.array([[0.0, 1.0], [-a, 0.0]]) for a in (1.0, 2.0)]
        B_family = [np.array([0.0, b]) for b in (1.0, 2.0)]
        ip = vertex_interval_char_poly(A_family, B_family, [1.0, 1.0])
        # closed loop char poly is s^2 + b s + (a + b), ascending
        assert ip.lower == pytest.approx([2.0, 1.0, 1.0])
        assert ip.upper == pytest.approx([4.0, 2.0, 1.0])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            vertex_interval_char_poly([], [np.array([0.0, 1.0])], [1.0, 1.0])


class TestGainRegion:
    def test_bounds_formulas(self):
        b_lo = math.cos(THETA_MAX)
        k2_bound, k1_bound = sip_region_bounds([-110.0, -50.0, -10.0], 10.0, b_lo)
        assert k2_bound == pytest.approx(-10.0 / b_lo)
        assert k1_bound == pytest.approx(10.0 * -50.0 / (-b_lo * -50.0 + -10.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sip_region_feasible([-110.0, -50.0, -10.0], 5.0, 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sip_region_feasible([-110.0, -50.0, -10.0], 10.0, 5.0, 0.31, 1.0)

    def test_nonnegative_k3_is_infeasible(self):
        assert not sip_region_feasible([-110.0, -50.0, 0.0], 5.0, 10.0, 0.31, 1.0)

    def test_chain_stops_before_a_zero_denominator(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sip_region_bounds([-1.0, 0.0, 0.0], 10.0, 0.3) == (None, None)
            assert sip_region_bounds([-1.0, -20.0, -10.0], 10.0, 0.5) == (-20.0, None)
            # k2 < k3/b_lo holds, but -b_lo*k2 + k3 rounds to exactly 0
            assert sip_region_bounds([-1.0, -30.000000000000004, -9.0], 10.0, 0.3) == (
                -30.0, -math.inf)
            assert not sip_region_feasible([-1.0, 0.0, 0.0], 7.0, 10.0, 0.3, 1.0)
            assert not sip_region_feasible([-1.0, -20.0, -10.0], 7.0, 10.0, 0.5, 1.0)
            assert not sip_region_feasible([-1.0, -30.000000000000004, -9.0], 7.0, 10.0, 0.3, 1.0)

    def test_matches_corner_routh_on_random_gains(self):
        rng = np.random.default_rng(5)
        a_lo, a_hi, b_lo, b_hi = 5.0, 10.0, 0.31, 1.0

        def corners_stable(K):
            for a in (a_lo, a_hi):
                for b in (b_lo, b_hi):
                    A = np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]])
                    B = np.array([0.0, -b, 1.0])
                    poly = char_poly_ascending(A - np.outer(B, K))
                    if not routh_stable(poly).stable:
                        return False
            return True

        for _ in range(200):
            K = rng.uniform(-200.0, 5.0, size=3)
            assert sip_region_feasible(K, a_lo, a_hi, b_lo, b_hi) == corners_stable(K)

    def test_kharitonov_verdict_matches_closed_form_on_the_workload_family(self):
        """The design workload's region operation: 5,000 gains of its draw, its parameter box."""
        a_lo, a_hi, b_lo, b_hi = workloads.REGION
        A_family = [np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]) for a in (a_lo, a_hi)]
        B_family = [np.array([0.0, -b, 1.0]) for b in (b_lo, b_hi)]
        rng = np.random.default_rng(23)
        verdicts = collections.Counter()
        for _ in range(5000):
            K = rng.uniform(-200.0, 5.0, size=3)
            feasible = sip_region_feasible(K, a_lo, a_hi, b_lo, b_hi)
            ip = vertex_interval_char_poly(A_family, B_family, K)
            assert interval_poly_stable(ip) == feasible
            verdicts[feasible] += 1
        assert min(verdicts.values()) > 200  # both verdicts are well represented


class TestPartialDesignModel:
    def test_upright_matrices(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        assert A[1, 0] == 10.0
        assert np.array_equal(B, [0.0, -1.0, 1.0])

    def test_exact_trig_without_guard(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.05))
        assert A[1, 0] == pytest.approx(10.0 * math.sin(0.05) / 0.05)
        assert B[1] == pytest.approx(-math.cos(0.05))

    def test_extreme_angle(self):
        A, B = sip_design_pair(*sip_frozen_coefficients(THETA_MAX))
        assert A[1, 0] == pytest.approx(10.0 * math.sin(THETA_MAX) / THETA_MAX)
        assert B[1] == pytest.approx(-math.cos(THETA_MAX))


class TestEigSweep:
    def test_even_in_angle(self):
        K = np.array([-110.0, -50.0, -10.0])
        grid = np.deg2rad([-30.0, 30.0])
        rows = eig_sweep(K, grid)
        assert np.array_equal(rows[0][1], rows[1][1])

    def test_rows_sorted_by_descending_magnitude(self):
        K = np.array([-110.0, -50.0, -10.0])
        for _, re in eig_sweep(K, np.deg2rad([0.0, 45.0, 72.0])):
            mags = np.abs(re)
            assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    def test_upright_spot_values(self):
        K = np.array([-110.0, -50.0, -10.0])
        (_, re), = eig_sweep(K, [0.0])
        assert re == pytest.approx([-37.3975277998, -1.30123610009, -1.30123610009],
                                   rel=1e-9)

    def test_grid_passthrough(self):
        rows = eig_sweep([-110.0, -50.0, -10.0], [0.1, 0.2])
        assert [r[0] for r in rows] == [0.1, 0.2]
