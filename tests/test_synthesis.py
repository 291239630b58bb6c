"""Tests for pole placement, the Riccati solver, robust gain synthesis,
gain-region checks, and the eigenvalue sweep."""

import math
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
    sip_partial_design_model,
    sip_region_bounds,
    sip_region_feasible,
    solve_care,
    vertex_interval_char_poly,
)
from ctrlkit.stability import routh_stable

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
        A, B = sip_partial_design_model(0.0)
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
        A, B = sip_partial_design_model(0.0)
        K = design_gain_matrix(A, B, [-1 + 2j, -1 - 2j, -3.0])
        got = np.linalg.eigvals(A - np.outer(B, K))
        assert sorted(got.imag) == pytest.approx([-2.0, 0.0, 2.0], abs=1e-9)

    def test_rejects_unpaired_complex_pole(self):
        A, B = sip_partial_design_model(0.0)
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-1 + 2j, -1 + 2j, -3.0])

    def test_rejects_wrong_pole_count(self):
        A, B = sip_partial_design_model(0.0)
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-1.0, -2.0])

    def test_rejects_uncontrollable_pair(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            design_gain_matrix(A, B, [-3.0, -4.0])


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

    def test_non_definite_candidate_reported(self):
        out = solve_care([[-1.0]], [[1.0]], [[-0.5]])
        assert isinstance(out, CareNoSolution)
        assert out.p_eigenvalues.max() < 0
        assert out.M.shape == (1, 1)


class TestRobustRiccatiGain:
    def test_zero_bounds_reduces_to_double_effort_lqr(self):
        A, B = sip_partial_design_model(0.0)
        zero = UncertaintyBounds(dA_max=np.zeros((3, 3)), dB_max=np.zeros(3))
        cfg = RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        K = robust_riccati_gain(A, B, zero, cfg)
        P = scipy.linalg.solve_continuous_are(A, B.reshape(-1, 1),
                                              np.eye(3), np.array([[0.005]]))
        expected = (P @ B / 0.01).ravel()
        assert K == pytest.approx(expected, rel=1e-7)

    def test_pendulum_vertex_gain_regression(self):
        A, B = sip_partial_design_model(0.0)
        cfg = RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        K = robust_riccati_gain(A, B, pendulum_bounds(), cfg)
        assert K == pytest.approx([-170.16110901, -54.7429347, -10.60763659],
                                  rel=1e-6)
        Ac = A - np.outer(B, K)
        assert np.linalg.eigvals(Ac).real.max() < 0

    def test_small_caps_return_retunable_outcome(self):
        A, B = sip_partial_design_model(0.0)
        cfg = RobustConfig(a_bar=0.2, b_bar=0.2, epsilon=0.5,
                           Q=np.eye(3), R=[[0.01]])
        out = robust_riccati_gain(A, B, pendulum_bounds(), cfg)
        assert isinstance(out, CareNoSolution)
        assert out.p_eigenvalues.min() <= 0
        assert out.M.shape == (3, 3)

    @pytest.mark.parametrize("bar", ["a_bar", "b_bar"])
    def test_zero_bar_with_non_zero_bound_rejected(self, bar):
        A, B = sip_partial_design_model(0.0)
        cfg = RobustConfig(**{"a_bar": 300.0, "b_bar": 300.0, bar: 0.0}, epsilon=0.01,
                           Q=np.eye(3), R=[[0.01]])
        bound = "dA_max" if bar == "a_bar" else "dB_max"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any division by the bar
            with pytest.raises(ValueError, match=f"^{bar} must be positive when {bound} is non-zero$"):
                robust_riccati_gain(A, B, pendulum_bounds(), cfg)

    def test_zero_bar_with_zero_bound_is_valid(self):
        A, B = sip_partial_design_model(0.0)
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

    def test_config_and_bounds_validation(self):
        with pytest.raises(ValueError):
            RobustConfig(a_bar=-1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=[[0.01]])
        with pytest.raises(ValueError):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.0, Q=np.eye(3), R=[[0.01]])
        with pytest.raises(ValueError):
            UncertaintyBounds(dA_max=-np.ones((2, 2)), dB_max=np.zeros(2))


class TestCharPolyAndVertexFamilies:
    def test_char_poly_ascending_quadratic(self):
        m = [[0.0, 1.0], [-6.0, -5.0]]
        assert char_poly_ascending(m) == pytest.approx([6.0, 5.0, 1.0])

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


class TestPartialDesignModel:
    def test_upright_matrices(self):
        A, B = sip_partial_design_model(0.0)
        assert A[1, 0] == 10.0
        assert np.array_equal(B, [0.0, -1.0, 1.0])

    def test_exact_trig_without_guard(self):
        A, B = sip_partial_design_model(0.05)
        assert A[1, 0] == pytest.approx(10.0 * math.sin(0.05) / 0.05)
        assert B[1] == pytest.approx(-math.cos(0.05))

    def test_extreme_angle(self):
        A, B = sip_partial_design_model(THETA_MAX)
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
