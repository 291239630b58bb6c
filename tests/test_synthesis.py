"""Tests for pole placement, the Riccati solver, robust gain synthesis,
gain-region checks, and the eigenvalue sweep."""

import collections
import dataclasses
import fractions
import functools
import itertools
import math
import operator
import os
import pathlib
import re
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
from ctrlkit.numerics import least_squares, nnmf_rank1, qp_small
from ctrlkit.stability import IntervalPoly, interval_poly_stable, routh_stable

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from test_acceptance import run_cached  # noqa: E402

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

    @pytest.mark.parametrize("A, B, message", [
        ([[0.0, 1.0], [1e308, 0.0]], [0.0, 1e10], "the pole-placement gain overflows"),  # phi(A)
        ([[1e200, 1.0], [0.0, 2e200]], [1e200, 1.0], "the controllability matrix .* overflows"),  # A B
        ([[1e200, -1e200], [1.0, 1.0]], [1e200, 1e200], "the controllability matrix .* overflows"),  # inf - inf
        ([[1.0, 1.0], [0.0, 1.0]], [0.0, 1.5e308], "the controllability matrix .* overflows"),  # its norm
    ])
    def test_finite_inputs_that_overflow_name_the_overflow(self, A, B, message, capfd):
        """Each pair is controllable (the last C is finite with singular values inf and 9.3e307);
        before, the first returned a nan gain and the others were reported uncontrollable.
        LAPACK sees no inf: its error handler prints nothing."""
        with pytest.raises(ValueError, match=f"^{message}$"), np.errstate(over="ignore", invalid="ignore"):
            design_gain_matrix(A, B, [-1.0, -2.0])
        assert capfd.readouterr() == ("", "")

    @staticmethod
    def assert_coefficients_as_promised(A, B, poles):
        """The docstring's promise, with the closed loop's coefficients computed exactly."""
        K = design_gain_matrix(A, B, poles)
        want = np.poly(poles).real
        got = np.array(exact_char_poly((A - np.outer(B, K)).tolist()))
        C = np.array([np.linalg.matrix_power(A, j) @ B for j in range(len(B))]).T
        slack = 1e-10 * (np.abs(want) + np.linalg.norm(K) * np.linalg.norm(C, 2))
        assert (np.abs(got - want) <= slack).all()
        return np.abs(got - want) / np.abs(want)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_characteristic_coefficients_on_random_draws(self, n):
        rng = np.random.default_rng(2120 + n)
        rel = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no draw is ill-conditioned enough to warn
            for _ in range(200):
                A, B = rng.normal(size=(n, n)), rng.normal(size=n)
                rel.append(self.assert_coefficients_as_promised(A, B, -rng.uniform(0.5, 6.0, n)).max())
        assert np.median(rel) < 1e-12  # most placements are close to exact

    @staticmethod
    def textbook_ackermann(A, B, poles):
        """The np.poly, column_stack and np.linalg.solve form design_gain_matrix replaced, kept as
        its bit-for-bit oracle (Horner's phi(A) from zeros, each column of C one A @ product)."""
        coeffs = np.poly(np.asarray(poles, dtype=complex)).real
        cols = [B]
        for _ in range(len(B) - 1):
            cols.append(A @ cols[-1])
        C = np.column_stack(cols)
        phi = np.zeros(A.shape)
        for c in coeffs:
            phi = phi @ A + c * np.eye(len(B))
        e_n = np.zeros(len(B))
        e_n[-1] = 1.0
        return np.linalg.solve(C.T, e_n) @ phi

    def test_bit_identical_to_the_textbook_ackermann(self):
        """The design workload's placement draws, and the scenarios' 4x4 and 6x6 designs."""
        rng = np.random.default_rng(2130)
        cases = [(*scenarios._dip_design_matrices(), [-4.0] * 6),
                 (*scenarios._motorcycle_design_matrices(), [-2.5] * 4)]
        for n in workloads.PLACE_SIZES:
            for conjugate in (False, True):
                cases += [(*workloads._controllable_pair(rng, n), workloads._pole_set(rng, n, conjugate))
                          for _ in range(25)]
        cases += self.sparse_draws(np.random.default_rng(2131))
        for A, B, poles in cases:
            B = np.ravel(B)
            assert design_gain_matrix(A, B, poles).tobytes() == self.textbook_ackermann(A, B, poles).tobytes()

    @staticmethod
    def sparse_draws(rng):
        """Controllable pairs of small entries with signed zeros, where BLAS sums meet +-0.0: 60 dense
        draws per size 2 to 6, and 60 each on the zero patterns of sip_design_pair and the dip and
        motorcycle design models, their non-zero entries redrawn. Every other pair of pole sets is
        mirrored into the right half-plane, so c I adds -0.0 as well as +0.0 off the diagonal."""
        levels, nonzero = [0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5], [1.0, -1.0, 2.0, -3.0, 0.5]
        patterns = [(np.ones((n, n)), np.ones(n)) for n in range(2, 7)]
        patterns += [tuple(np.asarray(m) != 0 for m in pair) for pair in (
            sip_design_pair(1.0, 1.0), scenarios._dip_design_matrices(), scenarios._motorcycle_design_matrices())]
        draws = []
        for A_mask, B_mask in patterns:
            n, kept = len(B_mask), 0
            while kept < 60:
                A, B = (np.where(mask, rng.choice(levels if mask.all() else nonzero, size=mask.shape),
                                 rng.choice([0.0, -0.0], size=mask.shape)) for mask in (A_mask, B_mask))
                C = np.column_stack([np.linalg.matrix_power(A, i) @ B for i in range(n)])
                if np.linalg.cond(C) < 1e6:  # controllable, and no conditioning warning
                    poles = workloads._pole_set(rng, n, kept % 2 == 1) * (-1.0) ** (kept // 2)
                    draws.append((A, B, poles))
                    kept += 1
        return draws

    def test_identity_is_cached_read_only_per_size(self):
        """The identity Horner's phi(A) starts from is one read-only np.eye(n) per size, and a gain is
        the caller's own array: writing into it leaves the next call's bytes unchanged."""
        eye3, eye4 = synthesis._identity(3), synthesis._identity(4)
        assert synthesis._identity(3) is eye3 and synthesis._identity(4) is eye4
        assert eye3.tobytes() == np.eye(3).tobytes() and eye4.tobytes() == np.eye(4).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            eye3[0, 1] = 1.0
        A, B = scenarios._motorcycle_design_matrices()
        K = design_gain_matrix(A, B, [-2.5] * 4)
        first = K.tobytes()
        K[:] = np.nan
        assert design_gain_matrix(A, B, [-2.5] * 4).tobytes() == first
        assert synthesis._identity(4) is eye4 and eye4.tobytes() == np.eye(4).tobytes()

    def test_characteristic_coefficients_of_the_repeated_scenario_poles(self):
        """dip_smc's six poles at -4 are ill-conditioned roots, but their coefficients are not."""
        A, B = scenarios._dip_design_matrices()
        K = design_gain_matrix(A, B, [-4.0] * 6)
        assert np.abs(np.linalg.eigvals(A - np.outer(B, K)) + 4.0).max() > 1e-3
        assert self.assert_coefficients_as_promised(A, B, [-4.0] * 6).max() < 1e-13
        self.assert_coefficients_as_promised(*scenarios._motorcycle_design_matrices(), [-2.5] * 4)
        for theta in (0.0, math.pi / 4, THETA_MAX):
            self.assert_coefficients_as_promised(*sip_design_pair(*sip_frozen_coefficients(theta)),
                                                 [-4.0] * 3)


def exact_char_poly(m):
    """Descending coefficients of det(sI - m) for a float matrix m, each rounded once.

    m times a power of two is an integer matrix N, whose Faddeev-LeVerrier recursion stays
    in integers; the coefficient of s^(n-k) of m is N's divided by that power to the k.
    """
    n = len(m)
    shift = max(53 - math.frexp(v)[1] for row in m for v in row if v)
    N = [[int(math.ldexp(v, shift)) for v in row] for row in m]
    coeffs, Mk = [1], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        NM = [[sum(map(operator.mul, row, col)) for col in zip(*Mk)] for row in N]
        c = -sum(NM[i][i] for i in range(n)) // k  # exact: N's coefficients are integers
        coeffs.append(c)
        Mk = [[v + c * (i == j) for j, v in enumerate(row)] for i, row in enumerate(NM)]
    return [float(fractions.Fraction(c, 2 ** (shift * k))) for k, c in enumerate(coeffs)]


POLES3 = (-4.0, -4.0, -4.0)
C_OVERFLOWS = "the controllability matrix [B, AB, ..., A^(n-1) B] overflows"
K_OVERFLOWS = "the pole-placement gain overflows"
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


    @staticmethod
    def signed_zero_draw(rng, kind, n):
        """n roots, real or in exact conjugate pairs, whose parts are often +-0.0."""
        scale = 10.0 ** rng.integers(-2, 4)

        def part():
            return float(rng.choice([0.0, -0.0])) if rng.random() < 0.4 else float(rng.normal() * scale)

        roots = []
        if kind == "pairs":
            for _ in range(n // 2):
                r, w = part(), float(rng.uniform(0.1, 1.0) * scale)
                roots += [complex(r, w), complex(r, -w)]
        roots += [complex(part(), float(rng.choice([0.0, -0.0]))) for _ in range(n - len(roots))]
        return [roots[i] for i in rng.permutation(n)]

    @pytest.mark.parametrize("kind", ["real", "pairs"])
    def test_signed_zero_parts_bit_identical_to_np_poly(self, kind):
        """Compared by bytes, so the sign of every zero coefficient counts."""
        rng = np.random.default_rng(["real", "pairs"].index(kind) + 10)
        zeros = 0
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            roots = self.signed_zero_draw(rng, kind, n)
            ref = self.np_poly_reference(roots)
            got = synthesis._monic_coefficients(roots, n)
            assert got.tobytes() == ref.tobytes(), roots
            zeros += ref.tolist().count(0.0)
        assert zeros > 300  # all +0.0: np.poly's kernel sums from a zero start

    @staticmethod
    def complex_recurrence(roots):
        """The docstring's recurrence on (re, im) for every root, the form a real request skips."""
        re, im = [1.0], [0.0]
        for z in roots:
            wr, wi = -z.real, -z.imag
            new_re = [1.0] + [0.0 + ((ar + br * wr) - bi * wi) for ar, br, bi in zip(re[1:], re, im)]
            new_im = [0.0] + [0.0 + (br * wi + (ai + bi * wr)) for ai, br, bi in zip(im[1:], re, im)]
            new_re.append(0.0 + (re[-1] * wr - im[-1] * wi))
            new_im.append(0.0 + (re[-1] * wi + im[-1] * wr))
            re, im = new_re, new_im
        return np.array(re)

    def test_real_roots_bit_identical_to_np_poly_and_the_complex_recurrence(self):
        """Real requests with +0.0 and -0.0 imaginary parts, +-0.0 roots, and pairs r, -r whose
        coefficients cancel to zero; by bytes, so the sign of each zero counts."""
        rng = np.random.default_rng(34)
        zeros = 0
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, float(rng.normal() * 10.0 ** rng.integers(-3, 4))]
            real = [pool[i] for i in rng.integers(len(pool), size=n)]
            for i in range(0, n - 1, 2):
                if rng.random() < 0.4:
                    real[i + 1] = -real[i]
            roots = [complex(r, float(rng.choice([0.0, -0.0]))) for r in real]
            ref = self.np_poly_reference(roots)
            got = synthesis._monic_coefficients(roots, n)
            assert got.tobytes() == ref.tobytes() == self.complex_recurrence(roots).tobytes(), roots
            zeros += ref.tolist().count(0.0)
        assert zeros > 1000


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

    @pytest.mark.parametrize("a, b, poles, message", [
        (1e200, 1e200, POLES3, C_OVERFLOWS),  # a b
        (1.0, 1.5e308, POLES3, C_OVERFLOWS),  # s_hi
        (1e154, 1e154, POLES3, "(A, B) is not controllable"),  # s_hi +- s_lo overflow, s_hi does not
        (10.0, 1.0, (-1e110,) * 3, K_OVERFLOWS),  # c0
        (1e5, 1e-3, (-1e110,) * 3, K_OVERFLOWS),
    ])
    def test_overflows_match_ackermann(self, a, b, poles, message):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(lambda: sip_pole_gain(a, b, sip_coefficients(poles)))
            assert got == _outcome(lambda: design_gain_matrix(*sip_design_pair(a, b), poles))
        assert got == ("raise", message)

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

    def test_imaginary_axis_threshold_is_1e_9(self):
        """A = 0, M = 1, Q = q: Hamiltonian eigenvalues +-sqrt(q), and P = sqrt(q) when it solves."""
        with pytest.raises(ValueError, match="^Hamiltonian has eigenvalues on the imaginary axis$"):
            solve_care([[0.0]], [[1.0]], [[1e-20]])  # +-1e-10
        P = solve_care([[0.0]], [[1.0]], [[4e-18]])  # +-2e-9
        assert P.shape == (1, 1) and P[0, 0] == pytest.approx(2e-9, rel=1e-12)

    @staticmethod
    def vertex_care():
        """The (A, M, Q) that sip_robust_gain("vertex") hands to solve_care."""
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "solve_care", lambda *args: calls.append(args) or solve_care(*args))
            scenarios.sip_robust_gain("vertex")
        (args,) = calls
        return args

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_newton_step_with_a_non_finite_residual_is_not_taken(self, bad, monkeypatch):
        """A nan step once passed rnorm_next >= rnorm, so P became nan and eigvalsh failed."""
        A, M, Q = self.vertex_care()

        def lyapunov_fails(a, q):
            raise ValueError("array must not contain infs or NaNs")

        monkeypatch.setattr(synthesis, "_lyapunov", lyapunov_fails)
        P_ref = solve_care(A, M, Q)
        monkeypatch.setattr(synthesis, "_lyapunov", lambda a, q: np.full_like(q, bad))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P = solve_care(A, M, Q)
        assert np.array_equal(P, P_ref) and np.isfinite(P).all()
        if math.isnan(bad):  # an infinite step's residual meets inf * 0 in its matmuls
            assert not caught

    def test_newton_step_error_that_is_not_a_value_error_propagates(self, monkeypatch):
        """Only a failed solve (ValueError, numpy's LinAlgError included) ends the refinement."""
        A, M, Q = self.vertex_care()

        def lyapunov_misused(a, q):
            raise TypeError("an error in the code, not in the numbers")

        monkeypatch.setattr(synthesis, "_lyapunov", lyapunov_misused)
        with pytest.raises(TypeError, match="^an error in the code, not in the numbers$"):
            solve_care(A, M, Q)


def robust_op_lapack_inputs(n_ops):
    """Every Hamiltonian and Newton-step closed loop that solve_care hands to LAPACK on n_ops
    robust operations drawn as the design workload draws them, as (Hamiltonians, [(a, q), ...])."""
    hams, loops = [], []
    real_schur, lyapunov = synthesis._real_schur, synthesis._lyapunov

    def record_schur(a, sort):
        if sort:
            hams.append(a.copy())
        return real_schur(a, sort)

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
        T, Z, sdim = synthesis._real_schur(ham, 1)
        T_ref, Z_ref, sdim_ref = scipy.linalg.schur(ham, output="real", sort="lhp")
        assert sdim == sdim_ref
        assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)

    def test_stable_schur_equals_scipy_on_workload_hamiltonians(self, workload_inputs):
        for ham in workload_inputs[0]:
            self.assert_schur_matches_scipy(ham)

    def test_imaginary_axis_verdict_is_numpys_eigvals_rule(self, workload_inputs):
        """The Schur diagonal's verdict against the eigenvalues' real parts from np.linalg.eigvals."""
        rejected = 0
        for ham in workload_inputs[0]:
            n = ham.shape[0] // 2
            on_axis = np.abs(np.linalg.eigvals(ham).real).min() <= 1e-9
            try:
                solve_care(ham[:n, :n], -ham[:n, n:], -ham[n:, :n])
            except ValueError as e:
                assert on_axis == (str(e) == "Hamiltonian has eigenvalues on the imaginary axis")
            else:
                assert not on_axis
            rejected += on_axis
        assert 0 < rejected < len(workload_inputs[0])

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
                assert int(dgees(lambda re, im: None, a, lwork=-1)[-2][0]) == synthesis._dgees_lwork(n)

    def test_frobenius_is_numpys_norm(self, workload_inputs):
        """On the Newton steps' residuals and closed loops (a transposed view), and on random matrices."""
        matrices = [m for a, q in workload_inputs[1] for m in (a, q)]
        matrices += [m for a, q in self.random_inputs() for m in (a, q.T, 1e150 * a)]
        for m in matrices:
            assert synthesis._frobenius(m) == np.linalg.norm(m, "fro")

    def test_lyapunov_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            synthesis._lyapunov(np.array([[np.nan]]), np.eye(1))
        with pytest.raises(ValueError):
            synthesis._lyapunov(-np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))


def _fresh_python(code):
    """stdout of code run by a new interpreter that imports this checkout's ctrlkit."""
    src = str(pathlib.Path(synthesis.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_importing_ctrlkit_leaves_scipy_unloaded():
    loaded = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    assert _fresh_python("import sys, ctrlkit\n" + loaded) == "[]"
    # a Riccati solve loads the compiled LAPACK module alone, not the scipy.linalg package
    assert _fresh_python("import sys, ctrlkit\n"
                         "ctrlkit.sip_robust_gain('vertex')\n"
                         "print('scipy.linalg._flapack' in sys.modules, 'scipy.linalg' in sys.modules)"
                         ) == "True False"


class TestFlapackLoader:
    """synthesis._scipy_lapack hands out scipy.linalg.lapack's own dgees and dtrsyl, in either import order."""

    def test_same_kernels_as_scipy_linalg_lapack_loaded_after_ctrlkit(self):
        assert _fresh_python("import ctrlkit\n"
                             "ctrlkit.sip_robust_gain('vertex')\n"
                             "import scipy.linalg.lapack as lapack\n"
                             "flapack = ctrlkit.synthesis._scipy_lapack()\n"
                             "print(flapack.dgees is lapack.dgees, flapack.dtrsyl is lapack.dtrsyl)"
                             ) == "True True"

    def test_same_kernels_as_scipy_linalg_lapack_loaded_first(self):
        assert "scipy.linalg" in sys.modules
        flapack = synthesis._scipy_lapack()
        assert flapack is sys.modules["scipy.linalg._flapack"]
        assert flapack.dgees is scipy.linalg.lapack.dgees
        assert flapack.dtrsyl is scipy.linalg.lapack.dtrsyl

    def test_missing_module_names_the_directory_and_scipy_version(self, tmp_path, monkeypatch):
        import scipy
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        with pytest.raises(ImportError) as info:
            synthesis._scipy_lapack.__wrapped__()
        message = str(info.value)
        assert str(tmp_path / "linalg") in message
        assert f"scipy {scipy.__version__} " in message
        assert "_flapack" in message


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

    def test_float32_epsilon_gives_the_m_of_its_float_value(self, monkeypatch):
        """The scalars are read as floats once, so 1/epsilon is not rounded to float32."""
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        received = []
        monkeypatch.setattr(synthesis, "solve_care",
                            lambda A, M, Q: received.append(np.array(M)) or solve_care(A, M, Q))
        gains = []
        for scalar in (np.float32, lambda v: float(np.float32(v))):
            cfg = RobustConfig(a_bar=scalar(300.0), b_bar=scalar(300.0), epsilon=scalar(0.01),
                               Q=np.eye(3), R=[[0.01]])
            assert [type(v) for v in (cfg.a_bar, cfg.b_bar, cfg.epsilon)] == [float] * 3
            gains.append(robust_riccati_gain(A, B, pendulum_bounds(), cfg))
        assert received[0].tobytes() == received[1].tobytes()
        assert gains[0].tobytes() == gains[1].tobytes()

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
        ("Q", np.ones((3, 3, 3)), "Q must be 3x3, got shape (3, 3, 3)"),
        ("R", np.diag([0.01, 0.01]), "R must be 1x1, got shape (2, 2)"),
        ("R", [[0.01, 0.0]], "R must be 1x1, got shape (1, 2)"),
    ], ids=["A", "B", "dA_max", "dB_max", "Q", "Q-3d", "R", "R-not-square"])
    def test_rejects_a_matrix_of_the_wrong_shape(self, field, value, message):
        """numpy would broadcast each of these into a gain for some other problem."""
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        args = {"A": A, "B": B, "dA_max": pendulum_bounds().dA_max,
                "dB_max": pendulum_bounds().dB_max, "Q": np.eye(3), "R": [[0.01]], field: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as ei:  # RobustConfig itself rejects an R that is not 1x1
                bounds = UncertaintyBounds(args["dA_max"], args["dB_max"])
                cfg = RobustConfig(a_bar=300.0, b_bar=300.0, epsilon=0.01, Q=args["Q"], R=args["R"])
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

    @pytest.mark.parametrize("R, message", [
        ([[0.0]], "R must be positive definite"), ([[-1.0]], "R must be positive definite"),
        ([[np.nan]], "R must be positive definite"),
        ([[1.0, 0.0], [0.0, -1.0]], "R must be 1x1, got shape (2, 2)"),  # the shape is checked first
    ], ids=["zero", "negative", "nan", "indefinite"])
    def test_config_rejects_r_not_positive_definite(self, R, message):
        with pytest.raises(ValueError) as ei:
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=R)
        assert str(ei.value) == message

    def test_config_r_check_is_the_eigenvalue_test(self):
        """A 1x1 R passes iff it is finite and its eigvalsh eigenvalue is positive."""
        for r in (0.01, 1e300, 5e-324, 0.0, -0.0, -5e-324, -1.0, math.inf, -math.inf, math.nan):
            expected = math.isfinite(r) and np.linalg.eigvalsh([[r]])[0] > 0
            try:
                RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=[[r]])
                accepted = True
            except ValueError as exc:
                assert str(exc) == "R must be positive definite"
                accepted = False
            assert accepted == expected, r

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


def auxiliary_pair_numpy(bound, bar, bar_name, bound_name):
    """The numpy auxiliary matrices (bar * v v', bar * h h') for bound = bar * v h' that
    robust_riccati_gain formed before its float path, kept as the oracle of _rank_one_factors."""
    if not bound.any():
        return np.zeros((bound.shape[0],) * 2), np.zeros((bound.shape[1],) * 2)
    if bar == 0:
        raise ValueError(f"{bar_name} must be positive when {bound_name} is non-zero")
    w, h = nnmf_rank1(bound)
    v = w / bar
    return bar * np.multiply.outer(v, v), bar * np.multiply.outer(h, h)


def robust_numpy(A, B, bounds, cfg):
    """robust_riccati_gain's numpy form, the oracle of its float path: (M, Q_sigma, gain or
    CareNoSolution)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    eps = cfg.epsilon
    sigma_a, sigma_x = auxiliary_pair_numpy(bounds.dA_max, cfg.a_bar, "a_bar", "dA_max")
    sigma_b, sigma_y = auxiliary_pair_numpy(bounds.dB_max, cfg.b_bar, "b_bar", "dB_max")
    r_inv = 1.0 / (cfg.R + eps * sigma_y)
    M = B @ r_inv @ (2 * cfg.R + eps * sigma_y) @ r_inv @ B.T - sigma_a - (1 / eps) * sigma_b
    q_sigma = sigma_x + cfg.Q
    P = solve_care(A, M, q_sigma)
    return M, q_sigma, P if isinstance(P, CareNoSolution) else (P @ B @ r_inv).ravel()


def workload_robust_inputs(n_draws, seed):
    """(A, B, bounds, cfg) of n_draws robust operations drawn as the design workload draws them."""
    rng = np.random.default_rng(seed)
    A, B = workloads._nominal_pendulum()
    for _ in range(n_draws):
        theta = rng.uniform(0.3 * math.pi, 0.45 * math.pi)
        bar, eps = rng.uniform(200.0, 400.0), rng.uniform(0.005, 0.02)
        dA = np.zeros((3, 3))
        dA[1, 0] = abs(10.0 * math.sin(theta) / theta - 10.0)
        dB = np.zeros((3, 1))
        dB[1, 0] = abs(1.0 - math.cos(theta))
        yield A, B, UncertaintyBounds(dA, dB), RobustConfig(a_bar=bar, b_bar=bar, epsilon=eps,
                                                            Q=np.eye(3), R=[[0.01]])


class TestRobustFloatPath:
    """robust_riccati_gain's float assembly against its numpy form, compared by bytes so that
    signed zeros count: the rank-one auxiliaries, M, Q_sigma and the gain."""

    @staticmethod
    def outcome(call):
        try:
            return call()
        except ValueError as exc:  # the Hamiltonian test, on both paths alike
            return str(exc)

    def assert_matches_numpy(self, A, B, bounds, cfg, monkeypatch):
        """Returns the outcome kind; M and Q_sigma are read where solve_care receives them."""
        received = []
        monkeypatch.setattr(synthesis, "solve_care",
                            lambda A, M, Q: received.append((M, Q)) or solve_care(A, M, Q))
        got = self.outcome(lambda: robust_riccati_gain(A, B, bounds, cfg))
        monkeypatch.undo()
        ref = self.outcome(lambda: robust_numpy(A, B, bounds, cfg))
        if isinstance(ref, str):
            assert got == ref
            return "value_error"
        M, Q, ref = ref
        (got_M, got_Q), = received
        assert np.array(got_M).tobytes() == M.tobytes() and np.array(got_Q).tobytes() == Q.tobytes()
        if isinstance(ref, CareNoSolution):
            assert isinstance(got, CareNoSolution)
            for field in ("M", "Q", "p_eigenvalues"):
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
            return "no_solution"
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        return "gain"

    def test_numpy_matmul_sums_an_inner_dimension_of_one_from_positive_zero(self):
        """The fact the float path repeats with 0.0 + ...: a zero product is +0.0 after numpy's matmul."""
        product = np.array([[0.0]]) @ np.array([[-1.0]])
        assert product[0, 0] == 0.0 and math.copysign(1.0, product[0, 0]) == 1.0
        assert math.copysign(1.0, 0.0 * -1.0) == -1.0

    def test_workload_draws_match_numpy_byte_for_byte(self, monkeypatch):
        outcomes = collections.Counter(self.assert_matches_numpy(*args, monkeypatch)
                                       for args in workload_robust_inputs(300, 2001))
        assert outcomes["gain"] > 100 and outcomes["no_solution"] > 25

    def test_no_solution_m_keeps_numpy_positive_zeros(self):
        """B's zero entry makes zero products of the M chain; numpy's are +0.0, and so are M's."""
        for args in workload_robust_inputs(200, 2002):
            out = robust_riccati_gain(*args)
            if isinstance(out, CareNoSolution):
                zeros = out.M[out.M == 0.0]
                assert zeros.size and not np.signbit(zeros).any()
                break
        else:
            pytest.fail("no draw gave a CareNoSolution")

    def test_gain_entry_that_underflows_keeps_numpy_positive_zero(self, monkeypatch):
        """P B = -5e-31 times r_inv = 1e-300 underflows to -0.0; numpy's k = 1 matmul gives +0.0."""
        bounds = UncertaintyBounds(dA_max=[[0.0]], dB_max=[0.0])
        cfg = RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=[[1.0]], R=[[1e300]])
        assert self.assert_matches_numpy([[-1.0]], [-1e-30], bounds, cfg, monkeypatch) == "gain"
        (k,) = robust_riccati_gain([[-1.0]], [-1e-30], bounds, cfg)
        assert k == 0.0 and math.copysign(1.0, k) == 1.0

    @pytest.mark.parametrize("parametrization", ["vertex", "midpoint"])
    def test_sip_robust_gain_matches_numpy(self, parametrization, monkeypatch):
        calls = []
        monkeypatch.setattr(scenarios, "robust_riccati_gain",
                            lambda *args: calls.append(args) or robust_riccati_gain(*args))
        K = scenarios.sip_robust_gain(parametrization)
        monkeypatch.undo()
        (args,) = calls
        assert K.tobytes() == robust_numpy(*args)[2].tobytes()
        assert self.assert_matches_numpy(*args, monkeypatch) == "gain"

    @pytest.mark.parametrize("zero, bars", [
        ("dA_max", (0.0, 300.0)), ("dA_max", (300.0, 300.0)), ("dB_max", (300.0, 0.0)),
        ("dB_max", (300.0, 300.0)), ("both", (0.0, 0.0)), ("both", (1.0, 1.0)),
    ])
    def test_zero_bounds_and_zero_bars_match_numpy(self, zero, bars, monkeypatch):
        A, B = sip_design_pair(*sip_frozen_coefficients(0.0))
        bounds = pendulum_bounds()
        dA = np.zeros((3, 3)) if zero in ("dA_max", "both") else bounds.dA_max
        dB = np.zeros(3) if zero in ("dB_max", "both") else bounds.dB_max
        cfg = RobustConfig(a_bar=bars[0], b_bar=bars[1], epsilon=0.01, Q=np.eye(3), R=[[0.01]])
        assert self.assert_matches_numpy(A, B, UncertaintyBounds(dA, dB), cfg, monkeypatch) == "gain"

    def test_random_models_with_signed_zeros_match_numpy(self, monkeypatch):
        """Random n x n models, rank-one bounds and a B with +0.0 and -0.0 entries."""
        rng = np.random.default_rng(2003)
        outcomes = collections.Counter()
        for _ in range(150):
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=n)
            B[rng.random(n) < 0.4] = rng.choice([0.0, -0.0])
            dA = np.multiply.outer(rng.random(n), rng.random(n)) * (rng.random() < 0.8)
            dB = rng.random((n, 1)) * (rng.random() < 0.8)
            cfg = RobustConfig(a_bar=rng.uniform(0.5, 50.0), b_bar=rng.uniform(0.5, 50.0),
                               epsilon=rng.uniform(0.01, 1.0), Q=np.diag(rng.uniform(0.0, 2.0, n)),
                               R=[[rng.uniform(0.01, 1.0)]])
            outcomes[self.assert_matches_numpy(A, B, UncertaintyBounds(dA, dB), cfg, monkeypatch)] += 1
        assert outcomes["gain"] > 50 and outcomes["no_solution"] > 10

    def test_rank_one_factors_against_the_numpy_auxiliary_matrices(self):
        rng = np.random.default_rng(2004)
        for rows, cols in [(3, 3), (3, 1), (1, 1), (4, 2)]:
            for bar in (0.0, 0.7, 300.0):
                for bound in (np.zeros((rows, cols)), np.multiply.outer(rng.random(rows), rng.random(cols))):
                    try:
                        ref = auxiliary_pair_numpy(bound, bar, "a_bar", "dA_max")
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=f"^{exc}$"):
                            synthesis._rank_one_factors(bound, bar, "a_bar", "dA_max")
                        continue
                    v, h = synthesis._rank_one_factors(bound, bar, "a_bar", "dA_max")
                    assert len(v) == rows and len(h) == cols
                    got = (np.array([[bar * (v_i * v_j) for v_j in v] for v_i in v]),
                           np.array([[bar * (h_i * h_j) for h_j in h] for h_i in h]))
                    assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()

    def test_config_q_check_matches_numpy_near_its_tolerance(self):
        """The float tolerance and asymmetry test give numpy's verdict on the edge of 1e-12 max|Q|."""
        rng = np.random.default_rng(2005)
        verdicts = collections.Counter()
        for _ in range(300):
            n = int(rng.integers(1, 5))
            C = rng.normal(size=(n, n))
            Q = C @ C.T * 10.0 ** rng.integers(-3, 4)
            i, j = rng.integers(n, size=2)
            Q[i, j] += rng.choice([0.5, 1.0, 2.0]) * 1e-12 * np.abs(Q).max()
            tol = 1e-12 * np.abs(Q).max()
            expected = np.abs(Q - Q.T).max() <= tol and np.linalg.eigvalsh(Q)[0] >= -tol
            try:
                RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=Q, R=[[0.01]])
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected
            verdicts[accepted] += 1
        assert min(verdicts.values()) > 30


class TestRobustCertificate:
    """Quadratic stability over the uncertainty box, the robust synthesis' promise: with P the
    Riccati solution behind k, (A + sa dA - (B + sb dB) k')'P + P(...) is negative definite at
    the four vertices sa, sb in {-1, +1}.  The map is affine in (sa, sb), so its largest
    eigenvalue is convex and the vertices cover the box."""

    @staticmethod
    def certified(A, B, bounds, cfg, monkeypatch):
        """The largest eigenvalue of the certificate over the four vertices, or None when
        there is no gain; P is read where solve_care returns it."""
        solved = []
        monkeypatch.setattr(synthesis, "solve_care",
                            lambda *args: solved.append(solve_care(*args)) or solved[-1])
        try:
            K = robust_riccati_gain(A, B, bounds, cfg)
        except ValueError:
            return None
        finally:
            monkeypatch.undo()
        if isinstance(K, CareNoSolution):
            return None
        (P,) = solved
        A, B = np.array(A, dtype=float, ndmin=2), np.asarray(B, dtype=float).ravel()
        dA, dB = bounds.dA_max, bounds.dB_max.ravel()
        worst = -math.inf
        for sa, sb in itertools.product((-1.0, 1.0), repeat=2):
            closed = A + sa * dA - np.outer(B + sb * dB, K)
            worst = max(worst, np.linalg.eigvalsh(closed.T @ P + P @ closed)[-1])
        return worst

    @staticmethod
    def scenario_riccati(parametrization, monkeypatch):
        """The scenario's robust gain and the Riccati solution P behind it, read where
        solve_care returns it."""
        solved = []
        monkeypatch.setattr(synthesis, "solve_care",
                            lambda *args: solved.append(solve_care(*args)) or solved[-1])
        K = scenarios.sip_robust_gain(parametrization)
        monkeypatch.undo()
        (P,) = solved
        return K, P

    @staticmethod
    def scenario_design(parametrization, monkeypatch):
        calls = []
        monkeypatch.setattr(scenarios, "robust_riccati_gain",
                            lambda *args: calls.append(args) or robust_riccati_gain(*args))
        scenarios.sip_robust_gain(parametrization)
        monkeypatch.undo()
        (args,) = calls
        return args

    @pytest.mark.parametrize("parametrization", ["vertex", "midpoint"])
    def test_scenario_gains_hold_the_certificate(self, parametrization, monkeypatch):
        worst = self.certified(*self.scenario_design(parametrization, monkeypatch), monkeypatch)
        assert worst < 0

    def test_workload_draws_hold_the_certificate(self, monkeypatch):
        worst = [self.certified(*args, monkeypatch) for args in workload_robust_inputs(300, 2003)]
        gains = [w for w in worst if w is not None]
        assert len(gains) > 200 and max(gains) < 0

    @pytest.mark.parametrize("sid, parametrization", [("sip_robust_riccati", "vertex"),
                                                      ("sip_robust_riccati_midpoint", "midpoint")])
    def test_lyapunov_function_never_rises_along_the_first_phase(self, sid, parametrization, monkeypatch):
        """The certificate on the nonlinear pendulum: theta'' = a(theta) theta + b(theta) u with
        (a, b) in the box while |theta| <= 0.4 pi, so V = z'Pz with z = (theta, theta_dot, x_dot)
        falls along the default run's first phase, which lasts while theta^2 + theta_dot^2 +
        x_dot^2 > 1; the run must also keep |theta| <= 0.4 pi there, the certificate's hypothesis."""
        K, P = self.scenario_riccati(parametrization, monkeypatch)
        traj, report = run_cached(sid)
        assert np.array_equal(report.gain_matrices_used[0], K)
        z = np.array(traj.states)[:, [0, 1, 3]]
        steps = next(i for i, z_i in enumerate(z.tolist()) if sum(v * v for v in z_i) <= 1.0)
        assert steps > 2000  # the phase's steps go from z[i] to z[i + 1], i < steps
        V = np.einsum("ij,jk,ik->i", z[:steps + 1], P, z[:steps + 1])
        assert (np.diff(V) <= 0).all()
        assert np.abs(z[:steps + 1, 0]).max() <= THETA_MAX

    @pytest.mark.parametrize("parametrization, level, ratio", [("vertex", 74.83, 43.11),
                                                               ("midpoint", 15.72, 51.35)])
    def test_start_lies_outside_the_certified_level_set(self, parametrization, level, ratio, monkeypatch):
        """The README's reading of "covers |theta| <= 0.4 pi": the largest level set {V <= c}
        inside the box has c = (0.4 pi)^2 / (P^-1)_11, and V(x0) is 43x (vertex) and 51x
        (midpoint) that level, so the start is not certified."""
        _, P = self.scenario_riccati(parametrization, monkeypatch)
        c = THETA_MAX ** 2 / np.linalg.inv(P)[0, 0]
        theta, theta_dot, _, x_dot = scenarios._SIP_X0
        z0 = np.array([theta, theta_dot, x_dot])
        assert c == pytest.approx(level, rel=1e-3)
        assert z0 @ P @ z0 / c == pytest.approx(ratio, rel=1e-3)

    @pytest.mark.parametrize("parametrization", ["vertex", "midpoint"])
    def test_frozen_pendulum_models_lie_in_the_box(self, parametrization, monkeypatch):
        """a(theta) = G sin(theta)/theta and b(theta) = -cos(theta) for |theta| <= 0.4 pi: the
        deviation from the nominal pair sits in the (2, 1) and (2) entries the bounds cover."""
        A, B, bounds, _ = self.scenario_design(parametrization, monkeypatch)
        dA, dB = bounds.dA_max, bounds.dB_max.ravel()
        assert np.count_nonzero(dA) == 1 and np.count_nonzero(dB) == 1
        for theta in np.linspace(-THETA_MAX, THETA_MAX, 201).tolist() + [THETA_MAX, -THETA_MAX]:
            A_theta, B_theta = sip_design_pair(*sip_frozen_coefficients(theta))
            assert (np.abs(A_theta - A) <= dA).all() and (np.abs(B_theta - B.ravel()) <= dB).all()


class TestEmptyInputsFailAtTheBoundary:
    """A 0x0 model, Q or R raises a ValueError naming it, not a bare reduction or index error."""

    def test_solve_care(self):
        with pytest.raises(ValueError, match=r"^A must not be empty, got shape \(0, 0\)$"):
            solve_care(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)))

    def test_design_gain_matrix(self):
        with pytest.raises(ValueError, match=r"^A must not be empty, got shape \(0, 0\)$"):
            design_gain_matrix(np.zeros((0, 0)), np.zeros(0), [])

    @pytest.mark.parametrize("field", ["Q", "R"])
    def test_robust_config(self, field):
        args = {"Q": np.eye(3), "R": [[0.01]], field: np.zeros((0, 0))}
        with pytest.raises(ValueError, match=rf"^{field} must not be empty, got shape \(0, 0\)$"):
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, **args)


@pytest.mark.parametrize("call, message", [
    (lambda: least_squares(np.ones(3), np.ones(3)), "design must be a 2-D matrix"),
    (lambda: least_squares(np.eye(3, 2), np.ones(2)), "target length must match design row count"),
    (lambda: nnmf_rank1(np.ones(3)), "input must be a 2-D matrix"),
    (lambda: qp_small(np.eye(2), np.ones(3)), "H must be square and match len(c)"),
    (lambda: qp_small(np.eye(2), np.ones(2), np.ones((1, 3)), [1.0]), "constraint shapes are inconsistent"),
    (lambda: IntervalPoly([1.0, 1.0], [1.0, 1.0, 1.0]), "coefficient intervals must have equal degree"),
    (lambda: IntervalPoly([], []), "an interval polynomial needs at least one coefficient"),
    (lambda: IntervalPoly([2.0, 1.0], [1.0, 1.0]), "lower must be coefficient-wise <= upper"),
    (lambda: design_gain_matrix(np.eye(2), np.ones(3), [-1.0, -2.0]), "A must be n x n and B length n"),
    (lambda: scenarios.sip_robust_gain("corner"), "unknown parametrization 'corner'"),
], ids=["least_squares-1d", "lstsq-target", "nnmf-1d", "qp-H", "qp-constraints", "interval-degree",
        "interval-empty", "interval-order", "place-shape", "robust-parametrization"])
def test_shape_and_domain_checks_name_the_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestNonFiniteInputsFailAtTheBoundary:
    """A nan or infinite input raises a ValueError naming it, not a nan result or a LAPACK error."""

    @pytest.mark.parametrize("field", ["a_bar", "b_bar", "epsilon"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_robust_config_scalars(self, field, bad):
        args = {"a_bar": 300.0, "b_bar": 300.0, "epsilon": 0.01, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            RobustConfig(**args, Q=np.eye(3), R=[[0.01]])

    @pytest.mark.parametrize("field", ["a_bar", "b_bar", "epsilon"])
    def test_robust_config_scalars_that_are_not_one_number(self, field):
        for bad, count in (([300.0, 1.0], 2), (np.zeros(0), 0)):
            args = {"a_bar": 300.0, "b_bar": 300.0, "epsilon": 0.01, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be a single number, got {count} entries$"):
                RobustConfig(**args, Q=np.eye(3), R=[[0.01]])

    @pytest.mark.parametrize("R, message", [
        ([[np.inf]], "R must be positive definite"),
        (np.diag([np.inf, 1.0]), "R must be 1x1, got shape (2, 2)"),
    ], ids=["1x1", "2x2"])
    def test_robust_config_infinite_r(self, R, message):
        with pytest.raises(ValueError) as ei:
            RobustConfig(a_bar=1.0, b_bar=1.0, epsilon=0.01, Q=np.eye(3), R=R)
        assert str(ei.value) == message

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

    @pytest.mark.parametrize("K, count", [([5.0], 1), ([-110.0, -50.0], 2), ([-110.0, -50.0, -10.0, 1.0], 4)],
                             ids=["one", "two", "four"])
    def test_region_gain_without_three_entries(self, K, count):
        """Once Python's "not enough/too many values to unpack"."""
        a_lo, a_hi, b_lo, b_hi = workloads.REGION
        for check in (lambda: sip_region_feasible(K, *workloads.REGION),
                      lambda: sip_region_bounds(K, a_hi, b_lo)):
            with pytest.raises(ValueError, match=f"^K must have 3 entries, got {count}$"):
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

    def test_empty_gain(self):
        """Once numpy's "input must be 1d or non-empty square 2d array." from np.poly."""
        with pytest.raises(ValueError, match="^K must not be empty$"):
            vertex_interval_char_poly([np.zeros((0, 0))], [np.zeros(0)], [])
        with pytest.raises(ValueError, match="^K must not be empty$"):  # before the families are read
            vertex_interval_char_poly(None, None, np.zeros(0))


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

    def test_region_op_matches_the_checked_calls_on_signed_zero_gains(self):
        """The design workload's region op, K checked once per public call: its box (bytes), an
        IntervalPoly equal to one built with every check, and both verdicts as the checked calls give them."""
        a_lo, a_hi, b_lo, b_hi = workloads.REGION
        A_family = [np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]) for a in (a_lo, a_hi)]
        B_family = [np.array([0.0, -b, 1.0]) for b in (b_lo, b_hi)]
        rng = np.random.default_rng(2006)
        verdicts = collections.Counter()
        for i in range(600):
            K = rng.uniform(-200.0, 5.0, size=3)
            if i % 2:
                K[rng.random(3) < 0.3] = rng.choice([0.0, -0.0])
            ip = self.assert_box_matches_numpy(A_family, B_family, K)
            checked = IntervalPoly(*self.vertex_box_numpy(A_family, B_family, K))
            assert ip == checked and repr(ip) == repr(checked) and hash(ip) == hash(checked)
            assert all(type(v) is float for v in ip.lower + ip.upper)
            stable = interval_poly_stable(ip)
            assert stable == interval_poly_stable(checked)
            k1_bound = sip_region_bounds(K, a_hi, b_lo)[1]
            feasible = sip_region_feasible(K, *workloads.REGION)
            assert feasible == (k1_bound is not None and K[0] < k1_bound) == stable
            verdicts[feasible] += 1
        assert min(verdicts.values()) > 20
        with pytest.raises(dataclasses.FrozenInstanceError):
            ip.lower = ()

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

    @pytest.mark.parametrize("K, message", [
        ([5.0], "^K must have 3 entries, got 1$"),
        ([-110.0, -50.0], "^K must have 3 entries, got 2$"),
        ([-110.0, -50.0, -10.0, 1.0], "^K must have 3 entries, got 4$"),
        ([-110.0, np.nan, -10.0], "^K must be finite$"),
        ([-110.0, -50.0, -np.inf], "^K must be finite$"),
    ], ids=["one", "two", "four", "nan", "inf"])
    def test_rejects_a_gain_that_is_not_three_finite_entries(self, K, message):
        """Once a 1-entry K was broadcast into eigenvalues, and a 2-entry or nan K failed inside numpy."""
        with pytest.raises(ValueError, match=message):
            eig_sweep(K, [0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_angle(self, bad):
        """Checked at the boundary, before a row is computed: LAPACK is handed finite matrices only."""
        with pytest.raises(ValueError, match="^theta_grid must be finite$"):
            eig_sweep([-110.0, -50.0, -10.0], [0.1, bad])

    def test_rows_bit_identical_to_the_numpy_sort(self):
        """The float sort against np.argsort(-np.abs(re), kind="stable"), on the table gains and ±0 gains."""
        grid = [math.radians(d) for d in range(-72, 73)] + [0.0, -0.0, 1.5]
        rng = np.random.default_rng(2007)
        gains = [scenarios.sip_robust_gain("vertex"), scenarios.sip_interval_gain()]
        gains += [np.where(rng.random(3) < 0.3, 0.0, rng.uniform(-200.0, 5.0, 3)) for _ in range(20)]
        for K in gains:
            for (theta, re), theta_ref in zip(eig_sweep(K, grid), grid):
                A, B = sip_design_pair(*sip_frozen_coefficients(theta_ref))
                ref = np.linalg.eigvals(A - np.outer(B, K)).real
                order = np.argsort(-np.abs(ref), kind="stable")
                assert theta == theta_ref and re.tobytes() == ref[order].tobytes()

    def test_grid_passthrough(self):
        rows = eig_sweep([-110.0, -50.0, -10.0], [0.1, 0.2])
        assert [r[0] for r in rows] == [0.1, 0.2]
