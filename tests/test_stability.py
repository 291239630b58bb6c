"""Tests for interval polynomials, Routh arrays, Kharitonov vertices, and
eigenvalue-perturbation bounds."""

import collections
import itertools
import math
import struct

import numpy as np
import pytest

from ctrlkit import (
    IntervalPoly,
    bauer_fike_check,
    interval_poly_stable,
    routh_stable,
    sip_closed_loop_perturbation,
)
from ctrlkit import stability
from ctrlkit.models import sip_factored_model


def roots_stable(ascending):
    r = np.roots(np.asarray(ascending, dtype=float)[::-1])
    return bool(np.all(r.real < 0))


class TestIntervalTypes:
    def test_interval_poly_rejects_zero_spanning_leading_coeff(self):
        with pytest.raises(ValueError):
            IntervalPoly(lower=[1.0, 2.0, -0.5], upper=[2.0, 3.0, 0.5])

    def test_interval_poly_accepts_negative_leading_interval(self):
        ip = IntervalPoly(lower=[1.0, 1.0, -2.0], upper=[2.0, 2.0, -1.0])
        assert ip.upper[-1] == -1.0

    def test_interval_poly_keeps_tuples_of_floats(self):
        ip = IntervalPoly(lower=np.array([1, 2, 1]), upper=(2.0, np.float64(3.0), 1))
        assert ip.lower == (1.0, 2.0, 1.0) and ip.upper == (2.0, 3.0, 1.0)
        assert all(type(v) is float for v in ip.lower + ip.upper)

    def test_interval_poly_does_not_alias_the_callers_list(self):
        lower = [1.0, 2.0, 1.0]
        ip = IntervalPoly(lower=lower, upper=[2.0, 3.0, 2.0])
        lower[0] = 5.0
        assert type(ip.lower) is tuple and ip.lower == (1.0, 2.0, 1.0)

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_interval_poly_rejects_non_finite_bounds(self, field, bad):
        bounds = {"lower": [-1.0, -1.0, -1.0, 1.0], "upper": [1.0, 1.0, 1.0, 1.0]}
        bounds[field][1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            IntervalPoly(**bounds)


class TestRouthStable:
    def test_known_stable_cubic(self):
        # (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
        res = routh_stable([6.0, 11.0, 6.0, 1.0])
        assert res.stable
        assert not res.degenerate
        assert all(v > 0 for v in res.first_column)

    def test_known_unstable_cubic(self):
        # s^3 + s^2 + s + 2 has a sign change in the first column
        res = routh_stable([2.0, 1.0, 1.0, 1.0])
        assert not res.stable
        assert not roots_stable([2.0, 1.0, 1.0, 1.0])

    def test_negative_leading_coefficient_is_normalized(self):
        assert routh_stable([-6.0, -11.0, -6.0, -1.0]).stable

    def test_trailing_zero_coefficients_are_trimmed(self):
        full = routh_stable([6.0, 11.0, 6.0, 1.0])
        padded = routh_stable([6.0, 11.0, 6.0, 1.0, 0.0, 0.0])
        assert padded.stable == full.stable
        assert padded.first_column == full.first_column

    def test_callers_list_is_left_unchanged(self):
        p = [1.0, 2.0, 1.0, 0.0]
        assert routh_stable(p).stable
        assert p == [1.0, 2.0, 1.0, 0.0]

    def test_zero_pivot_marks_degenerate(self):
        # s^4 + s^3 + 2 s^2 + 2 s + 1 zeroes the third-row pivot
        res = routh_stable([1.0, 2.0, 2.0, 1.0, 1.0])
        assert res.degenerate
        assert not res.stable

    def test_constant_polynomial_rejected(self):
        with pytest.raises(ValueError):
            routh_stable([5.0])
        with pytest.raises(ValueError):
            routh_stable([0.0, 0.0])

    def test_agrees_with_root_computation(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            deg = int(rng.integers(2, 7))
            c = rng.uniform(-2.0, 2.0, size=deg + 1)
            if abs(c[-1]) < 0.1:
                continue
            r = np.roots(c[::-1])
            if np.abs(r.real).min() < 1e-6:
                continue  # too close to the imaginary axis to trust either side
            assert routh_stable(c).stable == bool(np.all(r.real < 0))
            checked += 1


def routh_numpy(p):
    """The numpy Routh array routh_stable replaced, kept as its bit-for-bit oracle.

    (stable, first_column, degenerate) or the ValueError message.
    """
    c = np.atleast_1d(np.asarray(p, dtype=float)).ravel()
    while c.size and c[-1] == 0.0:
        c = c[:-1]
    if c.size == 0:
        return "zero polynomial has no Routh array"
    if c.size == 1:
        return "degree must be at least 1"
    if c[-1] != 1.0:
        c = c / c[-1]
    d = c[::-1]
    n = d.size - 1
    width = (n + 2) // 2
    rows = np.zeros((n + 1, width))
    rows[0, : (n + 2) // 2] = d[0::2]
    rows[1, : (n + 1) // 2] = d[1::2]
    degenerate = False
    for i in range(2, n + 1):
        pivot = rows[i - 1, 0]
        if abs(pivot) < 1e-12:
            degenerate = True
            break
        for j in range(width - 1):
            rows[i, j] = (pivot * rows[i - 2, j + 1] - rows[i - 2, 0] * rows[i - 1, j + 1]) / pivot
    first_column = [float(v) for v in rows[:, 0]]
    return (not degenerate) and all(v > 0 for v in first_column), first_column, degenerate


def routh_draws(n_draws):
    """Degrees 1-6: uniform and small-integer coefficients (exact zero pivots), with
    signed zeros, nan, pivots just under 1e-12 and trailing zeros mixed in."""
    rng = np.random.default_rng(1701)
    specials = np.array([0.0, -0.0, np.nan, 5e-13, -5e-13, 1.0, -1.0])
    for _ in range(n_draws):
        deg = int(rng.integers(1, 7))
        if rng.random() < 0.4:
            c = rng.integers(-2, 3, size=deg + 1).astype(float)
        else:
            c = rng.uniform(-3.0, 3.0, size=deg + 1)
        mask = rng.random(deg + 1) < 0.15
        c[mask] = rng.choice(specials, size=mask.sum())
        if rng.random() < 0.15:
            c = np.concatenate([c, rng.choice([0.0, -0.0], size=int(rng.integers(1, 3)))])
        yield c


def cubic_draws(n_draws):
    """Cubics only, for routh_stable's written-out eliminations: a leading coefficient of
    either sign; a2, or r2 = (a2*a1 - a3*a0)/a2 by the choice of a1, set under, on or just
    over the 1e-12 pivot bound in magnitude, of either sign; signed zeros, nan and
    infinities mixed in."""
    rng = np.random.default_rng(2803)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    near_pivot = np.array([5e-13, 1e-12, 2e-12])
    for _ in range(n_draws):
        if rng.random() < 0.3:
            c = rng.integers(-2, 3, size=4).astype(float)
        else:
            c = rng.uniform(-3.0, 3.0, size=4)
        kind = rng.random()
        if kind < 0.25:
            c[2] = rng.choice(near_pivot) * rng.choice([-1.0, 1.0])
        elif kind < 0.5 and c[2] != 0.0:
            r2 = rng.choice(near_pivot) * rng.choice([-1.0, 1.0])
            c[1] = (c[3] * c[0] + c[2] * r2) / c[2]
        mask = rng.random(4) < 0.1
        c[mask] = rng.choice(specials, size=mask.sum())
        if c[3] == 0.0:  # keep it a cubic
            c[3] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        yield c


def packed(first_column):
    return struct.pack(f"<{len(first_column)}d", *first_column)


class TestRouthFloatPath:
    """routh_stable on Python floats against the numpy array it replaced, bit for bit."""

    def test_bit_identical_to_the_numpy_routh_array(self):
        seen = collections.Counter()
        for c in routh_draws(800):
            ref = routh_numpy(c)
            for arg in (c, c.tolist()):  # an array and a list of floats take different conversions
                if isinstance(ref, str):
                    with pytest.raises(ValueError, match=f"^{ref}$"):
                        routh_stable(arg)
                    seen["raise"] += 1
                    continue
                got = routh_stable(arg)
                assert (got.stable, got.degenerate) == (ref[0], ref[2])
                assert all(type(v) is float for v in got.first_column)
                assert packed(got.first_column) == packed(ref[1])
                seen["stable"] += got.stable
                seen["degenerate"] += got.degenerate
                seen["nan"] += any(math.isnan(v) for v in got.first_column)
                seen["negative leading"] += bool(c[np.flatnonzero(c)[-1]] < 0)
                seen["signed zero"] += any(math.copysign(1.0, v) < 0 and v == 0 for v in got.first_column)
        assert min(seen.values()) > 30, seen

    def test_cubic_closed_form_bit_identical_to_the_numpy_routh_array(self):
        """The written-out cubic eliminations against the numpy array.

        Catches, for example, r3 without its a2*0.0: for a negative a2 and a
        zero a0 the difference keeps a -0.0 where numpy's has +0.0.
        """
        seen = collections.Counter()
        for c in cubic_draws(1500):
            with np.errstate(all="ignore"):  # inf - inf and 0 * inf in numpy's rows
                ref = routh_numpy(c)
            for arg in (c, c.tolist()):
                got = routh_stable(arg)
                assert (got.stable, got.degenerate) == (ref[0], ref[2])
                assert all(type(v) is float for v in got.first_column)
                assert packed(got.first_column) == packed(ref[1])
                seen["stable"] += got.stable
                seen["degenerate"] += got.degenerate
                seen["nan"] += any(math.isnan(v) for v in got.first_column)
                seen["infinite entry"] += bool(np.isinf(c).any())
                seen["negative leading"] += bool(c[3] < 0)
                seen["signed zero"] += any(math.copysign(1.0, v) < 0 and v == 0 for v in got.first_column)
                for name, v in (("a2", got.first_column[1]), ("r2", got.first_column[2])):
                    if 1e-13 < abs(v) < 1e-11:
                        side = "under" if abs(v) < 1e-12 else "on or over"
                        seen[f"{name} {side} the bound, {'+' if v > 0 else '-'}"] += 1
        assert len(seen) == 14 and min(seen.values()) >= 30, seen

    def test_named_cases_match_the_numpy_routh_array(self):
        for c in ([1.0, 2.0, 2.0, 1.0, 1.0], [-6.0, -11.0, -6.0, -1.0], [6.0, 11.0, 6.0, 1.0, 0.0, -0.0],
                  [np.nan, 1.0, 1.0, 1.0], [1.0, np.nan, 1.0], [-0.0, 1.0], [2.0, -0.0, 1.0]):
            got, ref = routh_stable(c), routh_numpy(c)
            assert (got.stable, got.degenerate, packed(got.first_column)) == (ref[0], ref[2], packed(ref[1]))
        # (s+1)(s+2)(s+3) at any scale: times 1e160 a2*a1 once overflowed, and times 1e-170 every
        # pivot once fell under the absolute 1e-12 bound
        for k in (1.0, 1e160, 1e-170, -1.0, -1e160):
            c = [6.0 * k, 11.0 * k, 6.0 * k, k]
            got, ref = routh_stable(c), routh_numpy(c)
            assert (got.stable, got.degenerate, got.first_column) == (True, False, [1.0, 6.0, 10.0, 6.0])
            assert (got.stable, got.degenerate, packed(got.first_column)) == (ref[0], ref[2], packed(ref[1]))


class TestKharitonov:
    def test_four_vertex_polynomials_cubic(self):
        ip = IntervalPoly(lower=np.ones(4), upper=np.full(4, 2.0))
        k1, k2, k3, k4 = stability._kharitonov(ip.lower, ip.upper)
        assert np.array_equal(k1, [1.0, 1.0, 2.0, 2.0])
        assert np.array_equal(k2, [1.0, 2.0, 2.0, 1.0])
        assert np.array_equal(k3, [2.0, 1.0, 1.0, 2.0])
        assert np.array_equal(k4, [2.0, 2.0, 1.0, 1.0])

    def test_patterns_repeat_with_period_four(self):
        ip = IntervalPoly(lower=np.ones(8), upper=np.full(8, 2.0))
        k1 = next(stability._kharitonov(ip.lower, ip.upper))
        assert np.array_equal(k1[:4], k1[4:])

    def test_vertex_result_matches_exhaustive_corner_search(self):
        rng = np.random.default_rng(23)
        disagreements = 0
        for _ in range(60):
            deg = int(rng.integers(2, 6))
            center = rng.uniform(0.5, 6.0, size=deg + 1)
            spread = rng.uniform(0.0, 0.8, size=deg + 1)
            lo = center - spread
            hi = center + spread
            lo[-1] = max(lo[-1], 0.05)
            hi[-1] = max(hi[-1], lo[-1])
            ip = IntervalPoly(lower=lo, upper=hi)
            corners = all(
                routh_stable(np.array(corner)).stable
                for corner in itertools.product(*zip(lo, hi))
            )
            if interval_poly_stable(ip) != corners:
                disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize("lower, upper, first_unstable", [
        ([3.0, 5.0, 2.0, 5.0], [5.0, 5.0, 3.0, 7.0], 1),
        ([-3.0, -5.0, -3.0, -4.0], [-3.0, -3.0, -3.0, -3.0], 2),
        ([5.0, 4.0, 5.0, 3.0], [6.0, 6.0, 7.0, 4.0], 3),
        ([2.0, 5.0, 7.0, 3.0, 3.0], [2.0, 5.0, 7.0, 4.0, 4.0], 4),  # a cubic's K4 never fails first
        ([4.0, 9.0, 5.0, 0.9], [8.0, 13.0, 7.0, 1.1], None),
    ], ids=["K1", "K2", "K3", "K4", "none"])
    def test_tests_in_order_and_stops_at_the_first_unstable_vertex(self, monkeypatch, lower, upper,
                                                                   first_unstable):
        """Each Routh test goes through the module attribute, which the benchmark's tracer wraps."""
        ip = IntervalPoly(lower=lower, upper=upper)
        verdicts = [routh_stable(k).stable for k in stability._kharitonov(ip.lower, ip.upper)]
        expected = [True] * 4 if first_unstable is None else [True] * (first_unstable - 1) + [False]
        assert verdicts[:len(expected)] == expected
        tested = []

        def counted(p):
            tested.append(list(p))
            return routh_stable(p)

        monkeypatch.setattr(stability, "routh_stable", counted)
        assert interval_poly_stable(ip) is (first_unstable is None)
        assert tested == list(stability._kharitonov(ip.lower, ip.upper))[:len(expected)]

    def test_stable_box_implies_stable_interior_samples(self):
        ip = IntervalPoly(lower=[4.0, 9.0, 5.0, 0.9], upper=[8.0, 13.0, 7.0, 1.1])
        assert interval_poly_stable(ip)
        rng = np.random.default_rng(7)
        for _ in range(50):
            sample = rng.uniform(ip.lower, ip.upper)
            assert routh_stable(sample).stable


class TestBauerFike:
    def test_normal_matrix_radius_equals_perturbation_norm(self):
        Ac0 = np.diag([-1.0, -2.0, -3.0])
        delta = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
        radius, holds = bauer_fike_check(Ac0, delta)
        assert holds
        assert radius == pytest.approx(0.1, rel=1e-9)

    def test_radius_is_eigenvector_condition_times_spectral_norm(self):
        """cond(S) * ||deltaAc||_2 on a non-normal Ac0, where the Frobenius norm is sqrt(2) larger."""
        Ac0 = np.array([[-1.0, 2.0], [0.0, -3.0]])
        delta = np.array([[0.1, 0.05], [-0.05, 0.1]])  # two equal singular values
        S = np.array([[1.0, 1.0], [0.0, -1.0]]) / [1.0, math.sqrt(2.0)]  # unit eigenvectors
        kappa = np.linalg.cond(S, 2)
        assert kappa > 2.0
        assert np.linalg.norm(delta, "fro") > 1.4 * np.linalg.norm(delta, 2)
        radius, holds = bauer_fike_check(Ac0, delta)
        assert holds
        assert radius == pytest.approx(kappa * np.linalg.norm(delta, 2), rel=1e-12)

    def test_containment_holds_for_random_diagonalizable_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            Ac0 = rng.normal(size=(n, n))
            delta = 0.05 * rng.normal(size=(n, n))
            radius, holds = bauer_fike_check(Ac0, delta)
            assert holds
            assert radius >= 0.0

    def test_near_defective_matrix_warns(self):
        Ac0 = np.array([[0.0, 1.0], [0.0, 1e-9]])
        with pytest.warns(UserWarning):
            bauer_fike_check(Ac0, np.zeros((2, 2)))

    @pytest.mark.parametrize("Ac0, delta", [
        (np.ones((2, 3)), np.ones((2, 3))),  # not square
        (np.ones(3), np.ones(3)),  # not a matrix
        (np.eye(2), np.ones((3, 3))),  # sizes differ
        (np.eye(2), np.ones(2)),  # a row, which broadcasting would have accepted
        (np.ones((2, 2, 2)), np.ones((2, 2, 2))),  # a stack
    ])
    def test_rejects_matrices_that_are_not_square_of_one_size(self, Ac0, delta):
        with pytest.raises(ValueError, match="^Ac0 and deltaAc must be square matrices of the same size$"):
            bauer_fike_check(Ac0, delta)

    @pytest.mark.parametrize("name", ["Ac0", "deltaAc"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected_before_lapack(self, name, bad, monkeypatch):
        mats = {"Ac0": -np.eye(4), "deltaAc": 1e-3 * np.ones((4, 4))}
        mats[name][1, 0] = bad
        monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("LAPACK reached"))
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            bauer_fike_check(mats["Ac0"], mats["deltaAc"])


class TestSipPerturbation:
    def test_zero_angle_gives_zero_matrix(self):
        K = np.array([-131.6, -41.6, -25.6, -25.6])
        assert np.array_equal(sip_closed_loop_perturbation(0.0, K), np.zeros((4, 4)))

    def test_matches_factored_model_difference_beyond_guard(self):
        K = np.array([-131.6, -41.6, -25.6, -25.6])
        A0, B0 = sip_factored_model(0.0)
        Ac0 = A0 - np.outer(B0, K)
        for theta in (0.1, 0.3, 0.7, 1.2, -0.5):
            A, B = sip_factored_model(theta)
            Act = A - np.outer(B, K)
            assert np.allclose(sip_closed_loop_perturbation(theta, K), Act - Ac0,
                               atol=1e-12)

    def test_uses_exact_trig_inside_guard_band(self):
        K = np.array([-131.6, -41.6, -25.6, -25.6])
        theta = 0.05
        dA = sip_closed_loop_perturbation(theta, K)
        sinc = math.sin(theta) / theta
        expected_21 = 10.0 * (sinc - 1.0) - (1.0 - math.cos(theta)) * K[0]
        assert dA[1, 0] == pytest.approx(expected_21, abs=1e-14)
        assert dA[1, 1] == pytest.approx(-(1.0 - math.cos(theta)) * K[1], abs=1e-14)

    def test_norm_bounded_by_quadratic_envelope(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            K = rng.uniform(-50.0, 50.0, size=4)
            theta = float(rng.uniform(-1.5, 1.5))
            dA = sip_closed_loop_perturbation(theta, K)
            bound = theta ** 2 * (10.0 / 6.0 + 0.5 * np.linalg.norm(K))
            assert np.linalg.norm(dA, 2) <= bound + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, bad):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            sip_closed_loop_perturbation(bad, [-131.6, -41.6, -25.6, -25.6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gain_rejected(self, bad):
        with pytest.raises(ValueError, match="^K must be finite$"):
            sip_closed_loop_perturbation(0.3, [-131.6, bad, -25.6, -25.6])

    @pytest.mark.parametrize("K", [[-131.6, -41.6, -25.6], [-131.6, -41.6, -25.6, -25.6, 1.0], []])
    def test_gain_without_four_entries_rejected(self, K):
        with pytest.raises(ValueError, match=f"^K must have 4 entries, got {len(K)}$"):
            sip_closed_loop_perturbation(0.3, K)
