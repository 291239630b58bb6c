import ast
import collections
import contextlib
import ctypes
import ctypes.util
import functools
import itertools
import math
import pathlib
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ctrlkit
from ctrlkit import (MotorcycleGuidance, bauer_fike_check, design_gain_matrix, eig_sweep,
                     SysidWindow, UncertaintyBounds, numerics, run_scenario, scenarios, solve_care,
                     synthesis, sysid_solve, trajectory_checksum)
from ctrlkit.models import G, sip_design_pair
from ctrlkit.numerics import fma, lapack, least_squares, nnmf_rank1, qp_small

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def c_output(capfd):
    """(stdout, stderr) written since the last read, C stdio buffers flushed first: LAPACK's
    error handler prints its "On entry to DLASCL ..." lines with printf."""
    ctypes.CDLL(None).fflush(None)
    return tuple(capfd.readouterr())


class TestLeastSquares:
    def test_square_consistent(self):
        theta = least_squares([[1, 0], [0, 2]], [3, 8])
        assert_allclose(theta, [3.0, 4.0], atol=1e-12)

    def test_overdetermined_matches_lstsq(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        ref, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.array_equal(least_squares(X, y), ref)

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError):
            least_squares(X, [1.0, 2.0, 3.0])

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_design_without_columns_rejected(self, shape):
        with pytest.raises(ValueError, match="^design must have at least one column"):
            least_squares(np.zeros(shape), np.zeros(shape[0]))

    def test_full_rank_design_whose_largest_singular_value_overflows(self):
        """gelsd's singular values are (inf, 1.414e308) here: the rank test runs again at 2**-3 scale."""
        design = [[1e308, 0.0], [0.0, 1e308], [1e308, 1e308]] * 2
        target = [1.0, 2.0, 3.0] * 2
        ref, *_ = np.linalg.lstsq(np.array(design), np.array(target), rcond=None)
        assert_allclose(least_squares(design, target), ref, rtol=1e-12, atol=0.0)
        assert_allclose(ref, [1e-308, 2e-308], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("design", [
        [[1e308, 0.0], [0.0, 1e308], [1e308, 1e308]] * 2,  # the answer (1e-308, 2e-308) is subnormal
        [[1e308, 0.0], [0.0, 1e308], [1e308, 1e308], [1e308, 3e-310], [2e-310, 1e308], [1e308, 1e308]],
    ], ids=["subnormal-answer", "subnormal-scaled-design"])
    def test_rescaled_design_under_a_raising_error_state(self, design):
        """The 2**-3 rescale underflows here, where numpy's lstsq does not: under a raising error state
        the answer is still lstsq's, with no FloatingPointError."""
        target = [1.0, 2.0, 3.0] * 2
        with np.errstate(all="raise"):
            ref, _, _, sv = np.linalg.lstsq(np.array(design), np.array(target), rcond=None)
            assert sv[0] == math.inf  # gelsd's verdict that sends the design to the rescale
            got = least_squares(design, target)
        assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_rank_deficient_design_that_overflows_still_rejected(self):
        with pytest.raises(ValueError, match="^design matrix is rank deficient$"):
            least_squares([[1e308, 1e308]] * 6, [1.0, 2.0, 3.0] * 2)

    @pytest.mark.parametrize("design, target, name", [
        ([[math.nan, 1.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0], "design"),
        ([[1.0, 0.0], [0.0, -math.inf], [1.0, 1.0]], [1.0, 2.0, 3.0], "design"),
        ([[1, 0], [0, 1], [1, 1]], [1, math.inf, 3], "target"),  # gelsd would return [nan, nan]
        ([[1, 0], [0, 1], [1, 1]], [math.nan, 2, 3], "target"),
    ])
    def test_non_finite_input_rejected_before_lapack(self, design, target, name, capfd):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            least_squares(design, target)
        assert c_output(capfd) == ("", "")


class TestNnmfRank1:
    def test_single_column_example(self):
        w, h = nnmf_rank1([[0.0, 0.0], [2.4, 0.0]])
        assert_allclose(w, [0.0, 2.4], atol=1e-15)
        assert_allclose(h, [1.0, 0.0], atol=1e-15)

    def test_reconstruction_and_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w0 = rng.uniform(0, 5, size=rng.integers(1, 5))
            h0 = rng.uniform(0, 5, size=rng.integers(1, 5))
            if not w0.max() or not h0.max():
                continue
            m = np.outer(w0, h0)
            w, h = nnmf_rank1(m)
            assert np.max(np.abs(h)) == pytest.approx(1.0)
            assert_allclose(np.outer(w, h), m, atol=1e-9 * max(1.0, m.max()))

    def test_zero_matrix(self):
        w, h = nnmf_rank1(np.zeros((3, 2)))
        assert_allclose(w, np.zeros(3))
        assert_allclose(h, [1.0, 0.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            nnmf_rank1([[1.0, -0.5], [0.0, 0.0]])

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError):
            nnmf_rank1([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            nnmf_rank1([[1.0, 0.0], [bad, 0.0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^matrix must not be empty$"):
            nnmf_rank1(np.zeros((2, 0)))

    @staticmethod
    def nnmf_numpy(m):
        """The numpy factorization nnmf_rank1 replaced, kept as its bit-for-bit oracle.

        (w, h), or the ValueError message for a valid-shaped finite input.
        """
        m = np.asarray(m, dtype=float)
        if (m < 0).any():
            return "matrix must be element-wise non-negative"
        if not m.any():
            h = np.zeros(m.shape[1])
            h[0] = 1.0
            return np.zeros(m.shape[0]), h
        i, j = np.unravel_index(int(np.argmax(m)), m.shape)
        h = m[i, :] / m[i, j]
        w = m[:, j].copy()
        if np.max(np.abs(np.outer(w, h) - m)) > 1e-9 * max(1.0, m[i, j]):
            return "matrix has numerical rank above one; split it into rank-one terms"
        return w, h

    def test_bit_identical_to_the_numpy_factorization(self):
        """Ties for the maximum, zero rows and columns, signed zeros, the zero matrix, rank above one."""
        rng = np.random.default_rng(1702)
        levels = np.array([0.0, -0.0, 0.5, 1.0, 3.0])
        seen = set()
        for _ in range(400):
            shape = tuple(rng.integers(1, 5, size=2))
            kind = int(rng.integers(5))
            if kind == 0:
                m = np.zeros(shape) * rng.choice([1.0, -1.0])
            elif kind == 1:  # rank above one
                m = rng.uniform(0.0, 2.0, size=shape)
            elif kind == 2:  # rank one but for one entry
                m = np.outer(rng.choice(levels, shape[0]), rng.choice(levels, shape[1]))
                m[tuple(rng.integers(0, shape))] += rng.choice([1e-12, 1e-6])
            elif kind == 3:  # a negative entry
                m = rng.uniform(0.0, 2.0, size=shape)
                m[tuple(rng.integers(0, shape))] = -0.5
            else:  # exact rank one with tied maxima and zero rows
                scale = rng.uniform(0.5, 2.0)
                m = np.outer(rng.choice(levels, shape[0]), rng.choice(levels, shape[1]) * scale)
            ref = self.nnmf_numpy(m)
            if isinstance(ref, str):
                with pytest.raises(ValueError, match=f"^{ref}$"):
                    nnmf_rank1(m)
                seen.add(ref)
                continue
            w, h = nnmf_rank1(m)
            assert w.tobytes() == ref[0].tobytes() and h.tobytes() == ref[1].tobytes()
            seen.add("tie" if (m == m.max()).sum() > 1 and m.max() > 0 else "zero" if not m.any() else "one")
        assert len(seen) == 5

    @staticmethod
    def draws():
        """test_bit_identical_to_the_numpy_factorization's 400 matrices, drawn the same way."""
        rng = np.random.default_rng(1702)
        levels = np.array([0.0, -0.0, 0.5, 1.0, 3.0])
        for _ in range(400):
            shape = tuple(rng.integers(1, 5, size=2))
            kind = int(rng.integers(5))
            if kind == 0:
                m = np.zeros(shape) * rng.choice([1.0, -1.0])
            elif kind == 1:
                m = rng.uniform(0.0, 2.0, size=shape)
            elif kind == 2:
                m = np.outer(rng.choice(levels, shape[0]), rng.choice(levels, shape[1]))
                m[tuple(rng.integers(0, shape))] += rng.choice([1e-12, 1e-6])
            elif kind == 3:
                m = rng.uniform(0.0, 2.0, size=shape)
                m[tuple(rng.integers(0, shape))] = -0.5
            else:
                scale = rng.uniform(0.5, 2.0)
                m = np.outer(rng.choice(levels, shape[0]), rng.choice(levels, shape[1]) * scale)
            yield m

    @pytest.mark.parametrize("bar", [1.0, 0.7, 300.0])
    def test_robust_rank_one_factors_are_nnmf_rank1s_divided_by_bar(self, bar):
        """synthesis._rank_one_factors takes nnmf_rank1's float core on bounds that UncertaintyBounds
        accepted; a zero bound gives zeros for both factors. Compared by float.hex."""
        outcomes = collections.Counter()
        for m in self.draws():
            if (m < 0).any():
                with pytest.raises(ValueError, match="^uncertainty bounds must be non-negative$"):
                    UncertaintyBounds(dA_max=m, dB_max=np.zeros(1))
                continue
            bound = UncertaintyBounds(dA_max=m, dB_max=np.zeros(1)).dA_max
            try:
                w, h = nnmf_rank1(m)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    synthesis._rank_one_factors(bound, bar, "a_bar", "dA_max")
                outcomes["rank"] += 1
                continue
            if not m.any():
                w, h = np.zeros(m.shape[0]), np.zeros(m.shape[1])
            v_got, h_got = synthesis._rank_one_factors(bound, bar, "a_bar", "dA_max")
            assert list(map(float.hex, v_got)) == [(w_i / bar).hex() for w_i in w.tolist()]
            assert list(map(float.hex, h_got)) == list(map(float.hex, h.tolist()))
            outcomes["zero" if not m.any() else "column" if m.shape[1] == 1 else "factored"] += 1
        assert min(outcomes.values()) >= 20 and len(outcomes) == 4


class TestQpSmall:
    def test_unconstrained_minimum(self):
        z = qp_small(np.eye(2), [-2.0, 0.0])
        assert_allclose(z, [2.0, 0.0], atol=1e-9)

    def test_active_constraint(self):
        # min (z1-2)^2/2 s.t. z1 <= 1
        z = qp_small([[1.0]], [-2.0], [[1.0]], [1.0])
        assert_allclose(z, [1.0], atol=1e-9)

    def test_infeasible_returns_none(self):
        # z <= -1 and -z <= -1 cannot both hold
        assert qp_small([[1.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0]) is None

    def test_matches_scalar_barrier_clip(self):
        # closed form of the 1-D safety filter: max(u_ref, lo)
        rng = np.random.default_rng(11)
        for _ in range(100):
            u_ref = rng.normal()
            lo = rng.normal()
            z = qp_small([[1.0]], [-u_ref], [[-1.0]], [-lo])
            assert z[0] == pytest.approx(max(u_ref, lo), abs=1e-9)

    def test_nonsymmetric_h_rejected(self):
        with pytest.raises(ValueError):
            qp_small([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])

    def test_indefinite_h_rejected(self):
        with pytest.raises(ValueError):
            qp_small([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])

    def test_size_caps(self):
        with pytest.raises(ValueError):
            qp_small(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError):
            qp_small(np.eye(2), np.zeros(2), np.zeros((5, 2)), np.zeros(5))

    @pytest.mark.parametrize("name", ["H", "c", "A_ineq", "b_ineq"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, name, bad):
        """Unchecked, a nan H or c gave [nan], and a nan constraint row or bound counted as met."""
        args = {"H": [[1.0]], "c": [1.0], "A_ineq": [[1.0]], "b_ineq": [-2.0]}
        args[name] = [[bad]] if name in ("H", "A_ineq") else [bad]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            qp_small(**args)

    def test_beats_grid_on_random_problems(self):
        """Active-set answer is optimal: no feasible grid point does better."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            Lr = rng.normal(size=(2, 2))
            H = Lr @ Lr.T + 0.2 * np.eye(2)
            c = rng.normal(size=2)
            A = rng.normal(size=(3, 2))
            b = rng.normal(size=3) + 1.0
            z = qp_small(H, c, A, b)
            grid = np.linspace(-4.0, 4.0, 81)
            gx, gy = np.meshgrid(grid, grid)
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            feas = pts[(pts @ A.T <= b + 1e-12).all(axis=1)]
            if z is None:
                # no feasible grid point may exist either way; nothing to compare
                continue
            assert ((A @ z) - b <= 1e-9).all()
            obj = 0.5 * z @ H @ z + c @ z
            if len(feas):
                objs = 0.5 * np.einsum("ij,jk,ik->i", feas, H, feas) + feas @ c
                assert obj <= objs.min() + 1e-9


# ---------------------------------------------------------------------------
# the exact fused multiply-add

def c_fma():
    """The C library's fma through ctypes, or None where it cannot be loaded."""
    try:
        fn = ctypes.CDLL(ctypes.util.find_library("m")).fma
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = (ctypes.c_double,) * 3, ctypes.c_double
    return fn


class TestFma:
    @staticmethod
    def value_draws(rng, n):
        """n (a, b, c) with a and b of magnitude 2**-480 to 2**480, so a * b is normal and the
        splits cannot overflow; c of a * b's scale, both signs (cancellation), its rounded
        negation (the result is TwoProduct's error), far larger or smaller, or zero."""
        def mags(k, lo, hi):
            return rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k) * 2.0 ** rng.integers(lo, hi, k)

        a, b = mags(n, -480, 480), mags(n, -480, 480)
        p = a * b
        kind = rng.integers(5, size=n)
        c = np.select([kind == 0, kind == 1, kind == 2, kind == 3],
                      [p * rng.uniform(-2.0, 2.0, n), -p, p * mags(n, -60, 60), -p * (1.0 + 2.0 ** -52)],
                      0.0)
        return list(zip(a.tolist(), b.tolist(), c.tolist()))

    def test_value_is_the_exact_sum_rounded_once(self):
        """fma(a, b, c) == float(a*b + c in exact rationals) on 20,000 normal-range draws."""
        draws = self.value_draws(np.random.default_rng(3206), 20_000)
        misses = [(a, b, c) for a, b, c in draws
                  if fma(a, b, c) != float(Fraction(a) * Fraction(b) + Fraction(c))]
        assert misses == []
        assert sum(a * b + c != fma(a, b, c) for a, b, c in draws) > 2000  # unfused is not enough

    ZERO_PRODUCTS = [(a, b) for a, b in itertools.product([0.0, -0.0, 1.5, -3.0], repeat=2) if 0.0 in (a, b)]

    def test_zero_sums_take_ieees_sign(self):
        """An exact zero sum is -0.0 iff a * b and c are both -0.0, and +0.0 otherwise, as
        IEEE 754 rounds to nearest; fsum alone returns +0.0 for each."""
        cases = [(a, b, c) for a, b in self.ZERO_PRODUCTS for c in (0.0, -0.0)]
        exact = [1.5, -3.0, 0.25, -2.0 ** -500, 2.0 ** 500]  # every product of two is a float
        cases += [(a, b, -(a * b)) for a, b in itertools.product(exact, repeat=2)]
        assert len(cases) > 30
        for a, b, c in cases:
            out = fma(a, b, c)
            negative = math.copysign(1.0, a * b) < 0 and math.copysign(1.0, c) < 0 and a * b == 0.0
            assert out == 0.0 and math.copysign(1.0, out) == (-1.0 if negative else 1.0), (a, b, c)

    def test_domain_edges(self):
        """The docstring's limits: exact up to the split's overflow near 1.34e300 and ah * bh's near
        the top, inexact sign once a * b underflows, and fsum's errors on inf - inf and an overflowing sum."""
        for big in (1.3e300, -1.339e300):
            assert fma(big, 1.0, 0.0) == big and fma(1.0, big, 1.0) == big
        for big in (1.35e300, -1e305):
            assert math.isnan(fma(big, 1.0, 0.0)) and math.isnan(fma(1.0, big, 0.0))
        a, b = 5.313064383821848e299, 338353349.1537822  # a * b within 2**-26 of the largest float
        assert math.isfinite(a * b) and fma(a, b, 0.0) == math.inf
        out = fma(1e-200, -1e-200, 0.0)  # C's is -0.0; here p underflows to -0.0, and -0.0 + 0.0 is +0.0
        assert out == 0.0 and math.copysign(1.0, out) == 1.0
        with pytest.raises(ValueError, match="inf"):
            fma(math.inf, 1.0, -math.inf)
        with pytest.raises(OverflowError):
            fma(1e300, 1e8, 1.7e308)

    def test_agrees_with_the_c_librarys_fma(self):
        """A cross-check where ctypes reaches C's fma: the value draws and the signed zeros by
        bytes; the underflowing case is the one documented difference."""
        c_fn = c_fma()
        if c_fn is None:
            pytest.skip("the C library's fma cannot be loaded through ctypes")
        draws = self.value_draws(np.random.default_rng(3207), 5_000)
        draws += [(a, b, c) for a, b in self.ZERO_PRODUCTS for c in (0.0, -0.0)]
        assert [float.hex(fma(*abc)) for abc in draws] == [float.hex(c_fn(*abc)) for abc in draws]
        assert float.hex(c_fn(1e-200, -1e-200, 0.0)) == "-0x0.0p+0"


# ---------------------------------------------------------------------------
# the LAPACK bindings of numerics.lapack against numpy.linalg, on their callers' inputs

NUMPY_LINALG = {
    "solve1": np.linalg.solve,
    "lstsq": np.linalg.lstsq,
    "svd": functools.partial(np.linalg.svd, compute_uv=False),
    "eigvals": np.linalg.eigvals,
    "inv": np.linalg.inv,
    "eigvalsh_lo": np.linalg.eigvalsh,
    "lstsq_unguarded": np.linalg.lstsq,
}
PER_STEP_RUNS = ("dip_smc", "sip_adaptive_sysid")
# (module, function, binding) of each call site whose docstring proves LAPACK cannot fail there
UNGUARDED_CALL_SITES = [("numerics", "full_rank_lstsq", "lstsq_unguarded")]


def _copy(value):
    return tuple(map(np.copy, value)) if isinstance(value, tuple) else np.copy(value)


@contextlib.contextmanager
def recorded_bindings():
    """Every call of a numerics.lapack binding made inside, as (name, inputs, outputs), copied."""
    calls = []

    def recorder(name, binding):
        def record(*args):
            out = binding(*args)
            calls.append((name, _copy(args), _copy(out)))
            return out
        return record

    with pytest.MonkeyPatch.context() as mp:
        for name, binding in vars(lapack).items():
            mp.setattr(lapack, name, recorder(name, binding))
        yield calls


def assert_calls_match_numpy(calls):
    for name, args, out in calls:
        ref = NUMPY_LINALG[name](*args)
        if name.startswith("lstsq"):  # x, rank and singular values; numpy trims the residuals
            out, ref = (out[0], out[2], out[3]), (ref[0], ref[2], ref[3])
        if isinstance(out, tuple):
            assert all(np.array_equal(o, r) for o, r in zip(out, ref, strict=True)), name
        else:
            assert np.array_equal(out, ref), name


def golden_entry(sid):
    return workloads.load_golden()["scenarios"][workloads.scenario_key(
        sid, scenarios.SCENARIO_DEFAULTS[sid]["params"])]


def unguarded_references():
    """(module, enclosing function, binding) of every attribute, name or string constant in
    src/ctrlkit that names an unguarded lapack binding."""
    names = {name for name in vars(lapack) if name.endswith("_unguarded")}
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for field in ("attr", "id", "value"):  # of an Attribute, a Name, a Constant
            if getattr(node, field, None) in names:
                found.append((module, scope, getattr(node, field)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(pathlib.Path(ctrlkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


@contextlib.contextmanager
def strict_fp():
    """numpy raising on every floating-point error and every warning raised as an error."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.fixture(scope="module")
def per_step_runs():
    """dip_smc and sip_adaptive_sysid at their defaults, with numpy.linalg's solve and lstsq
    raising and the bindings recorded: {sid: (trajectory, report, calls)}."""
    def refuse(*args, **kwargs):
        raise AssertionError("a per-step path called a numpy.linalg wrapper")

    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", refuse)
        mp.setattr(np.linalg, "lstsq", refuse)
        for sid in PER_STEP_RUNS:
            with recorded_bindings() as calls:
                traj, rep = run_scenario(sid)
            runs[sid] = (traj, rep, calls)
    return runs


class TestLapackBindings:
    def test_every_binding_has_a_numpy_counterpart(self):
        assert set(vars(lapack)) == set(NUMPY_LINALG)

    @pytest.mark.parametrize("sid", PER_STEP_RUNS)
    def test_per_step_paths_skip_the_numpy_wrappers(self, per_step_runs, sid):
        """With np.linalg.solve and lstsq raising, both runs finish on their golden checksums."""
        traj, rep, _ = per_step_runs[sid]
        golden = golden_entry(sid)
        assert rep.terminal_event == golden["event"]
        assert trajectory_checksum(traj) == golden["checksum"]

    @pytest.mark.parametrize("sid", PER_STEP_RUNS)
    def test_per_step_runs_trip_no_floating_point_error(self, sid):
        """The unguarded lstsq cannot fail on its inputs, and the dip solve is Python floats: with
        numpy raising on every floating-point error and warnings raised as errors, both runs reach
        their golden checksums."""
        with strict_fp():
            traj, rep = run_scenario(sid)
        golden = golden_entry(sid)
        assert rep.terminal_event == golden["event"]
        assert trajectory_checksum(traj) == golden["checksum"]

    def test_unguarded_binding_has_exactly_the_one_proven_caller(self):
        """A new caller of an unguarded binding has to bring its own proof that LAPACK cannot
        fail there, and join UNGUARDED_CALL_SITES; the namespace's own definition is not a use."""
        assert sorted(unguarded_references()) == UNGUARDED_CALL_SITES

    @pytest.mark.parametrize("cols, binding", [(1, "lstsq_unguarded"), (2, "lstsq_unguarded"), (3, "lstsq")])
    def test_least_squares_takes_the_unguarded_lstsq_up_to_two_columns(self, cols, binding):
        """Only designs of at most two columns have gelsd's no-failure argument; a wider one
        stays on the guarded binding. Either way the estimate is np.linalg.lstsq's, bit for bit."""
        rng = np.random.default_rng(2901)
        for rows in (cols, 6, 40):
            design, target = rng.normal(size=(rows, cols)), rng.normal(size=rows)
            with recorded_bindings() as calls:
                z = least_squares(design, target)
            assert [name for name, _, _ in calls] == [binding]
            assert np.array_equal(z, np.linalg.lstsq(design, target, rcond=None)[0])
            assert_calls_match_numpy(calls)

    @pytest.mark.parametrize("window", [
        [[0.3, 1.0]] * 6,  # a constant warm-up row six times
        [[0.0, 0.0]] * 6,  # gelsd's all-zero early return
        [[0.1 * k, 0.0] for k in range(6)],  # a zero input column
        [[0.1 * k, 0.2 * k] for k in range(6)],  # proportional columns
    ])
    def test_rank_deficient_two_column_window_raises_through_the_unguarded_binding(self, window):
        with strict_fp(), recorded_bindings() as calls, pytest.raises(ValueError, match="rank deficient"):
            least_squares(window, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert [name for name, _, _ in calls] == ["lstsq_unguarded"]

    def test_dip_mass_matrix_solves(self, per_step_runs):
        """The dip steps solve their mass matrix in Python floats (TestDipPlant holds it against
        np.linalg.solve by bytes): the run's only LAPACK calls are the 6x6 gain placement that sets it up."""
        _, _, calls = per_step_runs["dip_smc"]
        assert [name for name, _, _ in calls] == ["svd", "solve1"]
        assert [args[0].shape for _, args, _ in calls] == [(6, 6), (6, 6)]
        assert_calls_match_numpy(calls)

    def test_sysid_windows(self, per_step_runs):
        """Each six-row window's estimate is np.linalg.lstsq(rcond=None)'s, bit for bit."""
        _, _, calls = per_step_runs["sip_adaptive_sysid"]
        assert {name for name, _, _ in calls} == {"lstsq_unguarded"}
        assert len(calls) > 2900
        for _, (a, b, rcond), (x, _, rank, sv) in calls:
            assert a.shape == (6, 2) and b.shape == (6, 1) and rcond == np.finfo(float).eps * 6
            ref_x, _, ref_rank, ref_sv = np.linalg.lstsq(a, b.ravel(), rcond=None)
            assert np.array_equal(x.ravel(), ref_x) and rank == ref_rank and np.array_equal(sv, ref_sv)
            assert np.array_equal(least_squares(a, b.ravel()), ref_x)

    def test_sysid_windows_are_the_trajectorys_rows(self, per_step_runs):
        """Each lstsq input is the window rebuilt from the run: rows (theta_k, the input before
        it), newest first, with the warm-up input 1.0 before the first sample, and rates
        (theta_dot_k - theta_dot_{k-1}) / dt, the first from _SIP_X0."""
        traj, _, calls = per_step_runs["sip_adaptive_sysid"]
        dt = scenarios.SCENARIO_DEFAULTS["sip_adaptive_sysid"]["dt"]
        xs, before = traj.states, [scenarios._SIP_X0, *traj.states]
        inputs = [1.0] + [u for u, in traj.inputs]
        rows = [[x[0], u] for x, u in zip(xs, inputs)]
        rates = [[(x[1] - p[1]) / dt] for x, p in zip(xs, before)]
        assert len(calls) == len(traj.times) - 1 - 6  # one per controller call after six warm-up rows
        for k, (_, (a, b, rcond), _) in enumerate(calls, start=6):
            assert np.array_equal(a, rows[k:k - 6:-1]) and np.array_equal(b, rates[k:k - 6:-1])
            assert rcond == 6 * np.finfo(float).eps

    def test_placements(self):
        """C and C' of 3x3, 4x4 and 6x6 placements: the scenario designs and workload draws."""
        rng = np.random.default_rng(1901)
        with recorded_bindings() as calls:
            design_gain_matrix(*sip_design_pair(G, -1.0), [-4.0, -4.0, -4.0])
            scenarios.sip_full_gain([-2.0, -2.5, -3.0, -3.5])
            design_gain_matrix(*scenarios._dip_design_matrices(), [-4.0] * 6)
            design_gain_matrix(*scenarios._motorcycle_design_matrices(), [-2.5] * 4)
            for n in workloads.PLACE_SIZES:
                for conjugate in (False, True):
                    for _ in range(10):
                        design_gain_matrix(*workloads._controllable_pair(rng, n),
                                           workloads._pole_set(rng, n, conjugate))
        assert {name for name, _, _ in calls} == {"svd", "solve1"}
        assert {args[0].shape for _, args, _ in calls} == {(3, 3), (4, 4), (6, 6)}
        assert_calls_match_numpy(calls)

    def test_robust_draws(self):
        """The Hamiltonians, X1 and P (and RobustConfig's Q test) of robust draws."""
        rng = np.random.default_rng(9101)
        with recorded_bindings() as calls:
            for _ in range(60):
                workloads._run_robust({"theta_max": rng.uniform(0.3 * math.pi, 0.45 * math.pi),
                                       "bar": rng.uniform(200.0, 400.0),
                                       "epsilon": rng.uniform(0.005, 0.02)})
            scenarios.sip_robust_gain("vertex")
            scenarios.sip_robust_gain("midpoint")
        assert {name for name, _, _ in calls} == {"svd", "inv", "eigvalsh_lo"}  # dgees gives the eigenvalues
        assert_calls_match_numpy(calls)

    def test_sweeps_guidance_and_perturbation_bound(self):
        rng = np.random.default_rng(1902)
        K = scenarios.sip_robust_gain("vertex")
        with recorded_bindings() as calls:
            eig_sweep(K, np.linspace(-1.2, 1.2, 25))
            MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D)
            for n in (2, 3, 4):
                for _ in range(20):
                    bauer_fike_check(rng.normal(size=(n, n)), 1e-3 * rng.normal(size=(n, n)))
            bauer_fike_check(np.diag([-1.0, -2.0, -3.0]), 1e-3 * np.ones((3, 3)))
        names = {name for name, _, _ in calls}
        assert names == {"eigvals", "solve1"}  # bauer_fike_check calls numpy.linalg itself
        assert_calls_match_numpy(calls)

    def test_perturbation_bound_is_the_numpy_formula(self):
        rng = np.random.default_rng(1903)
        for n in (2, 3, 4):
            for _ in range(20):
                Ac0, delta = rng.normal(size=(n, n)), 1e-2 * rng.normal(size=(n, n))
                sv = np.linalg.svd(np.linalg.eig(Ac0)[1], compute_uv=False)
                radius = float(sv[0] / sv[-1]) * np.linalg.norm(delta, 2)
                assert bauer_fike_check(Ac0, delta)[0] == radius

    @pytest.mark.parametrize("name", ["solve1", "inv"])
    def test_singular_matrix_raises_numpys_error(self, name):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        args = (singular, np.ones(2)) if name == "solve1" else (singular,)
        before = np.geterr()
        for fn in (getattr(lapack, name), NUMPY_LINALG[name]):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                fn(*args)
        assert np.geterr() == before

    def test_rank_deficient_window_raises_value_error(self):
        window = [[0.3, 1.0]] * 6  # a constant warm-up row six times
        with pytest.raises(ValueError, match="rank deficient"):
            least_squares(window, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    @pytest.mark.parametrize("where, name", [(0, "design"), (11, "design"), (12, "target"), (17, "target")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sysid_window_rejected_before_lapack(self, where, name, bad, capfd):
        """where indexes the six rows' (theta, u) pairs back to back, newest first, then their rates."""
        window = np.random.default_rng(2701).normal(size=18).tolist()
        window[where] = bad
        rows = [(*window[2 * k:2 * k + 2], window[12 + k]) for k in range(6)]
        sysid = SysidWindow()
        for row in reversed(rows):
            sysid.push(*row)
        with recorded_bindings() as calls, pytest.raises(ValueError, match=f"^{name} must be finite$"):
            sysid_solve(sysid)
        assert calls == [] and c_output(capfd) == ("", "")

    @pytest.mark.parametrize("col, name", [(0, "design"), (1, "design"), (2, "target")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected_for_exactly_six_pushes(self, col, name, bad, capfd):
        """A non-finite theta, u or rate is named, and no window holding its row reaches LAPACK: the
        push that brings it in and the five after. The sixth push after it drops it, and that window
        is solved as least_squares solves its rows."""
        rng = np.random.default_rng(3301)
        window = SysidWindow()
        for row in rng.normal(size=(6, 3)).tolist():
            window.push(*row)
        row = rng.normal(size=3).tolist()
        row[col] = bad
        window.push(*row)
        with recorded_bindings() as calls:
            for _ in range(6):
                with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                    sysid_solve(window)
                window.push(*rng.normal(size=3).tolist())
            estimate = sysid_solve(window)
        assert [binding for binding, _, _ in calls] == ["lstsq_unguarded"]
        assert list(estimate) == least_squares(window.rows[:, :2], window.rows[:, 2]).tolist()
        assert c_output(capfd) == ("", "")

    def test_design_named_first_while_both_are_in_the_window(self):
        window = SysidWindow()
        window.push(math.inf, 2.0, 3.0)
        window.push(1.0, 2.0, math.nan)
        for _ in range(5):
            with pytest.raises(ValueError, match="^design must be finite$"):
                sysid_solve(window)
            window.push(1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="^target must be finite$"):
            sysid_solve(window)  # the inf theta's row is out, the nan rate's row, pushed after it, not yet
        window.push(1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="rank deficient"):
            sysid_solve(window)

    def test_row_whose_sum_overflows_reaches_lapack(self):
        """theta = u = 1e308 sum to inf, yet every entry is finite: the window goes to gelsd."""
        window = SysidWindow()
        for row in (np.random.default_rng(3302).normal(size=(5, 3)) * [1e307, 1e307, 1.0]).tolist():
            window.push(*row)
        window.push(1e308, 1e308, 1.0)
        assert 1e308 + 1e308 + 1.0 == math.inf
        with strict_fp(), recorded_bindings() as calls:
            estimate = sysid_solve(window)
        assert [name for name, _, _ in calls] == ["lstsq_unguarded"]
        assert list(estimate) == least_squares(window.rows[:, :2], window.rows[:, 2]).tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_newest_row_keeps_the_previous_gain(self, bad, capfd):
        """The default builder: six warm-up rows, a first estimate, then a state whose angle is
        not finite; that window and the next are rejected before LAPACK and the gain stays."""
        built = scenarios._SCENARIOS["sip_adaptive_sysid"].build({"dt": 0.001})
        states = [(0.3 + 0.01 * k, 0.5 + 0.01 * k * k, 0.0, 0.5) for k in range(9)]
        states[7] = (bad, *states[7][1:])
        gains = []
        with recorded_bindings() as calls:
            for k, x in enumerate(states):
                built.controller(k * 0.001, x)
                gains.append([K.tolist() for K in built.gains()])
        assert len(calls) == 1  # only the first window reached gelsd
        assert gains[:6] == [[]] * 6 and gains[6] == gains[7] == gains[8] != []
        assert c_output(capfd) == ("", "")

    @pytest.mark.parametrize("which", ["A", "M", "Q"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_care_input_raises_numpys_eigvals_error(self, which, bad):
        mats = {"A": -np.eye(2), "M": np.eye(2), "Q": np.eye(2)}
        mats[which][1, 0] = bad
        message = "^Array must not contain infs or NaNs$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            solve_care(mats["A"], mats["M"], mats["Q"])
        with pytest.raises(np.linalg.LinAlgError, match=message):
            np.linalg.eigvals(np.block([[mats["A"], -mats["M"]], [-mats["Q"], -mats["A"].T]]))


# an input on which each guarded binding fails, as numpy.linalg's function fails on it. dgeev fails on
# the finite matrix; on a nan one it fails or returns nan, depending on earlier calls in the process
_SINGULAR, _NAN = np.array([[1.0, 2.0], [2.0, 4.0]]), np.full((3, 3), np.nan)
FAILING_CALLS = {
    "solve1": (_SINGULAR, np.ones(2)),
    "inv": (_SINGULAR,),
    "svd": (_NAN,),
    "eigvals": (np.array([[0.0, 1e308, 1e300], [-1e308, -5e-324, -5e-324], [-1.7e308, 0.0, 1.0]]),),
    "eigvalsh_lo": (_NAN,),
    "lstsq": (_NAN, np.ones((3, 1)), 3 * np.finfo(float).eps),
}
# inputs whose LAPACK work overflows or underflows, and which succeed
_HUGE_PIVOT = np.diag([1e308, 1.0])  # 1 / 1e308 is subnormal
EXTREME_CALLS = {
    "solve1": (_HUGE_PIVOT, np.ones(2)),
    "inv": (_HUGE_PIVOT,),
    "svd": (np.full((2, 2), 1e-200),),
    "eigvals": (np.array([[1e300, 1e300], [-1e300, 1e300]]),),
    "eigvalsh_lo": (np.full((2, 2), 1e-200),),
    "lstsq": (np.full((3, 2), 1e-200) + [[1e-199, 0.0], [0.0, 1e-199], [0.0, 0.0]], np.ones((3, 1)),
              3 * np.finfo(float).eps),
}


def linalg_error(call, *args):
    """The message of the LinAlgError that call(*args) raises."""
    with pytest.raises(np.linalg.LinAlgError) as raised:
        call(*args)
    return str(raised.value)


def fp_settings():
    return np.geterr(), np.geterrcall(), np.getbufsize()


@contextlib.contextmanager
def caller_state(kind):
    """numpy's default error state, or one that raises on every flag with its own handler and bufsize."""
    if kind == "default":
        yield
        return
    with np.errstate(all="raise", call=lambda err, flag: None):
        np.setbufsize(16384)  # undone when the errstate is left
        yield


class TestPrebuiltErrorStates:
    def test_every_guarded_binding_is_covered(self):
        assert set(FAILING_CALLS) == set(EXTREME_CALLS) == set(vars(lapack)) - {"lstsq_unguarded"}

    @pytest.mark.parametrize("name", sorted(FAILING_CALLS))
    @pytest.mark.parametrize("kind", ["default", "raising"])
    def test_failing_call_raises_numpys_linalg_error(self, name, kind):
        """Under either caller state the failure is LinAlgError with numpy.linalg's message, never a
        FloatingPointError or RuntimeWarning from the invalid flag a failing gufunc raises."""
        args = FAILING_CALLS[name]
        with caller_state(kind), warnings.catch_warnings():
            warnings.simplefilter("error")
            message = linalg_error(getattr(lapack, name), *args)
        assert message == linalg_error(NUMPY_LINALG[name], *args)

    @pytest.mark.parametrize("name", sorted(FAILING_CALLS))
    @pytest.mark.parametrize("kind", ["default", "raising"])
    def test_callers_settings_unchanged_after_a_call(self, name, kind):
        """np.geterr(), np.geterrcall() and np.getbufsize() read the same after a successful call and
        after a failing one as before them."""
        with caller_state(kind):
            before = fp_settings()
            getattr(lapack, name)(*EXTREME_CALLS[name])
            assert fp_settings() == before
            with pytest.raises(np.linalg.LinAlgError):
                getattr(lapack, name)(*FAILING_CALLS[name])
            assert fp_settings() == before

    @pytest.mark.parametrize("name", sorted(EXTREME_CALLS))
    def test_flags_inside_lapack_raise_nothing_under_a_raising_state(self, name):
        """A success whose LAPACK work overflows or underflows gives numpy.linalg's answer under
        np.errstate(all="raise"), as numpy.linalg's own wrappers do."""
        args = EXTREME_CALLS[name]
        with strict_fp():
            out = getattr(lapack, name)(*args)
        assert_calls_match_numpy([(name, args, out)])

    def test_no_function_of_the_package_builds_an_errstate(self):
        """Error states are built once, at import (numerics.QUIET and each binding's guard): an
        np.errstate(...) call inside a function of src/ctrlkit would rebuild one on every call."""
        found = set()
        for path in sorted(pathlib.Path(ctrlkit.__file__).parent.glob("*.py")):
            for scope in ast.walk(ast.parse(path.read_text())):
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    found.update(f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                                 if isinstance(node, ast.Call) and "errstate" in (
                                     getattr(node.func, "attr", None), getattr(node.func, "id", None)))
        assert found == set()

    def test_quiet_state_sets_every_field(self):
        """QUIET ignores all four flags whatever state the caller had when it is set."""
        with np.errstate(all="raise"):
            token = numerics.fp_state.set(numerics.QUIET)
            try:
                assert np.geterr() == dict.fromkeys(["divide", "over", "under", "invalid"], "ignore")
                assert np.geterrcall() is None
            finally:
                numerics.fp_state.reset(token)
            assert set(np.geterr().values()) == {"raise"}
