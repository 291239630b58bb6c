import numpy as np
import pytest
from numpy.testing import assert_allclose

from ctrlkit.numerics import least_squares, nnmf_rank1, qp_small


class TestLeastSquares:
    def test_square_consistent(self):
        theta = least_squares([[1, 0], [0, 2]], [3, 8])
        assert_allclose(theta, [3.0, 4.0], atol=1e-12)

    def test_overdetermined_matches_lstsq(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        ref, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert_allclose(least_squares(X, y), ref, atol=1e-10)

    def test_rank_deficient_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError):
            least_squares(X, [1.0, 2.0, 3.0])

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), [1.0, 2.0])


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
