import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.core import (
    CapacityBasis,
    CovarianceMatrix,
    ProjectionMatrix,
    SpatialCapacity,
    capacity_of_subspace,
    orthonormal_basis,
    spatial_profile,
)


def _modified_gram_schmidt(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Independent orthonormalization oracle (two-pass MGS, drops null directions)."""
    basis = []
    for v in matrix.T:
        w = v.astype(float).copy()
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > tol * max(1.0, np.linalg.norm(v)):
            basis.append(w / norm)
    if not basis:
        return np.zeros((matrix.shape[0], 0))
    return np.column_stack(basis)


class TestOrthonormalBasis:
    def test_identity_full_rank(self):
        basis = orthonormal_basis(np.eye(3))
        assert basis.rank == 3
        np.testing.assert_allclose(basis.columns @ basis.columns.T, np.eye(3), atol=1e-12)

    def test_duplicated_column_rank_one(self):
        basis = orthonormal_basis(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert basis.rank == 1
        expected = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        sign = np.sign(basis.columns[0, 0])
        np.testing.assert_allclose(basis.columns, sign * expected, atol=1e-12)

    def test_rank_two_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(61)
        m = np.empty((6, 3))
        m[:, :2] = rng.standard_normal((6, 2))
        m[:, 2] = m[:, 0] + m[:, 1]
        basis = orthonormal_basis(m)
        assert basis.rank == 2
        oracle = _modified_gram_schmidt(m)
        assert oracle.shape[1] == 2
        np.testing.assert_allclose(
            basis.columns @ basis.columns.T, oracle @ oracle.T, atol=1e-10
        )

    def test_signed_column_permutation_keeps_every_bit(self):
        # nearly dependent columns (cond ~ 1e8), a repeated column up to sign and a
        # zero column: the SVD's rounding would follow the column order on these
        rng = np.random.default_rng(67)
        m = np.empty((12, 6))
        m[:, :3] = rng.standard_normal((12, 3))
        m[:, 3] = m[:, 0] + m[:, 1] + 1e-8 * rng.standard_normal(12)
        m[:, 4] = -m[:, 2]
        m[:, 5] = 0.0
        expected = orthonormal_basis(m).columns
        for _ in range(20):
            signs = rng.choice([-1.0, 1.0], size=6)
            got = orthonormal_basis(m[:, rng.permutation(6)] * signs).columns
            np.testing.assert_array_equal(got, expected)

    def test_all_zero_gives_empty_basis(self):
        basis = orthonormal_basis(np.zeros((4, 2)))
        assert basis.rank == 0
        assert basis.ambient_dim == 4
        assert spatial_profile(basis).total == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            orthonormal_basis(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestCapacityOfSubspace:
    def test_identity_basis_coordinate_direction(self):
        k = CapacityBasis(np.eye(2))
        s = CapacityBasis(np.eye(2)[:, [0]])
        assert capacity_of_subspace(k, s) == pytest.approx(1.0)

    def test_diagonal_column_splits_evenly(self):
        k = CapacityBasis(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
        s = CapacityBasis(np.eye(2)[:, [0]])
        assert capacity_of_subspace(k, s) == pytest.approx(0.5)

    def test_full_space_recovers_rank(self):
        rng = np.random.default_rng(11)
        k = orthonormal_basis(rng.standard_normal((7, 4)))
        assert k.rank == 4
        total = capacity_of_subspace(k, CapacityBasis(np.eye(7)))
        assert total == pytest.approx(4.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        k = CapacityBasis(np.eye(3))
        s = CapacityBasis(np.eye(4)[:, [0]])
        with pytest.raises(ValueError, match="mismatch"):
            capacity_of_subspace(k, s)


class TestSpatialProfile:
    @pytest.mark.parametrize(
        "columns, expected",
        [
            (np.eye(3), (1.0, 1.0, 1.0)),
            (np.array([[1.0], [0.0], [0.0]]), (1.0, 0.0, 0.0)),
            (np.full((3, 1), 1.0 / np.sqrt(3.0)), (1 / 3, 1 / 3, 1 / 3)),
        ],
    )
    def test_examples(self, columns, expected):
        profile = spatial_profile(CapacityBasis(columns))
        np.testing.assert_allclose(profile.values, expected, atol=1e-12)

    def test_matches_coordinate_capacities(self):
        rng = np.random.default_rng(23)
        k = orthonormal_basis(rng.standard_normal((6, 3)))
        profile = spatial_profile(k)
        for i in range(6):
            s = CapacityBasis(np.eye(6)[:, [i]])
            assert profile.values[i] == pytest.approx(capacity_of_subspace(k, s))


class TestProperties:
    def test_additivity_over_orthonormal_partitions(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            k = orthonormal_basis(rng.standard_normal((n, r)))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
            parts = np.split(np.arange(n), cuts)
            total = sum(
                capacity_of_subspace(k, CapacityBasis(q[:, idx])) for idx in parts
            )
            assert total == pytest.approx(k.rank, abs=1e-9)

    def test_monotonicity_under_enlargement(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            k = orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n)))))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            small = capacity_of_subspace(k, CapacityBasis(q[:, :1]))
            large = capacity_of_subspace(k, CapacityBasis(q[:, :3]))
            assert large >= small - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 9),
        rank=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        mix=st.sampled_from(["orthogonal", "signed_permutation"]),
    )
    def test_profile_does_not_depend_on_the_basis_chosen(self, n, rank, seed, mix):
        # capacity is defined through the span of K, so M and M Q give one profile.
        # Bound: 64 eps cond(M); 20,000 seeded draws of these shapes reached 5.6 eps cond(M).
        rng = np.random.default_rng(seed)
        r = min(rank, n)
        m = rng.standard_normal((n, r))
        if mix == "orthogonal":
            q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        else:
            q = np.eye(r)[rng.permutation(r)] * rng.choice([-1.0, 1.0], size=r)
        expected = spatial_profile(orthonormal_basis(m)).values
        assert expected.sum() == pytest.approx(r, abs=1e-12)
        np.testing.assert_allclose(
            spatial_profile(orthonormal_basis(m @ q)).values,
            expected,
            rtol=0,
            atol=64 * np.finfo(float).eps * np.linalg.cond(m),
        )

    def test_rotation_invariance_of_capacity(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            k = orthonormal_basis(rng.standard_normal((n, r)))
            rot, _ = np.linalg.qr(rng.standard_normal((r, r)))
            rotated = CapacityBasis(k.columns @ rot)
            s = CapacityBasis(np.linalg.qr(rng.standard_normal((n, n)))[0][:, :2])
            assert capacity_of_subspace(rotated, s) == pytest.approx(
                capacity_of_subspace(k, s), abs=1e-10
            )


class TestTypeValidation:
    def test_covariance_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_covariance_must_be_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_projection_columns_must_be_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            ProjectionMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "columns, message",
        [
            # within np.allclose's default rtol of 1e-5 of 1, so a relative bound would pass it
            ([[0.999995, 0.0], [0.0, 1.0]], r"unit norm; column 0 has norm .*0\.999995"),
            # squaring an entry overflows, which numpy warns of unless asked not to
            ([[1e200, 0.0], [1e200, 1.0]], "column 0 has a squared norm that overflows a float"),
            ([[1e-170, 0.0], [1e-170, 1.0]], "column 0 has a squared norm that underflows a float"),
        ],
        ids=["near_unit", "overflow", "underflow"],
    )
    def test_projection_column_norm_refused_by_name_without_warning(self, columns, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                ProjectionMatrix(np.array(columns))
        assert not caught

    def test_projection_columns_must_be_distinct(self):
        col = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="identical"):
            ProjectionMatrix(np.column_stack([col, col]))

    def test_identical_columns_report_lowest_pair(self):
        a, b = np.array([0.6, 0.8]), np.array([0.8, 0.6])
        with pytest.raises(ValueError, match="columns 0 and 3 are identical"):
            ProjectionMatrix(np.column_stack([b, a, a, b]))

    def test_identical_columns_match_pairwise_loop(self):
        # reference: the first (j, k) in loop order whose columns are array_equal,
        # which counts -0.0 and 0.0 as equal
        def first_pair(matrix):
            m = matrix.shape[1]
            for j in range(m):
                for k in range(j + 1, m):
                    if np.array_equal(matrix[:, j], matrix[:, k]):
                        return j, k
            return None

        rng = np.random.default_rng(7)
        units = np.array([[1.0, 0.0, -0.0, 0.6], [0.0, 1.0, 1.0, 0.8], [0.0, -0.0, 0.0, 0.0]])
        for _ in range(300):
            matrix = units[:, rng.integers(0, 4, size=int(rng.integers(1, 7)))]
            pair = first_pair(matrix)
            if pair is None:
                ProjectionMatrix(matrix)
            else:
                with pytest.raises(ValueError, match=f"columns {pair[0]} and {pair[1]} are"):
                    ProjectionMatrix(matrix)

    @pytest.mark.parametrize("case", ["planted", "signed_zero", "several", "none"])
    def test_wide_identical_columns_match_pairwise_loop(self, case):
        # the same reference as above, at a width where the check must not sort
        def first_pair(matrix):
            m = matrix.shape[1]
            for j in range(m):
                for k in range(j + 1, m):
                    if np.array_equal(matrix[:, j], matrix[:, k]):
                        return j, k
            return None

        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((6, 300))
        matrix /= np.linalg.norm(matrix, axis=0)
        if case == "planted":
            matrix[:, [41, 170, 299]] = matrix[:, [170]]
        elif case == "signed_zero":
            matrix[:, 90] = [0.6, 0.0, 0.8, 0.0, 0.0, 0.0]
            matrix[:, 250] = [0.6, -0.0, 0.8, 0.0, -0.0, 0.0]
        elif case == "several":
            for group in ([7, 280], [120, 3, 260], [200, 50, 51, 299]):
                matrix[:, group] = matrix[:, [group[0]]]
        pair = first_pair(matrix)
        assert (pair is None) == (case == "none")
        if pair is None:
            ProjectionMatrix(matrix)
        else:
            with pytest.raises(ValueError, match=f"columns {pair[0]} and {pair[1]} are identical"):
                ProjectionMatrix(matrix)

    def test_from_raw_traced_peak_within_four_matrices(self):
        # the spec operator limit assumes building an operator takes at most 4x its size
        weights = np.random.default_rng(12).standard_normal((1024, 1024))
        tracemalloc.start()
        try:
            ProjectionMatrix.from_raw(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * weights.nbytes

    @pytest.mark.parametrize(
        "weights, flow",
        [([[1e200, 1.0], [1e200, 0.0]], "overflows"), ([[1e-170, 1.0], [1e-170, 0.0]], "underflows")],
    )
    def test_from_raw_refuses_squared_norm_out_of_float_range(self, weights, flow):
        with pytest.raises(ValueError, match=f"column 0 has a squared norm that {flow} a float"):
            ProjectionMatrix.from_raw(np.array(weights))

    def test_projection_from_raw_normalizes(self):
        p = ProjectionMatrix.from_raw(np.array([[3.0, 0.0], [4.0, 2.0]]))
        np.testing.assert_allclose(np.linalg.norm(p.matrix, axis=0), [1.0, 1.0])
        assert p.n_in == 2 and p.n_out == 2

    def test_projection_from_raw_rejects_zero_column(self):
        with pytest.raises(ValueError, match="zero column"):
            ProjectionMatrix.from_raw(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_capacity_basis_requires_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CapacityBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_capacity_basis_rank_cannot_exceed_ambient(self):
        with pytest.raises(ValueError, match="rank"):
            CapacityBasis(np.ones((1, 2)))

    def test_selector_requires_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CapacityBasis(np.array([[2.0], [0.0]]))

    def test_spatial_capacity_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            SpatialCapacity(np.array([0.5, -0.1]))

    def test_spatial_capacity_total_past_float_range_rejected(self):
        assert SpatialCapacity(np.array([1e308, 7e307])).total == 1.7e308
        with pytest.raises(ValueError, match="total overflows"):
            SpatialCapacity(np.array([1e308, 1e308]))

    def test_spatial_capacity_dirac_and_total(self):
        cap = SpatialCapacity.dirac(4, 2)
        assert cap.values.tolist() == [0.0, 0.0, 1.0, 0.0]
        assert cap.total == 1.0
        assert cap.n == 4

    @pytest.mark.parametrize("index", [-1, 4])
    def test_spatial_capacity_dirac_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=r"dirac index -?\d out of range \[0, 4\)"):
            SpatialCapacity.dirac(4, index)
