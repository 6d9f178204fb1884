import math
import warnings

import numpy as np
import pytest

from capnet.augment import (
    Activation,
    DecouplingReport,
    augmented_capacity_basis,
    augmented_spatial_profile,
    build_augmented_covariance,
    build_augmented_projection,
    decoupling_nu,
    estimate_nu_monte_carlo,
)
from capnet.core import (
    CapacityBasis,
    CovarianceMatrix,
    ProjectionMatrix,
    capacity_of_subspace,
    orthonormal_basis,
    spatial_profile,
)


def _random_projection(rng, n, m):
    return ProjectionMatrix.from_raw(rng.standard_normal((n, m)))


def _linear_stacked(k, m):
    """Augmented basis for linear activations: each of the m blocks is K/sqrt(m)."""
    return CapacityBasis(np.tile(k.columns / np.sqrt(m), (m, 1)))


def _modified_gram_schmidt(matrix, tol=1e-10):
    basis = []
    for v in matrix.T:
        w = v.astype(float).copy()
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm > tol * max(1.0, np.linalg.norm(v)):
            basis.append(w / norm)
    return np.column_stack(basis) if basis else np.zeros((matrix.shape[0], 0))


class TestActivation:
    @pytest.mark.parametrize(
        "text, kind", [("linear", "linear"), ("relu", "relu"), ("abs", "abs")]
    )
    def test_parse_bare_kinds(self, text, kind):
        act = Activation.parse(text)
        assert act.kind == kind
        assert act.spec() == text

    def test_parse_leaky_relu(self):
        act = Activation.parse("leaky_relu:0.2")
        assert act.kind == "leaky_relu"
        assert act.leak == 0.2
        assert act.spec() == "leaky_relu:0.2"

    def test_parse_pseudo_random(self):
        assert Activation.parse("pseudo_random").sigma == 1.0
        assert Activation.parse("pseudo_random:2.5").sigma == 2.5
        assert Activation.parse("pseudo_random:2.5").spec() == "pseudo_random:2.5"

    @pytest.mark.parametrize(
        "text", ["", "gelu", "relu:1", "leaky_relu", "leaky_relu:x", "pseudo_random:0x"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            Activation.parse(text)

    @pytest.mark.parametrize(
        "act",
        [
            Activation.linear(),
            Activation.relu(),
            Activation.abs(),
            Activation.leaky_relu(0.3),
            Activation.leaky_relu(-0.7),
        ],
    )
    def test_slope_normalization(self, act):
        assert act.alpha**2 + act.beta**2 == pytest.approx(2.0, abs=1e-12)

    def test_relu_slopes(self):
        act = Activation.relu()
        assert act.alpha == 0.0
        assert act.beta == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("kind", ["relu", "pseudo_random"])
    @pytest.mark.parametrize("slope", ["alpha", "beta"])
    def test_slopes_cannot_be_passed(self, kind, slope):
        with pytest.raises(TypeError, match=slope):
            Activation(kind, **{slope: 5.0})

    def test_custom_requires_fn(self):
        with pytest.raises(ValueError, match="custom_fn"):
            Activation("custom")

    def test_sigma_must_be_positive(self):
        # NaN, the infinities and a sigma whose sigma**4 overflows are refused too
        for sigma in (0.0, math.nan, math.inf, -math.inf, 1e200):
            with pytest.raises(ValueError, match="sigma"):
                Activation.pseudo_random(sigma)

    def test_apply_matches_eta_times_z(self):
        z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        act = Activation.leaky_relu(0.1)
        np.testing.assert_allclose(act.apply(z), act.eta(z) * z)

    def test_custom_eta_recovers_multiplier(self):
        act = Activation.custom(lambda z: 3.0 * z)
        z = np.array([-1.0, 2.0])
        np.testing.assert_allclose(act.eta(z), [3.0, 3.0])

    def test_custom_eta_is_zero_at_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = Activation.custom(np.tanh).eta([0.0, -0.0, 1.0])
        np.testing.assert_array_equal(eta, [0.0, 0.0, np.tanh(1.0)])

    def test_custom_eta_needs_zero_at_origin(self):
        with pytest.raises(ValueError, match="f\\(0\\) != 0"):
            Activation.custom(np.cos).eta([0.0, 1.0])


class TestBuildAugmentedProjection:
    def test_one_by_one(self):
        p_tilde = build_augmented_projection(ProjectionMatrix(np.array([[1.0]])))
        np.testing.assert_array_equal(p_tilde, [[1.0]])

    def test_two_by_two_block_layout(self):
        p = _random_projection(np.random.default_rng(1), 2, 2)
        p_tilde = build_augmented_projection(p)
        assert p_tilde.shape == (4, 2)
        np.testing.assert_array_equal(p_tilde[:2, 0], p.matrix[:, 0])
        np.testing.assert_array_equal(p_tilde[2:, 1], p.matrix[:, 1])
        np.testing.assert_array_equal(p_tilde[2:, 0], 0.0)
        np.testing.assert_array_equal(p_tilde[:2, 1], 0.0)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            p_tilde = build_augmented_projection(_random_projection(rng, n, m))
            np.testing.assert_allclose(p_tilde.T @ p_tilde, np.eye(m), atol=1e-12)


class TestBuildAugmentedCovariance:
    def test_linear_repeats_sigma_everywhere(self):
        out = build_augmented_covariance(
            CovarianceMatrix(np.eye(2)), Activation.linear(), m=2
        )
        np.testing.assert_allclose(out.entries, np.kron(np.ones((2, 2)), np.eye(2)))

    def test_pseudo_random_block_diagonal(self):
        sigma = CovarianceMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        out = build_augmented_covariance(sigma, Activation.pseudo_random(), m=2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = sigma.entries
        expected[2:, 2:] = sigma.entries
        np.testing.assert_allclose(out.entries, expected)

    def test_pseudo_random_sigma_scales_diagonal(self):
        sigma = CovarianceMatrix(np.eye(2))
        out = build_augmented_covariance(sigma, Activation.pseudo_random(2.0), m=2)
        np.testing.assert_allclose(out.entries, 4.0 * np.eye(4))

    def test_relu_off_diagonal_blocks(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        sigma = CovarianceMatrix(a @ a.T)
        out = build_augmented_covariance(sigma, Activation.relu(), m=3)
        for j in range(3):
            for k in range(3):
                block = out.entries[3 * j : 3 * (j + 1), 3 * k : 3 * (k + 1)]
                expected = sigma.entries if j == k else 0.5 * sigma.entries
                np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_output_is_psd_for_all_kinds(self):
        rng = np.random.default_rng(8)
        for act in [
            Activation.linear(),
            Activation.relu(),
            Activation.abs(),
            Activation.leaky_relu(-0.4),
            Activation.pseudo_random(0.7),
        ]:
            a = rng.standard_normal((2, 4))
            sigma = CovarianceMatrix(a @ a.T / 4)
            out = build_augmented_covariance(sigma, act, m=3)
            assert np.linalg.eigvalsh(out.entries)[0] >= -1e-10

    def test_custom_unsupported(self):
        with pytest.raises(ValueError, match="closed-form"):
            build_augmented_covariance(
                CovarianceMatrix(np.eye(2)), Activation.custom(np.tanh), m=2
            )


class TestDecouplingNu:
    def test_closed_forms(self):
        assert decoupling_nu(Activation.linear()) == pytest.approx(1.0)
        assert decoupling_nu(Activation.relu()) == pytest.approx(0.5)
        assert decoupling_nu(Activation.abs()) == pytest.approx(0.0, abs=1e-15)
        assert decoupling_nu(Activation.pseudo_random()) == 0.0

    def test_leaky_relu_closed_form(self):
        act = Activation.leaky_relu(0.2)
        assert decoupling_nu(act) == pytest.approx(1.44 / 2.08, abs=1e-12)

    def test_monotone_in_slope(self):
        slopes = np.linspace(-1.0, 1.0, 41)
        values = [decoupling_nu(Activation.leaky_relu(a)) for a in slopes]
        assert values[0] == pytest.approx(0.0, abs=1e-15)
        assert values[-1] == pytest.approx(1.0)
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_custom_unsupported(self):
        with pytest.raises(ValueError, match="piecewise-linear"):
            decoupling_nu(Activation.custom(np.tanh))


class TestEstimateNuMonteCarlo:
    def test_linear_is_exact(self):
        report = estimate_nu_monte_carlo(Activation.linear(), 100_000, seed=1)
        assert report.nu_hat == 1.0
        assert report.stderr == 0.0
        assert report.nu == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "act",
        [
            Activation.relu(),
            Activation.abs(),
            Activation.leaky_relu(0.2),
            Activation.leaky_relu(-0.5),
            Activation.pseudo_random(),
        ],
    )
    def test_matches_closed_form(self, act):
        report = estimate_nu_monte_carlo(act, 100_000, seed=13)
        assert report.stderr > 0
        assert abs(report.nu_hat - decoupling_nu(act)) <= 4.0 * report.stderr

    def test_deterministic_given_seed(self):
        a = estimate_nu_monte_carlo(Activation.relu(), 10_000, seed=5)
        b = estimate_nu_monte_carlo(Activation.relu(), 10_000, seed=5)
        assert a == b

    def test_abs_estimate_is_reproducible(self):
        a = estimate_nu_monte_carlo(Activation.abs(), 10_000, seed=5)
        b = estimate_nu_monte_carlo(Activation.abs(), 10_000, seed=5)
        assert a == b
        assert abs(a.nu_hat) <= 4.0 * a.stderr

    def test_rejects_small_samples(self):
        with pytest.raises(ValueError, match="1000"):
            estimate_nu_monte_carlo(Activation.relu(), 999, seed=0)


class TestLinearStackedBasis:
    def test_capacities_transfer_to_augmented_space(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            k = orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            k_tilde = _linear_stacked(k, m)
            s = CapacityBasis(np.linalg.qr(rng.standard_normal((n, n)))[0][:, :2])
            s_tilde = CapacityBasis(np.tile(s.columns / np.sqrt(m), (m, 1)))
            assert capacity_of_subspace(k_tilde, s_tilde) == pytest.approx(
                capacity_of_subspace(k, s), abs=1e-10
            )

    def test_spatial_profile_transfers(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            k = orthonormal_basis(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
            aggregated = augmented_spatial_profile(_linear_stacked(k, m), n)
            np.testing.assert_allclose(
                aggregated.values, spatial_profile(k).values, atol=1e-10
            )


class TestAugmentedCapacityBasis:
    def test_white_input_full_selector(self):
        p = _random_projection(np.random.default_rng(12), 3, 3)
        p_tilde = build_augmented_projection(p)
        sigma_tilde = CovarianceMatrix(np.eye(9))
        k_tilde = augmented_capacity_basis(sigma_tilde, p_tilde, CapacityBasis(np.eye(3)))
        assert k_tilde.rank == 3
        np.testing.assert_allclose(
            k_tilde.columns @ k_tilde.columns.T, p_tilde @ p_tilde.T, atol=1e-12
        )

    def test_white_input_single_feature(self):
        p = _random_projection(np.random.default_rng(13), 3, 2)
        p_tilde = build_augmented_projection(p)
        k_phi = CapacityBasis(np.array([[1.0], [0.0]]))
        k_tilde = augmented_capacity_basis(CovarianceMatrix(np.eye(6)), p_tilde, k_phi)
        assert k_tilde.rank == 1
        np.testing.assert_allclose(
            k_tilde.columns @ k_tilde.columns.T, np.outer(p_tilde[:, 0], p_tilde[:, 0]), atol=1e-12
        )

    def test_correlated_case_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(14)
        p = _random_projection(rng, 2, 2)
        p_tilde = build_augmented_projection(p)
        a = rng.standard_normal((2, 2))
        sigma = CovarianceMatrix(a @ a.T + 0.5 * np.eye(2))
        sigma_tilde = build_augmented_covariance(sigma, Activation.relu(), m=2)
        k_phi = CapacityBasis(np.eye(2))
        k_tilde = augmented_capacity_basis(sigma_tilde, p_tilde, k_phi)
        oracle = _modified_gram_schmidt(sigma_tilde.entries @ p_tilde @ k_phi.columns)
        np.testing.assert_allclose(
            k_tilde.columns @ k_tilde.columns.T, oracle @ oracle.T, atol=1e-9
        )

    def test_dimension_mismatch(self):
        p = _random_projection(np.random.default_rng(15), 2, 2)
        p_tilde = build_augmented_projection(p)
        with pytest.raises(ValueError, match="rows"):
            augmented_capacity_basis(
                CovarianceMatrix(np.eye(5)), p_tilde, CapacityBasis(np.eye(2))
            )
        with pytest.raises(ValueError, match="columns"):
            augmented_capacity_basis(
                CovarianceMatrix(np.eye(4)), p_tilde, CapacityBasis(np.eye(3))
            )


class TestLayoutAndSpace:
    def test_standard_layout_indexing(self):
        # n=3, m=2: row j*n + i of the augmented space belongs to input i
        k = CapacityBasis(np.eye(6)[:, [1, 3, 4]])
        profile = augmented_spatial_profile(k, 3)
        np.testing.assert_array_equal(profile.values, [1.0, 2.0, 0.0])

    def test_profile_layout_mismatch(self):
        k = CapacityBasis(np.eye(4))
        with pytest.raises(ValueError, match="not a multiple of n = 3"):
            augmented_spatial_profile(k, 3)


class TestDecouplingReport:
    def test_allows_unknown_closed_form(self):
        report = DecouplingReport(nu=None, nu_hat=1.5, stderr=0.01, n_samples=1000)
        assert report.nu is None
