import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capnet import oracle
from capnet.augment import (
    Activation,
    augmented_spatial_profile,
    build_augmented_projection,
    pseudo_random_eta,
)
from capnet.core import (
    CapacityBasis,
    CovarianceMatrix,
    ProjectionMatrix,
    capacity_of_subspace,
    orthonormal_basis,
)
from capnet.oracle import (
    _MAX_SAMPLE_WORK,
    _MEMORY_BUDGET_BYTES,
    EmpiricalReport,
    ExperimentConfig,
    SpatialCapacity,
    empirical_spatial_capacity,
    fit_optimal_last_layer,
    stationarity_noise_floor,
    verify_stationarity,
)


def _random_projection(rng, n, m):
    return ProjectionMatrix.from_raw(rng.standard_normal((n, m)))


def _inputs(config, sampler=None):
    """The config's sampled inputs (N, n) and pre-activations (N, m), from the pass's chunks."""
    chunks = list(
        oracle._chunks(config.p, config.activation, sampler, config.n_samples, config.seed)
    )
    return np.vstack([chunk[1] for chunk in chunks]), np.vstack([chunk[2] for chunk in chunks])


def _features(config, sampler=None):
    """The config's sampled inputs (N, n) and their features (N, m)."""
    y, z = _inputs(config, sampler)
    return y, config.activation.apply(z, key=oracle._derive_streams(config.seed)[1])


def _augment(y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Augmented samples (rows, n*m): row-block j holds eta(z_j) * y."""
    return (eta[:, :, None] * y[:, None, :]).reshape(y.shape[0], -1)


def empirical_sigma_tilde(p, act, sampler, n_samples, seed) -> CovarianceMatrix:
    """Sample average of the augmented second moment, symmetrized.

    The dense (n*m)**2 reference for the selected columns of Sigma~_hat P~
    that the pass keeps.  ``sampler=None`` draws i.i.d. standard-normal inputs.  Results are
    bit-identical for a given (seed, n_samples).
    """
    dim = p.n_in * p.n_out
    acc = np.zeros((dim, dim))
    for _, y, _, eta in oracle._chunks(p, act, sampler, n_samples, seed):
        rows = _augment(y, eta)
        acc += rows.T @ rows
    acc /= n_samples
    return CovarianceMatrix(0.5 * (acc + acc.T))


class TestPseudoRandomEta:
    def test_deterministic(self):
        z = np.random.default_rng(0).standard_normal(1000)
        np.testing.assert_array_equal(pseudo_random_eta(z, 42), pseudo_random_eta(z, 42))

    def test_scalar_round_trip(self):
        out = pseudo_random_eta(0.3, 42, sigma=1.5)
        assert isinstance(out, float)
        assert out in (-1.5, 1.5)
        assert out == pseudo_random_eta(0.3, 42, sigma=1.5)

    def test_values_are_plus_minus_sigma(self):
        out = pseudo_random_eta(np.linspace(-3, 3, 500), 9, sigma=2.0)
        assert set(np.unique(out)) == {-2.0, 2.0}

    def test_negative_zero_canonicalized(self):
        assert pseudo_random_eta(-0.0, 3) == pseudo_random_eta(0.0, 3)

    def test_mean_vanishes(self):
        z = np.random.default_rng(1).standard_normal(100_000)
        mean = pseudo_random_eta(z, 17).mean()
        assert abs(mean) <= 3.0 / np.sqrt(z.size)

    def test_decorrelation_at_tiny_separation(self):
        z = np.random.default_rng(2).standard_normal(10_000)
        eta_a = pseudo_random_eta(z, 23)
        eta_b = pseudo_random_eta(z + 1e-12, 23)
        corr = np.corrcoef(eta_a, eta_b)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(z.size)

    def test_different_seeds_differ(self):
        z = np.linspace(-2, 2, 1000)
        a = pseudo_random_eta(z, 1)
        b = pseudo_random_eta(z, 2)
        assert np.any(a != b)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            pseudo_random_eta(np.array([0.1, np.nan]), 0)

    def test_rejects_nonpositive_sigma(self):
        # NaN, the infinities and a sigma whose sigma**4 overflows are refused too
        for sigma in (0.0, -1.0, math.nan, math.inf, -math.inf, 1e200):
            with pytest.raises(ValueError, match="sigma must be positive"):
                pseudo_random_eta(0.3, 0, sigma=sigma)

    def test_seed_taken_modulo_2_64(self):
        z = np.linspace(-3, 3, 59)
        top = pseudo_random_eta(z, 2**64 - 1)
        np.testing.assert_array_equal(pseudo_random_eta(z, -1), top)
        np.testing.assert_array_equal(pseudo_random_eta(z, 2**65 - 1), top)
        np.testing.assert_array_equal(pseudo_random_eta(z, 2**64), pseudo_random_eta(z, 0))

    # Signs of the hash as first released: +0.0, -0.0, the smallest subnormal,
    # 1e300, -1e300 and then np.linspace(-3, 3, 59).  Any change to the
    # finalizer, the seed mixing or the sign bit shows up here.
    _GOLDEN_Z = np.concatenate([[0.0, -0.0, 5e-324, 1e300, -1e300], np.linspace(-3, 3, 59)])
    _GOLDEN_SIGNS = {
        0: "++-+-+----++++--+-++---++++------++-+---+-++++-++++-+++----++++-",
        2**64 - 1: "----------+---++--++++----+-+--+-+--+--+---++++-+---+-+-++--++++",
    }

    @pytest.mark.parametrize("seed", sorted(_GOLDEN_SIGNS))
    @pytest.mark.parametrize("sigma", [1.0, 0.37])
    def test_golden_bits(self, seed, sigma):
        expected = np.array([sigma if c == "+" else -sigma for c in self._GOLDEN_SIGNS[seed]])
        np.testing.assert_array_equal(pseudo_random_eta(self._GOLDEN_Z, seed, sigma), expected)
        grid = pseudo_random_eta(self._GOLDEN_Z[5:17].reshape(3, 4), seed, sigma)
        np.testing.assert_array_equal(grid, expected[5:17].reshape(3, 4))
        for z, want in zip(self._GOLDEN_Z, expected):
            scalar = pseudo_random_eta(float(z), seed, sigma)
            zero_d = pseudo_random_eta(np.array(z), seed, sigma)
            assert isinstance(scalar, float) and isinstance(zero_d, float)
            assert scalar == zero_d == want


class TestEmpiricalSigmaTilde:
    def test_linear_blocks_all_equal(self):
        rng = np.random.default_rng(30)
        p = _random_projection(rng, 3, 2)
        out = empirical_sigma_tilde(p, Activation.linear(), None, 2000, seed=4)
        n = 3
        ref = out.entries[:n, :n]
        for j in range(2):
            for k in range(2):
                block = out.entries[n * j : n * (j + 1), n * k : n * (k + 1)]
                np.testing.assert_allclose(block, ref, atol=1e-12)
        np.testing.assert_allclose(ref, np.eye(3), atol=4.0 * np.sqrt(3.0 / 2000))

    def test_pseudo_random_off_diagonal_vanishes(self):
        rng = np.random.default_rng(31)
        n, m, n_samples = 3, 3, 100_000
        p = _random_projection(rng, n, m)
        out = empirical_sigma_tilde(p, Activation.pseudo_random(), None, n_samples, seed=5)
        noise_floor = np.sqrt((n * n + 2 * n) / n_samples)
        for j in range(m):
            for k in range(m):
                if j == k:
                    continue
                block = out.entries[n * j : n * (j + 1), n * k : n * (k + 1)]
                assert np.linalg.norm(block) <= 4.0 * noise_floor

    def test_relu_off_diagonal_blocks_half_sigma_plus_structure(self):
        # Orthogonal columns make the z's independent; the decoupled form
        # 0.5*Sigma then holds up to the exact rank-2 correction
        # (p_j p_k^T + p_k p_j^T) / pi coming from eta's dependence on y.
        n, m, n_samples = 3, 3, 100_000
        q, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((n, n)))
        p = ProjectionMatrix(q)
        out = empirical_sigma_tilde(p, Activation.relu(), None, n_samples, seed=6)
        noise_floor = np.sqrt(3.0 / n_samples) * n
        structure_norm = np.sqrt(2.0) / np.pi
        for j in range(m):
            for k in range(m):
                if j == k:
                    continue
                block = out.entries[n * j : n * (j + 1), n * k : n * (k + 1)]
                correction = (np.outer(q[:, j], q[:, k]) + np.outer(q[:, k], q[:, j])) / np.pi
                assert np.linalg.norm(block - 0.5 * np.eye(n) - correction) <= 4.0 * noise_floor
                naive_gap = np.linalg.norm(block - 0.5 * np.eye(n))
                assert abs(naive_gap - structure_norm) <= 4.0 * noise_floor

    def test_relu_diagonal_blocks_exact(self):
        n, n_samples = 3, 100_000
        q, _ = np.linalg.qr(np.random.default_rng(36).standard_normal((n, n)))
        p = ProjectionMatrix(q)
        out = empirical_sigma_tilde(p, Activation.relu(), None, n_samples, seed=26)
        noise_floor = np.sqrt(3.0 / n_samples) * n
        for j in range(n):
            block = out.entries[n * j : n * (j + 1), n * j : n * (j + 1)]
            assert np.linalg.norm(block - np.eye(n)) <= 4.0 * noise_floor

    def test_deterministic_given_seed(self):
        p = _random_projection(np.random.default_rng(33), 2, 2)
        a = empirical_sigma_tilde(p, Activation.relu(), None, 4000, seed=7)
        b = empirical_sigma_tilde(p, Activation.relu(), None, 4000, seed=7)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_custom_sampler_shape_checked(self):
        p = _random_projection(np.random.default_rng(34), 2, 2)
        with pytest.raises(ValueError, match="sampler"):
            empirical_sigma_tilde(
                p,
                Activation.linear(),
                lambda rng, count, n: rng.standard_normal((count, n + 1)),
                2000,
                seed=8,
            )

    def test_non_finite_sampler_refused(self):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(36), 4, 4),
            Activation.linear(), (0, 1), 2000, seed=1,
        )

        def sampler(rng, count, n):
            y = rng.standard_normal((count, n))
            y[3, 0] = math.nan
            return y

        # no rank test catches NaN features, so the fit would return NaN weights
        with pytest.raises(ValueError, match="sampler returned non-finite values"):
            fit_optimal_last_layer(config, lambda y: y[:, 0], sampler)
        with pytest.raises(ValueError, match="sampler returned non-finite values"):
            empirical_spatial_capacity(config, sampler)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_target_refused(self, bad):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(36), 4, 4),
            Activation.linear(), (0, 1), 2000, seed=1,
        )

        def target(y):
            return y[:, 0] * bad

        # unrefused, the fit returned [nan nan 0 0]
        with pytest.raises(ValueError, match="target returned non-finite values"):
            fit_optimal_last_layer(config, target)
        a_star = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="target returned non-finite values"):
            verify_stationarity(config, a_star, target)
        with pytest.raises(ValueError, match="target returned non-finite values"):
            stationarity_noise_floor(config, a_star, target)

    def test_rejects_small_samples(self):
        p = _random_projection(np.random.default_rng(35), 2, 2)
        with pytest.raises(ValueError, match="1000"):
            ExperimentConfig(p, Activation.linear(), (0,), 999, seed=0)


class TestFitOptimalLastLayer:
    def test_recovers_realizable_target(self):
        rng = np.random.default_rng(40)
        p = _random_projection(rng, 4, 4)
        config = ExperimentConfig(
            p=p,
            activation=Activation.relu(),
            param_selector=(0, 2),
            n_samples=5000,
            seed=9,
        )
        a_true = np.zeros(4)
        a_true[[0, 2]] = [1.5, -0.7]

        def target(y):
            return config.activation.apply(y @ p.matrix) @ a_true

        a_star = fit_optimal_last_layer(config, target)
        np.testing.assert_allclose(a_star, a_true, atol=1e-8)

    def test_zero_target_gives_zero(self):
        p = _random_projection(np.random.default_rng(41), 3, 3)
        config = ExperimentConfig(
            p=p,
            activation=Activation.abs(),
            param_selector=(0, 1, 2),
            n_samples=2000,
            seed=10,
        )
        a_star = fit_optimal_last_layer(config, lambda y: np.zeros(y.shape[0]))
        np.testing.assert_allclose(a_star, 0.0, atol=1e-12)

    def test_orthogonal_noise_sets_residual_floor(self):
        rng = np.random.default_rng(42)
        p = _random_projection(rng, 3, 3)
        n_samples = 40_000
        config = ExperimentConfig(
            p=p,
            activation=Activation.relu(),
            param_selector=(0, 1, 2),
            n_samples=n_samples,
            seed=11,
        )
        a_true = np.array([0.5, -1.0, 0.2])
        noise_sigma = 0.3
        noise_rng = np.random.default_rng(12)

        def target(y):
            model = config.activation.apply(y @ p.matrix) @ a_true
            return model + noise_sigma * noise_rng.standard_normal(y.shape[0])

        a_star = fit_optimal_last_layer(config, target)
        y, feats = _features(config)
        noise_rng = np.random.default_rng(12)
        residual = target(y) - feats @ a_star
        mse = float(np.mean(residual**2))
        assert mse == pytest.approx(noise_sigma**2, rel=0.05)

    def test_rank_deficiency_names_columns(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        w = (u + v) / np.linalg.norm(u + v)
        p = ProjectionMatrix(np.column_stack([u, v, w]))
        config = ExperimentConfig(
            p=p,
            activation=Activation.linear(),
            param_selector=(0, 1, 2),
            n_samples=2000,
            seed=13,
        )
        with pytest.raises(ValueError, match=r"\[2\] are rank deficient"):
            fit_optimal_last_layer(config, lambda y: y[:, 0])

    def test_two_deficient_columns_are_both_named(self):
        # w and x both lie in the plane of u and v, so each adds nothing to the columns before it
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        w = (u + v) / np.linalg.norm(u + v)
        x = (u - v) / np.linalg.norm(u - v)
        p = ProjectionMatrix(np.column_stack([u, w, v, x]))
        config = ExperimentConfig(p, Activation.linear(), (0, 1, 2, 3), 2000, seed=13)
        with pytest.raises(ValueError, match=r"columns \[2, 3\] are rank deficient"):
            fit_optimal_last_layer(config, lambda y: y[:, 0])

    def test_nearly_parallel_columns_never_name_an_empty_list(self):
        # at an angle of 1.5e-10 the second column's residual is just above the
        # 1e-10 rank tolerance: a refusal must name a column, or the fit runs
        theta = 1.5e-10
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([math.cos(theta), math.sin(theta), 0.0])
        p = ProjectionMatrix(np.column_stack([u, v, [0.0, 0.0, 1.0]]))
        config = ExperimentConfig(p, Activation.linear(), (0, 1), 2000, seed=13)
        try:
            a_star = fit_optimal_last_layer(config, lambda y: y[:, 0])
        except ValueError as exc:
            assert "columns []" not in str(exc)
        else:
            assert np.all(np.isfinite(a_star))


class TestVerifyStationarity:
    def _config(self, seed=14, n_samples=20_000, activation=None):
        p = _random_projection(np.random.default_rng(50), 4, 4)
        return ExperimentConfig(
            p=p,
            activation=activation or Activation.pseudo_random(),
            param_selector=(0, 1, 3),
            n_samples=n_samples,
            seed=seed,
        )

    def test_realizable_target_residual_tiny(self):
        config = self._config()
        a_true = np.zeros(4)
        a_true[[0, 1, 3]] = [1.0, -2.0, 0.5]
        from capnet.oracle import _derive_streams

        _, eta_key, _ = _derive_streams(config.seed)

        def target(y):
            return config.activation.apply(y @ config.p.matrix, key=eta_key) @ a_true

        a_star = fit_optimal_last_layer(config, target)
        residual = verify_stationarity(config, a_star, target)
        assert residual <= 1e-6 * max(1.0, np.linalg.norm(a_star))

    def test_generic_target_within_noise_floor(self):
        config = self._config()
        rng = np.random.default_rng(15)
        a_gen = rng.standard_normal(4)

        def target(y):
            return np.tanh(y @ config.p.matrix) @ a_gen

        a_star = fit_optimal_last_layer(config, target)
        residual = verify_stationarity(config, a_star, target)
        floor = stationarity_noise_floor(config, a_star, target)
        assert floor > 0
        assert residual <= 4.0 * floor

    def test_perturbation_increases_loss(self):
        config = self._config(n_samples=5000)
        rng = np.random.default_rng(16)
        a_gen = rng.standard_normal(4)

        def target(y):
            return np.tanh(y @ config.p.matrix) @ a_gen

        a_star = fit_optimal_last_layer(config, target)
        y, feats = _features(config)
        t = target(y)
        base = float(np.mean((t - feats @ a_star) ** 2))
        for delta in (0.1, -0.1):
            bumped = a_star.copy()
            bumped[config.param_selector[0]] += delta
            assert float(np.mean((t - feats @ bumped) ** 2)) > base


class TestEmpiricalSpatialCapacity:
    def test_full_selector_matches_column_mass(self):
        rng = np.random.default_rng(60)
        p = _random_projection(rng, 4, 4)
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=(0, 1, 2, 3),
            n_samples=20_000,
            seed=17,
        )
        report = empirical_spatial_capacity(config)
        assert report.kappa_hat.total == pytest.approx(4.0, abs=1e-9)
        np.testing.assert_allclose(
            report.kappa_hat.values, np.sum(p.matrix**2, axis=1), atol=0.05
        )

    def test_single_feature_selector(self):
        rng = np.random.default_rng(61)
        p = _random_projection(rng, 4, 4)
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=(1,),
            n_samples=20_000,
            seed=18,
        )
        report = empirical_spatial_capacity(config)
        assert report.kappa_hat.total == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(
            report.kappa_theory.values, p.matrix[:, 1] ** 2, atol=1e-12
        )
        assert report.max_abs_dev <= 0.05

    def test_random_eight_by_eight(self):
        rng = np.random.default_rng(62)
        p = _random_projection(rng, 8, 8)
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=(1, 4, 6),
            n_samples=100_000,
            seed=19,
        )
        report = empirical_spatial_capacity(config)
        assert report.max_abs_dev <= 1e-2
        assert report.kappa_hat.total == pytest.approx(3.0, abs=1e-9)
        assert report.stationarity_residual >= 0

    def test_deviation_shrinks_like_root_n(self):
        # max_abs_dev is heavy-tailed at a single seed; average a few
        # replications per sample size before taking the step ratios.
        rng = np.random.default_rng(63)
        p = _random_projection(rng, 6, 6)
        devs = []
        for n_samples in (10_000, 40_000, 160_000):
            reps = []
            for seed in range(100, 112):
                config = ExperimentConfig(
                    p=p,
                    activation=Activation.pseudo_random(),
                    param_selector=(0, 3),
                    n_samples=n_samples,
                    seed=seed,
                )
                reps.append(empirical_spatial_capacity(config).max_abs_dev)
            devs.append(float(np.sqrt(np.mean(np.square(reps)))))
        for a, b in zip(devs, devs[1:]):
            assert 1.4 <= a / b <= 2.6

    def test_deterministic_reports(self):
        p = _random_projection(np.random.default_rng(64), 3, 3)
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=(0, 2),
            n_samples=5000,
            seed=21,
        )
        a = empirical_spatial_capacity(config)
        b = empirical_spatial_capacity(config)
        np.testing.assert_array_equal(a.kappa_hat.values, b.kappa_hat.values)
        np.testing.assert_array_equal(a.kappa_theory.values, b.kappa_theory.values)
        assert a.max_abs_dev == b.max_abs_dev
        assert a.stationarity_residual == b.stationarity_residual

    def test_non_iid_sampler_reports_caveat(self):
        p = _random_projection(np.random.default_rng(65), 3, 3)
        config = ExperimentConfig(
            p=p,
            activation=Activation.pseudo_random(),
            param_selector=(0, 1),
            n_samples=5000,
            seed=22,
        )
        scales = np.array([1.0, 2.0, 0.5])
        report = empirical_spatial_capacity(
            config, sampler=lambda rng, count, n: rng.standard_normal((count, n)) * scales
        )
        assert report.kappa_theory is None
        assert report.max_abs_dev is None
        assert "refused" in report.caveat
        assert report.kappa_hat.total == pytest.approx(2.0, abs=1e-9)

    def test_non_closed_form_activation_reports_caveat(self):
        p = _random_projection(np.random.default_rng(66), 3, 3)
        config = ExperimentConfig(
            p=p,
            activation=Activation.relu(),
            param_selector=(0, 1),
            n_samples=5000,
            seed=23,
        )
        report = empirical_spatial_capacity(config)
        assert report.kappa_theory is None
        assert "general-path" in report.caveat

    def test_linear_control_matches_input_space_capacity(self):
        rng = np.random.default_rng(67)
        n, m, n_samples = 3, 3, 20_000
        p = _random_projection(rng, n, m)
        selector = [0, 2]
        sigma_tilde = empirical_sigma_tilde(
            p, Activation.linear(), None, n_samples, seed=24
        )
        sigma_hat = sigma_tilde.entries[:n, :n]
        p_tilde = build_augmented_projection(p)
        k_phi = np.eye(m)[:, selector]
        k_tilde = orthonormal_basis(sigma_tilde.entries @ p_tilde @ k_phi)
        k_input = orthonormal_basis(sigma_hat @ p.matrix[:, selector])
        s = CapacityBasis(np.linalg.qr(rng.standard_normal((n, n)))[0][:, :2])
        s_tilde = CapacityBasis(np.tile(s.columns / np.sqrt(m), (m, 1)))
        assert capacity_of_subspace(k_tilde, s_tilde) == pytest.approx(
            capacity_of_subspace(k_input, s), abs=1e-6
        )
        np.testing.assert_allclose(
            augmented_spatial_profile(k_tilde, n).values,
            np.sum(k_input.columns**2, axis=1),
            atol=1e-6,
        )


class TestConfigAndReportValidation:
    def test_selector_must_be_non_empty(self):
        p = _random_projection(np.random.default_rng(70), 2, 2)
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentConfig(p, Activation.relu(), (), 2000, seed=0)

    def test_selector_bounds_checked(self):
        p = _random_projection(np.random.default_rng(71), 2, 2)
        with pytest.raises(ValueError, match="range"):
            ExperimentConfig(p, Activation.relu(), (0, 2), 2000, seed=0)

    def test_selector_uniqueness(self):
        p = _random_projection(np.random.default_rng(72), 2, 2)
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig(p, Activation.relu(), (0, 0), 2000, seed=0)

    def test_selector_basis_rank(self):
        p = _random_projection(np.random.default_rng(73), 4, 4)
        config = ExperimentConfig(p, Activation.relu(), (3, 1), 2000, seed=0)
        assert config.param_selector == (1, 3)
        # the capacity basis has one direction per selected coordinate
        report = empirical_spatial_capacity(config)
        assert report.kappa_hat.total == pytest.approx(2.0, abs=1e-12)

    def test_report_to_dict_round_trip_fields(self):
        kappa = SpatialCapacity(np.array([0.5, 0.5]))
        report = EmpiricalReport(kappa, kappa, 0.0, 1e-12)
        out = report.to_dict()
        assert out["kappa_hat"] == [0.5, 0.5]
        assert out["max_abs_dev"] == 0.0

    def test_report_noise_floor_emitted(self):
        kappa = SpatialCapacity(np.array([1.0]))
        report = EmpiricalReport(kappa, kappa, 0.0, 0.0, stationarity_noise_floor=0.25)
        assert report.to_dict()["stationarity_noise_floor"] == 0.25
        assert "stationarity_noise_floor" not in EmpiricalReport(kappa, kappa, 0.0, 0.0).to_dict()


def _batch_reference(config, target, sampler=None):
    """kappa_hat, a_star, residual and jackknife floor from the whole augmented rows.

    This is the direct form the single pass replaces: it holds the N x n*m
    augmented samples, forms Sigma~_hat, and solves least squares on the
    whole feature matrix.  The inputs y and z = y P are taken from the pass's
    chunks: the pseudo-random eta hashes the bits of z, and BLAS may round a
    row of y P differently in a batch of another size.

    Returns the values and, under the same keys, their rounding scales: the
    size each is computed from times the condition number of the matrix it
    is solved or orthonormalized from.  That is cond(F_sel) |a*| for a*,
    cond(M) |X~| for the residual, the largest block cond(M_b) |X~| for the
    floor and cond(M) for kappa, where M = Sigma~_hat P~ K_phi.
    """
    eta_key = oracle._derive_streams(config.seed)[1]
    y, z = _inputs(config, sampler)
    rows = np.einsum("sj,si->sji", config.activation.eta(z, key=eta_key), y)
    rows = rows.reshape(config.n_samples, config.n * config.m)
    feats = config.activation.apply(z, key=eta_key)
    t = target(y)
    p_tilde = build_augmented_projection(config.p)
    k_phi = np.eye(config.m)[:, list(config.param_selector)]

    def ranked(block):
        """Sigma~_hat P~ K_phi of a block of samples: what orthonormal_basis ranks."""
        return block.T @ block / block.shape[0] @ p_tilde @ k_phi

    full = ranked(rows)
    edges = np.linspace(0, config.n_samples, 9, dtype=int)
    blocks = [ranked(rows[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    k_tilde = orthonormal_basis(full)
    kappa = augmented_spatial_profile(k_tilde, config.n).values
    selected = list(config.param_selector)
    a_star = np.zeros(config.m)
    a_star[selected] = np.linalg.lstsq(feats[:, selected], t, rcond=None)[0]
    a_full = np.linalg.lstsq(feats, t, rcond=None)[0]
    x_tilde = p_tilde @ (a_star - a_full)
    residual = float(np.linalg.norm(k_tilde.columns.T @ x_tilde))
    floor = np.mean([
        np.linalg.norm(orthonormal_basis(block).columns.T @ x_tilde) for block in blocks
    ]) / math.sqrt(8)
    values = dict(kappa=kappa, a_star=a_star, residual=residual, floor=float(floor))
    gap = np.linalg.norm(x_tilde)
    scales = dict(
        kappa=np.linalg.cond(full),
        a_star=np.linalg.cond(feats[:, selected]) * np.linalg.norm(a_star),
        residual=np.linalg.cond(full) * gap,
        floor=max(np.linalg.cond(block) for block in blocks) * gap,
    )
    return values, scales


_ACTIVATIONS = {
    "pseudo_random": Activation.pseudo_random(),
    "relu": Activation.relu(),
    "custom": Activation.custom(np.tanh),
}


class TestSinglePass:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        activation=st.sampled_from(sorted(_ACTIVATIONS)),
        n_samples=st.integers(1000, 2600),
        chunk_rows=st.integers(5, 400),
        custom_sampler=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
    )
    # where the two forms once differed by 2e-12 to 6e-12: tanh features with
    # m > n, and a relu fit with |a*| = 72
    @example(n=2, m=4, activation="custom", n_samples=1000, chunk_rows=5,
             custom_sampler=False, seed=160000, picks=[0, 1, 2])
    @example(n=2, m=6, activation="custom", n_samples=1000, chunk_rows=5,
             custom_sampler=False, seed=0, picks=[0, 1, 2, 3])
    @example(n=2, m=6, activation="custom", n_samples=1000, chunk_rows=5,
             custom_sampler=False, seed=4858, picks=[0, 1, 2, 3])
    @example(n=2, m=2, activation="relu", n_samples=1000, chunk_rows=5,
             custom_sampler=True, seed=3673, picks=[0, 1])
    def test_stream_equals_batch(
        self, n, m, activation, n_samples, chunk_rows, custom_sampler, seed, picks
    ):
        try:
            p = _random_projection(np.random.default_rng(seed), n, m)
        except ValueError:
            assume(False)  # duplicate columns, possible when n = 1
        selector = sorted({i % m for i in picks})
        config = ExperimentConfig(p, _ACTIVATIONS[activation], selector, n_samples, seed)
        scales = np.linspace(0.5, 2.0, n)

        def scaled(rng, count, dim):
            return rng.standard_normal((count, dim)) * scales

        sampler = scaled if custom_sampler else None
        a_gen = np.random.default_rng(seed + 1).standard_normal(m)

        def target(y):
            return np.sin(y @ p.matrix) @ a_gen + y[:, 0]

        # keep to well-posed fits: rounding in both forms grows with the
        # conditioning of F, which bounds that of its selected columns
        assume(np.linalg.cond(_features(config, sampler)[1]) < 1e3)
        # n + 2m + 2 floats a row, as the pass sizes its chunks
        chunk_bytes = chunk_rows * 8 * (n + 2 * m + 2)
        with mock.patch.object(oracle, "_CHUNK_BYTES", chunk_bytes):
            try:
                ref, scale = _batch_reference(config, target, sampler)
            except ValueError:
                assume(False)  # rank-deficient selected features
            # 1e-12, unless ten unit roundoffs of the value's rounding scale are
            # more: where a* and X~ are large or Sigma~ P~ K_phi is poorly
            # conditioned (tanh features of m > n columns are nearly
            # collinear), the two forms round apart by more than 1e-12
            tol = {key: max(1e-12, 10 * np.finfo(float).eps * s) for key, s in scale.items()}
            streamed = fit_optimal_last_layer(config, target, sampler)
            np.testing.assert_allclose(streamed, ref["a_star"], rtol=0, atol=tol["a_star"])
            got = verify_stationarity(config, streamed, target, sampler)
            assert abs(got - ref["residual"]) <= tol["residual"]
            got = stationarity_noise_floor(config, streamed, target, sampler)
            assert abs(got - ref["floor"]) <= tol["floor"]
            report = empirical_spatial_capacity(config, sampler)
        np.testing.assert_allclose(
            report.kappa_hat.values, ref["kappa"], rtol=0, atol=tol["kappa"]
        )

    def test_chunked_draw_equals_one_draw(self):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(79), 5, 1),
            Activation.relu(), (0,), 10_000, seed=3,
        )
        whole = np.random.default_rng(oracle._derive_streams(3)[0]).standard_normal((10_000, 5))
        # chunks of the 4-row floor, of 1001 rows and of whole jackknife blocks
        for rows in (1, 1001, 1250):
            with mock.patch.object(oracle, "_CHUNK_BYTES", rows * 8 * (5 + 2 + 2)):
                np.testing.assert_array_equal(_inputs(config)[0], whole)

    def test_sampler_called_once_per_chunk_in_order(self):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(80), 3, 3),
            Activation.relu(), (0, 2), 3000, seed=30,
        )
        drawn, seen = [], []

        def sampler(rng, count, n):
            drawn.append(rng.standard_normal((count, n)) + 1.0)
            return drawn[-1]

        def target(y):
            seen.append(y.copy())
            return y[:, 0]

        with mock.patch.object(oracle, "_CHUNK_BYTES", 100 * 8 * (3 + 2 * 3 + 2)):
            fit_optimal_last_layer(config, target, sampler)
        # 375 rows a jackknife block, drawn in chunks of at most 100
        assert [len(y) for y in drawn] == [100, 100, 100, 75] * 8
        np.testing.assert_array_equal(np.vstack(seen), np.vstack(drawn))

    @pytest.mark.parametrize("activation", [Activation.pseudo_random(), Activation.relu()])
    def test_row_wise_sampler_gives_the_default_kappa(self, activation):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(84), 4, 5), activation, (1, 3), 6000, seed=33
        )
        default = empirical_spatial_capacity(config)
        custom = empirical_spatial_capacity(
            config, sampler=lambda rng, count, n: rng.standard_normal((count, n))
        )
        np.testing.assert_array_equal(custom.kappa_hat.values, default.kappa_hat.values)
        assert custom.stationarity_residual == default.stationarity_residual
        assert custom.kappa_theory is None and "refused" in custom.caveat

    def test_target_called_once_per_chunk_in_order(self):
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(80), 3, 3),
            Activation.relu(), (0, 2), 3000, seed=30,
        )
        seen = []

        def target(y):
            seen.append(y.copy())
            return y[:, 0]

        # n + 2m + 2 floats a row at n = m = 3
        with mock.patch.object(oracle, "_CHUNK_BYTES", 100 * 8 * (3 + 2 * 3 + 2)):
            fit_optimal_last_layer(config, target)
        assert len(seen) == 8 * 4  # 375 rows a block, in chunks of 100
        np.testing.assert_array_equal(np.vstack(seen), _features(config)[0])

    def test_report_floor_matches_public_reader(self):
        # the report's floor comes from the same pass as its residual
        config = ExperimentConfig(
            _random_projection(np.random.default_rng(81), 4, 4),
            Activation.pseudo_random(), (1, 2), 8000, seed=31,
        )
        _, eta_key, aux = oracle._derive_streams(config.seed)
        a_gen = np.random.default_rng(aux).standard_normal(config.m)

        def target(y):
            # z in the oracle's fixed summation order, so eta hashes the same bits
            z = np.einsum("ri,ij->rj", y, config.p.matrix, optimize=False)
            return config.activation.apply(z, key=eta_key) @ a_gen

        report = empirical_spatial_capacity(config)
        a_star = fit_optimal_last_layer(config, target)
        assert report.stationarity_noise_floor == pytest.approx(
            stationarity_noise_floor(config, a_star, target), rel=1e-12
        )
        assert report.stationarity_residual <= 4.0 * report.stationarity_noise_floor

    def test_memory_is_flat_in_sample_count(self):
        # the whole-rows form peaked at 724 MiB for n = m = 16 and N = 160k
        p = _random_projection(np.random.default_rng(82), 16, 16)
        peaks = []
        for n_samples in (160_000, 640_000):
            config = ExperimentConfig(
                p, Activation.pseudo_random(), (0, 3, 5, 9, 12), n_samples, seed=32
            )
            tracemalloc.start()
            try:
                empirical_spatial_capacity(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 48 * 2**20
        assert peaks[1] <= 1.1 * peaks[0]


class TestChunkInvariance:
    """The pass gives the same answer however the samples are chunked.

    The pseudo-random eta hashes the exact bits of z = y P, so z must not
    depend on how many rows a chunk has: a flipped sign moves the moment by
    about 1/N.  z and eta are therefore bit-identical across chunk sizes.
    The moment itself is summed chunk by chunk, so kappa, the residual and
    the floor may differ by its summation rounding, here below 1e-12.
    """

    @pytest.mark.parametrize("n, m, selector", [(16, 2, (0, 1)), (8, 1, (0,))])
    def test_same_bits_and_estimates_for_any_chunking(self, n, m, selector):
        p = _random_projection(np.random.default_rng(90), n, m)
        config = ExperimentConfig(p, Activation.pseudo_random(), selector, 40_000, seed=40)
        # 17 and 1001 rows, the default, and whole jackknife blocks of 5,000 rows
        per_row = 8 * (n + 2 * m + 2)
        zs, etas, reports = [], [], []
        for chunk_bytes in (17 * per_row, 1001 * per_row, oracle._CHUNK_BYTES, 5000 * per_row):
            with mock.patch.object(oracle, "_CHUNK_BYTES", chunk_bytes):
                chunks = list(
                    oracle._chunks(p, config.activation, None, config.n_samples, config.seed)
                )
                zs.append(np.vstack([chunk[2] for chunk in chunks]))
                etas.append(np.vstack([chunk[3] for chunk in chunks]))
                reports.append(empirical_spatial_capacity(config))
        # the last setting reads each jackknife block as one chunk
        assert [len(chunk[1]) for chunk in chunks] == [5000] * 8
        for z, eta, report in zip(zs[1:], etas[1:], reports[1:]):
            np.testing.assert_array_equal(z, zs[0])
            np.testing.assert_array_equal(eta, etas[0])
            np.testing.assert_allclose(
                report.kappa_hat.values, reports[0].kappa_hat.values, rtol=0, atol=1e-12
            )
            assert report.stationarity_residual == pytest.approx(
                reports[0].stationarity_residual, abs=1e-12
            )
            assert report.stationarity_noise_floor == pytest.approx(
                reports[0].stationarity_noise_floor, abs=1e-12
            )


class TestSelectedMoment:
    @pytest.mark.parametrize("activation", [Activation.pseudo_random(), Activation.relu()])
    def test_block_moments_are_sigma_tilde_p_tilde_on_the_selector(self, activation):
        # the k-column moment the pass keeps is (Sigma~_hat P~)[:, selector]
        p = _random_projection(np.random.default_rng(91), 3, 4)
        config = ExperimentConfig(p, activation, (0, 2, 3), 4000, seed=41)
        moments = oracle._stream(config, None, lambda y, feats: y[:, 0])
        sigma_tilde = empirical_sigma_tilde(p, activation, None, config.n_samples, config.seed)
        expected = (sigma_tilde.entries @ build_augmented_projection(p))[:, [0, 2, 3]]
        np.testing.assert_allclose(
            moments.cross.sum(axis=0) / config.n_samples, expected, rtol=1e-10, atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 7),
        m=st.integers(1, 7),
        activation=st.sampled_from(["pseudo_random", "relu"]),
        seed=st.integers(0, 2**31 - 1),
        picks=st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True),
        gram=st.booleans(),
    )
    def test_report_matches_a_permuted_k_phi(self, n, m, activation, seed, picks, gram):
        # K_phi spans the selected axes, so multiplying the selected moment by
        # any signed permutation of them, such as the eigenvectors of J J^T on
        # the selector, changes the capacity basis by rounding only
        try:
            p = _random_projection(np.random.default_rng(seed), n, m)
        except ValueError:
            assume(False)  # duplicate columns, possible when n = 1
        selector = sorted({i % m for i in picks})
        config = ExperimentConfig(p, _ACTIVATIONS[activation], selector, 2000, seed)
        try:
            report = empirical_spatial_capacity(config)
        except ValueError:
            assume(False)  # rank-deficient selected features
        k = len(selector)
        if gram:
            jac = np.eye(m)[:, selector]
            eigvals, eigvecs = np.linalg.eigh(jac @ jac.T)
            k_sel = eigvecs[:, np.argsort(eigvals)[::-1][:k]][selector]
        else:
            rng = np.random.default_rng(seed + 1)
            k_sel = np.eye(k)[rng.permutation(k)] * rng.choice([-1.0, 1.0], size=k)

        moments = oracle._stream(config, None, oracle._generic_target(config))
        x_tilde = oracle._stationarity_gap(
            config, oracle._constrained_fit(config, moments), oracle._full_fit(config, moments)
        )

        def basis(cross, rows):
            return orthonormal_basis(cross / rows @ k_sel)

        k_tilde = basis(moments.cross.sum(axis=0), config.n_samples)
        np.testing.assert_allclose(
            augmented_spatial_profile(k_tilde, n).values,
            report.kappa_hat.values,
            rtol=0,
            atol=1e-12,
        )
        residual = np.linalg.norm(k_tilde.columns.T @ x_tilde)
        floor = np.mean([
            np.linalg.norm(basis(cross, rows).columns.T @ x_tilde)
            for cross, rows in zip(moments.cross, moments.counts)
        ]) / math.sqrt(8)
        assert residual == pytest.approx(report.stationarity_residual, abs=1e-12)
        assert floor == pytest.approx(report.stationarity_noise_floor, abs=1e-12)


class TestMemoryGuards:
    def test_block_moments_past_budget_refused(self):
        # 8 blocks of (n*m) x k floats: n = m = 400 and k = 256 need 2.4 GiB
        n, k = 400, 256
        assert 8 * 8 * n * n * k > _MEMORY_BUDGET_BYTES
        config = ExperimentConfig(
            ProjectionMatrix(np.eye(n)), Activation.pseudo_random(), range(k), 1000, seed=0
        )
        with pytest.raises(ValueError, match="2 GiB oracle memory limit"):
            empirical_spatial_capacity(config)

    @pytest.mark.parametrize(
        "n, k, n_samples",
        [
            (8, 3, 100_000_000),  # the default layer at the sample limit: exactly the work limit
            (64, 64, 102_489),  # the most samples of 64*64*64 + 65**2 moment entries
        ],
    )
    def test_work_limit_admits_a_pass_at_it(self, n, k, n_samples):
        config = ExperimentConfig(
            ProjectionMatrix(np.eye(n)), Activation.pseudo_random(), range(k), n_samples, seed=0
        )
        assert n_samples * (n * n * k + (n + 1) ** 2) <= _MAX_SAMPLE_WORK
        oracle._check_pass(config)  # refuses nothing; a pass this long is not run here
