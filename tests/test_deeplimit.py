"""Tests for the drift-diffusion deep limit of residual chains."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.core import SpatialCapacity
from capnet.deeplimit import (
    _MAX_CLOSED_FORM_CELLS,
    _TRAJECTORY_BUDGET_BYTES,
    ConvergenceReport,
    DeepLimitConfig,
    ResidualGenerator,
    StabilityError,
    compare_markov_pde,
    evolve_markov,
    gaussian_solution,
)
from capnet.propagate import (
    LayerChain,
    PropagationOperator,
    propagate_chain,
    propagate_single,
)


def _random_drift_chain(n, dcoef, eps, L, seed):
    """L periodic residual layers I + eps*Delta_l, drift v_l uniform in [-Dcoef/2, Dcoef/2]."""
    drifts = np.random.default_rng(seed).uniform(-dcoef / 2.0, dcoef / 2.0, L)
    return LayerChain([ResidualGenerator(n, v, dcoef).step(eps) for v in drifts])


def _moments(values):
    idx = np.arange(values.size)
    total = values.sum()
    mean = (idx * values).sum() / total
    var = ((idx - mean) ** 2 * values).sum() / total
    return mean, var


def _dense_generator(n, v, dcoef, boundary):
    """The generator assembled column by column, as a reference for the stencil."""
    up, down = dcoef + v / 2.0, dcoef - v / 2.0
    matrix = np.zeros((n, n))
    for j in range(n):
        matrix[j, j] = -2.0 * dcoef
        if boundary == "periodic":
            matrix[(j + 1) % n, j] += up
            matrix[(j - 1) % n, j] += down
        else:
            if j < n - 1:
                matrix[j + 1, j] += up
            else:
                matrix[j, j] += up
            if j > 0:
                matrix[j - 1, j] += down
            else:
                matrix[j, j] += down
    return matrix


def _dense_gaussian(values, h, v, dcoef, t):
    """The closed form with the full n x n kernel, as a reference for the convolution."""
    spread = 4.0 * dcoef * t
    x = np.arange(values.size) * h
    gap = x[:, None] - x[None, :] - v * t
    kernel = np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread)
    weights = np.full(x.size, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return kernel @ (weights * values)


def _dirac_density(n, index, h=1.0):
    """Unit mass on one grid point: density 1/h there."""
    values = np.zeros(n)
    values[index] = 1.0 / h
    return values


class TestResidualGenerator:
    def test_stencil_entries(self):
        gen = ResidualGenerator(7, 0.4, 1.0, "periodic")
        assert gen.matrix[3, 2] == pytest.approx(1.2)  # towards larger index
        assert gen.matrix[2, 3] == pytest.approx(0.8)
        assert gen.matrix[3, 3] == pytest.approx(-2.0)

    def test_periodic_wraps(self):
        gen = ResidualGenerator(5, 0.4, 1.0, "periodic")
        assert gen.matrix[0, 4] == pytest.approx(1.2)
        assert gen.matrix[4, 0] == pytest.approx(0.8)

    def test_columns_sum_to_zero(self):
        for boundary in ("periodic", "reflecting"):
            for v in (0.0, 0.3, -0.5):
                gen = ResidualGenerator(9, v, 0.7, boundary)
                assert np.abs(gen.matrix.sum(axis=0)).max() <= 1e-12

    def test_reflecting_folds_flux_into_diagonal(self):
        gen = ResidualGenerator(6, 0.6, 1.0, "reflecting")
        assert gen.matrix[0, 0] == pytest.approx(-2.0 + (1.0 - 0.3))
        assert gen.matrix[5, 5] == pytest.approx(-2.0 + (1.0 + 0.3))
        assert gen.matrix[0, 5] == 0.0
        assert gen.matrix[5, 0] == 0.0

    @pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_matrix_equals_column_loop(self, boundary, n):
        gen = ResidualGenerator(n, -0.35, 0.8, boundary)
        np.testing.assert_array_equal(gen.matrix, _dense_generator(n, -0.35, 0.8, boundary))

    def test_stencil_weights(self):
        gen = ResidualGenerator(6, 0.6, 1.0, "reflecting")
        assert (gen.up, gen.down) == (1.3, 0.7)

    def test_max_stable_eps(self):
        gen = ResidualGenerator(5, 0.0, 2.0)
        assert gen.max_stable_eps() == pytest.approx(0.25)

    def test_drift_dominating_diffusion_rejected(self):
        with pytest.raises(ValueError, match="exceeds Dcoef"):
            ResidualGenerator(11, 2.5, 1.0)

    def test_nonpositive_diffusion_rejected(self):
        with pytest.raises(ValueError, match="Dcoef"):
            ResidualGenerator(11, 0.0, 0.0)

    @pytest.mark.parametrize(
        "v, dcoef", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)]
    )
    def test_non_finite_parameters_rejected(self, v, dcoef):
        with pytest.raises(ValueError, match="must be finite") as info:
            ResidualGenerator(11, v, dcoef)
        assert not isinstance(info.value, StabilityError)

    def test_overflowing_diffusion_rejected(self):
        # 2 * 1e308 overflows, which would make the stability bound 0
        with pytest.raises(ValueError, match="overflows") as info:
            ResidualGenerator(11, 0.1, 1e308)
        assert not isinstance(info.value, StabilityError)

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            ResidualGenerator(11, 0.0, 1.0, "absorbing")

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError, match="3 grid points"):
            ResidualGenerator(2, 0.0, 1.0)

    def test_step_is_identity_plus_eps_generator(self):
        gen = ResidualGenerator(9, 0.3, 0.7, "reflecting")
        step = gen.step(0.2)
        assert isinstance(step, PropagationOperator)
        np.testing.assert_array_equal(step.matrix, np.eye(9) + 0.2 * gen.matrix)

    def test_step_rejects_nonpositive_eps(self):
        gen = ResidualGenerator(9, 0.0, 1.0)
        for eps in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="positive") as info:
                gen.step(eps)
            assert not isinstance(info.value, StabilityError)

    def test_step_rejects_eps_at_stability_bound(self):
        with pytest.raises(StabilityError, match="below 0.5"):
            ResidualGenerator(9, 0.0, 1.0).step(0.5)


class TestDeepLimitConfig:
    def test_total_time(self):
        cfg = DeepLimitConfig(eps=0.1, L=100)
        assert cfg.total_time == pytest.approx(10.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="eps"):
            DeepLimitConfig(eps=0.0, L=4)
        with pytest.raises(ValueError, match="L"):
            DeepLimitConfig(eps=0.5, L=0)
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            DeepLimitConfig(eps=math.nan, L=4)


class TestEvolveMarkov:
    def test_one_step_is_propagate_single(self):
        # the discrete step must be I + eps*Delta; only the summation order may differ
        gen = ResidualGenerator(21, 0.3, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.2, L=1)
        kappa = SpatialCapacity.dirac(21, 10)
        step = PropagationOperator(np.eye(21) + cfg.eps * gen.matrix)
        expected = propagate_single(step, kappa)
        got = evolve_markov(gen, cfg, kappa)[1]
        np.testing.assert_allclose(got, expected.values, rtol=1e-14, atol=0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 40),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        boundary=st.sampled_from(["periodic", "reflecting"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stencil_step_matches_dense_step(self, n, dcoef, drift, fraction, boundary, seed):
        # drift is v / (2 Dcoef), so |v|/2 <= Dcoef always holds
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef, boundary)
        eps = fraction * gen.max_stable_eps()
        kappa = SpatialCapacity(np.random.default_rng(seed).random(n))
        got = evolve_markov(gen, DeepLimitConfig(eps=eps, L=1), kappa)[1]
        expected = gen.step(eps).matrix @ kappa.values
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 30),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        boundary=st.sampled_from(["periodic", "reflecting"]),
    )
    def test_step_columns_are_first_walk_steps(self, n, dcoef, drift, fraction, boundary):
        # the dense layer and the walk apply one stencil, so they agree bit for bit
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef, boundary)
        eps = fraction * gen.max_stable_eps()
        step = gen.step(eps).matrix
        cfg = DeepLimitConfig(eps=eps, L=1)
        for j in range(n):
            walked = evolve_markov(gen, cfg, SpatialCapacity.dirac(n, j))[1]
            np.testing.assert_array_equal(walked, step[:, j])

    def test_trajectory_past_budget_refused(self):
        # (L+1) * n * 8 bytes just over the budget; the check runs before allocating
        n = 1001
        L = _TRAJECTORY_BUDGET_BYTES // (8 * n)
        gen = ResidualGenerator(n, 0.0, 1.0)
        with pytest.raises(ValueError, match="2 GiB trajectory limit") as info:
            evolve_markov(gen, DeepLimitConfig(eps=0.1, L=L), SpatialCapacity.dirac(n, 500))
        assert not isinstance(info.value, StabilityError)

    @pytest.mark.parametrize("n, L", [(3, 10**7 + 1), (40_001, 10**6)])
    def test_walk_past_step_limits_refused(self, n, L):
        # past 10**7 steps, or past 3*10**10 cell-steps: 40,001 * 10**6 is 4*10**10
        gen = ResidualGenerator(n, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=L)
        with pytest.raises(ValueError, match="walk limit"):
            evolve_markov(gen, cfg, SpatialCapacity.dirac(n, 1), keep_all=False)

    def test_profile_list_layout(self):
        gen = ResidualGenerator(11, 0.0, 1.0)
        kappa = SpatialCapacity.dirac(11, 5)
        rows = evolve_markov(gen, DeepLimitConfig(eps=0.1, L=7), kappa)
        assert rows.shape == (8, 11)
        np.testing.assert_array_equal(rows[0], kappa.values)

    def test_mass_conserved_over_thousand_steps(self):
        gen = ResidualGenerator(51, 0.4, 0.9, "periodic")
        rows = evolve_markov(
            gen, DeepLimitConfig(eps=0.3, L=1000), SpatialCapacity.dirac(51, 25)
        )
        drift = np.abs(rows.sum(axis=1) - 1.0).max()
        assert drift <= 1e-9

    def test_profiles_stay_nonnegative(self):
        gen = ResidualGenerator(31, 0.5, 1.0, "reflecting")
        rows = evolve_markov(
            gen, DeepLimitConfig(eps=0.4, L=400), SpatialCapacity.dirac(31, 3)
        )
        assert rows.min() >= 0.0

    def test_variance_grows_linearly(self):
        # var after l steps is 2*Dcoef*eps*l while no mass reaches the seam
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        rows = evolve_markov(
            gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100)
        )
        for l in range(10, 101, 10):
            _, var = _moments(rows[l])
            assert var == pytest.approx(2.0 * 1.0 * 0.1 * l, rel=0.02)

    def test_dirac_spread_after_hundred_layers(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        final = evolve_markov(
            gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100)
        )[-1]
        _, var = _moments(final)
        assert math.sqrt(var) == pytest.approx(math.sqrt(20.0), rel=0.05)

    def test_drift_moves_the_mean(self):
        gen = ResidualGenerator(201, 0.2, 1.0, "periodic")
        final = evolve_markov(
            gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100)
        )[-1]
        mean, _ = _moments(final)
        assert mean == pytest.approx(100.0 + 0.2 * 0.1 * 100, abs=1e-9)

    def test_matches_exact_exponential_moments(self):
        # eigendecomposition of the symmetric v=0 generator gives e^{Delta t}
        gen = ResidualGenerator(121, 0.0, 0.7, "periodic")
        eigvals, eigvecs = np.linalg.eigh(gen.matrix)
        start = SpatialCapacity.dirac(121, 60).values
        for t in (1.0, 3.0):
            profile = eigvecs @ (np.exp(eigvals * t) * (eigvecs.T @ start))
            _, var = _moments(profile)
            assert var == pytest.approx(2.0 * 0.7 * t, rel=1e-9)
        markov = evolve_markov(
            gen, DeepLimitConfig(eps=0.01, L=300), SpatialCapacity.dirac(121, 60)
        )[-1]
        _, var_markov = _moments(markov)
        assert var_markov == pytest.approx(2.0 * 0.7 * 3.0, rel=1e-12)

    def test_unstable_eps_rejected_with_bound(self):
        gen = ResidualGenerator(11, 0.0, 1.0)
        with pytest.raises(StabilityError, match="below 0.5"):
            evolve_markov(gen, DeepLimitConfig(eps=0.6, L=5), SpatialCapacity.dirac(11, 5))

    def test_stability_error_is_value_error(self):
        assert issubclass(StabilityError, ValueError)

    def test_dimension_mismatch_rejected(self):
        gen = ResidualGenerator(11, 0.0, 1.0)
        with pytest.raises(ValueError, match="11"):
            evolve_markov(gen, DeepLimitConfig(eps=0.1, L=5), SpatialCapacity.dirac(9, 4))


class TestPdeField:
    """The PDE field as gaussian_solution takes it: samples on i*h at time t."""

    def test_negative_time_rejected(self):
        # an all-zero field is refused at negative time before any convolution
        for t in (-1.0, -math.inf):
            with pytest.raises(ValueError, match="t must be non-negative"):
                gaussian_solution(np.zeros(3), 1.0, 0.0, 1.0, t)


class TestGaussianSolution:
    def test_zero_time_returns_initial(self):
        initial = _dirac_density(11, 5)
        out = gaussian_solution(initial, 1.0, 0.3, 1.0, 0.0)
        assert np.array_equal(out, initial)
        assert out is not initial

    def test_dirac_becomes_exact_kernel(self):
        out = gaussian_solution(_dirac_density(201, 100), 1.0, 0.0, 1.0, 10.0)
        x = np.arange(201.0)
        exact = np.exp(-((x - 100.0) ** 2) / 40.0) / math.sqrt(40.0 * math.pi)
        assert np.max(np.abs(out - exact)) <= 1e-14

    def test_peak_height(self):
        out = gaussian_solution(_dirac_density(201, 100), 1.0, 0.0, 1.0, 10.0)
        assert out.max() == pytest.approx(1.0 / math.sqrt(40.0 * math.pi))

    def test_mass_conserved_on_wide_grid(self):
        out = gaussian_solution(_dirac_density(401, 200), 1.0, 0.5, 1.0, 8.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_drift_shifts_the_peak(self):
        out = gaussian_solution(_dirac_density(201, 100), 1.0, 2.0, 1.0, 4.0)
        assert int(np.argmax(out)) == 108

    def test_semigroup_composition(self):
        initial = _dirac_density(401, 200)
        one = gaussian_solution(initial, 1.0, 0.0, 1.0, 8.0)
        two = gaussian_solution(gaussian_solution(initial, 1.0, 0.0, 1.0, 3.0), 1.0, 0.0, 1.0, 5.0)
        assert np.max(np.abs(one - two)) <= 1e-6

    @pytest.mark.parametrize(
        "n, h, v, dcoef, t",
        [(11, 1.0, 0.0, 1.0, 2.0), (40, 0.5, 1.5, 0.3, 3.0), (65, 0.25, -2.0, 2.0, 0.7)],
    )
    def test_matches_dense_kernel(self, n, h, v, dcoef, t):
        values = np.random.default_rng(n).random(n)
        out = gaussian_solution(values, h, v, dcoef, t)
        expected = _dense_gaussian(values, h, v, dcoef, t)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "values", [np.zeros(1), np.zeros((3, 3))], ids=["one_point", "matrix"]
    )
    def test_values_must_be_a_vector(self, values):
        with pytest.raises(ValueError, match="vector of at least 2 points"):
            gaussian_solution(values, 1.0, 0.0, 1.0, 1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            gaussian_solution(np.array([0.0, -1e-6, 0.0]), 1.0, 0.0, 1.0, 1.0)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            gaussian_solution(np.array([0.0, np.nan, 0.0]), 1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
    def test_spacing_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            gaussian_solution(np.zeros(3), h, 0.0, 1.0, 1.0)

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="t must be non-negative"):
                gaussian_solution(_dirac_density(11, 5), 1.0, 0.0, 1.0, t)

    def test_nonpositive_diffusion_rejected(self):
        for dcoef in (0.0, math.nan):
            with pytest.raises(ValueError, match="Dcoef must be positive"):
                gaussian_solution(_dirac_density(11, 5), 1.0, 0.0, dcoef, 1.0)


class TestCompareMarkovPde:
    def test_gap_within_two_percent_of_peak(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100))
        assert report.rel_errors[0] <= 0.02
        assert not report.boundary_flagged

    def test_halving_eps_shrinks_the_gap(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100))
        assert report.eps_levels == (0.1, 0.05, 0.025)
        assert report.rel_errors[1] < report.rel_errors[0]

    def test_empirical_order_at_least_one(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100))
        assert report.overall_order >= 1.0

    def test_drifting_probe_converges_too(self):
        gen = ResidualGenerator(201, 0.2, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100))
        assert report.rel_errors[0] <= 0.02
        assert report.overall_order >= 1.0

    def test_finer_standalone_run_stays_within_two_percent(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.05, L=200)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100), refinements=0)
        assert report.eps_levels == (0.05,)
        assert report.rel_errors[0] <= 0.02
        assert report.orders == ()

    def test_refinement_stops_at_stability_bound(self):
        # halving eps while quadrupling cell diffusion doubles eps*2*Dcoef
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.3, L=30)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(201, 100))
        assert report.eps_levels == (0.3,)

    def test_narrow_grid_is_flagged(self):
        gen = ResidualGenerator(21, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(21, 10), refinements=0)
        assert report.boundary_flagged

    def test_two_spike_probe(self):
        values = np.zeros(201)
        values[80] = 1.0
        values[120] = 2.0
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = compare_markov_pde(gen, cfg, SpatialCapacity(values))
        assert report.rel_errors[0] <= 0.02
        assert report.rel_errors[-1] < report.rel_errors[0]

    def test_markov_std_is_width_of_coarsest_profile(self):
        gen = ResidualGenerator(101, 0.3, 1.0, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=50)
        kappa = SpatialCapacity.dirac(101, 50)
        report = compare_markov_pde(gen, cfg, kappa, refinements=1)
        final = evolve_markov(gen, cfg, kappa, keep_all=False)
        _, var = _moments(final)
        assert report.markov_std == math.sqrt(var)

    def test_unstable_coarsest_level_raises(self):
        gen = ResidualGenerator(21, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.6, L=10)
        with pytest.raises(StabilityError, match="below 0.5"):
            compare_markov_pde(gen, cfg, SpatialCapacity.dirac(21, 10), refinements=0)

    def test_unstable_finer_level_stops_quietly(self):
        # each level doubles eps * 2 * Dcoef: 0.4 and 0.8 are stable, level 2's
        # 1.6 is not, so two of the five levels asked for come back
        gen = ResidualGenerator(41, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.2, L=10)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(41, 20), refinements=4)
        assert report.eps_levels == (0.2, 0.1)

    def test_levels_requested_counts_levels_asked_for(self):
        gen = ResidualGenerator(41, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.2, L=10)
        report = compare_markov_pde(gen, cfg, SpatialCapacity.dirac(41, 20), refinements=4)
        assert report.levels_requested == 5
        assert len(report.eps_levels) == 2

    def test_wide_grid_memory_is_linear(self):
        # dense n x n steps and kernels at n = 4001 would need 128 MiB each
        gen = ResidualGenerator(4001, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=20)
        tracemalloc.start()
        try:
            compare_markov_pde(gen, cfg, SpatialCapacity.dirac(4001, 2000), refinements=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_levels_step_two_buffers(self):
        # the trajectory of 2001 profiles would be 64 MB; only the last is read
        gen = ResidualGenerator(4001, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=2000)
        tracemalloc.start()
        try:
            compare_markov_pde(gen, cfg, SpatialCapacity.dirac(4001, 2000), refinements=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("L", [1, 2, 7, 8])
    def test_two_buffer_walk_ends_on_the_trajectory(self, L):
        gen = ResidualGenerator(31, 0.4, 1.0, "reflecting")
        cfg = DeepLimitConfig(eps=0.2, L=L)
        kappa = SpatialCapacity(np.random.default_rng(L).random(31))
        last = evolve_markov(gen, cfg, kappa, keep_all=False)
        np.testing.assert_array_equal(last, evolve_markov(gen, cfg, kappa)[-1])

    def test_finer_level_past_walk_limit_refused_before_any_walk(self):
        # level 7 is 128,000 steps of 256,001 cells, past 3*10**10 cell-steps;
        # levels 0-6 are within the limits and would step for some 45 s
        gen = ResidualGenerator(2001, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.001, L=1000)
        walk = mock.Mock(side_effect=AssertionError("walked before the limit check"))
        with mock.patch("capnet.deeplimit.evolve_markov", walk):
            with pytest.raises(ValueError, match="128000 steps of 256001 cells"):
                compare_markov_pde(gen, cfg, SpatialCapacity.dirac(2001, 1000), refinements=7)
        walk.assert_not_called()

    def test_finer_level_past_closed_form_limit_refused_before_any_walk(self):
        # level 1 has 2 * 300,000 + 1 cells; level 0 is within every limit
        n = 300_001
        assert n <= _MAX_CLOSED_FORM_CELLS < 2 * n - 1
        gen = ResidualGenerator(n, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=1)
        walk = mock.Mock(side_effect=AssertionError("walked before the limit check"))
        with mock.patch("capnet.deeplimit.evolve_markov", walk):
            with pytest.raises(ValueError, match="600,001 cells is past the limit of 500,000"):
                compare_markov_pde(gen, cfg, SpatialCapacity.dirac(n, n // 2), refinements=1)
        walk.assert_not_called()

    def test_negative_refinements_rejected(self):
        gen = ResidualGenerator(21, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=10)
        with pytest.raises(ValueError, match="refinements"):
            compare_markov_pde(gen, cfg, SpatialCapacity.dirac(21, 10), refinements=-1)


class TestRandomLayerChain:
    def test_layers_are_residual_and_stochastic(self):
        chain = _random_drift_chain(41, 1.0, 0.1, 12, seed=3)
        assert len(chain) == 12
        for layer in chain.layers:
            matrix = layer.matrix
            # I + eps*Delta with diagonal 1 - 2*Dcoef*eps, whatever the drift
            np.testing.assert_allclose(np.diag(matrix), 0.8, rtol=0, atol=1e-15)
            assert np.abs(matrix.sum(axis=0) - 1.0).max() <= 1e-12

    def test_ensemble_center_of_mass_is_symmetric(self):
        # drifts are drawn symmetrically, so 32 seeds average to no net shift
        displacements = []
        for seed in range(32):
            chain = _random_drift_chain(101, 1.0, 0.1, 30, seed=seed)
            profile = propagate_chain(chain, SpatialCapacity.dirac(101, 50))[0]
            mean, _ = _moments(profile.values)
            displacements.append(mean - 50.0)
        displacements = np.array(displacements)
        stderr = displacements.std(ddof=1) / math.sqrt(len(displacements))
        assert abs(displacements.mean()) <= 3.0 * stderr

    def test_mass_conserved_through_chain(self):
        chain = _random_drift_chain(41, 1.0, 0.1, 50, seed=11)
        profiles = propagate_chain(chain, SpatialCapacity.dirac(41, 20))
        assert max(abs(p.total - 1.0) for p in profiles) <= 1e-9

    def test_unstable_parameters_rejected(self):
        with pytest.raises(StabilityError, match="below"):
            _random_drift_chain(41, 1.0, 0.6, 5, seed=0)
