"""Tests for the drift-diffusion deep limit of residual chains."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.cli import parse_network_spec
from capnet.core import SpatialCapacity
from capnet.deeplimit import (
    _MAX_CLOSED_FORM_CELLS,
    ConvergenceReport,
    DeepLimitConfig,
    ResidualGenerator,
    StabilityError,
    _generator_run,
    compare_markov_pde,
    evolve_markov,
    gaussian_solution,
)
from capnet.propagate import (
    _BLOCK_BYTES,
    _SEGMENT_VIEWS,
    PropagationOperator,
    Stencil,
    _walk,
    propagate_chain,
    propagate_single,
)


def _random_drift_chain(n, dcoef, eps, L, seed):
    """L periodic residual spec layers I + eps*Delta_l, drift v_l uniform in [-Dcoef/2, Dcoef/2]."""
    drifts = np.random.default_rng(seed).uniform(-dcoef / 2.0, dcoef / 2.0, L).tolist()
    layer = {"kind": "residual", "n_in": n, "n_out": n}
    layers = [dict(layer, weights=f"residual:{eps!r},{v!r},{dcoef!r}") for v in drifts]
    return parse_network_spec({"layers": layers, "top_capacity": "uniform"}).chain


def _trajectory(gen, cfg, kappa):
    """The (L+1) x n walk, row k after k steps: the walk's blocks stacked."""
    blocks = [rows.copy() for rows in _walk(_generator_run(gen, cfg), kappa.values)]
    return np.concatenate(blocks)


def _dense_step(gen, eps):
    """``I + eps*Delta`` from the dense generator."""
    return np.eye(gen.n) + eps * gen.matrix


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


def _full_length_reference(values, h, v, dcoef, t):
    """The closed form as one convolution of all 2n-1 kernel samples with all n weighted values."""
    n = values.size
    spread = 4.0 * dcoef * t
    gap = np.arange(1 - n, n) * h - v * t
    with np.errstate(over="ignore"):
        kernel = np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread)
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return np.convolve(kernel, weights * values, mode="valid")


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

    def test_grid_past_two_profiles_refused(self):
        # a walk's buffer holds two profiles at the least, of 2 GiB together here
        ResidualGenerator(2**27, 0.0, 1.0)
        with pytest.raises(ValueError, match="134,217,729 cells holds two profiles"):
            ResidualGenerator(2**27 + 1, 0.0, 1.0)

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

    def test_residual_stencil_is_identity_plus_eps_generator(self):
        gen = ResidualGenerator(9, 0.3, 0.7)
        step = gen.stencil(0.2)
        assert isinstance(step, Stencil)
        assert step.offsets.tolist() == [0, 1, 8]
        np.testing.assert_array_equal(step.matrix, _dense_step(gen, 0.2))
        np.testing.assert_array_equal(step.diagonal(), np.diag(_dense_step(gen, 0.2)))

    @pytest.mark.parametrize(
        "eps, message", [(0.0, "positive"), (-0.1, "positive"), (math.nan, "positive"),
                         (math.inf, "finite")]
    )
    def test_check_eps_rejects_nonpositive_and_infinite_eps(self, eps, message):
        with pytest.raises(ValueError, match=f"eps must be {message}, got") as info:
            ResidualGenerator(9, 0.0, 1.0)._check_eps(eps)
        assert not isinstance(info.value, StabilityError)

    def test_check_eps_rejects_eps_at_stability_bound(self):
        with pytest.raises(StabilityError, match="below 0.5"):
            ResidualGenerator(9, 0.0, 1.0)._check_eps(0.5)


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
        got = evolve_markov(gen, cfg, kappa)
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
        got = evolve_markov(gen, DeepLimitConfig(eps=eps, L=1), kappa)
        expected = _dense_step(gen, eps) @ kappa.values
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(got, gen.stencil(eps).apply(kappa.values))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 30),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        boundary=st.sampled_from(["periodic", "reflecting"]),
    )
    def test_step_columns_are_first_walk_steps(self, n, dcoef, drift, fraction, boundary):
        # the dense step, the spec's stencil and the walk apply one stencil, so
        # they agree bit for bit
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef, boundary)
        eps = fraction * gen.max_stable_eps()
        step = _dense_step(gen, eps)
        np.testing.assert_array_equal(gen.stencil(eps).matrix, step)
        cfg = DeepLimitConfig(eps=eps, L=1)
        for j in range(n):
            walked = evolve_markov(gen, cfg, SpatialCapacity.dirac(n, j))
            np.testing.assert_array_equal(walked, step[:, j])

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(1, 60),
        margin=st.integers(1, 40),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stencil_stack_is_the_walk_bit_for_bit_off_the_edges(
        self, L, margin, dcoef, drift, fraction, seed
    ):
        # a stencil sums keep, up and down in the walk's order; L steps from three
        # cells reach at most L cells further, so the mass stays off the edge cells
        n = 2 * (L + margin) + 3
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef)
        eps = fraction * gen.max_stable_eps()
        top = np.zeros(n)
        top[L + margin : L + margin + 3] = np.random.default_rng(seed).random(3)
        walk = _trajectory(gen, DeepLimitConfig(eps=eps, L=L), SpatialCapacity(top))
        stencil = gen.stencil(eps)
        stack = [top]
        for _ in range(L):
            stack.append(stencil.apply(stack[-1]))
        assert np.array(stack).tobytes() == walk.tobytes()

    @pytest.mark.parametrize("n, L", [(3, 10**7 + 1), (40_001, 10**6)])
    def test_walk_past_step_limits_refused(self, n, L):
        # past 10**7 steps, or past 3*10**10 cell-steps: 40,001 * 10**6 is 4*10**10
        gen = ResidualGenerator(n, 0.0, 1.0)
        cfg = DeepLimitConfig(eps=0.1, L=L)
        with pytest.raises(ValueError, match="walk limit"):
            evolve_markov(gen, cfg, SpatialCapacity.dirac(n, 1))

    def test_profile_list_layout(self):
        gen = ResidualGenerator(11, 0.0, 1.0)
        kappa = SpatialCapacity.dirac(11, 5)
        cfg = DeepLimitConfig(eps=0.1, L=7)
        rows = _trajectory(gen, cfg, kappa)
        assert rows.shape == (8, 11)
        np.testing.assert_array_equal(rows[0], kappa.values)
        last = evolve_markov(gen, cfg, kappa)
        assert last.shape == (11,)
        np.testing.assert_array_equal(last, rows[-1])

    def test_mass_conserved_over_thousand_steps(self):
        gen = ResidualGenerator(51, 0.4, 0.9, "periodic")
        rows = _trajectory(gen, DeepLimitConfig(eps=0.3, L=1000), SpatialCapacity.dirac(51, 25))
        drift = np.abs(rows.sum(axis=1) - 1.0).max()
        assert drift <= 1e-9

    def test_profiles_stay_nonnegative(self):
        gen = ResidualGenerator(31, 0.5, 1.0, "reflecting")
        rows = _trajectory(gen, DeepLimitConfig(eps=0.4, L=400), SpatialCapacity.dirac(31, 3))
        assert rows.min() >= 0.0

    def test_variance_grows_linearly(self):
        # var after l steps is 2*Dcoef*eps*l while no mass reaches the seam
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        rows = _trajectory(gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100))
        for l in range(10, 101, 10):
            _, var = _moments(rows[l])
            assert var == pytest.approx(2.0 * 1.0 * 0.1 * l, rel=0.02)

    def test_dirac_spread_after_hundred_layers(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        final = evolve_markov(gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100))
        _, var = _moments(final)
        assert math.sqrt(var) == pytest.approx(math.sqrt(20.0), rel=0.05)

    def test_drift_moves_the_mean(self):
        gen = ResidualGenerator(201, 0.2, 1.0, "periodic")
        final = evolve_markov(gen, DeepLimitConfig(eps=0.1, L=100), SpatialCapacity.dirac(201, 100))
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
        cfg = DeepLimitConfig(eps=0.01, L=300)
        markov = evolve_markov(gen, cfg, SpatialCapacity.dirac(121, 60))
        _, var_markov = _moments(markov)
        assert var_markov == pytest.approx(2.0 * 0.7 * 3.0, rel=1e-12)

    def test_long_walk_holds_a_block_and_a_lap_of_views(self):
        # the walk laps a buffer of 10,922 rows of 3 cells, more than _SEGMENT_VIEWS,
        # 18 times; its views of every row, held in one Python list, peaked at 128 MiB
        gen = ResidualGenerator(3, 0.0, 0.25)
        cfg = DeepLimitConfig(eps=0.1, L=200_000)
        assert _BLOCK_BYTES // (3 * 8) > _SEGMENT_VIEWS
        tracemalloc.start()
        try:
            evolve_markov(gen, cfg, SpatialCapacity.dirac(3, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a view and its pair come to under 256 bytes a step
        assert peak <= _BLOCK_BYTES + _SEGMENT_VIEWS * 256

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

    @pytest.mark.parametrize("dcoef", [1e-305, 1e-320])
    def test_tiny_spread_keeps_the_dirac_without_warning(self, dcoef):
        # -gap**2/spread overflows to -inf off the spike, where exp gives the exact 0
        out = gaussian_solution(_dirac_density(11, 5), 1.0, 0.0, dcoef, 1.0)
        assert np.flatnonzero(out).tolist() == [5]
        assert out[5] == 1.0 / math.sqrt(math.pi * 4.0 * dcoef)

    def test_spread_underflowing_to_zero_rejected(self):
        with pytest.raises(ValueError, match=r"4\*Dcoef\*t = 4\*4.94066e-324\*0.1 underflows"):
            gaussian_solution(_dirac_density(11, 5), 1.0, 0.0, 5e-324, 0.1)


    @pytest.mark.parametrize("cell", [0, 1, 400, 800])
    @pytest.mark.parametrize("v", [-1.5, 0.0, 2.0])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
    def test_single_point_keeps_the_full_length_bits(self, cell, v, h):
        # the kernel underflows some 95/h cells from its centre, well inside 2*801-1
        values = _dirac_density(801, cell, h)
        out = gaussian_solution(values, h, v, 1.0, 3.0)
        assert np.array_equal(out, _full_length_reference(values, h, v, 1.0, 3.0))

    @pytest.mark.parametrize("n", [2, 3, 101, 4001])
    @pytest.mark.parametrize("h", [0.01, 1.0, 3.7])
    @pytest.mark.parametrize("v, dcoef", [(0.0, 1.0), (-40.0, 0.05), (7.5, 300.0)])
    def test_sampled_kernel_keeps_the_full_length_bits(self, n, h, v, dcoef):
        # kernels from a few cells wide to wider than the grid, centred on or off it
        for cell in sorted({0, 1, n // 2, n - 1}):
            values = _dirac_density(n, cell, h)
            out = gaussian_solution(values, h, v, dcoef, 1.0)
            assert out.tobytes() == _full_length_reference(values, h, v, dcoef, 1.0).tobytes()

    def test_kernel_sampled_only_short_of_exp_underflow(self):
        # exp(-x) is 0 from x = 745.14 on: some 345 of the 400,001 samples are nonzero
        n = 200_001
        with mock.patch.object(np, "exp", wraps=np.exp) as exp:
            out = gaussian_solution(_dirac_density(n, 100_000), 1.0, 0.0, 1.0, 10.0)
        ((exponents,), _), = exp.call_args_list
        assert exponents.size < 400
        assert np.count_nonzero(out) > 300

    @pytest.mark.parametrize("seed", range(6))
    def test_few_points_and_dense_match_full_length(self, seed):
        rng = np.random.default_rng(seed)
        n = 801
        h = (1.0, 0.5, 0.25)[seed % 3]
        sparse = np.zeros(n)
        points = rng.integers(0, n, int(rng.integers(2, 6)))
        sparse[points] = rng.random(points.size)
        dense = rng.random(n)
        for values in (sparse, dense):
            for v, dcoef, t in ((-1.5, 1.0, 3.0), (2.0, 0.3, 0.7), (0.5, 40.0, 2.0)):
                out = gaussian_solution(values, h, v, dcoef, t)
                expected = _full_length_reference(values, h, v, dcoef, t)
                np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "values, v, dcoef",
        [
            (np.zeros(101), 0.0, 1.0),
            (_dirac_density(101, 50), 0.5, 1e-305),  # v*t between grid points: kernel all 0
            (_dirac_density(101, 0), -60.0, 1.0),  # kernel nonzero, all of it off the grid
        ],
        ids=["zero_input", "kernel_underflows", "drifted_off_grid"],
    )
    def test_no_overlap_gives_zeros(self, values, v, dcoef):
        out = gaussian_solution(values, 1.0, v, dcoef, 1.0)
        assert np.array_equal(out, np.zeros(101))
        assert np.array_equal(out, _full_length_reference(values, 1.0, v, dcoef, 1.0))

    def test_dirac_convolves_only_the_kernel_span(self):
        n, c = 200_001, 100_000
        spread = 4.0 * 1.0 * 10.0
        gap = np.arange(1 - n, n, dtype=float)
        kernel_span = np.count_nonzero(np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread))
        with mock.patch.object(np, "convolve", wraps=np.convolve) as convolve:
            out = gaussian_solution(_dirac_density(n, c), 1.0, 0.0, 1.0, 10.0)
        (kernel, weighted), _ = convolve.call_args
        assert convolve.call_count == 1
        assert len(kernel) <= kernel_span < 400
        assert len(weighted) == 1
        x = np.arange(float(n))
        exact = np.exp(-((x - c) ** 2) / spread) / math.sqrt(spread * math.pi)
        assert np.max(np.abs(out - exact)) <= 1e-14

    @pytest.mark.parametrize(
        "h, v, dcoef, t, match",
        [
            (1.0, math.nan, 1.0, 1.0, "v must be finite"),
            (1.0, math.inf, 1.0, 1.0, "v must be finite"),
            (1.0, -math.inf, 1.0, 1.0, "v must be finite"),
            (1.0, 0.0, 1.0, math.inf, "t must be non-negative and finite"),
            (1.0, 0.0, math.inf, 1.0, "Dcoef must be positive and finite"),
            (1.0, 1e308, 1.0, 10.0, r"v\*t = 1e\+308\*10 overflows"),
            (1.0, 0.0, 1e308, 10.0, r"4\*Dcoef\*t = pi\*4\*1e\+308\*10 overflows"),
            (1.0, 0.0, 2e307, 1.0, r"4\*Dcoef\*t = pi\*4\*2e\+307\*1 overflows"),
            (1e308, 0.0, 1.0, 1.0, r"h\*values overflows"),
        ],
        ids=[
            "v_nan", "v_inf", "v_minus_inf", "t_inf", "dcoef_inf",
            "drift_overflows", "spread_overflows", "normaliser_overflows", "weighted_overflows",
        ],
    )
    def test_inputs_that_lose_the_mass_rejected(self, h, v, dcoef, t, match):
        # each returned NaN or all zeros when the full-length convolution ran unchecked
        values = _dirac_density(11, 5) * 10.0
        with pytest.raises(ValueError, match=match):
            gaussian_solution(values, h, v, dcoef, t)


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

    def test_diffusion_underflowing_to_zero_refused_before_the_first_step(self):
        # the product used to reach gaussian_solution as 0, after level 0's walk
        gen = ResidualGenerator(21, 0.0, 1e-200, "periodic")
        cfg = DeepLimitConfig(eps=1e-200, L=1)
        with mock.patch("capnet.deeplimit.evolve_markov", side_effect=AssertionError):
            with pytest.raises(ValueError, match=r"Dcoef\*eps\*L = 1e-200\*1e-200\*1 underflows"):
                compare_markov_pde(gen, cfg, SpatialCapacity.dirac(21, 10))

    @pytest.mark.parametrize(
        "dcoef, refinements, refused",
        # the std is sqrt(2 Dcoef) coarse cells, times 2 per refinement: 0.245 and 0.253
        # cells, then 0.310 and 0.098 at the finest of three levels
        [(0.03, 0, True), (0.032, 0, False), (0.003, 2, False), (0.0003, 2, True)],
    )
    def test_closed_form_below_a_quarter_cell_refused_before_the_first_step(
        self, dcoef, refinements, refused
    ):
        # pde --D 1e-305 --eps 0.1 --L 10 reported rel_errors [1, 1, 1] as a convergence study
        gen = ResidualGenerator(21, 0.0, dcoef, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=10)
        kappa = SpatialCapacity.dirac(21, 10)
        if refused:
            with mock.patch("capnet.deeplimit.evolve_markov", side_effect=AssertionError):
                with pytest.raises(ValueError, match=r"std is 0\.\d+ cells at the finest level"):
                    compare_markov_pde(gen, cfg, kappa, refinements=refinements)
        else:
            report = compare_markov_pde(gen, cfg, kappa, refinements=refinements)
            assert len(report.eps_levels) == refinements + 1

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
        final = evolve_markov(gen, cfg, kappa)
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
        # the trajectory of 2001 profiles would be 64 MB; the walk holds a block of
        # 8 rows, 256 KiB, and only the last profile is read
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
        last = evolve_markov(gen, cfg, kappa)
        np.testing.assert_array_equal(last, _trajectory(gen, cfg, kappa)[-1])

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
        for layer in chain.top_down():
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
