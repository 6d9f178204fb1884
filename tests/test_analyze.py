"""Tests for receptive-field widths and path-weight shattering."""

import functools
import json
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet.analyze import erf_profile, max_path_weight, shatter_analysis, uniform_path_weight
from capnet.core import ProjectionMatrix, SpatialCapacity
from capnet.deeplimit import (
    _BOUNDARY_MASS_TOL,
    DeepLimitConfig,
    ResidualGenerator,
    evolve_markov,
)
from capnet.jsonfmt import canonical_dumps
from capnet.propagate import LayerChain, PropagationOperator, propagation_matrix


def _residual_chain(eps, L, n=11, Dcoef=0.5):
    gen = ResidualGenerator(n, 0.0, Dcoef, "periodic")
    op = PropagationOperator(np.eye(n) + eps * gen.matrix)
    return LayerChain([op] * L)


_PATH_GUARD = 10**6


def enumerate_path_weights(chain: LayerChain, i_l: int, i_L: int):
    """Brute-force total and maximal single-path weight between two indices.

    Materializes the weight of every index path from entry ``i_L`` at the top
    to entry ``i_l`` at the bottom; the total recovers the ``(i_l, i_L)``
    entry of the product matrix.  Guarded to at most 10^6 paths; bigger
    chains must use the matrix product instead.
    """
    operators = [layer.matrix for layer in chain.layers]
    if not 0 <= i_l < chain.n_in:
        raise ValueError(f"i_l must be in [0, {chain.n_in})")
    if not 0 <= i_L < chain.n_out:
        raise ValueError(f"i_L must be in [0, {chain.n_out})")
    count = 1
    for matrix in operators[:-1]:
        count *= matrix.shape[1]
        if count > _PATH_GUARD:
            raise ValueError(f"more than {_PATH_GUARD} paths; use the matrix product")
    if len(operators) == 1:
        value = float(operators[0][i_l, i_L])
        return value, value
    # weights[j_1, ..., j_{L-1}], one interface index added per factor
    weights = operators[0][i_l, :]
    for matrix in operators[1:-1]:
        weights = weights[..., None] * matrix
    weights = weights * operators[-1][:, i_L]
    return float(weights.sum()), float(weights.max())


def _random_tridiagonal(rng, n):
    matrix = np.zeros((n, n))
    for j in range(n):
        for i in (j - 1, j, j + 1):
            if 0 <= i < n:
                matrix[i, j] = rng.random() + 0.1
    return PropagationOperator(matrix / matrix.sum(axis=0))


def _pmf_std_reference(values):
    """Width of one profile, one 1-D reduction at a time."""
    total = values.sum()
    idx = np.arange(values.size)
    mean = (idx * values).sum() / total
    var = ((idx - mean) ** 2 * values).sum() / total
    return math.sqrt(max(var, 0.0))


def _erf_reference(gen, x0, cfg):
    """Widths and edge flag of a generator run, measured profile by profile."""
    stds, flagged = [], False
    walked = evolve_markov(gen, cfg, SpatialCapacity.dirac(gen.n, x0))
    for steps, profile in enumerate(walked):
        if profile[0] + profile[-1] > _BOUNDARY_MASS_TOL * profile.sum():
            flagged = True
        stds.append((cfg.L - steps, _pmf_std_reference(profile)))
    return tuple(stds), flagged


def _fit_reference(stds):
    """The power-law fit from lists of (log depth, log width) pairs."""
    depth = stds[0][0]
    points = [
        (math.log(depth - layer), math.log(sigma))
        for layer, sigma in stds
        if sigma >= 2.0 and layer < depth
    ]
    if len(points) < 2:
        return math.nan, math.nan
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[0]), float(np.sqrt(np.mean((design @ coef - ys) ** 2)))


class TestErfProfile:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 60),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        L=st.integers(1, 300),
        boundary=st.sampled_from(["periodic", "reflecting"]),
        where=st.sampled_from(["low", "middle", "high"]),
        offset=st.integers(0, 3),
        block_rows=st.integers(1, 40),
    )
    def test_matches_a_per_profile_loop_bit_for_bit(
        self, n, dcoef, drift, fraction, L, boundary, where, offset, block_rows
    ):
        # drift is v / (2 Dcoef), so |v|/2 <= Dcoef always holds
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef, boundary)
        cfg = DeepLimitConfig(eps=fraction * gen.max_stable_eps(), L=L)
        x0 = {"low": min(offset, n - 1), "middle": n // 2, "high": max(n - 1 - offset, 0)}[where]
        # blocks of a few rows, so that block edges fall inside the trajectory
        with mock.patch("capnet.deeplimit._STD_BLOCK_BYTES", 8 * n * block_rows):
            report = erf_profile(gen, x0, cfg)
        stds, flagged = _erf_reference(gen, x0, cfg)
        np.testing.assert_array_equal(report.per_depth_std, stds)
        assert report.boundary_flagged == flagged

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 80),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        L=st.integers(1, 400),
    )
    def test_fit_matches_a_list_based_fit_bit_for_bit(self, n, dcoef, drift, fraction, L):
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef)
        report = erf_profile(gen, n // 2, DeepLimitConfig(eps=fraction * gen.max_stable_eps(), L=L))
        exponent, residual = _fit_reference(report.per_depth_std)
        assert report.fitted_exponent == exponent or math.isnan(exponent)
        assert report.fit_residual == residual or math.isnan(residual)
        assert math.isnan(report.fitted_exponent) == math.isnan(exponent)

    def test_chain_of_changing_widths(self):
        # interfaces of 6, 4 and 5 cells: the profiles cannot be stacked into one array
        rng = np.random.default_rng(0)
        chain = LayerChain(
            [
                propagation_matrix(ProjectionMatrix.from_raw(rng.standard_normal(shape)))
                for shape in ((6, 4), (4, 5))
            ]
        )
        report = erf_profile(chain, 2)
        np.testing.assert_array_equal(
            report.per_depth_std, [[2, 0.0], [1, 1.1191331204469774], [0, 1.323526348645144]]
        )
        assert report.boundary_flagged

    @pytest.mark.parametrize(
        "bad, message", [(math.nan, "non-finite"), (math.inf, "non-finite"), (-1e-9, "negative")]
    )
    def test_trajectory_checked_like_capacity_profiles(self, bad, message):
        gen = ResidualGenerator(11, 0.0, 1.0)
        rows = np.full((4, 11), 1.0 / 11)
        rows[2, 7] = bad
        # the bad entry sits in the second block of the walk
        with mock.patch("capnet.analyze._walk", return_value=iter([rows[:2], rows[2:]])):
            with pytest.raises(ValueError, match=message):
                erf_profile(gen, 5, DeepLimitConfig(eps=0.1, L=3))

    def test_walk_reduced_one_block_at_a_time(self):
        # the 20,001 x 401 trajectory would be 64 MB; the report itself is a few MB
        gen = ResidualGenerator(401, 0.0, 0.25)
        tracemalloc.start()
        try:
            erf_profile(gen, 205, DeepLimitConfig(eps=0.1, L=20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_fit_points_count_widths_of_two_cells_or_more(self):
        # width sqrt(0.18 k) after k steps reaches 2 cells at k = 23: steps 23..100 qualify
        gen = ResidualGenerator(201, 0.0, 0.9, "periodic")
        report = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=100))
        assert report.fit_points == 78
        assert json.loads(canonical_dumps(report))["fit_points"] == 78

    def test_width_doubles_from_25_to_100_layers(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        wide = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=100))
        narrow = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=25))
        sigma_100 = wide.per_depth_std[-1][1]
        sigma_25 = narrow.per_depth_std[-1][1]
        assert sigma_100 / sigma_25 == pytest.approx(2.0, rel=0.10)

    def test_exponent_is_one_half(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        report = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=100))
        assert 0.45 <= report.fitted_exponent <= 0.55
        assert report.fit_residual <= 1e-6
        assert not report.boundary_flagged

    def test_width_matches_gaussian_prediction(self):
        gen = ResidualGenerator(201, 0.0, 0.8, "periodic")
        cfg = DeepLimitConfig(eps=0.1, L=100)
        report = erf_profile(gen, 100, cfg)
        predicted = math.sqrt(2.0 * 0.8 * cfg.total_time)
        assert report.per_depth_std[-1][1] == pytest.approx(predicted, rel=0.05)

    def test_identity_layer_has_zero_width(self):
        chain = LayerChain([PropagationOperator(np.eye(11))])
        report = erf_profile(chain, 5)
        np.testing.assert_array_equal(report.per_depth_std, [[1, 0.0], [0, 0.0]])
        assert math.isnan(report.fitted_exponent)
        assert report.fit_points == 0

    def test_width_non_decreasing_for_diffusion(self):
        gen = ResidualGenerator(201, 0.0, 1.0, "periodic")
        report = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=100))
        widths = [sigma for _, sigma in report.per_depth_std]
        assert all(a <= b + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_probe_layer_listed_first(self):
        gen = ResidualGenerator(51, 0.0, 1.0, "periodic")
        report = erf_profile(gen, 25, DeepLimitConfig(eps=0.1, L=10))
        assert report.per_depth_std.shape == (11, 2)
        assert report.per_depth_std.dtype == np.float64
        np.testing.assert_array_equal(report.per_depth_std[0], [10, 0.0])
        assert report.per_depth_std[-1][0] == 0

    def test_edge_probe_flagged(self):
        gen = ResidualGenerator(51, 0.0, 1.0, "periodic")
        report = erf_profile(gen, 0, DeepLimitConfig(eps=0.1, L=10))
        assert report.boundary_flagged

    def test_chain_source(self):
        chain = _residual_chain(0.1, 50, n=101, Dcoef=1.0)
        report = erf_profile(chain, 50)
        predicted = math.sqrt(2.0 * 1.0 * 0.1 * 50)
        assert report.per_depth_std[-1][1] == pytest.approx(predicted, rel=0.05)

    def test_chain_with_config_rejected(self):
        chain = _residual_chain(0.1, 5)
        with pytest.raises(ValueError, match="generator"):
            erf_profile(chain, 5, DeepLimitConfig(eps=0.1, L=5))

    def test_generator_without_config_rejected(self):
        gen = ResidualGenerator(51, 0.0, 1.0)
        with pytest.raises(ValueError, match="DeepLimitConfig"):
            erf_profile(gen, 25)

    def test_probe_out_of_range_rejected(self):
        gen = ResidualGenerator(51, 0.0, 1.0)
        with pytest.raises(ValueError, match="x0"):
            erf_profile(gen, 51, DeepLimitConfig(eps=0.1, L=5))

    def test_serializes(self):
        gen = ResidualGenerator(51, 0.0, 1.0, "periodic")
        payload = json.loads(canonical_dumps(erf_profile(gen, 25, DeepLimitConfig(eps=0.1, L=5))))
        assert payload["probe_index"] == 25
        assert len(payload["per_depth_std"]) == 6
        assert isinstance(payload["boundary_flagged"], bool)


class TestMaxPathWeight:
    def test_residual_product_and_continuum(self):
        # diagonal 1 - eps*2*Dcoef = 0.9 at every layer
        direct, continuum = max_path_weight(_residual_chain(0.1, 10))
        assert direct == functools.reduce(operator.mul, [0.9] * 10)
        assert continuum == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(direct - continuum) / continuum <= 0.06

    def test_identity_chain_weight_one(self):
        chain = LayerChain([PropagationOperator(np.eye(7))] * 4)
        direct, continuum = max_path_weight(chain)
        assert direct == 1.0
        assert continuum == 1.0

    def test_uniform_diagonal_matches_closed_form(self):
        chain = LayerChain([PropagationOperator(np.full((6, 6), 1.0 / 6))] * 4)
        direct, _ = max_path_weight(chain)
        assert direct == pytest.approx(uniform_path_weight(6, 4), rel=1e-12)

    def test_below_one_when_any_diagonal_is(self):
        chain = _residual_chain(0.05, 3)
        direct, continuum = max_path_weight(chain)
        assert 0.0 < direct < 1.0
        assert 0.0 < continuum < 1.0

    def test_continuum_gap_shrinks_first_order_in_eps(self):
        # fixed total depth-time, so the continuum estimate is the common limit
        gaps = []
        for eps, L in ((0.1, 10), (0.05, 20), (0.025, 40)):
            direct, continuum = max_path_weight(_residual_chain(eps, L))
            gaps.append(abs(direct - continuum))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.1)
        assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.1)

    def test_non_square_chain_rejected(self):
        rng = np.random.default_rng(0)
        wide = np.abs(rng.random((3, 5))) + 0.1
        op = PropagationOperator(wide / wide.sum(axis=0))
        with pytest.raises(ValueError, match="square"):
            max_path_weight(LayerChain([op]))


class TestUniformPathWeight:
    def test_window_one_is_unity(self):
        assert uniform_path_weight(1, 50) == 1.0

    def test_three_to_the_fifth(self):
        assert uniform_path_weight(3, 5) == 1.0 / 243.0

    def test_power_of_two(self):
        assert uniform_path_weight(2, 10) == 1.0 / 1024.0

    def test_huge_depth_underflows_to_zero(self):
        assert uniform_path_weight(10, 500) == 0.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            uniform_path_weight(0, 5)
        with pytest.raises(ValueError, match="positive"):
            uniform_path_weight(3, 0)


class TestEnumeratePathWeights:
    def test_single_layer_is_matrix_entry(self):
        rng = np.random.default_rng(3)
        op = _random_tridiagonal(rng, 5)
        chain = LayerChain([op])
        total, best = enumerate_path_weights(chain, 1, 2)
        assert total == op.matrix[1, 2]
        assert best == total

    def test_total_recovers_product_entry(self):
        rng = np.random.default_rng(5)
        ops = [_random_tridiagonal(rng, 4) for _ in range(3)]
        chain = LayerChain(ops)
        product = ops[0].matrix @ ops[1].matrix @ ops[2].matrix
        for i_l in range(4):
            for i_L in range(4):
                total, best = enumerate_path_weights(chain, i_l, i_L)
                assert total == pytest.approx(product[i_l, i_L], abs=1e-12)
                assert best <= total + 1e-15
        # max_path_weight's stay-in-place path is one of the paths enumerated from i to i
        best_loops = [enumerate_path_weights(chain, i, i)[1] for i in range(4)]
        assert max_path_weight(chain)[0] <= max(best_loops)

    def test_uniform_window_paths_all_equal(self):
        op = PropagationOperator.uniform_window(6, 2)
        chain = LayerChain([op] * 3)
        total, best = enumerate_path_weights(chain, 4, 3)
        assert best == 0.125
        assert total == pytest.approx(round(total * 8) / 8, abs=1e-15)

    def test_disconnected_endpoints_have_zero_weight(self):
        # this window only moves mass towards larger indices
        op = PropagationOperator.uniform_window(6, 2)
        chain = LayerChain([op] * 3)
        total, best = enumerate_path_weights(chain, 2, 3)
        assert total == 0.0
        assert best == 0.0

    def test_column_sums_of_product_are_one(self):
        rng = np.random.default_rng(11)
        ops = [_random_tridiagonal(rng, 5) for _ in range(4)]
        chain = LayerChain(ops)
        for i_L in range(5):
            column = sum(
                enumerate_path_weights(chain, i_l, i_L)[0] for i_l in range(5)
            )
            assert column == pytest.approx(1.0, abs=1e-10)

    def test_path_guard(self):
        chain = LayerChain([PropagationOperator(np.full((40, 40), 1.0 / 40))] * 5)
        with pytest.raises(ValueError, match="paths"):
            enumerate_path_weights(chain, 0, 0)

    def test_bad_endpoints_rejected(self):
        chain = LayerChain([PropagationOperator(np.full((4, 4), 1.0 / 4))] * 2)
        with pytest.raises(ValueError, match="i_l"):
            enumerate_path_weights(chain, 4, 0)
        with pytest.raises(ValueError, match="i_L"):
            enumerate_path_weights(chain, 0, -1)


class TestShatterAnalysis:
    def test_report_fields(self):
        report = shatter_analysis(_residual_chain(0.1, 10), r=3, eps=0.1)
        assert report.max_path_weight == functools.reduce(operator.mul, [0.9] * 10)
        assert report.continuum_estimate == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert report.uniform_weight == uniform_path_weight(3, 10)
        assert report.L == 10
        assert report.r == 3
        assert report.eps == 0.1

    def test_serializes(self):
        payload = json.loads(canonical_dumps(shatter_analysis(_residual_chain(0.1, 5), r=2)))
        assert payload["eps"] is None
        assert payload["L"] == 5
        assert payload["uniform_weight"] == 1.0 / 32.0

    @pytest.mark.parametrize(
        "eps, message", [(0.0, "positive"), (math.nan, "positive"), (math.inf, "finite")]
    )
    def test_report_eps_must_be_positive_and_finite(self, eps, message):
        with pytest.raises(ValueError, match=f"eps must be {message} when given"):
            shatter_analysis(_residual_chain(0.1, 1), r=2, eps=eps)
