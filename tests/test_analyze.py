"""Tests for receptive-field widths and path-weight shattering."""

import functools
import json
import math
import operator
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capnet.analyze import erf_profile, max_path_weight, shatter_analysis, uniform_path_weight
from capnet.cli import _uniform_stencil
from capnet.core import ProjectionMatrix, SpatialCapacity
from capnet.deeplimit import (
    _BOUNDARY_MASS_TOL,
    DeepLimitConfig,
    ResidualGenerator,
    _generator_run,
    _pmf_std,
    evolve_markov,
)
from capnet.jsonfmt import canonical_dumps
from capnet.propagate import (
    LayerChain,
    PropagationOperator,
    Stencil,
    _walk,
    propagate_chain,
    propagate_single,
    propagation_matrix,
)


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


def _walk_reference(gen, cfg, x0):
    """The walk from a probe at x0, or from the profile x0, stepped on the whole grid.

    Every step is shifted slices and scalar wraps over all n cells.  Each cell
    adds its keep, then the up hop from the cell below, then the down hop from
    the cell above.  On a periodic grid cell 0 adds the wrapped up hop before
    its down hop, and cell n-1 the wrapped down hop last; a reflecting edge
    folds the hop that would leave the grid into the edge cell's keep.
    """
    keep = 1.0 + cfg.eps * (-2.0 * gen.Dcoef)
    first = 1.0 + cfg.eps * (-2.0 * gen.Dcoef + gen.down)
    last = 1.0 + cfg.eps * (-2.0 * gen.Dcoef + gen.up)
    up, down = cfg.eps * gen.up, cfg.eps * gen.down
    rows = np.zeros((cfg.L + 1, gen.n))
    if np.ndim(x0):
        rows[0] = x0
    else:
        rows[0, x0] = 1.0
    for k in range(1, cfg.L + 1):
        x, y = rows[k - 1], rows[k]
        y[:] = keep * x
        if gen.boundary == "reflecting":
            y[0] = first * x[0]
            y[-1] = last * x[-1]
        y[1:] += up * x[:-1]
        if gen.boundary == "periodic":
            y[0] += up * x[-1]
        y[:-1] += down * x[1:]
        if gen.boundary == "periodic":
            y[-1] += down * x[0]
    return rows


def _walk_blocks(gen, cfg, top):
    """The generator's walk from the profile ``top``, a copy of each block."""
    return [rows.copy() for rows in _walk(_generator_run(gen, cfg), top)]


def _erf_reference(gen, x0, cfg):
    """Widths and edge flag of a generator run, measured profile by profile."""
    stds, flagged = [], False
    walked = _walk_reference(gen, cfg, x0)
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
        probe = SpatialCapacity.dirac(n, x0)
        with mock.patch("capnet.propagate._BLOCK_BYTES", 8 * n * block_rows):
            report = erf_profile(gen, x0, cfg)
            blocks = _walk_blocks(gen, cfg, probe.values)
        stds, flagged = _erf_reference(gen, x0, cfg)
        np.testing.assert_array_equal(report.per_depth_std, stds)
        assert report.boundary_flagged == flagged
        # the walk itself, against a loop that shares none of its code
        walked = _walk_reference(gen, cfg, x0)
        np.testing.assert_array_equal(np.concatenate(blocks), walked)
        np.testing.assert_array_equal(evolve_markov(gen, cfg, probe), walked[-1])

    @pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("ring", [2, 5])
    def test_ring_edges_match_a_per_profile_loop_bit_for_bit(self, ring, n, boundary):
        # walks that end on the ring's last row, its first or its second, once or
        # twice round; at n = 3 the two end cells a periodic wrap adds to are one
        # cell apart, and the probe at cell 0 meets the wrap or the fold at once
        gen = ResidualGenerator(n, 0.5, 0.8, boundary)
        probe = SpatialCapacity.dirac(n, 0)
        for L in (ring - 1, ring, ring + 1, 2 * ring, 2 * ring + 1):
            cfg = DeepLimitConfig(eps=0.4, L=L)
            walked = _walk_reference(gen, cfg, 0)
            with mock.patch("capnet.propagate._BLOCK_BYTES", 8 * n * ring):
                blocks = _walk_blocks(gen, cfg, probe.values)
                report = erf_profile(gen, 0, cfg)
                last = evolve_markov(gen, cfg, probe)
            assert max(len(rows) for rows in blocks) == ring
            np.testing.assert_array_equal(np.concatenate(blocks), walked)
            stds, flagged = _erf_reference(gen, 0, cfg)
            np.testing.assert_array_equal(report.per_depth_std, stds)
            assert report.boundary_flagged == flagged
            np.testing.assert_array_equal(last, walked[-1])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 80),
        dcoef=st.floats(0.05, 5.0),
        drift=st.floats(-1.0, 1.0),
        fraction=st.floats(0.01, 0.99),
        L=st.integers(1, 400),
        fit_block=st.integers(1, 500),
    )
    # widths that level off at n = 7: an exponent of -2.2e-7, where lstsq's
    # uncentred design loses 2.5e-10 of it relative and the centred sums 1e-16
    @example(
        n=7,
        dcoef=0.7909285039552181,
        drift=-0.06727179112782422,
        fraction=0.46998802879657775,
        L=395,
        fit_block=64,
    )
    def test_fit_within_rounding_of_a_list_based_fit(self, n, dcoef, drift, fraction, L, fit_block):
        # blocks of a few widths, so that the fit merges the sums of several
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef)
        cfg = DeepLimitConfig(eps=fraction * gen.max_stable_eps(), L=L)
        with mock.patch("capnet.analyze._FIT_BLOCK", fit_block):
            report = erf_profile(gen, n // 2, cfg)
        exponent, residual = _fit_reference(report.per_depth_std)
        assert math.isnan(report.fitted_exponent) == math.isnan(exponent)
        assert math.isnan(report.fit_residual) == math.isnan(residual)
        if not math.isnan(exponent):
            assert math.isclose(report.fitted_exponent, exponent, rel_tol=1e-12, abs_tol=1e-14)
            assert abs(report.fit_residual - residual) <= 1e-12

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

    def test_fit_held_in_bounded_memory(self):
        # 199,921 fit points beside a 3.05 MiB report; a design matrix, lists of
        # logs and lstsq's copies took 7.9 MiB more
        gen = ResidualGenerator(201, 0.0, 0.25)
        tracemalloc.start()
        try:
            report = erf_profile(gen, 100, DeepLimitConfig(eps=0.1, L=200000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.fit_points > 199000
        assert peak - report.per_depth_std.nbytes <= 2 * 2**20

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


def _assert_same_bits(got, expected):
    """Equal arrays down to the sign of each zero."""
    assert got.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(expected).view(np.int64)
    )


@st.composite
def _stencil_chains(draw):
    """Random periodic stencils, some repeated, with dense layers between, a probe and a top.

    The layers are drawn top first; a dense layer may change the width.  The
    top is a unit mass at the probe, and may carry -0.0 or entries down to
    -1e-10 elsewhere.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = top = draw(st.integers(1, 40))
    layers = []
    kinds = st.lists(st.sampled_from(["stencil", "same", "dense"]), min_size=1, max_size=12)
    for kind in draw(kinds):
        if kind == "same" and layers and isinstance(layers[-1], Stencil):
            last = layers[-1]  # an equal stencil, not the same object
            layers.append(Stencil(last.n, last.offsets, last.weights))
        elif kind == "dense":
            n_in = draw(st.integers(1, 40))
            matrix = rng.random((n_in, n)) + 0.01
            layers.append(PropagationOperator(matrix / matrix.sum(axis=0)))
            n = n_in
        else:
            # taps anywhere, reduced mod n, or within 2 cells, whose walk keeps a narrow window
            pool = np.arange(-n, 2 * n) if draw(st.booleans()) else np.arange(-2, 3)
            offsets = rng.permutation(pool)[: draw(st.integers(1, 7))]
            offsets = offsets[np.unique(offsets % n, return_index=True)[1]]
            weights = rng.random(offsets.size) + 0.01
            layers.append(Stencil(n, offsets, weights / weights.sum()))
    x0 = draw(st.integers(0, top - 1))
    profile = SpatialCapacity.dirac(top, x0).values
    others = rng.permutation(np.delete(np.arange(top), x0))[: draw(st.integers(0, 3))]
    shape = draw(st.sampled_from(["dirac", "negative zeros", "tiny negatives"]))
    if shape == "negative zeros":
        profile[others] = -0.0
    elif shape == "tiny negatives":
        profile[others] = -rng.uniform(0.0, 1e-10, others.size)
    return LayerChain(layers[::-1]), x0, profile


def _profiles_or_refusal(propagate):
    """Each profile's values, or the message of the ValueError that refused one."""
    try:
        return [p.values for p in propagate()]
    except ValueError as exc:
        return str(exc)


def _per_layer_profiles(chain, top):
    """propagate_chain's profiles, one propagate_single a layer on the whole grid."""
    profiles = [SpatialCapacity(top)]
    for layer in chain.top_down():
        profiles.append(propagate_single(layer, profiles[-1]))
    return profiles[::-1]


class TestStencilChains:
    @settings(max_examples=60, deadline=None)
    @given(_stencil_chains(), st.integers(1, 4000), st.sampled_from([1, 3, 64]))
    def test_streamed_chain_matches_a_per_layer_loop_bit_for_bit(self, chain_probe, block, segment):
        # the stencil runs are walked in windows and blocks, each dense layer applied
        # once; the reference applies every layer to the whole profile
        chain, x0, top = chain_probe
        small = {"_BLOCK_BYTES": block, "_SEGMENT_STEPS": segment}
        with mock.patch.multiple("capnet.propagate", **small):
            report = erf_profile(chain, x0)
            streamed = _profiles_or_refusal(lambda: propagate_chain(chain, SpatialCapacity(top)))
        profiles = [SpatialCapacity.dirac(chain.n_out, x0).values]
        for layer in chain.top_down():
            profiles.append(layer.apply(profiles[-1]))
        widths = [_pmf_std(p[None], p[None].sum(axis=1))[0] for p in profiles]
        flagged = any(p[0] + p[-1] > _BOUNDARY_MASS_TOL * p.sum() for p in profiles)
        np.testing.assert_array_equal(report.per_depth_std[:, 0], np.arange(len(chain), -1, -1))
        assert report.per_depth_std[:, 1].tobytes() == np.array(widths).tobytes()
        assert report.boundary_flagged == flagged
        assert max(abs(p.sum() - 1.0) for p in profiles) <= 1e-12
        # propagate_chain reads the same pass; -0.0 and tiny negatives are mass to its window
        expected = _profiles_or_refusal(lambda: _per_layer_profiles(chain, top))
        assert type(streamed) is type(expected)
        if isinstance(expected, str):
            assert streamed == expected
        else:
            assert len(streamed) == len(expected) == len(chain) + 1
            for got, want in zip(streamed, expected):
                _assert_same_bits(got, want)


class TestWindowedWalk:
    @settings(max_examples=80, deadline=None)
    # a drift that stops the up hop leaves the trailing edge to decay to 0, so the
    # span shrinks: a window that shrank with it would leave rows of earlier laps
    # nonzero outside it
    @example(
        n=600, L=400, shape="dirac", cell=250, mass=0, width=1, dcoef=1.0, drift=-1.0,
        fraction=0.99, boundary="periodic", block_rows=40, segment=3, views=1024, seed=0,
    )
    @given(
        n=st.integers(70, 600),
        L=st.integers(1, 1500),
        shape=st.sampled_from(["dirac", "patch", "negative zeros", "tiny negatives"]),
        cell=st.integers(-300, 300),
        mass=st.integers(-300, 300),
        width=st.integers(1, 8),
        dcoef=st.floats(0.05, 5.0),
        drift=st.sampled_from([-1.0, -0.3, 0.0, 0.7, 1.0]),
        fraction=st.floats(0.01, 0.99),
        boundary=st.sampled_from(["periodic", "reflecting"]),
        block_rows=st.integers(2, 40),
        segment=st.sampled_from([1, 3, 16, 64]),
        views=st.sampled_from([1, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_whole_grid_loop_bit_for_bit(
        self, n, L, shape, cell, mass, width, dcoef, drift, fraction, boundary, block_rows,
        segment, views, seed
    ):
        # the walk steps only a window round the mass, grown segment by segment,
        # and the whole grid once the window reaches an edge; a drift of +-1 stops
        # one of the two hops.  cell and mass count from the centre.
        cell, mass = (min(max(n // 2 + at, 0), n - 1) for at in (cell, mass))
        top = np.zeros(n)
        run = top[cell : cell + width]
        if shape == "patch":
            run[:] = np.random.default_rng(seed).uniform(0.01, 1.0, run.size)
        elif shape == "negative zeros":
            run[:] = -0.0
        elif shape == "tiny negatives":
            run[:] = -np.random.default_rng(seed).uniform(0.0, 1e-10, run.size)
        if shape != "patch":
            top[cell if shape == "dirac" else mass] = 1.0
        gen = ResidualGenerator(n, 2.0 * dcoef * drift, dcoef, boundary)
        cfg = DeepLimitConfig(eps=fraction * gen.max_stable_eps(), L=L)
        kappa = SpatialCapacity(top)
        walked = _walk_reference(gen, cfg, top)
        # short segments and rings of few rows, so that segments and laps interleave
        with mock.patch.multiple(
            "capnet.propagate",
            _BLOCK_BYTES=8 * n * block_rows,
            _SEGMENT_STEPS=segment,
            _SEGMENT_VIEWS=views,
        ):
            blocks = _walk_blocks(gen, cfg, top)
            report = erf_profile(gen, cell, cfg) if shape == "dirac" else None
            last = evolve_markov(gen, cfg, kappa)
        _assert_same_bits(np.concatenate(blocks), walked)
        _assert_same_bits(last, walked[-1])
        if report is not None:
            stds, flagged = _erf_reference(gen, cell, cfg)
            np.testing.assert_array_equal(report.per_depth_std, stds)
            assert report.boundary_flagged == flagged

    def test_dirac_steps_only_the_cells_its_mass_can_reach(self):
        # after k steps a Dirac covers at most 2k+1 cells; the walk stepped all
        # 100,001 cells at every one of the 50 steps
        n, L = 100_001, 50
        gen = ResidualGenerator(n, 0.3, 1.0)
        cfg = DeepLimitConfig(eps=0.2, L=L)
        probe = SpatialCapacity.dirac(n, n // 2)
        with mock.patch.object(np, "multiply", wraps=np.multiply) as multiply:
            with mock.patch.object(np, "add", wraps=np.add) as add:
                last = evolve_markov(gen, cfg, probe)
        # a step forms its three taps' terms in one multiply and adds them in two;
        # each argument holds the window's cells, or a row of them per tap
        calls = multiply.call_args_list + add.call_args_list
        assert len(calls) == 3 * L
        assert max(np.shape(arg)[-1] for call in calls for arg in call.args) <= 2 * L + 3
        _assert_same_bits(last, _walk_reference(gen, cfg, n // 2)[-1])


class TestMaxPathWeight:
    def test_residual_product_and_continuum(self):
        # diagonal 1 - eps*2*Dcoef = 0.9 at every layer
        direct, continuum = max_path_weight(_residual_chain(0.1, 10))
        assert direct == functools.reduce(operator.mul, [0.9] * 10)
        assert continuum == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(direct - continuum) / continuum <= 0.06

    def test_same_bits_as_a_product_loop_first_layer_first(self):
        rng = np.random.default_rng(3)
        for n, L in ((1, 1), (5, 40), (17, 300), (120, 7)):
            layers = []
            for _ in range(L):
                raw = rng.random((n, n)) ** 3
                layers.append(PropagationOperator(raw / raw.sum(axis=0)))
            products = np.ones(n)
            for layer in layers:
                products = products * np.diag(layer.matrix)
            assert max_path_weight(LayerChain(layers))[0] == float(np.max(products))

    def test_stencils_read_as_their_dense_matrices(self):
        # a stencil's diagonal has the bits of its dense matrix's, so the path weights do too
        gen = ResidualGenerator(8, 0.3, 0.9)
        stencils = [gen.stencil(0.2), _uniform_stencil(8, 3), _uniform_stencil(8, 4)]
        for layers in (stencils, stencils[::-1] * 3):
            expected = max_path_weight(LayerChain([PropagationOperator(s.matrix) for s in layers]))
            assert max_path_weight(LayerChain(layers)) == expected
        assert max_path_weight(LayerChain(stencils))[0] == pytest.approx(0.64 / 12, rel=1e-15)

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

    def test_depth_past_overflow_reads_zero_at_once(self):
        # r**L for L = 3e7 took 25 s to form, only for float() to overflow
        start = time.perf_counter()
        assert uniform_path_weight(3, 3 * 10**7) == 0.0
        assert uniform_path_weight(2**63, 2**63) == 0.0
        assert uniform_path_weight(1, 2**63) == 1.0
        assert time.perf_counter() - start < 0.1

    def test_same_bits_as_one_over_the_integer_power(self):
        # at small depths, around float overflow and around the 2**1100 cutoff
        for r in range(2, 60):
            edges = [int(bits / math.log2(r)) for bits in (1024, 1100)]
            for depth in [*range(1, 40), *(e + d for e in edges for d in range(-3, 4))]:
                try:
                    expected = 1.0 / float(r**depth)
                except OverflowError:
                    expected = 0.0
                assert uniform_path_weight(r, depth) == expected

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
        op = _uniform_stencil(6, 2)
        chain = LayerChain([op] * 3)
        total, best = enumerate_path_weights(chain, 4, 3)
        assert best == 0.125
        assert total == pytest.approx(round(total * 8) / 8, abs=1e-15)

    def test_disconnected_endpoints_have_zero_weight(self):
        # this window only moves mass towards larger indices
        op = _uniform_stencil(6, 2)
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
