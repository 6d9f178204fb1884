"""Receptive-field and shattering analysis of capacity chains.

A Dirac probe dropped at the top of a deep chain spreads diffusively, so the
width of its capacity footprint grows like the square root of the traversed
depth.  Path-weight analysis decomposes the same propagation into index paths
whose maximal weight decays exponentially with depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .core import SpatialCapacity, _check_capacity_values
from .deeplimit import (
    _BOUNDARY_MASS_TOL,
    DeepLimitConfig,
    ResidualGenerator,
    _check_walk,
    _pmf_std,
    _walk,
)
from .propagate import LayerChain, propagate_chain

__all__ = [
    "ErfReport",
    "ShatterReport",
    "erf_profile",
    "max_path_weight",
    "uniform_path_weight",
    "shatter_analysis",
]

_MIN_FIT_SIGMA = 2.0  # grid cells; below this the width statistic is too discrete
_FIT_BLOCK = 4096  # widths the fit reads at a time; its temporaries are a few such blocks


@dataclass(frozen=True)
class ErfReport:
    """Width of a probe's capacity footprint per layer, with a power-law fit.

    ``per_depth_std`` is an (L+1) x 2 float64 array, from the probe layer
    down: row ``[l, width]`` holds the standard deviation of the normalized
    profile at interface l.  ``fitted_exponent`` is the least-squares
    log-log slope of width against traversed depth over the layers below the
    probe where the width is at least 2 grid cells; ``fit_points`` counts
    those layers.  ``fit_residual`` is the RMS of the log widths about the
    fitted line.  Both are taken from centred sums over the points, so they
    agree with a least-squares solve to rounding, and both are NaN when fewer
    than two layers qualify.
    """

    probe_index: int
    per_depth_std: np.ndarray
    fitted_exponent: float
    fit_residual: float
    boundary_flagged: bool
    fit_points: int


@dataclass(frozen=True)
class ShatterReport:
    """Path-weight summary of a depth-L chain against the uniform baseline."""

    max_path_weight: float
    continuum_estimate: float
    uniform_weight: float
    L: int
    r: int
    eps: Optional[float] = None


def _fit_points(widths: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(log depth, log width) of the fit points, ``_FIT_BLOCK`` widths at a time.

    ``widths[k]`` lies k layers below the probe; the points are k >= 1 with
    widths of 2 cells or more.
    """
    for start in range(0, len(widths), _FIT_BLOCK):
        block = widths[start : start + _FIT_BLOCK]
        keep = np.flatnonzero(block >= _MIN_FIT_SIGMA)
        if start == 0:
            keep = keep[keep > 0]  # not the probe layer itself
        yield np.log(keep + start), np.log(block[keep])


def _fit_power_law(widths: np.ndarray) -> Tuple[float, float, int]:
    """Least-squares slope of log width against log depth, its RMS residual and its points.

    One pass merges each block's means and centred sums Sxx and Sxy into the
    running ones (Chan et al.'s pairwise update), so the slope Sxy/Sxx is
    taken about the mean of every point; a second pass sums the squared
    residuals about the fitted line.  Only a block of points is held at a
    time.  The slope and residual are NaN below two points.
    """
    count, mean_x, mean_y, sxx, sxy = 0, 0.0, 0.0, 0.0, 0.0
    for xs, ys in _fit_points(widths):
        m = len(xs)
        if not m:
            continue
        block_x, block_y = float(xs.mean()), float(ys.mean())
        xs -= block_x
        ys -= block_y
        dx, dy, total = block_x - mean_x, block_y - mean_y, count + m
        sxx += float(xs @ xs) + dx * dx * count * m / total
        sxy += float(xs @ ys) + dx * dy * count * m / total
        mean_x += dx * m / total
        mean_y += dy * m / total
        count = total
    if count < 2:
        return math.nan, math.nan, count
    slope = sxy / sxx
    squares = 0.0
    for xs, ys in _fit_points(widths):
        xs -= mean_x
        xs *= slope
        ys -= mean_y
        ys -= xs
        squares += float(ys @ ys)
    return slope, math.sqrt(squares / count), count


def erf_profile(
    source: Union[LayerChain, ResidualGenerator],
    x0: int,
    cfg: Optional[DeepLimitConfig] = None,
) -> ErfReport:
    """Drop a Dirac probe at layer L, index x0, and track its width downwards.

    Accepts either a layer chain or a residual generator with its depth
    configuration.  The run is flagged when probe mass touches the first or
    last grid cell at any layer, since widths measured across the edge are
    unreliable.  A generator's walk is validated, flagged and measured in
    blocks of about 256 KiB of rows as it is stepped, so no more than one
    block of profiles is held at a time, and each block's widths are written
    straight into the report.  The power law is then fitted from that report
    in two passes of ``_FIT_BLOCK`` widths, so what the run holds beyond one
    block is the 16-byte-a-layer report.  The walk is still refused up front
    past the 2 GiB trajectory limit of :func:`evolve_markov`.  A chain's
    interfaces may differ in width, so each is measured on its own; its
    operators are read in one top-down pass.
    """
    if isinstance(source, LayerChain):
        if cfg is not None:
            raise ValueError("cfg only applies to a generator source")
        n, depth = source.n_out, len(source)
    elif isinstance(source, ResidualGenerator):
        if cfg is None:
            raise ValueError("a generator source needs a DeepLimitConfig")
        n, depth = source.n, cfg.L
        _check_walk(source, cfg, keep_all=True)  # before the probe and the widths are built
    else:
        raise TypeError("source must be a LayerChain or a ResidualGenerator")
    if not 0 <= x0 < n:
        raise ValueError(f"x0 must be in [0, {n})")
    probe = SpatialCapacity.dirac(n, x0)
    if isinstance(source, LayerChain):
        interfaces = propagate_chain(source, probe)
        blocks = (profile.values[None] for profile in reversed(interfaces))  # probe layer first
    else:
        blocks = _walk(source, cfg, probe, keep_all=True)

    flagged = False
    table = np.empty((depth + 1, 2))
    done = 0
    for rows in blocks:
        _check_capacity_values(rows)
        total = rows.sum(axis=1)
        flagged |= bool(np.any(rows[:, 0] + rows[:, -1] > _BOUNDARY_MASS_TOL * total))
        stop = done + len(rows)
        table[done:stop, 0] = np.arange(depth - done, depth - stop, -1)
        table[done:stop, 1] = _pmf_std(rows, total)
        done = stop
    del rows, total  # the last block holds the walk's buffer: free it before the fit
    exponent, residual, fit_points = _fit_power_law(table[:, 1])
    return ErfReport(
        probe_index=x0,
        per_depth_std=table,
        fitted_exponent=exponent,
        fit_residual=residual,
        boundary_flagged=flagged,
        fit_points=fit_points,
    )


def max_path_weight(chain: LayerChain) -> Tuple[float, float]:
    """Best diagonal path weight and its continuum estimate.

    Returns ``(max_i prod_l (D_l)_ii, max_i exp(sum_l ((D_l)_ii - 1)))``.
    The first is the exact weight of the stay-in-place path; the second
    replaces each factor by its exponential limit, which is tight for
    residual chains with small steps.  Layers must all be square.  The
    diagonals are read in one top-down pass and stacked first layer first.
    """
    for i, layer in enumerate(chain.layers):
        if layer.n_in != layer.n_out:
            raise ValueError(f"layer {i} is not square: shape {(layer.n_in, layer.n_out)}")
    stacked = np.empty((len(chain), chain.n_in))
    for row, layer in zip(stacked[::-1], chain.top_down()):
        row[:] = layer.diagonal()
    # np.prod along axis 0 multiplies the rows in order, first layer first, as a loop would
    direct = float(np.max(np.prod(stacked, axis=0)))
    continuum = float(np.max(np.exp(np.sum(stacked - 1.0, axis=0))))
    return direct, continuum


def uniform_path_weight(r: int, L: int) -> float:
    """Weight of every path through L uniform layers of receptive field r."""
    if r < 1 or L < 1:
        raise ValueError("r and L must be positive integers")
    if L * math.log2(r) > 1100:  # far past float overflow, where r**L takes long to form
        return 0.0
    try:
        return 1.0 / float(r**L)
    except OverflowError:
        return 0.0


def shatter_analysis(chain: LayerChain, r: int, eps: Optional[float] = None) -> ShatterReport:
    """Path-weight report for a chain against the uniform-r baseline.

    A path weight too small for a float reads 0.0.  ``r`` and ``eps`` are
    checked before the pass, so a bad option is reported before any layer
    is built.
    """
    uniform = uniform_path_weight(r, len(chain))
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive when given, got {eps!r}")
    if eps is not None and not math.isfinite(eps):
        raise ValueError(f"eps must be finite when given, got {eps!r}")
    direct, continuum = max_path_weight(chain)
    return ShatterReport(
        max_path_weight=direct,
        continuum_estimate=continuum,
        uniform_weight=uniform,
        L=len(chain),
        r=r,
        eps=eps,
    )
