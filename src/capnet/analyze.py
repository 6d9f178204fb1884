"""Receptive-field and shattering analysis of capacity chains.

A Dirac probe dropped at the top of a deep chain spreads diffusively, so the
width of its capacity footprint grows like the square root of the traversed
depth.  Path-weight analysis decomposes the same propagation into index paths
whose maximal weight decays exponentially with depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import SpatialCapacity, _check_capacity_values
from .deeplimit import (
    _BOUNDARY_MASS_TOL,
    DeepLimitConfig,
    ResidualGenerator,
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


@dataclass(frozen=True)
class ErfReport:
    """Width of a probe's capacity footprint per layer, with a power-law fit.

    ``per_depth_std`` is an (L+1) x 2 float64 array, from the probe layer
    down: row ``[l, width]`` holds the standard deviation of the normalized
    profile at interface l.  ``fitted_exponent`` is the log-log slope of
    width against traversed depth over the layers below the probe where the
    width is at least 2 grid cells; ``fit_points`` counts those layers.  The
    exponent is NaN when fewer than two layers qualify.
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
    blocks of about 1 MiB of rows as it is stepped, so no more than one block
    of profiles is held at a time; the walk is still refused up front past
    the 2 GiB trajectory limit of :func:`evolve_markov`, since the report
    grows with L.  A chain's interfaces may differ in width, so each is
    measured on its own.
    """
    if isinstance(source, LayerChain):
        if cfg is not None:
            raise ValueError("cfg only applies to a generator source")
        n, depth = source.n_out, len(source)
    elif isinstance(source, ResidualGenerator):
        if cfg is None:
            raise ValueError("a generator source needs a DeepLimitConfig")
        n, depth = source.n, cfg.L
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
    widths = np.empty(depth + 1)
    done = 0
    for rows in blocks:
        _check_capacity_values(rows)
        flagged |= bool(np.any(rows[:, 0] + rows[:, -1] > _BOUNDARY_MASS_TOL * rows.sum(axis=1)))
        widths[done : done + len(rows)] = _pmf_std(rows)
        done += len(rows)
    stds = np.column_stack((np.arange(depth, -1, -1), widths))

    # widths[k] lies k layers below the probe; the fit takes k >= 1 and widths of 2 cells or more
    fit = widths >= _MIN_FIT_SIGMA
    fit[0] = False
    fit_points = int(np.count_nonzero(fit))
    if fit_points >= 2:
        # math.log rather than np.log, whose last bits may differ
        xs = np.fromiter(map(math.log, np.flatnonzero(fit).tolist()), float)
        ys = np.fromiter(map(math.log, widths[fit].tolist()), float)
        design = np.stack([xs, np.ones_like(xs)], axis=1)
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        exponent = float(coef[0])
        residual = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))
    else:
        exponent = math.nan
        residual = math.nan
    return ErfReport(
        probe_index=x0,
        per_depth_std=stds,
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
    residual chains with small steps.  Layers must all be square.
    """
    diagonals = []
    for i, layer in enumerate(chain.layers):
        matrix = layer.matrix
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"layer {i} is not square: shape {matrix.shape}")
        diagonals.append(np.diag(matrix))
    stacked = np.array(diagonals)
    # sequential product, first layer first, so repeated runs are bit-identical
    products = np.ones(stacked.shape[1])
    for row in stacked:
        products = products * row
    direct = float(np.max(products))
    continuum = float(np.max(np.exp(np.sum(stacked - 1.0, axis=0))))
    return direct, continuum


def uniform_path_weight(r: int, L: int) -> float:
    """Weight of every path through L uniform layers of receptive field r."""
    if r < 1 or L < 1:
        raise ValueError("r and L must be positive integers")
    try:
        return 1.0 / float(r**L)
    except OverflowError:
        return 0.0


def shatter_analysis(chain: LayerChain, r: int, eps: Optional[float] = None) -> ShatterReport:
    """Path-weight report for a chain against the uniform-r baseline.

    A path weight too small for a float reads 0.0.
    """
    direct, continuum = max_path_weight(chain)
    uniform = uniform_path_weight(r, len(chain))
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive when given, got {eps!r}")
    if eps is not None and not math.isfinite(eps):
        raise ValueError(f"eps must be finite when given, got {eps!r}")
    return ShatterReport(
        max_path_weight=direct,
        continuum_estimate=continuum,
        uniform_weight=uniform,
        L=len(chain),
        r=r,
        eps=eps,
    )
