"""Deep-network limit of capacity propagation.

Residual chains with identical operators ``I + eps*Delta`` follow a
drift-diffusion law: in depth-time ``t = (L - l)/L`` the capacity profile
solves ``pi' = -v pi_x + Dcoef pi_xx`` whose Dirac solution is a Gaussian of
variance ``2 Dcoef eps L``.  This module builds the tridiagonal generators
as 3-point stencils, runs the discrete Markov evolution on them, evaluates
the Gaussian closed form, and measures the gap between the two under joint
grid and depth refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import SpatialCapacity
from .propagate import PropagationOperator

__all__ = [
    "StabilityError",
    "ResidualGenerator",
    "DeepLimitConfig",
    "ConvergenceReport",
    "evolve_markov",
    "gaussian_solution",
    "compare_markov_pde",
]

_BOUNDARY_MASS_TOL = 1e-6
# Largest Markov trajectory evolve_markov allocates: (L+1) * n float64 values.
_TRAJECTORY_BUDGET_BYTES = 2 * 2**30
# Longest walk evolve_markov runs, each about a minute of stepping: a step
# costs some 6-8 us on small grids and some 2 ns a cell on wide ones.
_MAX_WALK_STEPS = 10**7
_MAX_WALK_CELL_STEPS = 3 * 10**10
# Widest grid compare_markov_pde evaluates the closed form on: the direct
# convolution costs some 0.15-0.3 ns per n**2, about a minute at this width.
_MAX_CLOSED_FORM_CELLS = 5 * 10**5


# Bytes per block of rows: erf_profile reduces its walk in blocks of this
# size, and _pmf_std needs one temporary of the same size.
_STD_BLOCK_BYTES = 2**20


def _pmf_std(rows: np.ndarray) -> np.ndarray:
    """Standard deviation of the grid index under each row's profile, in cells.

    Takes a 2-D block of profiles, one walk block at most, and returns one
    width per row, in the centred form ``sum((i - mean)**2 * v) / sum(v)``.
    The products are formed in one block-sized temporary, reused through
    ``out=``, so the reduction needs about one block beyond its input.  Each
    row is reduced contiguously, so a row's width has the bits a lone 1-D
    profile would get.
    """
    idx = np.arange(rows.shape[1])
    total = rows.sum(axis=1)
    terms = np.multiply(idx, rows)
    mean = terms.sum(axis=1) / total
    np.subtract(idx, mean[:, None], out=terms)
    np.square(terms, out=terms)
    np.multiply(terms, rows, out=terms)
    var = terms.sum(axis=1) / total
    return np.sqrt(np.maximum(var, 0.0))


class StabilityError(ValueError):
    """Raised when ``I + eps*Delta`` would have negative entries."""


@dataclass(frozen=True)
class ResidualGenerator:
    """Tridiagonal drift-diffusion generator, held as its 3-point stencil.

    Column j sends ``up = Dcoef + v/2`` to cell j+1, ``down = Dcoef - v/2``
    to cell j-1 and keeps ``-2 Dcoef``, except where a reflecting edge folds
    the outgoing flux back in.  Only ``up`` and ``down`` are stored; the
    dense ``matrix`` is built on demand.  Periodic boundaries wrap the
    stencil.  Columns sum to 0,
    so ``I + eps*Delta`` is column-stochastic whenever it is entrywise
    non-negative.  ``v`` is measured in cells per unit depth and ``Dcoef``
    in cells squared per unit depth, with one cell per neuron; ``|v|/2``
    must not exceed ``Dcoef`` or transition weights would turn negative.
    """

    n: int
    v: float
    Dcoef: float
    boundary: str = "periodic"
    up: float = field(init=False, compare=False)
    down: float = field(init=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.Dcoef)):
            raise ValueError(f"v = {self.v:g} and Dcoef = {self.Dcoef:g} must be finite")
        if self.Dcoef <= 0:
            raise ValueError("Dcoef must be positive")
        if not math.isfinite(2.0 * self.Dcoef):
            raise ValueError(f"Dcoef = {self.Dcoef:g} overflows: 2*Dcoef is not finite")
        if abs(self.v) / 2.0 > self.Dcoef:
            raise ValueError(
                f"|v|/2 = {abs(self.v) / 2:g} exceeds Dcoef = {self.Dcoef:g}; "
                "transition weights would be negative"
            )
        if self.n < 3:
            raise ValueError("generator needs at least 3 grid points")
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "up", self.Dcoef + self.v / 2.0)  # towards larger index
        object.__setattr__(self, "down", self.Dcoef - self.v / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n generator: the stencil applied to the identity."""
        eye = np.eye(self.n)
        return _apply_stencil(self, _generator_weights(self), eye, np.empty_like(eye))

    def max_stable_eps(self) -> float:
        """Largest eps with ``eps * 2 Dcoef < 1`` (strict).

        The largest ``-Delta_jj`` is ``2 Dcoef``: n >= 3 leaves an interior
        cell, and a reflecting edge only adds ``up, down >= 0`` back.
        """
        return 1.0 / (2.0 * self.Dcoef)

    def _check_eps(self, eps: float) -> None:
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps!r}")
        if eps >= self.max_stable_eps():
            raise StabilityError(
                f"eps = {eps:g} makes I + eps*Delta negative; "
                f"eps must be below {self.max_stable_eps():g}"
            )

    def step(self, eps: float) -> PropagationOperator:
        """One dense residual layer ``I + eps*Delta``; refuses eps past the stability bound."""
        self._check_eps(eps)
        return PropagationOperator(np.eye(self.n) + eps * self.matrix)


def _generator_weights(gen: ResidualGenerator) -> Tuple[float, float, float, float, float]:
    """Interior keep, first and last keeps as a reflecting edge folds them, up and down hops."""
    keep = -2.0 * gen.Dcoef
    return keep, keep + gen.down, keep + gen.up, gen.up, gen.down


def _apply_stencil(gen: ResidualGenerator, weights, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Write ``weights`` applied to ``x`` along axis 0 into ``y``; periodic grids wrap hops."""
    keep, first, last, up, down = weights
    np.multiply(keep, x, out=y)
    if gen.boundary == "reflecting":
        y[0] = first * x[0]
        y[-1] = last * x[-1]
    y[1:] += up * x[:-1]
    y[:-1] += down * x[1:]
    if gen.boundary == "periodic":
        y[0] += up * x[-1]
        y[-1] += down * x[0]
    return y


@dataclass(frozen=True)
class DeepLimitConfig:
    """Discretization of the deep limit: L layers of step eps.

    Depth-time runs over t = (L - l)/L; the total depth-time spanned by the
    chain in generator units is T = eps * L.
    """

    eps: float
    L: int

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
        if self.L < 1:
            raise ValueError("L must be a positive integer")

    @property
    def total_time(self) -> float:
        return self.eps * self.L


def _check_walk(gen: ResidualGenerator, cfg: DeepLimitConfig) -> None:
    if cfg.L > _MAX_WALK_STEPS or cfg.L * gen.n > _MAX_WALK_CELL_STEPS:
        raise ValueError(
            f"{cfg.L} steps of {gen.n} cells are past the walk limit of "
            f"{_MAX_WALK_STEPS:,} steps and {_MAX_WALK_CELL_STEPS:,} cell-steps"
        )


def _walk(
    gen: ResidualGenerator,
    cfg: DeepLimitConfig,
    kappa_top: SpatialCapacity,
    keep_all: bool,
    block_rows: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """Yield the L+1 profiles of the walk as consecutive blocks of rows.

    The walk is refused at the first ``next()``, before its first step:
    ``keep_all`` applies the 2 GiB trajectory limit, for a caller that keeps,
    or reports on, every one of the L+1 profiles.  The blocks are views of
    one reused buffer of ``block_rows`` rows (at least 2, by default about
    1 MiB; fewer if the walk is shorter), so each must be read before the
    next is asked for, and the last block may be shorter.  Trajectory row k
    sits in buffer row k modulo the buffer's rows.  Each step applies the
    stencil to shifted slices, O(n) per step, and conserves the total
    capacity.
    """
    if kappa_top.n != gen.n:
        raise ValueError(f"capacity has {kappa_top.n} entries, generator expects {gen.n}")
    gen._check_eps(cfg.eps)
    size = (cfg.L + 1) * gen.n * 8
    if keep_all and size > _TRAJECTORY_BUDGET_BYTES:
        raise ValueError(
            f"{cfg.L + 1} profiles of {gen.n} cells need {size / 2**30:.1f} GiB, "
            f"over the {_TRAJECTORY_BUDGET_BYTES / 2**30:g} GiB trajectory limit"
        )
    _check_walk(gen, cfg)
    if block_rows is None:
        block_rows = max(2, _STD_BLOCK_BYTES // (8 * gen.n))
    rows = np.empty((min(block_rows, cfg.L + 1), gen.n))
    rows[0] = kappa_top.values
    keep, first, last, up, down = (cfg.eps * w for w in _generator_weights(gen))
    weights = (1.0 + keep, 1.0 + first, 1.0 + last, up, down)  # the entries of I + eps*Delta
    count = len(rows)
    for k in range(1, cfg.L + 1):
        j = k % count
        if j == 0:
            yield rows
        _apply_stencil(gen, weights, rows[j - 1], rows[j])
    yield rows[: cfg.L % count + 1]


def evolve_markov(
    gen: ResidualGenerator,
    cfg: DeepLimitConfig,
    kappa_top: SpatialCapacity,
    keep_all: bool = True,
) -> np.ndarray:
    """Apply ``I + eps*Delta`` L times to ``kappa_top`` on the stencil.

    Returns the (L+1) x n trajectory: row k is the profile after k steps,
    row 0 is ``kappa_top`` (t = 0) and row L the input-space profile
    (t = 1).  The trajectory is refused past a 2 GiB budget before
    allocating, and the walk past 10**7 steps or 3*10**10 cell-steps before
    its first step.  With ``keep_all=False`` only row L is returned: two O(n)
    buffers take turns as the source and target of a step.  Both run the
    block walk that ``erf_profile`` reduces 1 MiB at a time: the trajectory
    as one block of L+1 rows, the last profile through blocks of two.
    """
    for rows in _walk(gen, cfg, kappa_top, keep_all, cfg.L + 1 if keep_all else 2):
        pass
    return rows if keep_all else rows[-1]


def gaussian_solution(values, h: float, v: float, Dcoef: float, t: float) -> np.ndarray:
    """Heat-kernel convolution of the initial density, by the trapezoid rule.

    ``values`` are density samples on the grid ``x_i = i*h``.  Evaluates
    ``pi(t, x) = int G(x - y - v t) pi(0, y) dy`` with the Gaussian kernel of
    variance ``2 Dcoef t`` on that grid; ``t = 0`` returns a copy of the
    values.  The kernel depends on ``i - j`` only, so its 2n-1 samples are
    convolved with the weighted values in O(n) memory and O(n**2) time.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("values must be a vector of at least 2 points")
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain non-finite entries")
    if values.min() < -1e-9:
        raise ValueError(f"values have negative entry {values.min():.3e}")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if not Dcoef > 0:
        raise ValueError("Dcoef must be positive")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return values.copy()
    spread = 4.0 * Dcoef * t
    n = values.size
    gap = np.arange(1 - n, n) * h - v * t  # x_i - x_j - v t at i - j = 1-n .. n-1
    kernel = np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread)
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return np.convolve(kernel, weights * values, mode="valid")


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between the Markov profile and the Gaussian closed form.

    One entry per refinement level (coarsest first).  All gaps are measured
    on physical densities (mass per unit length of the coarsest grid), so
    levels are directly comparable; ``rel_errors`` divide by that level's
    closed-form peak.  ``overall_order`` is the average halving order of the
    relative error per refinement.  ``markov_std`` is the width in cells of
    the coarsest level's Markov profile.  ``levels_requested`` counts the
    levels asked for; fewer are reported when a finer step would be unstable.
    """

    eps_levels: Tuple[float, ...]
    sup_errors: Tuple[float, ...]
    rel_errors: Tuple[float, ...]
    orders: Tuple[float, ...]
    overall_order: float
    boundary_flagged: bool
    markov_std: float
    levels_requested: int


def _refined_inputs(
    gen: ResidualGenerator, cfg: DeepLimitConfig, kappa_top: SpatialCapacity, scale: int
):
    if scale == 1:
        return gen, cfg, kappa_top
    n_fine = scale * (gen.n - 1) + 1
    gen_fine = ResidualGenerator(n_fine, gen.v * scale, gen.Dcoef * scale * scale, gen.boundary)
    cfg_fine = DeepLimitConfig(eps=cfg.eps / scale, L=cfg.L * scale)
    values = np.zeros(n_fine)
    values[np.arange(gen.n) * scale] = kappa_top.values
    return gen_fine, cfg_fine, SpatialCapacity(values)


def compare_markov_pde(
    gen: ResidualGenerator,
    cfg: DeepLimitConfig,
    kappa_top: SpatialCapacity,
    refinements: int = 2,
) -> ConvergenceReport:
    """Gap between the L-step Markov profile and the Gaussian solution at t=1.

    The closed form is evaluated with effective coefficients ``v*eps*L`` and
    ``Dcoef*eps*L``.  Each refinement halves eps, doubles L (fixed total
    depth-time), and halves the grid spacing, rescaling the generator to cell
    units.  Refinement stops early if a halved step would break the
    stability bound; an unstable coarsest level raises StabilityError.  Every
    level that will run is checked against the walk limit and the closed
    form's width limit of 5*10**5 cells before the first step.  Each level
    keeps only its last Markov profile, stepping two O(n) buffers.  A fixed
    grid cannot work here: with the spacing frozen the chain converges to
    the lattice walk, not to the PDE, and the gap saturates instead of
    shrinking.
    """
    if refinements < 0:
        raise ValueError("refinements must be non-negative")
    levels = []
    for level in range(refinements + 1):
        gen_k, cfg_k, kappa_k = _refined_inputs(gen, cfg, kappa_top, 2**level)
        if level > 0 and cfg_k.eps >= gen_k.max_stable_eps():
            break
        _check_walk(gen_k, cfg_k)
        if gen_k.n > _MAX_CLOSED_FORM_CELLS:
            raise ValueError(
                f"a closed form on {gen_k.n:,} cells is past the limit of "
                f"{_MAX_CLOSED_FORM_CELLS:,} cells"
            )
        levels.append((gen_k, cfg_k, kappa_k))
    eps_levels: List[float] = []
    sup_errors: List[float] = []
    rel_errors: List[float] = []
    flagged = False
    markov_std = math.nan
    for level, (gen_k, cfg_k, kappa_k) in enumerate(levels):
        final = evolve_markov(gen_k, cfg_k, kappa_k, keep_all=False)
        if level == 0:
            markov_std = float(_pmf_std(final[None])[0])
        h = 1.0 / 2**level
        total_time = cfg.total_time
        pde = gaussian_solution(
            kappa_k.values / h, h, gen.v * total_time, gen.Dcoef * total_time, 1.0
        )
        if pde.sum() * h < kappa_top.total * (1.0 - _BOUNDARY_MASS_TOL):
            flagged = True
        gap = float(np.max(np.abs(final / h - pde)))
        peak = float(np.max(pde))
        eps_levels.append(cfg_k.eps)
        sup_errors.append(gap)
        rel_errors.append(gap / peak if peak > 0 else 0.0)
    orders = tuple(
        float(np.log2(a / b)) if b > 0 else math.inf
        for a, b in zip(rel_errors, rel_errors[1:])
    )
    if len(rel_errors) > 1 and rel_errors[-1] > 0:
        overall = float(np.log2(rel_errors[0] / rel_errors[-1]) / (len(rel_errors) - 1))
    else:
        overall = math.inf if len(rel_errors) > 1 else 0.0
    return ConvergenceReport(
        eps_levels=tuple(eps_levels),
        sup_errors=tuple(sup_errors),
        rel_errors=tuple(rel_errors),
        orders=orders,
        overall_order=overall,
        boundary_flagged=flagged,
        markov_std=markov_std,
        levels_requested=refinements + 1,
    )
