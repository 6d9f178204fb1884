"""Deep-network limit of capacity propagation.

Residual chains with identical operators ``I + eps*Delta`` follow a
drift-diffusion law: in depth-time ``t = (L - l)/L`` the capacity profile
solves ``pi' = -v pi_x + Dcoef pi_xx`` whose Dirac solution is a Gaussian of
variance ``2 Dcoef eps L``.  This module builds the tridiagonal generators
and their 3-tap :class:`~capnet.propagate.Stencil` steps, hands a
generator's L steps to the walker beside ``Stencil`` as one run (the
discrete Markov evolution), evaluates the Gaussian closed form, and measures
the gap between the two under joint grid and depth refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .core import SpatialCapacity
from .propagate import Stencil, _nonzero_span, _walk

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
# Largest grid a walk steps: its buffer holds two profiles at the least.
_MAX_WALK_PAIR_BYTES = 2 * 2**30
# Longest walk evolve_markov runs: a step costs some 2.5-4 us at n = 3 to 401,
# so 10**7 steps take under a minute, and some 2-3.5 ns a cell on wide grids,
# so 3*10**10 cell-steps take one to two minutes.  A step touches only the
# window its mass can reach, but a walk whose mass reaches an edge steps the
# whole grid from then on, so L*n stays the worst case and the limits count it.
# A spec's stencils may sum as many cell-taps in one pass as the walk steps cells.
_MAX_WALK_STEPS = 10**7
_MAX_WALK_CELL_STEPS = 3 * 10**10
# Widest grid compare_markov_pde evaluates the closed form on.  The closed form
# builds 2n-1 kernel floats, and convolves only the nonzero spans, so a Dirac
# costs O(n); a profile spread over the grid under a grid-wide kernel still
# costs some 0.15-0.3 ns per n**2, about a minute at this width.
_MAX_CLOSED_FORM_CELLS = 5 * 10**5
# exp(-x) is exactly 0 from x = 745.14 on; gaussian_solution builds its kernel
# samples only where the exponent is below this, a margin past that point.
_KERNEL_EXPONENT = 800.0
# Narrowest closed form compare_markov_pde compares against, as its std in
# cells of the finest level: a narrower kernel falls between grid points, and
# every level's relative error reads about 1.
_MIN_CLOSED_FORM_STD_CELLS = 0.25


def _pmf_std(rows: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Standard deviation of the grid index under each row's profile, in cells.

    Takes a 2-D block of profiles, one walk block at most, and its row sums, and
    returns one width per row, in the centred form ``sum((i - mean)**2 * v) / sum(v)``.
    The products are formed in one block-sized temporary, reused through
    ``out=``, so the reduction needs about one block beyond its input.  Each
    row is reduced contiguously, so a row's width has the bits a lone 1-D
    profile would get.
    """
    idx = np.arange(rows.shape[1])
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
    """Tridiagonal drift-diffusion generator: :meth:`stencil` builds its step.

    Column j sends ``up = Dcoef + v/2`` to cell j+1, ``down = Dcoef - v/2``
    to cell j-1 and keeps ``-2 Dcoef``, except where a reflecting edge folds
    the outgoing flux back in; periodic boundaries wrap.  Only ``up`` and
    ``down`` are stored.  Columns sum to 0, so ``I + eps*Delta`` is
    column-stochastic whenever it is entrywise non-negative.  ``v`` is
    measured in cells per unit depth and ``Dcoef`` in cells squared per unit
    depth, with one cell per neuron; ``|v|/2`` must not exceed ``Dcoef`` or
    transition weights would turn negative.
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
        if 2 * 8 * self.n > _MAX_WALK_PAIR_BYTES:
            raise ValueError(
                f"a walk on {self.n:,} cells holds two profiles, past the "
                f"{_MAX_WALK_PAIR_BYTES / 2**30:g} GiB limit"
            )
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "up", self.Dcoef + self.v / 2.0)  # towards larger index
        object.__setattr__(self, "down", self.Dcoef - self.v / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n generator from its entries: the reference for its stencil."""
        n, up, down = self.n, self.up, self.down
        out = np.diag(np.full(n, -2.0 * self.Dcoef))
        out += np.diag(np.full(n - 1, up), -1) + np.diag(np.full(n - 1, down), 1)
        if self.boundary == "periodic":
            out[0, -1], out[-1, 0] = up, down
        else:  # the hops that would leave the grid fold back
            out[[0, -1], [0, -1]] += (down, up)
        return out

    def stencil(self, eps: float) -> Stencil:
        """``I + eps*Delta``, eps checked first, as the 3-tap stencil keep, up, down.

        Reflecting edge cells keep ``1 + eps*(-2 Dcoef + down)`` and
        ``1 + eps*(-2 Dcoef + up)``.
        """
        self._check_eps(eps)
        fold = None
        if self.boundary == "reflecting":
            fold = tuple(1.0 + eps * (-2.0 * self.Dcoef + hop) for hop in (self.down, self.up))
        keep = 1.0 + eps * (-2.0 * self.Dcoef)
        return Stencil(self.n, (0, 1, -1), (keep, eps * self.up, eps * self.down), fold)

    def max_stable_eps(self) -> float:
        """Largest eps with ``eps * 2 Dcoef < 1`` (strict).

        The largest ``-Delta_jj`` is ``2 Dcoef``: n >= 3 leaves an interior
        cell, and a reflecting edge only adds ``up, down >= 0`` back.
        """
        return 1.0 / (2.0 * self.Dcoef)

    def _check_eps(self, eps: float) -> None:
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps!r}")
        if not math.isfinite(eps):
            raise ValueError(f"eps must be finite, got {eps!r}")
        if eps >= self.max_stable_eps():
            raise StabilityError(
                f"eps = {eps:g} makes I + eps*Delta negative; "
                f"eps must be below {self.max_stable_eps():g}"
            )


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


def _generator_run(gen: ResidualGenerator, cfg: DeepLimitConfig) -> List[Tuple[Stencil, int]]:
    """The walk of L layers of the generator's stencil, as ``_walk``'s one run.

    A walk past the step limits is refused first, then an unstable eps.
    """
    if cfg.L > _MAX_WALK_STEPS or cfg.L * gen.n > _MAX_WALK_CELL_STEPS:
        raise ValueError(
            f"{cfg.L} steps of {gen.n} cells are past the walk limit of "
            f"{_MAX_WALK_STEPS:,} steps and {_MAX_WALK_CELL_STEPS:,} cell-steps"
        )
    return [(gen.stencil(cfg.eps), cfg.L)]


def evolve_markov(
    gen: ResidualGenerator, cfg: DeepLimitConfig, kappa_top: SpatialCapacity
) -> np.ndarray:
    """Apply ``I + eps*Delta`` L times to ``kappa_top``; return the input-space profile (t = 1).

    The walk is refused past 10**7 steps or 3*10**10 cell-steps before its
    first step.  It is the block walk that ``erf_profile`` reduces 256 KiB
    at a time, of which only the last row is kept.  Each step touches only
    the window of cells the mass can reach, so a Dirac costs O(k) at step k
    until its mass nears an edge, and O(n) a step after.
    """
    if kappa_top.n != gen.n:
        raise ValueError(f"capacity has {kappa_top.n} entries, generator expects {gen.n}")
    for rows in _walk(_generator_run(gen, cfg), kappa_top.values):
        pass
    return rows[-1].copy()  # not a view that holds the walk's buffer


def gaussian_solution(values, h: float, v: float, Dcoef: float, t: float) -> np.ndarray:
    """Heat-kernel convolution of the initial density, by the trapezoid rule.

    ``values`` are density samples on the grid ``x_i = i*h``.  Evaluates
    ``pi(t, x) = int G(x - y - v t) pi(0, y) dy`` with the Gaussian kernel of
    variance ``2 Dcoef t`` on that grid; ``t = 0`` returns a copy of the
    values.  The kernel depends on ``i - j`` only, so it has 2n-1 samples.
    Only those whose exponent is short of where ``exp`` underflows to exactly
    0 are computed, the rest stay 0, and only their nonzero span is convolved
    with the nonzero span of the weighted values: O(n + s_kernel*s_values)
    time, where the O(n) is zeroed buffers, and O(n**2) only for a profile
    spread over the grid under a grid-wide kernel.  Every output of a
    single-point input is one product, so it keeps the bits of the
    full-length convolution; with several points the sums change by rounding
    only.  A non-finite ``v``, ``Dcoef`` or ``t`` is refused, and so is a
    drift ``v*t``, a spread ``4*Dcoef*t`` or a weighted value ``h*values``
    that overflows.
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
    if not math.isfinite(v):
        raise ValueError(f"v must be finite, got {v!r}")
    if not (Dcoef > 0 and math.isfinite(Dcoef)):
        raise ValueError(f"Dcoef must be positive and finite, got {Dcoef!r}")
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be non-negative and finite, got {t!r}")
    if t == 0:
        return values.copy()
    drift = v * t
    if not math.isfinite(drift):
        raise ValueError(f"v*t = {v:g}*{t:g} overflows")
    spread = 4.0 * Dcoef * t
    if spread == 0:
        raise ValueError(f"4*Dcoef*t = 4*{Dcoef:g}*{t:g} underflows to 0")
    if not math.isfinite(math.pi * spread):
        raise ValueError(f"pi*4*Dcoef*t = pi*4*{Dcoef:g}*{t:g} overflows")
    n = values.size
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    with np.errstate(over="ignore"):
        weighted = weights * values
    if not np.all(np.isfinite(weighted)):
        raise ValueError(f"h*values overflows: h = {h:g}, largest value {values.max():g}")
    # the kernel at i - j = 1-n .. n-1, sampled only where gap**2/spread is below
    # _KERNEL_EXPONENT; the reach also covers the rounding of gap = (i-j)*h - drift
    kernel = np.zeros(2 * n - 1)
    reach = math.sqrt(_KERNEL_EXPONENT * spread) + 1e-15 * (n * h + abs(drift))
    below, above = (min(max(x / h, -n), n) for x in (drift - reach, drift + reach))
    first, last = max(1 - n, math.floor(below)), min(n - 1, math.ceil(above))
    sampled = slice(first + n - 1, last + n)
    gap = np.arange(first, last + 1) * h - drift  # x_i - x_j - v t
    with np.errstate(over="ignore"):  # a tiny spread sends the exponent to -inf, and exp to 0
        kernel[sampled] = np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread)
    out = np.zeros(n)
    # one run, since the kernel is unimodal in i - j
    ka, kb = (k + sampled.start for k in _nonzero_span(kernel[sampled]))
    va, vb = _nonzero_span(weighted)
    # out[i] sums kernel[i+n-vb : i+n-va] against weighted[va:vb] reversed; the
    # window meets the kernel's nonzero span only for ka+va-n < i < kb+vb-n
    lo, hi = max(0, ka + va - n + 1), min(n, kb + vb - n)
    if ka < kb and va < vb and lo < hi:
        out[lo:hi] = np.convolve(
            kernel[lo + n - vb : hi + n - va - 1], weighted[va:vb], mode="valid"
        )
    return out


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
    stability bound; an unstable coarsest level raises StabilityError.  A
    ``Dcoef*eps*L`` that underflows to 0 is refused, and every level that
    will run is checked against the walk limit and the closed form's width
    limit of 5*10**5 cells, before the first step.  So is a closed form
    whose std is below a quarter of a cell at the finest level.  Each level
    keeps only its last Markov profile.  A fixed grid cannot work here: with
    the spacing frozen the chain converges to the lattice walk, not to the
    PDE, and the gap saturates instead of shrinking.
    """
    if refinements < 0:
        raise ValueError("refinements must be non-negative")
    if not gen.Dcoef * cfg.total_time > 0:
        raise ValueError(f"Dcoef*eps*L = {gen.Dcoef:g}*{cfg.eps:g}*{cfg.L} underflows to 0")
    levels = []
    for level in range(refinements + 1):
        gen_k, cfg_k, kappa_k = _refined_inputs(gen, cfg, kappa_top, 2**level)
        if level > 0 and cfg_k.eps >= gen_k.max_stable_eps():
            break
        _generator_run(gen_k, cfg_k)  # checked here, built again by evolve_markov
        if gen_k.n > _MAX_CLOSED_FORM_CELLS:
            raise ValueError(
                f"a closed form on {gen_k.n:,} cells is past the limit of "
                f"{_MAX_CLOSED_FORM_CELLS:,} cells"
            )
        levels.append((gen_k, cfg_k, kappa_k))
    std = math.sqrt(2.0 * gen.Dcoef * cfg.total_time) * 2 ** (len(levels) - 1)
    if std < _MIN_CLOSED_FORM_STD_CELLS:
        raise ValueError(
            f"the closed form's std is {std:.3g} cells at the finest level, below the "
            f"limit of {_MIN_CLOSED_FORM_STD_CELLS:g} cells that the grid resolves"
        )
    eps_levels: List[float] = []
    sup_errors: List[float] = []
    rel_errors: List[float] = []
    flagged = False
    markov_std = math.nan
    for level, (gen_k, cfg_k, kappa_k) in enumerate(levels):
        final = evolve_markov(gen_k, cfg_k, kappa_k)
        if level == 0:
            markov_std = float(_pmf_std(final[None], final[None].sum(axis=1))[0])
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
