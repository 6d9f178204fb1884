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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .core import SpatialCapacity

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


# Bytes per block of rows: erf_profile reduces its walk in blocks of this
# size, and _pmf_std needs one temporary of the same size.  At 256 KiB a block,
# its temporary and the walk's other buffers sit well inside a 2 MiB per-core
# L2 cache, so a block is still cached when it is reduced; 1 MiB blocks and
# their temporary filled it.  At n = 401, L = 20,000 on a Xeon with 2 MiB of L2
# a core, erf_profile took a median 81 ms at 256 KiB, 88-93 ms at 128 KiB,
# 512 KiB and 1 MiB.
_STD_BLOCK_BYTES = 2**18
# Steps a walk takes on one window before it scans the profile's span again.
_SEGMENT_STEPS = 64
# Most steps whose views a walk segment holds: a segment that laps its buffer
# replays the views of one lap, and a buffer of more rows is walked a lap at a time.
_SEGMENT_VIEWS = 1024


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
        if 2 * 8 * self.n > _TRAJECTORY_BUDGET_BYTES:
            raise ValueError(
                f"a walk on {self.n:,} cells holds two profiles, past the "
                f"{_TRAJECTORY_BUDGET_BYTES / 2**30:g} GiB trajectory limit"
            )
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "up", self.Dcoef + self.v / 2.0)  # towards larger index
        object.__setattr__(self, "down", self.Dcoef - self.v / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n generator: the stencil applied to the identity.

        Nothing in capnet builds it; the walk and spec layers apply the
        stencil directly.  It stays public as the dense reference that checks
        of the stencil compare against.
        """
        keep, up, down = _generator_weights(self)
        out = np.empty((self.n, self.n))
        step_all = _stepper(self, (keep[:, None], up, down), np.empty((self.n + 1, self.n)))
        step_all([((np.eye(self.n), out), out[1:], out[:-1], out[:: self.n - 1])])
        return out

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


def _generator_weights(gen: ResidualGenerator) -> Tuple[np.ndarray, float, float]:
    """Each cell's keep, a reflecting edge's fold included, and the up and down hops."""
    keep = np.full(gen.n, -2.0 * gen.Dcoef)
    if gen.boundary == "reflecting":
        keep[[0, -1]] += (gen.down, gen.up)
    return keep, gen.up, gen.down


def _stepper(
    gen: ResidualGenerator, weights, hop: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> Callable[[Iterable], None]:
    """A function that steps the window of cells ``lo:hi`` (the whole grid by default).

    It takes an iterable of ``((x, y), y[1:], y[:-1], y[::w-1])``, where ``x``
    and ``y`` hold the window's ``w`` cells along axis 0 of a source and a
    target, and writes each ``y`` from its ``x`` with ``weights`` in five
    ufunc calls, six when the whole grid is periodic, on those views and on
    views of ``hop`` made once here.  ``hop`` is scratch at least one cell
    longer than the window.  A cell adds its keep, the up hop from below,
    then the down hop from above.  Only the whole grid folds, through a
    reflecting edge's keep, or wraps: a periodic grid's two end cells add
    the wrapped hops last.  A narrower window's edge cells miss the hops from
    outside it, so ``y`` gets the whole grid's bits only when ``x`` is +0.0
    within two cells of the window's edges, inside and out; the whole grid
    then gives +0.0 outside the window too.
    """
    keep, up, down = weights
    hi = gen.n if hi is None else hi
    keep, hop = keep[lo:hi], hop[: hi - lo + 1]
    above, below, inner, wrap = hop[1:], hop[:-1], hop[1:-1], hop[:: lo - hi]
    wraps = gen.boundary == "periodic" and hi - lo == gen.n
    multiply, add = np.multiply, np.add

    def step_all(steps: Iterable) -> None:
        for (x, y), tail, head, ends in steps:
            multiply(x, keep, y)
            multiply(x, up, above)  # inner holds up times x[:-1]
            add(tail, inner, tail)
            multiply(x, down, below)  # inner holds down times x[1:]; hop[-1] keeps up times x[-1]
            add(head, inner, head)
            if wraps:
                add(ends, wrap, ends)  # cell 0 adds up times x[-1], cell n-1 down times x[0]

    return step_all


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


def _check_walk(gen: ResidualGenerator, cfg: DeepLimitConfig, keep_all: bool = False) -> None:
    """Refuse a kept trajectory past 2 GiB (``keep_all``), then a walk past the step limits."""
    size = (cfg.L + 1) * gen.n * 8
    if keep_all and size > _TRAJECTORY_BUDGET_BYTES:
        raise ValueError(
            f"{cfg.L + 1} profiles of {gen.n} cells need {size / 2**30:.1f} GiB, "
            f"over the {_TRAJECTORY_BUDGET_BYTES / 2**30:g} GiB trajectory limit"
        )
    if cfg.L > _MAX_WALK_STEPS or cfg.L * gen.n > _MAX_WALK_CELL_STEPS:
        raise ValueError(
            f"{cfg.L} steps of {gen.n} cells are past the walk limit of "
            f"{_MAX_WALK_STEPS:,} steps and {_MAX_WALK_CELL_STEPS:,} cell-steps"
        )


def _nonzero_span(a: np.ndarray) -> Tuple[int, int]:
    """First and one-past-last index of the nonzero entries of ``a``; (0, 0) if none."""
    nz = np.flatnonzero(a)
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


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
    one reused, zero-initialized buffer of ``block_rows`` rows (at least 2,
    by default about 256 KiB; fewer if the walk is shorter), so each must be
    read before the next is asked for, and the last block may be shorter.
    Trajectory row k sits in buffer row k modulo the buffer's rows.

    The walk runs in segments.  A segment of s steps, at most
    ``_SEGMENT_STEPS``, from a profile whose bit-nonzero span is [a, b)
    (-0.0 counts as nonzero) steps only the window [a-s-1, b+s+1), grown to
    cover the windows before it: after j steps the mass spans at most
    [a-j, b+j), and a buffer row from an earlier lap is +0.0 outside the
    earlier windows.  Every skipped term is an exact +0.0, so each profile
    keeps the bits of a whole-grid walk.  A window that would reach cell 0
    or n-1 becomes the whole grid, with its fold or wrap, for the rest of
    the walk, in one segment, or one buffer lap at a time when a lap is
    longer than ``_SEGMENT_VIEWS`` steps.  A step is the ufunc calls of
    :func:`_stepper`, O(window), on views made once per segment; a segment
    that laps the buffer replays one lap's views, so at most
    ``_SEGMENT_VIEWS`` steps' views are alive at once, whatever L.  Each step
    conserves the total capacity.
    """
    if kappa_top.n != gen.n:
        raise ValueError(f"capacity has {kappa_top.n} entries, generator expects {gen.n}")
    gen._check_eps(cfg.eps)
    _check_walk(gen, cfg, keep_all)
    n = gen.n
    if block_rows is None:
        block_rows = max(2, _STD_BLOCK_BYTES // (8 * n))
    rows = np.zeros((min(block_rows, cfg.L + 1), n))  # cells outside every window stay +0.0
    rows[0] = kappa_top.values
    keep, up, down = _generator_weights(gen)
    # the entries of I + eps*Delta; numpy multiplies by a 0-d array faster than by a float
    weights = (1.0 + cfg.eps * keep, np.array(cfg.eps * up), np.array(cfg.eps * down))
    hop = np.empty(n + 1)
    count = len(rows)
    # the window starts as the top profile's span, of the bits, so that -0.0 counts as nonzero
    lo, hi = _nonzero_span(rows[0].view(np.int64))
    walked, left = 0, 0  # the last trajectory row written, and the steps left in its segment
    for start in range(0, cfg.L + 1, count):
        if start:
            yield rows
        stop = min(count, cfg.L + 1 - start)
        while walked < start + stop - 1:
            if not left:
                left = min(_SEGMENT_STEPS, cfg.L - walked)
                if hi - lo < n:
                    a, b = _nonzero_span(rows[walked % count, lo:hi].view(np.int64))
                    if a < b:
                        lo, hi = min(lo, lo + a - left - 1), max(hi, lo + b + left + 1)
                    if lo <= 0 or hi >= n:
                        lo, hi = 0, n
                if hi - lo == n:
                    # the rest of the walk, replaying one lap's views, or one lap at a time
                    left = cfg.L - walked if count <= _SEGMENT_VIEWS else min(cfg.L - walked, count)
                step_all = _stepper(gen, weights, hop, lo, hi)
                cells = rows[:, lo:hi]
                p = (walked + 1) % count  # the buffer row the segment's first step writes
                # a lap of steps from buffer row p, each writing a row from the row before it
                before = cells[p - 1 : p] if p else cells[-1:]
                views = (cells[:, 1:], cells[:, :-1], cells[:, :: hi - lo - 1])
                lap = zip(
                    itertools.pairwise(itertools.chain(before, cells[p:], cells[:p])),
                    *(itertools.chain(v[p:], v[:p]) for v in views),
                )
                steps = itertools.cycle(lap) if left > count else lap
            take = min(left, start + stop - 1 - walked)
            step_all(itertools.islice(steps, take))
            walked += take
            left -= take
    yield rows[:stop]


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
    block walk that ``erf_profile`` reduces 256 KiB at a time: the trajectory
    as one block of L+1 rows, the last profile through blocks of two.  Each
    step touches only the window of cells the mass can reach, so a Dirac
    costs O(k) at step k until its mass nears an edge, and O(n) a step after.
    """
    for rows in _walk(gen, cfg, kappa_top, keep_all, cfg.L + 1 if keep_all else 2):
        pass
    return rows if keep_all else rows[-1]


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
    keeps only its last Markov profile, stepping two O(n) buffers.  A fixed
    grid cannot work here: with the spacing frozen the chain converges to
    the lattice walk, not to the PDE, and the gap saturates instead of
    shrinking.
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
        _check_walk(gen_k, cfg_k)
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
        final = evolve_markov(gen_k, cfg_k, kappa_k, keep_all=False)
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
