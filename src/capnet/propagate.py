"""Backward propagation of spatial capacity through layers.

In the pseudo-random regime each layer turns feature-space capacity into
input-space capacity through the column-stochastic operator ``D = P o P``
(entrywise square, columns renormalized).  A chain is a sequence of such
operators: it applies them top-down, ``kappa^{l-1} = D_l kappa^l``,
conserving the total.  A layer whose columns are one shifted pattern, such
as a residual or window layer, is a :class:`Stencil`, held as its few taps
and its boundary.  Its windowed step is the one routine that steps a local
layer, and :func:`_walk` the one walker that drives it over many layers, in
blocks of profiles.  Every other operator is read through ``apply`` and
``diagonal``.  :func:`_chain_blocks` is the one top-down pass over a chain:
it walks each run of stencil layers and applies every other layer once, so
``propagate_chain``, ``erf`` on a chain and the deep-limit walks all step a
stencil the same way.  A chain may build each operator only when the pass
reaches it.  The rule holds under total decoupling only, so the CLI's spec
parser, which builds operators from projections, refuses any activation
other than pseudo_random.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ProjectionMatrix, SpatialCapacity, _as_matrix

__all__ = [
    "PropagationOperator",
    "Stencil",
    "LayerChain",
    "propagation_matrix",
    "propagate_single",
    "propagate_chain",
    "differential_propagation_matrix",
]

_COLUMN_SUM_TOL = 1e-10
# Bytes per walk block of rows, and of the tap terms a stencil step forms at
# once.  erf_profile reduces a walk a block at a time, and _pmf_std needs one
# temporary of the same size.  At 256 KiB a block, its temporary and the
# walk's other buffers sit well inside a 2 MiB per-core L2 cache, so a block
# is still cached when it is reduced, and a step's terms while they are
# summed; 1 MiB blocks and their temporary filled it.  At n = 401, L = 20,000
# on a Xeon with 2 MiB of L2 a core, erf_profile took a median 81 ms at
# 256 KiB, 88-93 ms at 128 KiB, 512 KiB and 1 MiB.
_BLOCK_BYTES = 2**18
# Steps a walk takes on one window before it scans the profile's span again.
_SEGMENT_STEPS = 64
# Most steps whose views a walk segment holds: a segment that laps its buffer
# replays the views of one lap, and a buffer of more rows is walked a lap at a time.
_SEGMENT_VIEWS = 1024


@dataclass(frozen=True)
class PropagationOperator:
    """Column-stochastic matrix mapping feature capacity to input capacity."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _as_matrix(self.matrix, "operator")
        if matrix.size and matrix.min() < 0:
            raise ValueError(f"operator has negative entry {matrix.min():.3e}")
        sums = matrix.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > _COLUMN_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(
                f"operator column {bad} sums to {sums[bad]!r}, not 1"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)


@dataclass(frozen=True, eq=False)
class Stencil:
    """A column-stochastic operator on n cells, held as its taps and its boundary.

    Column j sends ``weights[k]`` to cell ``j + offsets[k]``, taken mod n on a
    periodic grid; the offsets are distinct mod n and kept reduced mod n.  The
    weights are non-negative and sum to 1.  ``fold`` makes the grid
    reflecting, as the generator's is: the taps are at -1, 0 and +1, the hops
    that would leave the grid are dropped, and cells 0 and n-1 keep ``fold``
    instead of the offset-0 weight.  :meth:`_stepper` is the one routine that
    steps a local layer: :meth:`apply` runs it once and :func:`_walk` once a
    layer, each step O(n * taps).  The dense ``matrix`` is built on demand.
    Stencils are equal when their grids, taps and folds agree bit for bit.
    """

    n: int
    offsets: np.ndarray
    weights: np.ndarray
    fold: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=float)
        if self.n < 1 or offsets.ndim != 1 or not offsets.size or offsets.shape != weights.shape:
            raise ValueError(
                "a stencil needs n >= 1 and one or more offsets, one weight per offset; got "
                f"n = {self.n}, offsets of shape {offsets.shape} and weights of {weights.shape}"
            )
        offsets = offsets % self.n
        if len(set(offsets.tolist())) != offsets.size:
            raise ValueError(f"stencil offsets must be distinct mod {self.n}")
        if not weights.min() >= 0:
            raise ValueError(f"stencil weights must be non-negative, got {weights.min()!r}")
        if not abs(weights.sum() - 1.0) <= _COLUMN_SUM_TOL:
            raise ValueError(f"stencil weights sum to {weights.sum()!r}, not 1")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)
        if self.fold is not None:
            fold, hops = tuple(map(float, self.fold)), dict(zip(self._shifts(), weights.tolist()))
            if self.n < 3 or sorted(hops) != [-1, 0, 1] or len(fold) != 2:
                raise ValueError("a reflecting stencil needs n >= 3, taps at -1, 0, +1, two keeps")
            edges = (fold[0] + hops[1], fold[1] + hops[-1])  # the edge columns
            if not (min(fold) >= 0 and max(abs(edge - 1.0) for edge in edges) <= _COLUMN_SUM_TOL):
                raise ValueError(f"reflecting edge columns sum to {edges}, not 1")
            object.__setattr__(self, "fold", fold)

    # a stencil maps its n cells to themselves
    n_in = n_out = property(lambda self: self.n)

    def __eq__(self, other):
        if not isinstance(other, Stencil):
            return NotImplemented
        bits = [(s.n, s.fold, s.offsets.tobytes(), s.weights.tobytes()) for s in (self, other)]
        return bits[0] == bits[1]

    def _shifts(self) -> List[int]:
        """Each offset as the signed step of least size: cell i reads cell i - shift."""
        return [o if o <= self.n // 2 else o - self.n for o in self.offsets.tolist()]

    @property
    def reach(self) -> int:
        """The farthest a tap sends mass, in cells."""
        return max(map(abs, self._shifts()))

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n operator: column j is the step of unit vector j."""
        out = np.empty((self.n, self.n))
        self._stepper()(zip(np.eye(self.n), out.T))
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``D values``: each cell adds its taps' terms in the taps' order."""
        out = np.empty(values.shape)
        self._stepper()([(values, out)])
        return out

    def diagonal(self) -> np.ndarray:
        """Each cell's weight on itself: the weight at offset 0 (or 0), or an edge's keep."""
        out = np.full(self.n, self.weights[self.offsets == 0].sum())
        if self.fold is not None:
            out[[0, -1]] = self.fold
        return out

    def _stepper(self, lo: int = 0, hi: Optional[int] = None):
        """A function that steps the window of cells ``lo:hi``, the whole grid by default.

        It takes an iterable of ``(x, y)`` pairs, the window's cells of a
        source and a target profile, and writes ``y = D x`` there, each cell
        adding its taps' terms in the taps' order.  One ufunc call forms the
        terms of a group of taps, of about ``_BLOCK_BYTES``, in scratch rows
        with ``reach`` ghost cells a side, and the terms are added into ``y``:
        three calls for three taps.  Only the whole grid wraps or folds: a
        periodic tap's ghosts take the terms of the far end, one more copy
        each, and a reflecting edge's ghosts stay -0.0, which adds nothing.  A
        narrower window's ghosts stay +0.0, so ``y`` has the whole grid's bits
        when ``x`` is +0.0 outside the window.  Only :func:`_walk` steps a
        narrower window.
        """
        width, shifts = (self.n if hi is None else hi) - lo, self._shifts()
        reach = max(map(abs, shifts))
        size = max(1, min(len(shifts), _BLOCK_BYTES // (8 * (width + 2 * reach))))
        scratch = np.zeros((size, width + 2 * reach))  # ghosts of the cells outside a window
        whole = width == self.n
        folds = whole and self.fold is not None
        weights = self.weights[:, None]
        if folds:  # each cell's own weights, the edge cells keeping the fold
            scratch[...] = -0.0  # the hops that would leave the grid read -0.0, which adds nothing
            weights = np.repeat(weights, width, axis=1)
            weights[shifts.index(0)][[0, -1]] = self.fold
        groups = []
        for start in range(0, len(shifts), size):
            rows = scratch[: len(shifts) - start]
            terms, wraps = [], []
            for row, shift in zip(rows, shifts[start:]):
                terms.append(row[reach - shift : reach - shift + width])
                if shift > 0 and whole and not folds:  # its ghosts read the far end
                    wraps.append((row[:reach], row[width : width + reach]))
                elif shift < 0 and whole and not folds:
                    wraps.append((row[reach + width :], row[reach : 2 * reach]))
            head = ()
            if not start:  # y starts as the first two terms, or the first and -0.0, adding nothing
                head = terms[:2] if len(terms) > 1 else [terms[0], np.full(terms[0].shape, -0.0)]
                terms = terms[2:]
            products = rows[:, reach : reach + width]
            groups.append((weights[start : start + size], products, wraps, head, terms))
        multiply, add = np.multiply, np.add

        def step_all(steps: Iterable) -> None:
            for x, y in steps:
                for group_weights, products, wraps, head, terms in groups:
                    multiply(x, group_weights, products)
                    for ghosts, ends in wraps:
                        ghosts[...] = ends
                    if head:
                        add(*head, y)
                    for term in terms:
                        add(y, term, y)

        return step_all


def _nonzero_span(a: np.ndarray) -> Tuple[int, int]:
    """First and one-past-last index of the nonzero entries of ``a``; (0, 0) if none."""
    nz = np.flatnonzero(a)
    return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)


def _walk(runs: Sequence[Tuple[Stencil, int]], top: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the profiles of a walk down runs of stencils as consecutive blocks of rows.

    ``runs`` holds (stencil, layers) pairs, top first, each stepping its
    stencil that many times: a generator's walk is one run of L layers.  Row
    0 is ``top`` and row k the profile after k steps.  The blocks are views of
    one reused, zero-initialized buffer of about ``_BLOCK_BYTES`` (at least 2
    rows; fewer if the walk is shorter), so each must be read before the next
    is asked for, and the last block may be shorter.  Walk row k sits in
    buffer row k modulo the buffer's rows.

    The walk runs in segments within runs.  A segment of s steps, at most
    ``_SEGMENT_STEPS``, of a stencil of reach r, from a profile whose
    bit-nonzero span is [a, b) (-0.0 counts as nonzero), steps only the
    window [a-s*r, b+s*r), grown to cover the windows before it: after j
    steps the mass spans at most [a-j*r, b+j*r), and a buffer row from an
    earlier lap is +0.0 outside the earlier windows.  So every profile keeps
    the bits of a whole-grid walk.  A window that would reach cell 0 or n-1
    becomes the whole grid, with its wrap or fold, for the rest of the walk,
    a run at a time, or a buffer lap at a time when a lap is longer than
    ``_SEGMENT_VIEWS`` steps.  A step is the stencil's windowed step,
    O(window * taps), on views made once per segment; a segment that laps
    the buffer replays one lap's views, so at most ``_SEGMENT_VIEWS`` steps'
    views are alive at once, whatever the depth.  Each step conserves the
    total capacity.
    """
    n = top.size
    depth = sum(layers for _, layers in runs)
    # cells outside every window stay +0.0
    rows = np.zeros((min(max(2, _BLOCK_BYTES // (8 * n)), depth + 1), n))
    rows[0] = top
    size = len(rows)
    # the window starts as the top profile's span, of the bits, so that -0.0 counts as nonzero
    lo, hi = _nonzero_span(rows[0].view(np.int64))
    walked = 0  # the last walk row written
    for stencil, layers in runs:
        end, reach = walked + layers, stencil.reach
        while walked < end:
            left = min(_SEGMENT_STEPS, end - walked)
            if hi - lo < n:
                a, b = _nonzero_span(rows[walked % size, lo:hi].view(np.int64))
                if a < b:
                    lo, hi = min(lo, lo + a - left * reach), max(hi, lo + b + left * reach)
                if lo <= 0 or hi >= n:
                    lo, hi = 0, n
            if hi - lo == n:
                # the rest of the run, replaying one lap's views, or one lap at a time
                left = end - walked if size <= _SEGMENT_VIEWS else min(end - walked, size)
            step_all = stencil._stepper(lo, hi)
            cells = rows[:, lo:hi]
            p = (walked + 1) % size  # the buffer row the segment's first step writes
            # a lap of steps from buffer row p, each writing a row from the row before it
            before = cells[p - 1 : p] if p else cells[-1:]
            lap = itertools.pairwise(itertools.chain(before, cells[p:], cells[:p]))
            steps = itertools.cycle(lap) if left > size else lap
            while left:
                if walked % size == size - 1:  # the buffer is full: hand it over
                    yield rows
                take = min(left, (size - 1 - walked) % size or size)
                step_all(itertools.islice(steps, take))
                walked += take
                left -= take
    yield rows[: walked % size + 1]


Operator = Union[PropagationOperator, Stencil]


@dataclass(frozen=True)
class LayerChain:
    """Layers in forward order: layers[0] reads the inputs, layers[-1] is the top.

    A layer is anything with ``n_in`` and ``n_out``, and ``operator(i)`` is
    layer i's operator.  Here the layers are the operators themselves; a
    subclass may hold lighter descriptions and build each operator in
    ``operator``.  Consumers read the operators through one
    :meth:`top_down` pass, so such a chain holds about one at a time.
    """

    layers: Tuple[Operator, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("chain must contain at least one layer")
        for i in range(1, len(layers)):
            if layers[i].n_in != layers[i - 1].n_out:
                raise ValueError(
                    f"layer {i} expects {layers[i].n_in} inputs but layer {i - 1} "
                    f"produces {layers[i - 1].n_out}"
                )
        object.__setattr__(self, "layers", layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    def operator(self, i: int) -> Operator:
        return self.layers[i]

    def top_down(self) -> Iterator[Operator]:
        """Each layer's operator once, the top layer's first."""
        return map(self.operator, reversed(range(len(self.layers))))


def _chain_blocks(chain: LayerChain, top: np.ndarray) -> Iterator[np.ndarray]:
    """A chain's interface profiles from ``top`` down, as blocks of rows.

    Each run of consecutive stencil layers is one walk, its identical
    consecutive layers grouped into runs of the walk; the walk's first row is
    the profile it starts from, yielded already.  Every other layer is one
    ``apply``.  Each operator is built when the pass reaches it.
    """
    yield top[None]
    kinds = itertools.groupby(chain.top_down(), key=lambda layer: isinstance(layer, Stencil))
    for local, layers in kinds:
        if local:
            runs = [(stencil, sum(1 for _ in same)) for stencil, same in itertools.groupby(layers)]
            for i, rows in enumerate(_walk(runs, top)):
                yield rows if i else rows[1:]
            top = rows[-1].copy()  # the walk's buffer is freed with its last block
        else:
            for layer in layers:
                top = layer.apply(top)
                yield top[None]


def propagation_matrix(p: ProjectionMatrix) -> PropagationOperator:
    """Entrywise-squared projection ``P o P`` with columns renormalized to sum 1.

    P's columns have unit norm, so the sums differ from 1 by rounding only.
    """
    squared = p.matrix**2
    return PropagationOperator(squared / squared.sum(axis=0))


def propagate_single(d: Operator, kappa_phi: SpatialCapacity) -> SpatialCapacity:
    """One backward step ``kappa = D kappa_phi``; the total is conserved."""
    if d.n_out != kappa_phi.n:
        raise ValueError(
            f"operator expects a capacity vector of length {d.n_out}, got {kappa_phi.n}"
        )
    return SpatialCapacity(d.apply(kappa_phi.values))


def propagate_chain(chain: LayerChain, kappa_top: SpatialCapacity) -> List[SpatialCapacity]:
    """All interface profiles, top-down: result[l] is the capacity entering layer l+1.

    ``result[len(chain)]`` is ``kappa_top`` itself and ``result[0]`` the
    input-space profile.  The profiles are read from the chain's one pass,
    :func:`_chain_blocks`, and each is checked as a capacity.
    """
    if chain.n_out != kappa_top.n:
        raise ValueError(
            f"chain top dimension {chain.n_out} does not match capacity {kappa_top.n}"
        )
    profiles = [kappa_top]
    for rows in itertools.islice(_chain_blocks(chain, kappa_top.values), 1, None):
        profiles.extend(map(SpatialCapacity, rows.copy()))
    profiles.reverse()
    return profiles


def differential_propagation_matrix(p: ProjectionMatrix, eps: float) -> PropagationOperator:
    """Residual-layer operator ``I + eps/(1+eps) (P o P - I)``.

    Derived from capacities in the residual augmented space normalized by
    1 + eps; to first order in eps this is ``I + eps (P o P - I)``.
    """
    _check_differential(p.n_in, p.n_out, eps)
    n = p.n_in
    # evaluated as (I + eps P o P) / (1 + eps): same matrix, and the identity
    # entries divide out exactly in the small cases quoted in the docs
    return PropagationOperator((np.eye(n) + eps * p.matrix**2) / (1.0 + eps))


def _check_differential(n_in: int, n_out: int, eps: float) -> None:
    if n_in != n_out:
        raise ValueError(f"differential layers require square P, got {n_in}x{n_out}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
