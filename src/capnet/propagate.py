"""Backward propagation of spatial capacity through layers.

In the pseudo-random regime each layer turns feature-space capacity into
input-space capacity through the column-stochastic operator ``D = P o P``
(entrywise square, columns renormalized).  A chain is a sequence of such
operators: it applies them top-down, ``kappa^{l-1} = D_l kappa^l``,
conserving the total.  A layer whose columns are one shifted pattern, such
as a residual or window layer, is a :class:`Stencil`, held as its few taps
and its boundary; its windowed step is the one routine that steps a local
layer, in ``apply`` and in the deep-limit walk.  Every operator is read
through ``apply`` and ``diagonal``.  Consumers make one top-down pass over
a chain, so a chain may build each operator only when the pass reaches it.
The rule holds under total decoupling only, so the CLI's spec parser, which
builds operators from projections, refuses any activation other than
pseudo_random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

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
# Bytes of tap terms a stencil step forms at once: about one walk block, so
# that a step's terms stay in cache while they are summed.
_TERM_BYTES = 2**18


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
    steps a local layer: :meth:`apply` runs it once and a walk once a layer,
    each step O(n * taps).  The dense ``matrix`` is built on demand.
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
        """The dense n x n operator: the stencil applied to the identity."""
        return self.apply(np.eye(self.n))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``D values`` along axis 0: each cell adds its taps' terms in the taps' order."""
        out = np.empty(values.shape)
        self._stepper(lead=values.shape[1:])([(values, out)])
        return out

    def diagonal(self) -> np.ndarray:
        """Each cell's weight on itself: the weight at offset 0 (or 0), or an edge's keep."""
        out = np.full(self.n, self.weights[self.offsets == 0].sum())
        if self.fold is not None:
            out[[0, -1]] = self.fold
        return out

    def _stepper(self, lo: int = 0, hi: Optional[int] = None, lead: Tuple[int, ...] = ()):
        """A function that steps the window of cells ``lo:hi``, the whole grid by default.

        It takes an iterable of ``(x, y)`` pairs, the window's cells along
        axis 0 of a source and a target, with ``lead`` axes after it, and
        writes ``y = D x`` there, each cell adding its taps' terms in the taps'
        order.  One ufunc call forms the terms of a group of taps, of about
        ``_TERM_BYTES``, in scratch rows with ``reach`` ghost cells a side, and
        the terms are added into ``y``: three calls for three taps.  Only the
        whole grid wraps or folds: a periodic tap's ghosts take the terms of
        the far end, one more copy each, and a reflecting edge's ghosts stay
        -0.0, which adds nothing.  A narrower window's ghosts stay +0.0, so
        ``y`` has the whole grid's bits when ``x`` is +0.0 outside the window.
        """
        width, shifts = (self.n if hi is None else hi) - lo, self._shifts()
        reach, ones = max(map(abs, shifts)), [1] * len(lead)
        size = max(1, min(len(shifts), _TERM_BYTES // (8 * (width + 2 * reach) * math.prod(lead))))
        scratch = np.zeros((size, width + 2 * reach, *lead))  # ghosts of the cells outside a window
        whole = width == self.n
        folds = whole and self.fold is not None
        weights = self.weights.reshape(-1, 1, *ones)
        if folds:  # each cell's own weights, the edge cells keeping the fold
            scratch[...] = -0.0  # the hops that would leave the grid read -0.0, which adds nothing
            weights = np.repeat(weights, width, axis=1)
            weights[shifts.index(0)][[0, -1]] = np.reshape(self.fold, (2, *ones))
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
    input-space profile.
    """
    if chain.n_out != kappa_top.n:
        raise ValueError(
            f"chain top dimension {chain.n_out} does not match capacity {kappa_top.n}"
        )
    profiles = [kappa_top]
    for layer in chain.top_down():
        profiles.append(propagate_single(layer, profiles[-1]))
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
