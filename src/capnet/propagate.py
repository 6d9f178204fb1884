"""Backward propagation of spatial capacity through layers.

In the pseudo-random regime each layer turns feature-space capacity into
input-space capacity through the column-stochastic operator ``D = P o P``
(entrywise square, columns renormalized).  A chain is a sequence of such
operators: it applies them top-down, ``kappa^{l-1} = D_l kappa^l``,
conserving the total.  A layer whose columns are one shifted periodic
pattern, such as a residual or window layer, is a :class:`Stencil`, held as
its few taps; every operator is read through ``apply`` and ``diagonal``.
Consumers make one top-down pass over a chain, so a
chain may build each operator only when the pass reaches it.  The rule
holds under total decoupling only, so the CLI's spec parser, which builds
operators from projections, refuses any activation other than
pseudo_random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

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


@dataclass(frozen=True)
class Stencil:
    """A periodic column-stochastic operator on n cells, held as its taps.

    Column j sends ``weights[k]`` to cell ``(j + offsets[k]) mod n``.  The
    offsets are distinct mod n, and are kept reduced mod n; the weights are
    non-negative and sum to 1.  :meth:`apply` costs O(n * taps), and the
    dense ``matrix`` is built on demand.
    """

    n: int
    offsets: np.ndarray
    weights: np.ndarray

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

    # a stencil maps its n cells to themselves
    n_in = n_out = property(lambda self: self.n)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n operator: the stencil applied to the identity."""
        return self.apply(np.eye(self.n))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``D values`` along axis 0: each cell adds its taps' terms in the taps' order."""
        # each term is values rolled by the offset: cell i reads values[i - offset]
        terms = (
            weight * np.concatenate((values[self.n - offset :], values[: self.n - offset]))
            for offset, weight in zip(self.offsets.tolist(), self.weights.tolist())
        )
        out = next(terms)
        for term in terms:
            out += term
        return out

    def diagonal(self) -> np.ndarray:
        """Each cell's weight on itself: the weight at offset 0, or 0."""
        return np.full(self.n, self.weights[self.offsets == 0].sum())


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
