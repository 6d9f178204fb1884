"""Backward propagation of spatial capacity through layers.

In the pseudo-random regime each layer turns feature-space capacity into
input-space capacity through the column-stochastic operator ``D = P o P``
(entrywise square, columns renormalized).  A chain is a sequence of such
operators: it applies them top-down, ``kappa^{l-1} = D_l kappa^l``,
conserving the total.  Consumers make one top-down pass over a chain, so a
chain may build each operator only when the pass reaches it.  The rule
holds under total decoupling only, so the CLI's spec parser, which builds
operators from projections, refuses any activation other than
pseudo_random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .core import ProjectionMatrix, SpatialCapacity, _as_matrix

__all__ = [
    "PropagationOperator",
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

    @classmethod
    def uniform_window(cls, n: int, r: int) -> "PropagationOperator":
        """Sliding window: column j spreads 1/r over r coordinates centered at j.

        The window wraps periodically, keeping every column an exact
        probability vector regardless of position.
        """
        _check_window(n, r)
        matrix = np.zeros((n, n))
        cols = np.arange(n)[:, None]
        matrix[(cols + np.arange(r) - (r - 1) // 2) % n, cols] = 1.0 / r
        return cls(matrix)


def _check_window(n: int, r: int) -> None:
    if r < 1 or r > n:
        raise ValueError(f"window size must be in [1, {n}], got {r}")


@dataclass(frozen=True)
class LayerChain:
    """Layers in forward order: layers[0] reads the inputs, layers[-1] is the top.

    A layer is anything with ``n_in`` and ``n_out``, and ``operator(i)`` is
    layer i's operator.  Here the layers are the operators themselves; a
    subclass may hold lighter descriptions and build each operator in
    ``operator``.  Consumers read the operators through one
    :meth:`top_down` pass, so such a chain holds about one at a time.
    """

    layers: Tuple[PropagationOperator, ...]

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

    def operator(self, i: int) -> PropagationOperator:
        return self.layers[i]

    def top_down(self) -> Iterator[PropagationOperator]:
        """Each layer's operator once, the top layer's first."""
        return map(self.operator, reversed(range(len(self.layers))))


def propagation_matrix(p: ProjectionMatrix) -> PropagationOperator:
    """Entrywise-squared projection ``P o P`` with columns renormalized to sum 1.

    P's columns have unit norm, so the sums differ from 1 by rounding only.
    """
    squared = p.matrix**2
    return PropagationOperator(squared / squared.sum(axis=0))


def propagate_single(
    d: PropagationOperator, kappa_phi: SpatialCapacity
) -> SpatialCapacity:
    """One backward step ``kappa = D kappa_phi``; the total is conserved."""
    if d.n_out != kappa_phi.n:
        raise ValueError(
            f"operator expects a capacity vector of length {d.n_out}, got {kappa_phi.n}"
        )
    return SpatialCapacity(d.matrix @ kappa_phi.values)


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
