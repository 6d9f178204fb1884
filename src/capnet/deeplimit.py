"""Deep-network limit of capacity propagation.

Residual chains with identical operators ``I + eps*Delta`` follow a
drift-diffusion law: in depth-time ``t = (L - l)/L`` the capacity profile
solves ``pi' = -v pi_x + Dcoef pi_xx`` whose Dirac solution is a Gaussian of
variance ``2 Dcoef eps L``.  This module builds the tridiagonal generators,
runs the discrete Markov evolution, evaluates the Gaussian closed form, and
measures the gap between the two under joint grid and depth refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import SpatialCapacity
from .propagate import Layer, LayerChain, PropagationOperator, propagate_single

__all__ = [
    "StabilityError",
    "ResidualGenerator",
    "DeepLimitConfig",
    "PdeField",
    "ConvergenceReport",
    "residual_generator",
    "evolve_markov",
    "gaussian_solution",
    "compare_markov_pde",
    "random_layer_chain",
]

_BOUNDARY_MASS_TOL = 1e-6


def _pmf_std(values: np.ndarray) -> float:
    """Standard deviation of the grid index under the profile, in cells."""
    total = values.sum()
    idx = np.arange(values.size)
    mean = (idx * values).sum() / total
    var = ((idx - mean) ** 2 * values).sum() / total
    return math.sqrt(max(var, 0.0))


class StabilityError(ValueError):
    """Raised when ``I + eps*Delta`` would have negative entries."""


@dataclass(frozen=True)
class ResidualGenerator:
    """Tridiagonal generator of a residual chain, in grid-cell units per depth.

    Columns sum to 0, so ``I + eps*Delta`` is column-stochastic whenever it is
    entrywise non-negative.  ``v`` is measured in cells per unit depth and
    ``Dcoef`` in cells squared per unit depth, with one cell per neuron.
    """

    n: int
    v: float
    Dcoef: float
    boundary: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("generator needs at least 3 grid points")
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (self.n, self.n):
            raise ValueError(f"generator matrix must be {self.n}x{self.n}")
        sums = matrix.sum(axis=0)
        if np.any(np.abs(sums) > 1e-12):
            raise ValueError("generator columns must sum to 0")
        object.__setattr__(self, "matrix", matrix)

    def max_stable_eps(self) -> float:
        """Largest eps with ``eps * max(-diag) < 1`` (strict)."""
        drop = float(np.max(-np.diag(self.matrix)))
        return math.inf if drop <= 0 else 1.0 / drop

    def step(self, eps: float) -> PropagationOperator:
        """One residual layer ``I + eps*Delta``; refuses eps past the stability bound."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps >= self.max_stable_eps():
            raise StabilityError(
                f"eps = {eps:g} makes I + eps*Delta negative; "
                f"eps must be below {self.max_stable_eps():g}"
            )
        return PropagationOperator(np.eye(self.n) + eps * self.matrix)


@dataclass(frozen=True)
class DeepLimitConfig:
    """Discretization of the deep limit: L layers of step eps.

    Depth-time runs over t = (L - l)/L; the total depth-time spanned by the
    chain in generator units is T = eps * L.
    """

    eps: float
    L: int

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.L < 1:
            raise ValueError("L must be a positive integer")

    @property
    def total_time(self) -> float:
        return self.eps * self.L

    def t_of_layer(self, layer: int) -> float:
        if layer < 0 or layer > self.L:
            raise ValueError(f"layer must be in [0, {self.L}]")
        return (self.L - layer) / self.L


@dataclass(frozen=True)
class PdeField:
    """Density samples on an equally spaced grid at one depth-time."""

    grid: np.ndarray
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a vector of at least 2 points")
        if values.shape != grid.shape:
            raise ValueError("values must match the grid")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("field contains non-finite entries")
        steps = np.diff(grid)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * max(1.0, abs(steps[0]))):
            raise ValueError("grid must be equally spaced")
        if steps[0] <= 0:
            raise ValueError("grid must be increasing")
        if values.size and values.min() < -1e-9:
            raise ValueError(f"field has negative value {values.min():.3e}")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.h)

    @classmethod
    def dirac(cls, n: int, index: int, h: float = 1.0, t: float = 0.0) -> "PdeField":
        """Unit mass concentrated on one grid point (density 1/h there)."""
        values = np.zeros(n)
        values[index] = 1.0 / h
        return cls(grid=np.arange(n) * h, values=values, t=t)

    @classmethod
    def from_capacity(cls, kappa: SpatialCapacity, h: float = 1.0, t: float = 0.0) -> "PdeField":
        return cls(grid=np.arange(kappa.n) * h, values=kappa.values / h, t=t)


def residual_generator(
    n: int, v: float, Dcoef: float, boundary: str = "periodic"
) -> ResidualGenerator:
    """Tridiagonal drift-diffusion generator.

    Sub-diagonal ``Dcoef + v/2``, diagonal ``-2 Dcoef``, super-diagonal
    ``Dcoef - v/2``.  Periodic boundaries wrap the stencil; reflecting
    boundaries fold the outgoing flux back into the diagonal.  ``|v|/2``
    must not exceed ``Dcoef`` or transition weights would turn negative.
    """
    if Dcoef <= 0:
        raise ValueError("Dcoef must be positive")
    if abs(v) / 2.0 > Dcoef:
        raise ValueError(
            f"|v|/2 = {abs(v) / 2:g} exceeds Dcoef = {Dcoef:g}; "
            "transition weights would be negative"
        )
    up = Dcoef + v / 2.0  # weight towards larger index
    down = Dcoef - v / 2.0
    matrix = np.zeros((n, n))
    for j in range(n):
        matrix[j, j] = -2.0 * Dcoef
        if boundary == "periodic":
            matrix[(j + 1) % n, j] += up
            matrix[(j - 1) % n, j] += down
        else:
            if j < n - 1:
                matrix[j + 1, j] += up
            else:
                matrix[j, j] += up
            if j > 0:
                matrix[j - 1, j] += down
            else:
                matrix[j, j] += down
    return ResidualGenerator(n=n, v=v, Dcoef=Dcoef, boundary=boundary, matrix=matrix)


def evolve_markov(
    gen: ResidualGenerator, cfg: DeepLimitConfig, kappa_top: SpatialCapacity
) -> List[SpatialCapacity]:
    """Apply ``I + eps*Delta`` L times; element k is the profile after k steps.

    The first element is ``kappa_top`` (t = 0), the last the input-space
    profile (t = 1).  Total capacity is conserved throughout.
    """
    if kappa_top.n != gen.n:
        raise ValueError(f"capacity has {kappa_top.n} entries, generator expects {gen.n}")
    step = gen.step(cfg.eps)
    profiles = [kappa_top]
    for _ in range(cfg.L):
        profiles.append(propagate_single(step, profiles[-1]))
    return profiles


def gaussian_solution(initial: PdeField, v: float, Dcoef: float, t: float) -> PdeField:
    """Heat-kernel convolution of the initial data, by the trapezoid rule.

    Evaluates ``pi(t, x) = int G(x - y - v t) pi(0, y) dy`` with the Gaussian
    kernel of variance ``2 Dcoef t`` on the initial field's own grid;
    ``t = 0`` returns the initial field unchanged.
    """
    if Dcoef <= 0:
        raise ValueError("Dcoef must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return PdeField(grid=initial.grid, values=initial.values.copy(), t=initial.t)
    spread = 4.0 * Dcoef * t
    x = initial.grid
    gap = x[:, None] - x[None, :] - v * t
    kernel = np.exp(-(gap**2) / spread) / math.sqrt(math.pi * spread)
    weights = np.full(x.size, initial.h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    values = kernel @ (weights * initial.values)
    return PdeField(grid=x, values=values, t=initial.t + t)


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-norm gaps between the Markov profile and the Gaussian closed form.

    One entry per refinement level (coarsest first).  All gaps are measured
    on physical densities (mass per unit length of the coarsest grid), so
    levels are directly comparable; ``rel_errors`` divide by that level's
    closed-form peak.  ``overall_order`` is the average halving order of the
    relative error per refinement.  ``markov_std`` is the width in cells of
    the coarsest level's Markov profile.
    """

    eps_levels: Tuple[float, ...]
    sup_errors: Tuple[float, ...]
    rel_errors: Tuple[float, ...]
    orders: Tuple[float, ...]
    overall_order: float
    boundary_flagged: bool
    markov_std: float

    @property
    def sup_error(self) -> float:
        return self.sup_errors[0]


def _refined_inputs(
    gen: ResidualGenerator, cfg: DeepLimitConfig, kappa_top: SpatialCapacity, scale: int
):
    if scale == 1:
        return gen, cfg, kappa_top
    n_fine = scale * (gen.n - 1) + 1
    gen_fine = residual_generator(
        n_fine, gen.v * scale, gen.Dcoef * scale * scale, gen.boundary
    )
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
    fixed grid cannot work here: with the spacing frozen the chain converges
    to the lattice walk, not to the PDE, and the gap saturates instead of
    shrinking.
    """
    if refinements < 0:
        raise ValueError("refinements must be non-negative")
    eps_levels: List[float] = []
    sup_errors: List[float] = []
    rel_errors: List[float] = []
    flagged = False
    markov_std = math.nan
    for level in range(refinements + 1):
        scale = 2**level
        gen_k, cfg_k, kappa_k = _refined_inputs(gen, cfg, kappa_top, scale)
        if level > 0 and cfg_k.eps >= gen_k.max_stable_eps():
            break
        final = evolve_markov(gen_k, cfg_k, kappa_k)[-1]
        if level == 0:
            markov_std = _pmf_std(final.values)
        h = 1.0 / scale
        initial = PdeField(
            grid=np.arange(gen_k.n) * h, values=kappa_k.values / h, t=0.0
        )
        total_time = cfg.total_time
        pde = gaussian_solution(initial, gen.v * total_time, gen.Dcoef * total_time, 1.0)
        if pde.mass < kappa_top.total * (1.0 - _BOUNDARY_MASS_TOL):
            flagged = True
        gap = float(np.max(np.abs(final.values / h - pde.values)))
        peak = float(np.max(pde.values))
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
    )


def random_layer_chain(
    n: int, Dcoef: float, eps: float, L: int, seed: int
) -> LayerChain:
    """L residual layers with independent symmetric random drifts.

    Each layer draws ``v_l`` uniformly from ``[-Dcoef/2, Dcoef/2]`` (zero
    mean, so the ensemble-averaged profile drifts nowhere) and contributes
    the operator ``I + eps*Delta_l`` on a periodic grid.  Deterministic for
    a given seed.
    """
    rng = np.random.default_rng(seed)
    v_max = Dcoef / 2.0
    layers = []
    for _ in range(L):
        v_l = float(rng.uniform(-v_max, v_max))
        gen = residual_generator(n, v_l, Dcoef, "periodic")
        layers.append(Layer.from_operator(gen.step(eps)))
    return LayerChain(tuple(layers))
