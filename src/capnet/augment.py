"""Augmented input spaces for non-linear layers.

A layer ``x -> f(P^T y)`` with piecewise-linear ``f(z) = eta_z * z`` acts
linearly on the augmented inputs ``(eta_j * y_i)``, indexed by (block j,
input i).  This module builds the block projection ``P~``, the augmented
covariance ``Sigma~`` with its decoupling coefficient ``nu``, and the
augmented capacity bases for the linear, ReLU-family, and pseudo-random
regimes.  The pseudo-random activation is literal: a hash of each input
value's bits picks its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    CapacityBasis,
    CovarianceMatrix,
    ProjectionMatrix,
    SpatialCapacity,
    orthonormal_basis,
)

__all__ = [
    "Activation",
    "DecouplingReport",
    "build_augmented_projection",
    "build_augmented_covariance",
    "decoupling_nu",
    "estimate_nu_monte_carlo",
    "augmented_capacity_basis",
    "augmented_spatial_profile",
    "pseudo_random_eta",
]

_PIECEWISE_KINDS = ("linear", "relu", "leaky_relu", "abs")
_CLOSED_FORM_KINDS = _PIECEWISE_KINDS + ("pseudo_random",)
# Largest pseudo_random sigma: a Monte Carlo estimate sums squared products
# of scale sigma**4, which stays finite over 10**8 samples below this.
_MAX_SIGMA = 1e75
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Most samples estimate_nu_monte_carlo draws: it holds every draw at once, some
# 32-38 bytes a sample, so this is about 2 GiB.
_MAX_NU_SAMPLES = 5 * 10**7


def _check_sigma(sigma: float) -> None:
    """Refuse a pseudo_random sigma that is not in (0, _MAX_SIGMA); NaN included."""
    if not 0 < sigma < _MAX_SIGMA:
        raise ValueError(f"sigma must be positive and below {_MAX_SIGMA:g}, got {sigma!r}")


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """splitmix64's increment and finalizer, applied to the uint64 array h in place."""
    shifted = np.empty_like(h)
    h += np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        h ^= np.right_shift(h, np.uint64(shift), out=shifted)
        h *= np.uint64(mult)
    h ^= np.right_shift(h, np.uint64(31), out=shifted)
    return h


def pseudo_random_eta(z, seed: int, sigma: float = 1.0):
    """Hash-based sign activation multiplier ``eta(z)`` in {-sigma, +sigma}.

    The IEEE-754 bit pattern of z (with -0 canonicalized to +0) is mixed with
    the seed, taken modulo 2**64, through a 64-bit finalizer; one output bit
    picks the sign.  The same (z, seed) always yields the same value, while
    arbitrarily close inputs give effectively independent signs.
    """
    _check_sigma(sigma)
    h = np.array(z, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("pseudo_random_eta requires finite z")
    h += 0.0
    h = h.view(np.uint64)
    h ^= _splitmix64(np.array([int(seed) & _MASK64], dtype=np.uint64))[0]
    h = _splitmix64(h)
    h >>= np.uint64(63)
    signs = h * (2.0 * sigma)
    signs -= sigma
    if np.isscalar(z) or signs.ndim == 0:
        return float(signs)
    return signs


@dataclass(frozen=True)
class Activation:
    """Pointwise activation ``f(z) = eta_z * z``.

    Piecewise-linear kinds have ``eta_z = alpha`` for z <= 0 and ``beta`` for
    z > 0, normalized so that ``alpha**2 + beta**2 = 2``; both are derived
    from ``kind`` and ``leak``, never passed.  The pseudo-random
    kind draws a fixed random sign ``eta_z = +-sigma`` per distinct z (see
    :func:`pseudo_random_eta`).  Custom kinds carry an arbitrary
    pointwise function and have no closed-form treatment.
    """

    kind: str
    leak: float = 0.0
    alpha: Optional[float] = field(init=False, default=None)
    beta: Optional[float] = field(init=False, default=None)
    sigma: float = 1.0
    custom_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        valid = _CLOSED_FORM_KINDS + ("custom",)
        if self.kind not in valid:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        _check_sigma(self.sigma)
        # 2 * (leak**2 + 1) is the largest number the slopes and nu are formed from
        if self.kind == "leaky_relu" and not math.isfinite(2.0 * (self.leak * self.leak + 1.0)):
            raise ValueError(f"leaky_relu slope must have a finite square, got {self.leak!r}")
        if self.kind in _PIECEWISE_KINDS:
            alpha, beta = _normalized_slopes(self.kind, self.leak)
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "beta", beta)
        if self.kind == "custom" and self.custom_fn is None:
            raise ValueError("custom activation requires custom_fn")

    @classmethod
    def linear(cls) -> "Activation":
        return cls("linear")

    @classmethod
    def relu(cls) -> "Activation":
        return cls("relu")

    @classmethod
    def leaky_relu(cls, slope: float) -> "Activation":
        return cls("leaky_relu", leak=slope)

    @classmethod
    def abs(cls) -> "Activation":
        return cls("abs")

    @classmethod
    def pseudo_random(cls, sigma: float = 1.0) -> "Activation":
        return cls("pseudo_random", sigma=sigma)

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "Activation":
        return cls("custom", custom_fn=fn)

    @classmethod
    def parse(cls, text: str) -> "Activation":
        """Parse ``linear | relu | leaky_relu:<slope> | abs | pseudo_random[:<sigma>]``."""
        name, sep, arg = text.strip().partition(":")
        if name == "linear" and not sep:
            return cls.linear()
        if name == "relu" and not sep:
            return cls.relu()
        if name == "abs" and not sep:
            return cls.abs()
        if name == "leaky_relu" and sep:
            try:
                return cls.leaky_relu(float(arg))
            except ValueError:
                raise ValueError(f"bad leaky_relu slope {arg!r}") from None
        if name == "pseudo_random":
            if not sep:
                return cls.pseudo_random()
            try:
                return cls.pseudo_random(float(arg))
            except ValueError:
                raise ValueError(f"bad pseudo_random sigma {arg!r}") from None
        raise ValueError(f"cannot parse activation {text!r}")

    def spec(self) -> str:
        """Inverse of :meth:`parse`."""
        if self.kind == "leaky_relu":
            return f"leaky_relu:{self.leak:g}"
        if self.kind == "pseudo_random":
            return "pseudo_random" if self.sigma == 1.0 else f"pseudo_random:{self.sigma:g}"
        return self.kind

    def eta(self, z: np.ndarray, key: Optional[int] = None) -> np.ndarray:
        """Multiplier ``eta_z`` with ``f(z) = eta_z * z``, elementwise.

        ``key`` seeds the fixed random sign draw and is required for the
        pseudo-random kind.  Custom kinds give eta = 0 at z = 0, and need
        f(0) = 0 there.
        """
        z = np.asarray(z, dtype=float)
        if self.kind in _PIECEWISE_KINDS:
            return np.where(z <= 0, self.alpha, self.beta)
        if self.kind == "pseudo_random":
            if key is None:
                raise ValueError("pseudo_random eta requires a key")
            return pseudo_random_eta(z, key, self.sigma)
        out = np.asarray(self.custom_fn(z), dtype=float)
        at_zero = z == 0
        if np.any(out[at_zero] != 0):
            raise ValueError("custom activation has f(0) != 0, so f(z) = eta*z has no eta at 0")
        return out / np.where(at_zero, 1.0, z)

    def apply(self, z: np.ndarray, key: Optional[int] = None) -> np.ndarray:
        """Evaluate ``f(z)`` elementwise."""
        z = np.asarray(z, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.custom_fn(z), dtype=float)
        return self.eta(z, key=key) * z


def _raw_slopes(kind: str, leak: float) -> tuple:
    """Unnormalized (alpha, beta) of a piecewise-linear kind."""
    return {"linear": (1.0, 1.0), "relu": (0.0, 1.0), "abs": (-1.0, 1.0)}.get(kind, (leak, 1.0))


def _normalized_slopes(kind: str, leak: float) -> tuple:
    # raw (alpha, beta) rescaled by sqrt(2 / (alpha^2 + beta^2))
    raw = _raw_slopes(kind, leak)
    scale = math.sqrt(2.0 / (raw[0] ** 2 + raw[1] ** 2))
    return raw[0] * scale, raw[1] * scale


@dataclass(frozen=True)
class DecouplingReport:
    """Closed-form and Monte Carlo decoupling coefficients for one activation."""

    nu: Optional[float]
    nu_hat: float
    stderr: float
    n_samples: int


def build_augmented_projection(p: ProjectionMatrix) -> np.ndarray:
    """Block projection ``P~`` of shape (n*m, m): p_j in block row j of column j.

    Columns are unit-norm with disjoint supports, so ``P~TP~ = identity(m)``.
    """
    n, m = p.n_in, p.n_out
    p_tilde = np.zeros((n * m, m))
    for j in range(m):
        p_tilde[j * n : (j + 1) * n, j] = p.matrix[:, j]
    return p_tilde


def build_augmented_covariance(
    sigma: CovarianceMatrix, act: Activation, m: int
) -> CovarianceMatrix:
    """Covariance of the augmented inputs under the decoupling approximation.

    Block (j, k) equals ``Sigma`` on the diagonal (``sigma**2 * Sigma`` for the
    pseudo-random kind) and ``nu * Sigma`` off the diagonal.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if act.kind not in _CLOSED_FORM_KINDS:
        raise ValueError(
            "custom activations have no closed-form augmented covariance; "
            "estimate it empirically"
        )
    nu = decoupling_nu(act)
    diag = act.sigma**2 if act.kind == "pseudo_random" else 1.0
    coupling = (diag - nu) * np.eye(m) + nu * np.ones((m, m))
    return CovarianceMatrix(np.kron(coupling, sigma.entries))


def decoupling_nu(act: Activation) -> float:
    """Decoupling coefficient ``nu = (alpha + beta)**2 / 4``.

    Linear gives 1, ReLU 1/2, absolute value 0, leaky ReLU with slope a
    ``(1 + a)**2 / (2 * (1 + a**2))``.  Pseudo-random signs decouple fully:
    0 by construction.
    """
    if act.kind == "pseudo_random":
        return 0.0
    if act.kind not in _PIECEWISE_KINDS:
        raise ValueError("decoupling coefficient needs a piecewise-linear activation")
    # raw-slope form of (alpha + beta)**2 / 4: exact where the slopes are
    raw_lo, raw_hi = _raw_slopes(act.kind, act.leak)
    return (raw_lo + raw_hi) ** 2 / (2.0 * (raw_lo**2 + raw_hi**2))


def _derive_streams(seed: int):
    """The sample seed, the eta hash key and an auxiliary seed, all from ``seed``.

    Children 0, 1 and 2 of ``SeedSequence(seed)``; every Monte Carlo run in
    the package draws from this one layout.
    """
    samples, eta, aux = np.random.SeedSequence(seed).spawn(3)
    return samples, int(eta.generate_state(1)[0]), aux


def estimate_nu_monte_carlo(act: Activation, n_samples: int, seed: int) -> DecouplingReport:
    """Estimate ``nu = E[eta(z1) eta(z2)]`` over independent standard normals.

    Reproducible bit-for-bit for a given (seed, n_samples).
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if n_samples > _MAX_NU_SAMPLES:
        raise ValueError(f"n_samples {n_samples:,} is past the nu limit of {_MAX_NU_SAMPLES:,}")
    samples, eta_key, _ = _derive_streams(seed)
    z = np.random.default_rng(samples).standard_normal((n_samples, 2))
    prod = act.eta(z[:, 0], key=eta_key) * act.eta(z[:, 1], key=eta_key)
    total = float(prod.sum())
    total_sq = float((prod**2).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    stderr = math.sqrt(var / n_samples)
    try:
        nu = decoupling_nu(act)
    except ValueError:
        nu = None
    return DecouplingReport(nu=nu, nu_hat=mean, stderr=stderr, n_samples=n_samples)


def augmented_capacity_basis(
    sigma_tilde: CovarianceMatrix,
    p_tilde: np.ndarray,
    k_phi: CapacityBasis,
) -> CapacityBasis:
    """Capacity basis in the augmented input space: ``Sigma~ P~ K_phi`` orthonormalized.

    With white inputs and a block-diagonal ``Sigma~`` (pseudo-random regime)
    it spans the columns of ``P~ K_phi`` themselves.
    """
    p_tilde = np.asarray(p_tilde, dtype=float)
    if p_tilde.shape[0] != sigma_tilde.dim:
        raise ValueError(
            f"p_tilde has {p_tilde.shape[0]} rows but sigma_tilde dim is {sigma_tilde.dim}"
        )
    if p_tilde.shape[1] != k_phi.ambient_dim:
        raise ValueError(
            f"p_tilde has {p_tilde.shape[1]} columns but k_phi ambient dim is "
            f"{k_phi.ambient_dim}"
        )
    return orthonormal_basis(sigma_tilde.entries @ p_tilde @ k_phi.columns)


def augmented_spatial_profile(k_tilde: CapacityBasis, n: int) -> SpatialCapacity:
    """Per-input-coordinate capacities over n inputs, aggregated across all blocks.

    Row ``j*n + i`` of the augmented space belongs to input i.
    """
    dim = k_tilde.ambient_dim
    if n < 1 or dim % n:
        raise ValueError(f"basis ambient dim {dim} is not a multiple of n = {n}")
    row_mass = np.sum(k_tilde.columns**2, axis=1)
    # bincount, not reshape(m, n).sum(axis=0): the two round differently
    values = np.bincount(np.tile(np.arange(n), dim // n), weights=row_mass, minlength=n)
    return SpatialCapacity(values)
