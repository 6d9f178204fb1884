"""Monte Carlo ground truth for the closed-form capacity results.

Implements a literal pseudo-random activation (a deterministic hash sign per
input value), empirical augmented covariances, least-squares optimal last
layers, a stationarity check for those optima, and empirical spatial
capacities compared against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .augment import (
    Activation,
    AugmentedLayout,
    _derive_streams,
    augmented_spatial_profile,
    build_augmented_projection,
)
from .core import (
    CapacityBasis,
    CovarianceMatrix,
    ParamMap,
    ProjectionMatrix,
    SpatialCapacity,
    gram_capacity_basis,
    orthonormal_basis,
)

__all__ = [
    "PseudoRandomSign",
    "ExperimentConfig",
    "EmpiricalReport",
    "pseudo_random_eta",
    "empirical_sigma_tilde",
    "fit_optimal_last_layer",
    "verify_stationarity",
    "stationarity_noise_floor",
    "empirical_spatial_capacity",
]

# sampler(rng, count, n) -> (count, n) array of input vectors
Sampler = Callable[[np.random.Generator, int, int], np.ndarray]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_NOISE_BLOCKS = 8


@dataclass(frozen=True)
class PseudoRandomSign:
    """Deterministic map z -> eta(z) in {-sigma, +sigma}, drawn once per value."""

    seed: int
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def pseudo_random_eta(z, prs: PseudoRandomSign):
    """Hash-based sign activation multiplier.

    The IEEE-754 bit pattern of z (with -0 canonicalized to +0) is mixed with
    the seed through a 64-bit finalizer; one output bit picks the sign.  The
    same (z, seed) always yields the same value, while arbitrarily close
    inputs give effectively independent signs.
    """
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("pseudo_random_eta requires finite z")
    bits = np.ascontiguousarray(z_arr + 0.0).view(np.uint64)
    seed_hash = _splitmix64(np.uint64(prs.seed))
    h = _splitmix64(bits ^ seed_hash)
    signs = np.where((h >> np.uint64(63)).astype(bool), prs.sigma, -prs.sigma)
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(signs.reshape(-1)[0])
    return signs.reshape(z_arr.shape)


@dataclass(frozen=True)
class ExperimentConfig:
    """A constrained-last-layer experiment: layer, activation, trainable coords.

    The readout is ``A = W`` on ``param_selector`` and 0 elsewhere, so the
    number of independent parameters equals ``len(param_selector)``.
    """

    p: ProjectionMatrix
    activation: Activation
    param_selector: Tuple[int, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        selector = tuple(int(i) for i in self.param_selector)
        if len(selector) == 0:
            raise ValueError("param_selector must be non-empty")
        if len(set(selector)) != len(selector):
            raise ValueError("param_selector indices must be unique")
        if min(selector) < 0 or max(selector) >= self.p.n_out:
            raise ValueError(f"param_selector indices out of range [0, {self.p.n_out})")
        object.__setattr__(self, "param_selector", tuple(sorted(selector)))
        if self.n_samples < 1000:
            raise ValueError("n_samples must be at least 1000")

    @property
    def n(self) -> int:
        return self.p.n_in

    @property
    def m(self) -> int:
        return self.p.n_out

    def selector_basis(self) -> CapacityBasis:
        """Feature-space capacity basis K_phi of the selector parametrization."""
        params = ParamMap.coordinate_selector(self.m, list(self.param_selector))
        return gram_capacity_basis(params)

    def layout(self) -> AugmentedLayout:
        return AugmentedLayout("standard", self.n, self.m)


@dataclass(frozen=True)
class EmpiricalReport:
    """Measured spatial capacities next to the closed form they validate.

    ``kappa_theory`` and ``max_abs_dev`` are absent when the closed-form
    comparison was refused (non-i.i.d. sampler); ``caveat`` then says why.
    Deviations are reported as measured, never thresholded.
    """

    kappa_hat: SpatialCapacity
    kappa_theory: Optional[SpatialCapacity]
    max_abs_dev: Optional[float]
    stationarity_residual: float
    caveat: str = ""

    def __post_init__(self):
        if not math.isfinite(self.stationarity_residual) or self.stationarity_residual < 0:
            raise ValueError("stationarity_residual must be finite and non-negative")
        if (self.kappa_theory is None) != (self.max_abs_dev is None):
            raise ValueError("kappa_theory and max_abs_dev must be absent together")
        if self.max_abs_dev is not None:
            if not math.isfinite(self.max_abs_dev) or self.max_abs_dev < 0:
                raise ValueError("max_abs_dev must be finite and non-negative")
        elif not self.caveat:
            raise ValueError("a report without the closed-form comparison needs a caveat")

    def to_dict(self) -> dict:
        out = {
            "kappa_hat": [float(v) for v in self.kappa_hat.values],
            "stationarity_residual": float(self.stationarity_residual),
        }
        if self.kappa_theory is not None:
            out["kappa_theory"] = [float(v) for v in self.kappa_theory.values]
            out["max_abs_dev"] = float(self.max_abs_dev)
        if self.caveat:
            out["caveat"] = self.caveat
        return out


def _sample_inputs(config_n: int, n_samples: int, seed: int, sampler: Optional[Sampler]):
    """Sampled inputs (n_samples, config_n) and the eta key."""
    stream, eta_key, _ = _derive_streams(seed)
    rng = np.random.default_rng(stream)
    if sampler is None:
        return rng.standard_normal((n_samples, config_n)), eta_key
    batch = np.asarray(sampler(rng, n_samples, config_n), dtype=float)
    if batch.shape != (n_samples, config_n):
        raise ValueError(
            f"sampler returned shape {batch.shape}, expected ({n_samples}, {config_n})"
        )
    return batch, eta_key


def _augmented_rows(y: np.ndarray, p: ProjectionMatrix, act: Activation, eta_key: int):
    """Augmented samples (N, n*m): row-block j holds eta(z_j) * y."""
    z = y @ p.matrix
    h = act.eta(z, key=eta_key)
    n_samples = y.shape[0]
    return np.einsum("sj,si->sji", h, y).reshape(n_samples, p.n_out * p.n_in)


def empirical_sigma_tilde(
    p: ProjectionMatrix,
    act: Activation,
    sampler: Optional[Sampler],
    n_samples: int,
    seed: int,
) -> CovarianceMatrix:
    """Sample average of the augmented second moment, symmetrized.

    ``sampler=None`` draws i.i.d. standard-normal inputs.  Results are
    bit-identical for a given (seed, n_samples).
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    y, eta_key = _sample_inputs(p.n_in, n_samples, seed, sampler)
    acc = np.zeros((p.n_in * p.n_out,) * 2)
    for start in range(0, n_samples, 65536):
        block = _augmented_rows(y[start : start + 65536], p, act, eta_key)
        acc += block.T @ block
    acc /= n_samples
    return CovarianceMatrix(0.5 * (acc + acc.T))


def _feature_matrix(config: ExperimentConfig, sampler: Optional[Sampler]):
    y, eta_key = _sample_inputs(config.n, config.n_samples, config.seed, sampler)
    feats = config.activation.apply(y @ config.p.matrix, key=eta_key)
    return y, feats, eta_key


def _deficient_columns(matrix: np.ndarray, tol: float = 1e-10) -> list:
    """Columns that add no new direction, by a sequential projection sweep."""
    basis = []
    deficient = []
    scale = float(np.max(np.linalg.norm(matrix, axis=0))) or 1.0
    for j in range(matrix.shape[1]):
        w = matrix[:, j].copy()
        for b in basis:
            w -= (b @ w) * b
        norm = np.linalg.norm(w)
        if norm <= tol * scale:
            deficient.append(j)
        else:
            basis.append(w / norm)
    return deficient


def fit_optimal_last_layer(
    config: ExperimentConfig,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler] = None,
) -> np.ndarray:
    """Least-squares readout over the selected coordinates; 0 elsewhere.

    ``target`` maps a batch of inputs (N, n) to N scalar responses.  Raises if
    the selected feature columns are rank deficient, naming the columns.
    """
    y, feats, _ = _feature_matrix(config, sampler)
    t = np.asarray(target(y), dtype=float)
    if t.shape != (y.shape[0],):
        raise ValueError(f"target returned shape {t.shape}, expected ({y.shape[0]},)")
    selected = feats[:, list(config.param_selector)]
    singvals = np.linalg.svd(selected, compute_uv=False)
    rank = int(np.sum(singvals > 1e-10 * singvals[0])) if singvals[0] > 0 else 0
    if rank < len(config.param_selector):
        bad = [config.param_selector[j] for j in _deficient_columns(selected)]
        raise ValueError(f"selected feature columns {bad} are rank deficient")
    coeffs, *_ = np.linalg.lstsq(selected, t, rcond=None)
    a_star = np.zeros(config.m)
    a_star[list(config.param_selector)] = coeffs
    return a_star


def _stationarity_terms(
    config: ExperimentConfig,
    a_star: np.ndarray,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler],
):
    y, feats, eta_key = _feature_matrix(config, sampler)
    t = np.asarray(target(y), dtype=float)
    a_full, *_ = np.linalg.lstsq(feats, t, rcond=None)
    p_tilde = build_augmented_projection(config.p)
    x_tilde = p_tilde @ (np.asarray(a_star, dtype=float) - a_full)
    rows = _augmented_rows(y, config.p, config.activation, eta_key)
    k_phi = config.selector_basis()
    return rows, p_tilde, k_phi, x_tilde


def _residual_from_rows(rows, p_tilde, k_phi, x_tilde) -> float:
    sigma_hat = rows.T @ rows / rows.shape[0]
    k_tilde = orthonormal_basis(sigma_hat @ p_tilde @ k_phi.columns)
    return float(np.linalg.norm(k_tilde.columns.T @ x_tilde))


def verify_stationarity(
    config: ExperimentConfig,
    a_star: np.ndarray,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler] = None,
) -> float:
    """Norm of the optimality condition ``K~^T X~`` at the fitted readout.

    ``X~`` is the augmented-space gap between ``a_star`` and the unconstrained
    least-squares optimum on the same samples; ``K~`` is the capacity basis
    built from the empirical augmented covariance.  For ``a_star`` from
    :func:`fit_optimal_last_layer` this vanishes up to sampling and
    conditioning error; compare against :func:`stationarity_noise_floor`.
    """
    rows, p_tilde, k_phi, x_tilde = _stationarity_terms(config, a_star, target, sampler)
    return _residual_from_rows(rows, p_tilde, k_phi, x_tilde)


def stationarity_noise_floor(
    config: ExperimentConfig,
    a_star: np.ndarray,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler] = None,
) -> float:
    """Expected magnitude of the stationarity residual from sampling alone.

    Jackknife over 8 contiguous sample blocks: the residual is re-evaluated
    with each block's covariance, and the mean block residual is scaled back
    to the full sample size by 1/sqrt(8).
    """
    rows, p_tilde, k_phi, x_tilde = _stationarity_terms(config, a_star, target, sampler)
    bounds = np.linspace(0, rows.shape[0], _NOISE_BLOCKS + 1, dtype=int)
    block_residuals = [
        _residual_from_rows(rows[a:b], p_tilde, k_phi, x_tilde)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return float(np.mean(block_residuals) / math.sqrt(_NOISE_BLOCKS))


def _generic_target(config: ExperimentConfig):
    """Deterministic full-support readout target derived from the config seed."""
    _, eta_key, aux = _derive_streams(config.seed)
    a_gen = np.random.default_rng(aux).standard_normal(config.m)

    def target(y: np.ndarray) -> np.ndarray:
        return config.activation.apply(y @ config.p.matrix, key=eta_key) @ a_gen

    return target


def empirical_spatial_capacity(
    config: ExperimentConfig, sampler: Optional[Sampler] = None
) -> EmpiricalReport:
    """Measure spatial capacities and compare them with the closed form.

    The measurement orthonormalizes ``Sigma~_hat P~ K_phi`` with the empirical
    augmented covariance and aggregates squared row norms per input
    coordinate.  The closed form ``kappa_i = sum_{j in selector} p_ij**2``
    holds for pseudo-random activations with i.i.d. inputs; any other sampler
    refuses the comparison and reports the measurement with a caveat.
    """
    p_tilde = build_augmented_projection(config.p)
    k_phi = config.selector_basis()
    y, eta_key = _sample_inputs(config.n, config.n_samples, config.seed, sampler)
    rows = _augmented_rows(y, config.p, config.activation, eta_key)
    sigma_hat = rows.T @ rows / rows.shape[0]
    k_tilde = orthonormal_basis(sigma_hat @ p_tilde @ k_phi.columns)
    kappa_hat = augmented_spatial_profile(k_tilde, config.layout())

    target = _generic_target(config)
    a_star = fit_optimal_last_layer(config, target, sampler=sampler)
    residual = verify_stationarity(config, a_star, target, sampler=sampler)

    if sampler is not None:
        return EmpiricalReport(
            kappa_hat=kappa_hat,
            kappa_theory=None,
            max_abs_dev=None,
            stationarity_residual=residual,
            caveat="non-iid sampler: closed-form comparison refused",
        )
    if config.activation.kind != "pseudo_random":
        return EmpiricalReport(
            kappa_hat=kappa_hat,
            kappa_theory=None,
            max_abs_dev=None,
            stationarity_residual=residual,
            caveat=(
                f"activation {config.activation.kind!r} has no closed-form "
                "spatial capacity; general-path measurement only"
            ),
        )
    theory = np.sum(config.p.matrix[:, list(config.param_selector)] ** 2, axis=1)
    kappa_theory = SpatialCapacity(theory)
    max_abs_dev = float(np.max(np.abs(kappa_hat.values - kappa_theory.values)))
    return EmpiricalReport(
        kappa_hat=kappa_hat,
        kappa_theory=kappa_theory,
        max_abs_dev=max_abs_dev,
        stationarity_residual=residual,
    )
