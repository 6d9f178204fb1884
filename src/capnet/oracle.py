"""Monte Carlo ground truth for the closed-form capacity results.

Implements least-squares optimal last layers, a stationarity check for
those optima, and empirical spatial capacities compared against the closed
form, on samples passed through an :class:`~capnet.augment.Activation`
(the pseudo-random one hashes each input value to a sign).  Every
estimate reads the samples once, in chunks, so memory does not grow with
the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .augment import Activation, _derive_streams, augmented_spatial_profile
from .core import CapacityBasis, ProjectionMatrix, SpatialCapacity, _RANK_TOL, orthonormal_basis

__all__ = [
    "ExperimentConfig",
    "EmpiricalReport",
    "fit_optimal_last_layer",
    "verify_stationarity",
    "stationarity_noise_floor",
    "empirical_spatial_capacity",
]

# sampler(rng, count, n) -> (count, n) input vectors, called once per chunk in order
Sampler = Callable[[np.random.Generator, int, int], np.ndarray]

_NOISE_BLOCKS = 8
# A chunk's inputs y, pre-activations z and etas stay near this size.
_CHUNK_BYTES = 2**20
# Largest array the oracle holds whole: its block cross moments, refused
# before allocating.
_MEMORY_BUDGET_BYTES = 2 * 2**30
# Most samples a run takes: about a minute at n = m = 8 with 3 selected
# columns, where a sample costs some 0.3-0.8 us.
_MAX_SAMPLES = 10**8
# Most work a run does, in samples times the n*m*k + (m+1)**2 moment entries
# a sample updates (k selected columns): the work of the sample limit at that
# default layer, since a sample of a wider layer costs more.
_MAX_SAMPLE_WORK = _MAX_SAMPLES * (8 * 8 * 3 + 9**2)


@dataclass(frozen=True)
class ExperimentConfig:
    """A constrained-last-layer experiment: layer, activation, trainable coords.

    The readout is ``A = W`` on ``param_selector`` and 0 elsewhere, so the
    number of independent parameters equals ``len(param_selector)``.  Its
    capacity basis K_phi spans the selected coordinate axes; any basis of
    that span gives the same capacities, so none is built.  The selector is
    stored sorted.
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
        if self.n_samples > _MAX_SAMPLES:
            raise ValueError(
                f"n_samples {self.n_samples:,} is past the oracle limit of {_MAX_SAMPLES:,}"
            )

    @property
    def n(self) -> int:
        return self.p.n_in

    @property
    def m(self) -> int:
        return self.p.n_out


@dataclass(frozen=True)
class EmpiricalReport:
    """Measured spatial capacities next to the closed form they validate.

    ``kappa_theory`` and ``max_abs_dev`` are absent when the closed-form
    comparison was refused (non-i.i.d. sampler); ``caveat`` then says why.
    Deviations are reported as measured, never thresholded.
    ``stationarity_noise_floor`` is the jackknife scale against which
    ``stationarity_residual`` is judged; see :func:`stationarity_noise_floor`.
    """

    kappa_hat: SpatialCapacity
    kappa_theory: Optional[SpatialCapacity]
    max_abs_dev: Optional[float]
    stationarity_residual: float
    stationarity_noise_floor: Optional[float] = None
    caveat: str = ""

    def to_dict(self) -> dict:
        out = {
            "kappa_hat": [float(v) for v in self.kappa_hat.values],
            "stationarity_residual": float(self.stationarity_residual),
        }
        if self.stationarity_noise_floor is not None:
            out["stationarity_noise_floor"] = float(self.stationarity_noise_floor)
        if self.kappa_theory is not None:
            out["kappa_theory"] = [float(v) for v in self.kappa_theory.values]
            out["max_abs_dev"] = float(self.max_abs_dev)
        if self.caveat:
            out["caveat"] = self.caveat
        return out


def _block_edges(n_samples: int) -> np.ndarray:
    """Sample index bounds of the contiguous jackknife blocks."""
    return np.linspace(0, n_samples, _NOISE_BLOCKS + 1, dtype=int)


def _chunks(
    p: ProjectionMatrix, act: Activation, sampler: Optional[Sampler], n_samples: int, seed: int
):
    """Yield ``(block, y, z, eta)`` for consecutive chunks of the samples.

    Each chunk's inputs come from one ``sampler(rng, rows, n)`` call, in
    sample order, so a sampler must act row by row; ``sampler=None`` draws
    i.i.d. standard normals, which numpy's Generator gives the same in
    chunks as in one call.  A chunk never straddles two jackknife blocks.
    Chunk rows are sized from ``_CHUNK_BYTES`` at n + 2m + 2 floats a row,
    about what a row of y, z and eta takes, but never below 2(m+1), so that
    the streamed QR of the (m+1)-column feature block stays amortized.
    Memory is therefore flat in ``n_samples`` for every sampler.

    z = y P is summed in a fixed order, so each row's bits, which the
    pseudo-random eta hashes, do not depend on the chunk size or on the BLAS
    build.
    """
    stream, eta_key, _ = _derive_streams(seed)
    rng = np.random.default_rng(stream)
    draw = sampler or (lambda gen, count, dim: gen.standard_normal((count, dim)))
    n, m = p.n_in, p.n_out
    rows = max(2 * (m + 1), _CHUNK_BYTES // (8 * (n + 2 * m + 2)))
    edges = _block_edges(n_samples)
    for block, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        for start in range(a, b, rows):
            count = min(rows, b - start)
            y = np.asarray(draw(rng, count, n), dtype=float)
            if y.shape != (count, n):
                raise ValueError(f"sampler returned shape {y.shape}, expected ({count}, {n})")
            if not np.isfinite(y).all():
                raise ValueError("sampler returned non-finite values")
            z = np.einsum("ri,ij->rj", y, p.matrix, optimize=False)
            yield block, y, z, act.eta(z, key=eta_key)


@dataclass(frozen=True)
class _Moments:
    """What one pass over the samples leaves behind.

    ``cross[b]`` sums ``x~_s f(z_s)_sel^T`` over jackknife block b, which
    has ``counts[b]`` samples: one column per selected coordinate.  Since
    ``x~_s^T P~ e_j = f(z_sj)``, the sum over blocks divided by N is
    ``(Sigma~_hat P~)[:, selector]``, whose column space is that of
    ``Sigma~_hat P~ K_phi`` for every basis K_phi of the selected axes.  ``r`` is
    the R factor of ``[F_sel | F_rest | t]``: the feature columns in the
    order ``order`` (selected first), then the target.  Its columns have the
    inner products of those sample columns, so least squares on ``r`` solve
    least squares on the samples.
    """

    cross: np.ndarray
    counts: np.ndarray
    r: np.ndarray
    order: np.ndarray


# target(y, feats) -> responses of one chunk of samples
_ChunkTarget = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check_pass(config: ExperimentConfig) -> None:
    """Refuse a pass past the oracle's memory limit, then past its work limit."""
    n, m, k = config.n, config.m, len(config.param_selector)
    nbytes = 8 * _NOISE_BLOCKS * n * m * k
    if nbytes > _MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{_NOISE_BLOCKS} block cross moments of {n * m} x {k} floats need "
            f"{nbytes / 2**30:.1f} GiB, over the {_MEMORY_BUDGET_BYTES / 2**30:g} GiB "
            "oracle memory limit"
        )
    entries = n * m * k + (m + 1) ** 2
    if config.n_samples * entries > _MAX_SAMPLE_WORK:
        raise ValueError(
            f"{config.n_samples:,} samples of {entries:,} moment entries each are past "
            f"the oracle work limit of {_MAX_SAMPLE_WORK:,} sample-entries"
        )


def _stream(
    config: ExperimentConfig, sampler: Optional[Sampler], target: _ChunkTarget
) -> _Moments:
    """One pass over the samples, in chunks."""
    _check_pass(config)
    n, m = config.n, config.m
    selected = list(config.param_selector)
    k = len(selected)
    order = np.array(selected + [j for j in range(m) if j not in selected])
    cross = np.zeros((_NOISE_BLOCKS, n * m, k))
    r = np.zeros((m + 1, m + 1))
    chunks = _chunks(config.p, config.activation, sampler, config.n_samples, config.seed)
    for block, y, z, eta in chunks:
        feats = eta * z
        t = np.asarray(target(y, feats), dtype=float)
        if t.shape != (y.shape[0],):
            raise ValueError(f"target returned shape {t.shape}, expected ({y.shape[0]},)")
        if not np.isfinite(t).all():
            raise ValueError("target returned non-finite values")
        for col, c in enumerate(selected):
            # column c of x~ f(z)^T: row-block j of x~ is eta_j y
            cross[block, :, col] += ((eta * feats[:, [c]]).T @ y).reshape(-1)
        r = np.linalg.qr(np.vstack([r, np.column_stack([feats[:, order], t])]), mode="r")
    return _Moments(cross, np.diff(_block_edges(config.n_samples)), r, order)


def _row_target(target: Callable[[np.ndarray], np.ndarray]) -> _ChunkTarget:
    return lambda y, feats: target(y)


def _constrained_fit(config: ExperimentConfig, moments: _Moments) -> np.ndarray:
    """Least-squares readout on the selected features, from R's leading block."""
    k = len(config.param_selector)
    r11 = moments.r[:k, :k]
    # R11 has the column inner products of F_sel, so |R11[j, j]| is what column j adds
    # beyond the columns before it: at most 1e-10 of the largest column norm names it
    scale = float(np.max(np.linalg.norm(r11, axis=0))) or 1.0
    deficient = np.flatnonzero(np.abs(np.diag(r11)) <= _RANK_TOL * scale)
    bad = [config.param_selector[j] for j in deficient.tolist()]
    if bad:
        raise ValueError(f"selected feature columns {bad} are rank deficient")
    a_star = np.zeros(config.m)
    a_star[list(config.param_selector)] = np.linalg.solve(r11, moments.r[:k, -1])
    return a_star


def _full_fit(config: ExperimentConfig, moments: _Moments) -> np.ndarray:
    """Unconstrained least-squares readout on all features."""
    m = config.m
    # the cutoff lstsq would use on the (N, m) feature matrix itself
    rcond = np.finfo(float).eps * max(config.n_samples, m)
    coeffs, *_ = np.linalg.lstsq(moments.r[:m, :m], moments.r[:m, m], rcond=rcond)
    a_full = np.empty(m)
    a_full[moments.order] = coeffs
    return a_full


def _residual(k_tilde: CapacityBasis, x_tilde: np.ndarray) -> float:
    return float(np.linalg.norm(k_tilde.columns.T @ x_tilde))


def _stationarity_gap(config: ExperimentConfig, a_star, a_full: np.ndarray) -> np.ndarray:
    """``X~ = P~ (a_star - a_full)``: row-block j is ``(a_star - a_full)_j p_j``."""
    gap = np.asarray(a_star, dtype=float) - a_full
    return (config.p.matrix * gap).T.reshape(-1)


def _noise_floor(moments: _Moments, x_tilde: np.ndarray) -> float:
    """Jackknife: the mean residual under each block's moment, scaled by 1/sqrt(blocks)."""
    block_residuals = [
        _residual(orthonormal_basis(cross / rows), x_tilde)
        for cross, rows in zip(moments.cross, moments.counts)
    ]
    return float(np.mean(block_residuals) / math.sqrt(_NOISE_BLOCKS))


def fit_optimal_last_layer(
    config: ExperimentConfig,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler] = None,
) -> np.ndarray:
    """Least-squares readout over the selected coordinates; 0 elsewhere.

    ``target`` maps a batch of inputs (rows, n) to one scalar response per
    row.  It is called once per chunk of samples, in sample order, so it must
    act row by row.  Raises if the selected feature columns are rank
    deficient, naming the columns.
    """
    return _constrained_fit(config, _stream(config, sampler, _row_target(target)))


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
    ``target`` is called per chunk, as in :func:`fit_optimal_last_layer`.
    """
    moments = _stream(config, sampler, _row_target(target))
    x_tilde = _stationarity_gap(config, a_star, _full_fit(config, moments))
    k_tilde = orthonormal_basis(moments.cross.sum(axis=0) / config.n_samples)
    return _residual(k_tilde, x_tilde)


def stationarity_noise_floor(
    config: ExperimentConfig,
    a_star: np.ndarray,
    target: Callable[[np.ndarray], np.ndarray],
    sampler: Optional[Sampler] = None,
) -> float:
    """Expected magnitude of the stationarity residual from sampling alone.

    Jackknife over 8 contiguous sample blocks: the residual is re-evaluated
    with each block's covariance, and the mean block residual is scaled back
    to the full sample size by 1/sqrt(8).  ``target`` is called per chunk,
    as in :func:`fit_optimal_last_layer`.
    """
    moments = _stream(config, sampler, _row_target(target))
    x_tilde = _stationarity_gap(config, a_star, _full_fit(config, moments))
    return _noise_floor(moments, x_tilde)


def _generic_target(config: ExperimentConfig) -> _ChunkTarget:
    """Deterministic full-support readout of the features, derived from the config seed."""
    _, _, aux = _derive_streams(config.seed)
    a_gen = np.random.default_rng(aux).standard_normal(config.m)
    return lambda y, feats: feats @ a_gen


def empirical_spatial_capacity(
    config: ExperimentConfig, sampler: Optional[Sampler] = None
) -> EmpiricalReport:
    """Measure spatial capacities and compare them with the closed form.

    The measurement orthonormalizes ``Sigma~_hat P~ K_phi`` with the empirical
    augmented covariance and aggregates squared row norms per input
    coordinate.  The closed form ``kappa_i = sum_{j in selector} p_ij**2``
    holds for pseudo-random activations with i.i.d. inputs; any other sampler
    refuses the comparison and reports the measurement with a caveat.

    One pass over the samples, in chunks, yields everything: the block cross
    moments ``x~ f(z)^T`` give ``Sigma~_hat P~`` and the jackknife floor, and
    a streamed R factor of the features and a generic target gives both
    least-squares fits.  Only the k = |selector| columns of the moment that
    span ``Sigma~_hat P~ K_phi`` are accumulated, so memory is
    O(chunk*(n+m) + 8*n*m*k), flat in N.
    """
    moments = _stream(config, sampler, _generic_target(config))
    k_tilde = orthonormal_basis(moments.cross.sum(axis=0) / config.n_samples)
    kappa_hat = augmented_spatial_profile(k_tilde, config.n)
    x_tilde = _stationarity_gap(
        config, _constrained_fit(config, moments), _full_fit(config, moments)
    )
    measured = dict(
        kappa_hat=kappa_hat,
        stationarity_residual=_residual(k_tilde, x_tilde),
        stationarity_noise_floor=_noise_floor(moments, x_tilde),
    )

    if sampler is not None:
        return EmpiricalReport(
            kappa_theory=None,
            max_abs_dev=None,
            caveat="non-iid sampler: closed-form comparison refused",
            **measured,
        )
    if config.activation.kind != "pseudo_random":
        return EmpiricalReport(
            kappa_theory=None,
            max_abs_dev=None,
            caveat=(
                f"activation {config.activation.kind!r} has no closed-form "
                "spatial capacity; general-path measurement only"
            ),
            **measured,
        )
    theory = np.sum(config.p.matrix[:, list(config.param_selector)] ** 2, axis=1)
    kappa_theory = SpatialCapacity(theory)
    max_abs_dev = float(np.max(np.abs(kappa_hat.values - kappa_theory.values)))
    return EmpiricalReport(kappa_theory=kappa_theory, max_abs_dev=max_abs_dev, **measured)
