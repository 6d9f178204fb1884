"""Linear-algebra core: orthonormal capacity bases, subspace capacities, spatial profiles.

A capacity basis is a matrix with orthonormal columns spanning the directions
of the input (or feature) space that a model's parameters constrain.  The
capacity allocated to a subspace is the squared Frobenius norm of the basis
projected onto that subspace; summed over an orthonormal partition of the
ambient space it recovers the number of independent parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values below this fraction of the largest count as zero.
_RANK_TOL = 1e-10
# Asymmetry and negative eigenvalues below this fraction of the norm are rounding.
_PSD_TOL = 1e-8
# Most a projection column's norm may differ from 1, with no relative slack.
_UNIT_NORM_TOL = 1e-12

__all__ = [
    "CovarianceMatrix",
    "ProjectionMatrix",
    "CapacityBasis",
    "SpatialCapacity",
    "orthonormal_basis",
    "capacity_of_subspace",
    "spatial_profile",
]


def _as_matrix(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive semi-definite second-moment matrix of the inputs."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_matrix(self.entries, "covariance")
        if entries.shape[0] != entries.shape[1]:
            raise ValueError(f"covariance must be square, got {entries.shape}")
        if not np.allclose(entries, entries.T, atol=_PSD_TOL * max(1.0, _specnorm(entries))):
            raise ValueError("covariance must be symmetric")
        entries = 0.5 * (entries + entries.T)
        scale = _specnorm(entries)
        if scale > 0:
            lo = np.linalg.eigvalsh(entries)[0]
            if lo < -_PSD_TOL * scale:
                raise ValueError(f"covariance is not PSD (min eigenvalue {lo:.3e})")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _specnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _column_norms(matrix: np.ndarray) -> np.ndarray:
    """Column norms of a finite projection matrix.

    Refuses a zero column, and a non-zero one whose squared norm overflows or
    underflows a float, which would read as a norm of inf or 0.
    """
    # refused before the norms, 8 bytes a column, and the column keys, one of 8 bytes a row
    for size, axis in zip(matrix.shape, ("rows", "columns")):
        if not size:
            raise ValueError(f"projection has no {axis}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=0)
    bad = np.flatnonzero((norms == 0) | np.isinf(norms))
    if bad.size:
        j = int(bad[0])
        if not matrix[:, j].any():
            raise ValueError(f"projection has a zero column at index {j}")
        flow = "overflows" if norms[j] else "underflows"
        raise ValueError(f"projection column {j} has a squared norm that {flow} a float")
    return norms


def _keyed_columns(matrix: np.ndarray) -> tuple[np.ndarray, list]:
    """Each column as a row of its own with -0.0 made 0.0, and each row's bytes.

    Two finite columns have equal keys exactly when they are equal.
    """
    rows = matrix.T.copy()
    rows += 0.0
    return rows, rows.view(f"V{8 * rows.shape[1]}").ravel().tolist()


@dataclass(frozen=True)
class ProjectionMatrix:
    """First-layer weights: columns are the distinct, unit-norm projection vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _as_matrix(self.matrix, "projection")
        norms = _column_norms(matrix)
        deviation = np.abs(norms - 1.0)
        if deviation.size and deviation.max() > _UNIT_NORM_TOL:
            bad = int(np.argmax(deviation))
            raise ValueError(
                f"projection columns must have unit norm; column {bad} has norm {norms[bad]!r}"
            )
        keys = _keyed_columns(matrix)[1]
        if len(set(keys)) < len(keys):
            # groups keep the order of their first column, so the first group
            # of two starts at the lowest column that has a later equal one
            groups = {}
            for j, key in enumerate(keys):
                groups.setdefault(key, []).append(j)
            i, k = next(g[:2] for g in groups.values() if len(g) > 1)
            raise ValueError(f"projection columns {i} and {k} are identical")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_raw(cls, matrix) -> "ProjectionMatrix":
        """Build from raw weights, normalizing each column to unit length."""
        matrix = _as_matrix(matrix, "projection")
        norms = _column_norms(matrix)
        return cls(matrix / norms)


@dataclass(frozen=True)
class CapacityBasis:
    """Orthonormal columns spanning the constrained directions of an ambient space."""

    columns: np.ndarray

    def __post_init__(self):
        columns = _as_matrix(self.columns, "capacity basis")
        n, r = columns.shape
        if r > n:
            raise ValueError(f"rank {r} exceeds ambient dimension {n}")
        gram = columns.T @ columns
        if not np.allclose(gram, np.eye(r), atol=1e-10):
            raise ValueError("capacity basis columns are not orthonormal")
        object.__setattr__(self, "columns", columns)

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def _check_capacity_values(values: np.ndarray) -> None:
    """Refuse capacity entries that are non-finite or below -1e-10, in an array of any shape.

    NaN propagates through min and max, so the two reductions see every
    non-finite entry without an array-sized temporary.
    """
    if not values.size:
        return
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("spatial capacity contains non-finite entries")
    if lo < -1e-10:
        raise ValueError(f"spatial capacity has negative entry {lo:.3e}")


@dataclass(frozen=True)
class SpatialCapacity:
    """Non-negative capacity mass per spatial coordinate (dimensionless counts)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"spatial capacity must be a vector, got shape {values.shape}")
        _check_capacity_values(values)
        with np.errstate(over="ignore"):
            if not np.isfinite(values.sum()):
                raise ValueError("spatial capacity total overflows")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def total(self) -> float:
        return float(self.values.sum())

    @classmethod
    def dirac(cls, n: int, index: int) -> "SpatialCapacity":
        if not 0 <= index < n:
            raise ValueError(f"dirac index {index} out of range [0, {n})")
        v = np.zeros(n)
        v[index] = 1.0
        return cls(v)


def orthonormal_basis(matrix) -> CapacityBasis:
    """Orthonormal basis of the column space of ``matrix`` via rank-revealing SVD.

    Singular values below ``1e-10 * sigma_max`` are treated as zero.  An all-zero
    matrix yields an empty (rank-0) basis rather than an error, so degenerate
    layers keep total-capacity bookkeeping consistent.

    The columns are given one sign and one order before the SVD, so reordering
    or negating them returns the same basis bit for bit.  Otherwise the SVD's
    rounding would follow the column order, and on an ill-conditioned matrix
    that moves the span by about ``eps * cond``.
    """
    matrix = _as_matrix(matrix, "matrix")
    if matrix.size == 0 or not np.any(matrix):
        return CapacityBasis(np.zeros((matrix.shape[0], 0)))
    # each column's largest-magnitude entry made positive, then the columns sorted
    # by their keys: exact, and blind to column position
    lead = matrix[np.argmax(np.abs(matrix), axis=0), np.arange(matrix.shape[1])]
    rows, keys = _keyed_columns(matrix * np.where(lead < 0, -1.0, 1.0))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    u, s, _ = np.linalg.svd(rows[order].T, full_matrices=False)
    rank = int(np.sum(s > _RANK_TOL * s[0]))
    return CapacityBasis(u[:, :rank])


def capacity_of_subspace(basis: CapacityBasis, selector: CapacityBasis) -> float:
    """Capacity allocated to the subspace spanned by ``selector``: ``||K^T S||_F^2``.

    This is the paper's definition of subspace capacity.  It depends on the
    spans of K and S only, not on the bases chosen for them.
    """
    if basis.ambient_dim != selector.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: basis {basis.ambient_dim}, selector {selector.ambient_dim}"
        )
    return float(np.sum((basis.columns.T @ selector.columns) ** 2))


def spatial_profile(basis: CapacityBasis) -> SpatialCapacity:
    """Per-coordinate capacities; they sum to the basis rank.

    Entry i is the paper's subspace capacity of coordinate axis i,
    ``capacity_of_subspace(basis, e_i)``, so it depends on the span of the
    basis only.
    """
    values = np.sum(basis.columns**2, axis=1)
    return SpatialCapacity(values)
