"""Floating-point backend for norm-dependent quantities.

Everything norm-related (one-sided and two-sided gaps between subspaces,
reduced minimum modulus) is computed here with SVD-based numerical rank.
Exact objects are converted on the way in; results are plain floats.
All norms are Euclidean/spectral.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .exact import Matrix, Subspace, json_array, json_integer

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for numerical rank and empirical convergence calls.

    rank_rel: singular values below rank_rel * sigma_max count as zero;
        finite, in (0, 1), since at 1 or above every rank reads 0.
    conv_tol: a delta tail below this reads as converged; finite and > 0.
    """

    rank_rel: float = 1e-9
    conv_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.rank_rel < 1:  # also rejects nan
            raise ValueError(f"rank tolerance must lie in (0, 1), got {self.rank_rel!r}")
        if not 0 < self.conv_tol < math.inf:
            raise ValueError(f"convergence tolerance must be finite and > 0, got {self.conv_tol!r}")


DEFAULT_TOL = Tolerance()


class FloatSubspace:
    """Subspace given by a column-orthonormal basis matrix.

    An optional `complement` is an orthonormal basis of the orthogonal
    complement, so that [basis complement] is unitary; `delta` then reads
    gaps into this subspace from it without a further factorization.
    """

    __slots__ = ("ambient_dim", "ortho_basis", "complement")

    def __init__(
        self, ambient_dim: int, ortho_basis: np.ndarray, complement: np.ndarray | None = None
    ):
        q = np.asarray(ortho_basis)
        if q.ndim != 2 or q.shape[0] != ambient_dim:
            raise ValueError("basis must be an ambient_dim x k array")
        columns = q
        if complement is not None:
            complement = np.asarray(complement)
            if complement.shape != (ambient_dim, ambient_dim - q.shape[1]):
                raise ValueError("complement must be an ambient_dim x (ambient_dim - k) array")
            columns = np.hstack((q, complement))
        k = columns.shape[1]
        if k:
            gram = columns.conj().T @ columns
            if np.linalg.norm(gram - np.eye(k)) > _ORTHO_TOL * max(1, k):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "ortho_basis", q)
        object.__setattr__(self, "complement", complement)

    def __setattr__(self, name, value):
        raise AttributeError("FloatSubspace is immutable")

    @property
    def dim(self) -> int:
        return self.ortho_basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "FloatSubspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    def __repr__(self) -> str:
        return f"FloatSubspace(dim {self.dim} of {self.ambient_dim})"


def matrix_to_array(a: Matrix) -> np.ndarray:
    """A as floats, read from the integer rows of D*A.

    int / int is correctly rounded, so each entry is float(Fraction(x, D)).
    """
    is_complex = any(y for row in a.int_rows for _, y in row.values())
    out = np.zeros((a.rows, a.cols), dtype=np.complex128 if is_complex else np.float64)
    den = a.den
    for i, row in enumerate(a.int_rows):
        for j, (x, y) in row.items():
            out[i, j] = complex(x / den, y / den) if is_complex else x / den
    return out


def array_from_obj(obj: dict) -> np.ndarray:
    """Float matrix from the shared JSON shape with field "f64"."""
    try:
        rows = json_integer(obj["rows"], "rows")
        cols = json_integer(obj["cols"], "cols")
        field = obj.get("field", "f64")
        raw = json_array(obj["entries"], "entries")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if field != "f64":
        raise ValueError(f"expected field 'f64', got {field!r}")
    if len(raw) != rows or any(len(json_array(r, "entries row")) != cols for r in raw):
        raise ValueError("entry grid does not match rows x cols")
    if not set(map(type, chain.from_iterable(raw))) <= {int, float}:  # bool is an int subclass
        bad = next(v for row in raw for v in row if type(v) not in (int, float))
        raise ValueError(f"f64 entries must be JSON numbers, got {bad!r}")
    try:
        a = np.array(raw, dtype=np.float64).reshape(rows, cols)  # 0 rows stay 0 x cols
    except OverflowError as exc:
        raise ValueError(f"f64 entries must be numbers: {exc}") from exc
    if not np.isfinite(a).all():
        raise ValueError("f64 entries must be finite")
    return a


def array_to_obj(a: np.ndarray) -> dict:
    a = np.asarray(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "field": "f64",
        "entries": a.real.astype(float, copy=False).tolist(),
    }


def subspace_to_float(s: Subspace) -> FloatSubspace:
    if s.dim == 0:
        return FloatSubspace.zero(s.ambient_dim)
    rows = matrix_to_array(s.basis)
    q, _ = np.linalg.qr(rows.conj().T)
    return FloatSubspace(s.ambient_dim, q[:, : s.dim])


def orthonormalize_rows(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> FloatSubspace:
    """Span of the given row vectors as a FloatSubspace (rank-truncated)."""
    a = np.atleast_2d(np.asarray(rows))
    ambient_dim = a.shape[1]
    if a.shape[0] == 0:
        return FloatSubspace.zero(ambient_dim)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = _rank_from_singulars(s, tol)
    return FloatSubspace(ambient_dim, vh[:r].conj().T)


def _rank_from_singulars(s: np.ndarray, tol: Tolerance) -> int:
    if s.size == 0:
        return 0
    cutoff = tol.rank_rel * float(s[0])
    return int(np.sum(s > cutoff))


def svd_views(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[int, FloatSubspace, FloatSubspace, float]:
    """Rank, kernel, image and reduced minimum modulus from one SVD.

    The kernel and image come back as orthonormal bases, each with its
    orthogonal complement from the same full U and V (the row space for
    the kernel, the cokernel for the image); gamma is the smallest
    singular value above the rank cut (infinity for rank 0).
    """
    a = np.asarray(a)
    u, s, vh = np.linalg.svd(a)
    r = _rank_from_singulars(s, tol)
    modulus = float(s[r - 1]) if r else math.inf
    v = vh.conj().T
    kernel = FloatSubspace(a.shape[1], v[:, r:], v[:, :r])
    return r, kernel, FloatSubspace(a.shape[0], u[:, :r], u[:, r:]), modulus


def gamma(a: np.ndarray | Matrix, tol: Tolerance = DEFAULT_TOL) -> float:
    """Reduced minimum modulus: smallest singular value above the rank cut.

    For a matrix this equals inf ||Tx|| over x at unit distance from the
    null space.  The zero operator maps to infinity by convention.
    """
    if isinstance(a, Matrix):
        a = matrix_to_array(a)
    a = np.asarray(a)
    if a.size == 0:
        return math.inf
    s = np.linalg.svd(a, compute_uv=False)
    r = _rank_from_singulars(s, tol)
    if r == 0:
        return math.inf
    return float(s[r - 1])


def delta(y: FloatSubspace, z: FloatSubspace) -> float:
    """One-sided gap sup_{x in Y, |x|<=1} dist(x, Z), in [0, 1].

    The supremum over the closed unit ball of the zero subspace is 0.  If
    dim Y > dim Z, Y meets the orthogonal complement of Z and the gap is
    exactly 1 (Kato, Perturbation Theory for Linear Operators, IV 2.1).
    Otherwise it is the largest singular value of Z_perp^H Q_Y when Z
    carries its complement (0 when Z is the whole space), and of the
    residual (I - P_Z) Q_Y when it does not.
    """
    if y.ambient_dim != z.ambient_dim:
        raise ValueError(f"ambient mismatch: {y.ambient_dim} vs {z.ambient_dim}")
    if y.dim == 0:
        return 0.0
    if y.dim > z.dim:
        return 1.0
    qy = y.ortho_basis
    if z.complement is not None:
        if z.complement.shape[1] == 0:
            return 0.0
        m = z.complement.conj().T @ qy
    else:
        qz = z.ortho_basis
        m = qy - qz @ (qz.conj().T @ qy)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def gap(y: FloatSubspace, z: FloatSubspace) -> float:
    """Symmetric gap max(delta(Y,Z), delta(Z,Y))."""
    return max(delta(y, z), delta(z, y))
