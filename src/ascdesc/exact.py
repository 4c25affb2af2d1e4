"""Exact matrices and canonical subspace algebra over the Gaussian rationals.

Subspaces are canonicalized by the reduced row-echelon form of a row
basis, so two subspaces are equal as sets exactly when their stored
bases are identical entry by entry.  Every operation here is exact;
floating-point counterparts live in :mod:`ascdesc.numeric`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from sympy.polys.domains import ZZ_I
from sympy.polys.matrices import DomainMatrix

from .gq import GQ, GaussianRational, as_gq, common_denominator, format_scalar, parse_scalar

Entryish = GaussianRational | Fraction | int

_ZERO = GQ(0)
_ONE = GQ(1)


class Matrix:
    """Immutable dense matrix with GaussianRational entries, row-major."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence[Entryish]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ent = tuple(as_gq(e) for e in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # construction helpers
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entryish]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Entryish] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [_ZERO] * (rows * cols))

    @classmethod
    def diag(cls, values: Sequence[Entryish]) -> "Matrix":
        n = len(values)
        flat = [_ZERO] * (n * n)
        for i, v in enumerate(values):
            flat[i * n + i] = as_gq(v)
        return cls(n, n, flat)

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[GaussianRational, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[GaussianRational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, factor: Entryish) -> "Matrix":
        f = as_gq(factor)
        return Matrix(self.rows, self.cols, [f * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        out = [_ZERO] * (n * m)
        oent = other.entries
        for i in range(n):
            base = i * k
            orow = i * m
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    ob = t * m
                    for j in range(m):
                        b = oent[ob + j]
                        if b:
                            out[orow + j] = out[orow + j] + a * b
        return Matrix(n, m, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        t = _ZERO
        for i in range(self.rows):
            t = t + self.at(i, i)
        return t

    def shifted(self, lam: Entryish) -> "Matrix":
        """A - lam*I for square A."""
        if not self.is_square:
            raise ValueError("shift requires a square matrix")
        lam = as_gq(lam)
        flat = list(self.entries)
        for i in range(self.rows):
            flat[i * self.cols + i] = flat[i * self.cols + i] - lam
        return Matrix(self.rows, self.cols, flat)

    def power(self, k: int) -> "Matrix":
        """A^k, entry k of this matrix's cached chain of powers."""
        if not self.is_square:
            raise ValueError("power requires a square matrix")
        if k < 0:
            raise ValueError("negative powers are not supported")
        return power_chain(self, k)[k]

    def apply(self, vector: Sequence[Entryish]) -> tuple[GaussianRational, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length must match column count")
        vec = [as_gq(v) for v in vector]
        out = []
        for i in range(self.rows):
            acc = _ZERO
            base = i * self.cols
            for j, v in enumerate(vec):
                if v:
                    e = self.entries[base + j]
                    if e:
                        acc = acc + e * v
            out.append(acc)
        return tuple(out)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ValueError("hstack requires equal row counts")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    return Matrix(a.rows, a.cols + b.cols, [v for row in rows for v in row])


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise ValueError("vstack requires equal column counts")
    return Matrix(a.rows + b.rows, a.cols, list(a.entries) + list(b.entries))


def block_diag(*blocks: Matrix) -> Matrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    flat = [_ZERO] * (rows * cols)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            base = (r0 + i) * cols + c0
            brow = b.row(i)
            for j in range(b.cols):
                flat[base + j] = brow[j]
        r0 += b.rows
        c0 += b.cols
    return Matrix(rows, cols, flat)


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns.

    The result is the unique RREF of ``a``; pivot columns are strictly
    increasing.
    """
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots: list[int] = []
    rank = 0
    for col in range(a.cols):
        piv = None
        for r in range(rank, a.rows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        if pv != _ONE:
            inv = _ONE / pv
            m[rank] = [v * inv if v else v for v in m[rank]]
        prow = m[rank]
        for r in range(a.rows):
            if r != rank:
                f = m[r][col]
                if f:
                    row = m[r]
                    m[r] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(col)
        rank += 1
    return Matrix(a.rows, a.cols, [v for row in m for v in row]), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


class Subspace:
    """A subspace of the ambient column space, held as a canonical row basis.

    The basis matrix is in reduced row-echelon form with no zero rows,
    so set equality coincides with entry-wise equality of bases.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width must equal the ambient dimension")
        reduced, pivots = rref(basis)
        if len(pivots) != basis.rows or reduced != basis:
            raise ValueError("basis rows must be a reduced row-echelon basis")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _canonical(cls, ambient_dim: int, basis: Matrix) -> "Subspace":
        """Wrap a basis that is reduced row-echelon by construction, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning_rows(
        cls, ambient_dim: int, rows: Iterable[Sequence[Entryish]]
    ) -> "Subspace":
        row_list = [list(r) for r in rows]
        if not row_list:
            return cls.zero(ambient_dim)
        span = Matrix.from_rows(row_list)
        if span.cols != ambient_dim:
            raise ValueError("spanning rows must have the ambient dimension")
        reduced, pivots = rref(span)
        basis = Matrix(len(pivots), ambient_dim, reduced.entries[: len(pivots) * ambient_dim])
        return cls._canonical(ambient_dim, basis)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, Matrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> list[tuple[GaussianRational, ...]]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains_vector(self, vector: Sequence[Entryish]) -> bool:
        vec = [as_gq(v) for v in vector]
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length must match the ambient dimension")
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            # eliminate using the pivot of this basis row
            piv = next(j for j, v in enumerate(row) if v)
            f = vec[piv]
            if f:
                vec = [x - f * y if y else x for x, y in zip(vec, row)]
        return not any(vec)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(r) for r in other.basis_rows())

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


def kernel_basis(a: Matrix) -> Subspace:
    """Canonical basis of the null space {x : Ax = 0}."""
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [j for j in range(a.cols) if j not in pivot_set]
    rows = []
    for f in free_cols:
        vec = [_ZERO] * a.cols
        vec[f] = _ONE
        for r, p in enumerate(pivots):
            coef = reduced.at(r, f)
            if coef:
                vec[p] = -coef
        rows.append(vec)
    return Subspace.from_spanning_rows(a.cols, rows)


def image_basis(a: Matrix) -> Subspace:
    """Canonical basis of the column space of A."""
    return Subspace.from_spanning_rows(
        a.rows, [a.col(j) for j in range(a.cols)]
    )


def subspace_sum(y: Subspace, z: Subspace) -> Subspace:
    y._check_ambient(z)
    return Subspace.from_spanning_rows(
        y.ambient_dim, y.basis_rows() + z.basis_rows()
    )


def annihilator(y: Subspace) -> Subspace:
    """Vectors x with b . x = 0 for every basis row b (no conjugation).

    The pairing is the plain bilinear dot product, which is
    non-degenerate over the Gaussian rationals, so dim + codim adds up
    and the double annihilator recovers the original subspace.
    """
    return kernel_basis(y.basis) if y.dim else Subspace.full(y.ambient_dim)


def subspace_intersection(y: Subspace, z: Subspace) -> Subspace:
    """Intersection via the kernel of stacked annihilator constraints."""
    y._check_ambient(z)
    if y.is_full():
        return z
    if z.is_full():
        return y
    ya = annihilator(y)
    za = annihilator(z)
    constraints = vstack(ya.basis, za.basis)
    return kernel_basis(constraints)


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff pairwise intersections are trivial and dimensions add up."""
    if not parts:
        return True
    ambient = parts[0].ambient_dim
    for p in parts[1:]:
        if p.ambient_dim != ambient:
            raise ValueError("ambient mismatch among direct-sum parts")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not subspace_intersection(parts[i], parts[j]).is_zero():
                return False
    total = Subspace.zero(ambient)
    for p in parts:
        total = subspace_sum(total, p)
    return total.dim == sum(p.dim for p in parts)


def codim(y: Subspace) -> int:
    return y.ambient_dim - y.dim


def char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Coefficients of det(xI - A), ascending by power, leading term 1.

    With D the common denominator of the entries, B = D*A is converted
    once to a sympy ``DomainMatrix`` over the Gaussian integers ``ZZ_I``,
    whose ``charpoly`` runs the division-free Berkowitz algorithm
    (Berkowitz 1984).  det(xI - A) = det(Dx I - B) / D^n, so the
    coefficient of x^k is that of B divided by D^(n-k), exactly.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = a.rows
    den = common_denominator(a.entries)
    rows = [
        [ZZ_I(v.re_num * (den // v.re_den), v.im_num * (den // v.im_den)) for v in a.row(i)]
        for i in range(n)
    ]
    coeffs = DomainMatrix(rows, (n, n), ZZ_I).charpoly()
    return tuple(
        GQ(Fraction(int(c.x), den ** (n - k)), Fraction(int(c.y), den ** (n - k)))
        for k, c in enumerate(reversed(coeffs))
    )


def poly_of_matrix(coeffs: Sequence[Entryish], a: Matrix) -> Matrix:
    """Evaluate a coefficient list (ascending powers) at a square matrix."""
    if not a.is_square:
        raise ValueError("polynomial evaluation requires a square matrix")
    n = a.rows
    acc = Matrix.zeros(n, n)
    for c in reversed(list(coeffs)):
        acc = acc @ a + Matrix.identity(n).scale(c)
    return acc


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B for A with full column rank; raises if inconsistent."""
    aug, pivots = rref(hstack(a, b))
    if len(pivots) < a.cols or any(p >= a.cols for p in pivots[: a.cols]):
        raise ValueError("coefficient matrix does not have full column rank")
    for i in range(a.cols, a.rows):
        if any(aug.at(i, j) for j in range(a.cols, a.cols + b.cols)):
            raise ValueError("inconsistent linear system")
    return Matrix(
        a.cols,
        b.cols,
        [aug.at(i, a.cols + j) for i in range(a.cols) for j in range(b.cols)],
    )


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix."""
    if not a.is_square:
        raise ValueError("inverse requires a square matrix")
    return solve_exact(a, Matrix.identity(a.rows))


# ---------------------------------------------------------------------------
# JSON interchange


def matrix_to_obj(a: Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "field": "gq",
        "entries": [
            [format_scalar(v) for v in a.row(i)] for i in range(a.rows)
        ],
    }


def json_integer(value, what: str) -> int:
    """value as an int; only a JSON integer counts, not true, 2.5 or "2"."""
    if type(value) is not int:  # bool is an int subclass
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """value itself if it is a JSON object; ``what`` names it in the error."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_array(value, what: str) -> list:
    """value itself if it is a JSON array; a string is not read as one."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def matrix_from_obj(obj: dict) -> Matrix:
    try:
        rows = json_integer(obj["rows"], "rows")
        cols = json_integer(obj["cols"], "cols")
        field = obj.get("field", "gq")
        raw = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if field != "gq":
        raise ValueError(f"expected field 'gq', got {field!r}")
    if len(raw) != rows or any(len(r) != cols for r in raw):
        raise ValueError("entry grid does not match rows x cols")
    flat = [parse_scalar(str(v)) for row in raw for v in row]
    return Matrix(rows, cols, flat)


@lru_cache(maxsize=128)
def _powers(a: Matrix) -> list[Matrix]:
    """The growable chain [A^0, A^1, ...] of one matrix, keyed by A alone.

    Memory is bounded by the cache: at most ``maxsize`` chains are held,
    and each is only as long as the largest exponent asked of its matrix.
    Growing appends to a list shared by every caller, so this is not
    thread-safe.
    """
    return [Matrix.identity(a.rows)]


def power_chain(a: Matrix, top: int) -> tuple[Matrix, ...]:
    """Powers A^0 .. A^top, grown on demand in A's cached chain."""
    chain = _powers(a)
    while len(chain) <= top:
        chain.append(chain[-1] @ a)
    return tuple(chain[: top + 1])


@lru_cache(maxsize=4096)
def cached_kernel(a: Matrix) -> Subspace:
    return kernel_basis(a)


@lru_cache(maxsize=4096)
def cached_image(a: Matrix) -> Subspace:
    return image_basis(a)
