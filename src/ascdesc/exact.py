"""Exact matrices and canonical subspace algebra over the Gaussian rationals.

A matrix A is held as D, the least positive integer making D*A a
Gaussian-integer matrix, and the sparse rows of D*A, which have the same
kernel, image and rank.  Equal matrices hold identical integers, and
products, sums, shifts and transposes work on them.  JSON matrices are
read and written as these rows too: each literal's integer parts go
straight into the rows of D*A, and each entry is printed from its
integers over D, so ``Fraction``s are made only when ``entries`` or a
subspace's ``basis`` are read.  One
elimination kernel serves ``rank``, ``rref``, kernels and images, keeping
each pivot row as the unique representative of its line over Q(i):
positive integer pivot, coprime components.  A subspace is held as the
canonical rows of its reduced row-echelon basis, so subspaces are equal
exactly when their rows are.  The sum and the intersection of two
subspaces come from one elimination (Zassenhaus's algorithm), and a sum
is direct exactly when the dimensions add up.  Each square matrix caches
one left-kernel chain, built from left Jordan chains: one elimination of
A's tagged rows gives LN(A) = {y : yA = 0}, then one reduction per
vector of LN(A^k) gives the new vectors of LN(A^(k+1)), until a step
finds none.  :func:`ascdesc.chains.chain_report` and :func:`power_rank`
read its lengths, :func:`power_image` reads R(A^k) as the annihilator of
LN(A^k), and :func:`power_kernel` reads N(A^k) = LN((A^T)^k) from the
chain of the transpose; no power A^k is formed as a matrix, and a
d x d chain holds at most d vectors.  Floating-point counterparts live
in :mod:`ascdesc.numeric`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, inf, lcm
from typing import Iterable, Sequence

# Nothing in the package calls sympy.  It is still imported at load
# because ascbench/run.py:import_layers takes the median of sympy's
# -X importtime line and fails when there is none; ROADMAP item 1a makes
# it read an absent module as 0 s, and then this import goes.
import sympy  # noqa: F401

from .gq import (
    GQ,
    GaussianRational,
    as_gq,
    cleared,
    common_denominator,
    format_parts,
    format_scalar,
    parse_parts,
)

Entryish = GaussianRational | Fraction | int

_ZERO = GQ(0)


class Matrix:
    """Immutable matrix over the Gaussian rationals, held as D and the rows of D*A.

    D is the least positive integer for which D*A has Gaussian-integer
    entries, and ``int_rows[i]`` maps each column to the nonzero (re, im)
    of row i of D*A.  So equal matrices hold identical integers, and
    equality and hashing compare those.  The ``GaussianRational`` entries
    are built on first read.
    """

    __slots__ = ("rows", "cols", "den", "int_rows", "_entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence[Entryish]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ent = tuple(as_gq(e) for e in entries)
        if len(ent) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ent)}")
        den = common_denominator(ent)
        int_rows = tuple(
            {j: cleared(v, den) for j, v in enumerate(ent[i * cols : (i + 1) * cols]) if v}
            for i in range(rows)
        )
        self._set(rows, cols, den, int_rows, ent)

    @classmethod
    def from_integer_rows(cls, cols: int, den: int, int_rows: Sequence[Row]) -> "Matrix":
        """The matrix whose row i is int_rows[i] / den, for den > 0.

        The rows hold nonzero Gaussian integers only, and are not copied.
        D is made minimal by dividing out the gcd of den and every
        component.
        """
        if den != 1:
            components = chain.from_iterable(chain.from_iterable(map(dict.values, int_rows)))
            g = gcd(den, *components)
            if g != 1:
                den //= g
                int_rows = [{j: (x // g, y // g) for j, (x, y) in row.items()} for row in int_rows]
        self = object.__new__(cls)
        self._set(len(int_rows), cols, den, tuple(int_rows), None)
        return self

    def _set(self, rows: int, cols: int, den: int, int_rows: tuple, entries) -> None:
        """Fill the slots; the hash is computed on first use."""
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "cols", cols)
        setattr_(self, "den", den)
        setattr_(self, "int_rows", int_rows)
        setattr_(self, "_entries", entries)
        setattr_(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # construction helpers
    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entryish]]) -> "Matrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), c, [v for row in rows for v in row])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_integer_rows(n, 1, [{i: (1, 0)} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_integer_rows(cols, 1, [{}] * rows)

    @classmethod
    def diag(cls, values: Sequence[Entryish]) -> "Matrix":
        n = len(values)
        return cls(n, n, [values[i] if i == j else _ZERO for i in range(n) for j in range(n)])

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """The entries, row-major, built from the integer rows on first read."""
        if self._entries is None:
            flat = [_ZERO] * (self.rows * self.cols)
            for i, row in enumerate(self.int_rows):
                for j, (x, y) in row.items():
                    flat[i * self.cols + j] = GQ(Fraction(x, self.den), Fraction(y, self.den))
            object.__setattr__(self, "_entries", tuple(flat))
        return self._entries

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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
            and self.den == other.den
            and self.int_rows == other.int_rows
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            rows = tuple(frozenset(row.items()) for row in self.int_rows)
            h = hash((self.cols, self.den, rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_scalar(v) for v in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        out = []
        for row, other_row in zip(_rows_over(self, den), _rows_over(other, den)):
            row = dict(row)
            for j, (x, y) in other_row.items():
                u, v = row.get(j, (0, 0))
                if u + x or v + y:
                    row[j] = (u + x, v + y)
                else:
                    del row[j]
            out.append(row)
        return Matrix.from_integer_rows(self.cols, den, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, factor: Entryish) -> "Matrix":
        f = as_gq(factor)
        if not f:
            return Matrix.zeros(self.rows, self.cols)
        f_den = common_denominator((f,))
        a, b = cleared(f, f_den)
        rows = [{j: (a * x - b * y, a * y + b * x) for j, (x, y) in row.items()}
                for row in self.int_rows]
        return Matrix.from_integer_rows(self.cols, self.den * f_den, rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        products = [row_times(row, other.int_rows) for row in self.int_rows]
        return Matrix.from_integer_rows(other.cols, self.den * other.den, products)

    def transpose(self) -> "Matrix":
        columns: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.int_rows):
            for j, v in row.items():
                columns[j][i] = v
        return Matrix.from_integer_rows(self.rows, self.den, columns)

    def shifted(self, lam: Entryish) -> "Matrix":
        """A - lam*I for square A."""
        if not self.is_square:
            raise ValueError("shift requires a square matrix")
        lam = as_gq(lam)
        den = lcm(self.den, common_denominator((lam,)))
        a, b = cleared(lam, den)
        rows = []
        for i, row in enumerate(_rows_over(self, den)):
            row = dict(row)
            u, v = row.get(i, (0, 0))
            if u - a or v - b:
                row[i] = (u - a, v - b)
            else:
                row.pop(i, None)
            rows.append(row)
        return Matrix.from_integer_rows(self.cols, den, rows)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _times(row: Row, p: int) -> Row:
    return {j: (p * x, p * y) for j, (x, y) in row.items()}


def _rows_over(a: Matrix, den: int) -> Sequence[Row]:
    """The integer rows of den*A; den must be a multiple of A's D."""
    p = den // a.den
    return a.int_rows if p == 1 else [_times(row, p) for row in a.int_rows]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ValueError("hstack requires equal row counts")
    den = lcm(a.den, b.den)
    rows = [{**left, **{j + a.cols: v for j, v in right.items()}}
            for left, right in zip(_rows_over(a, den), _rows_over(b, den))]
    return Matrix.from_integer_rows(a.cols + b.cols, den, rows)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise ValueError("vstack requires equal column counts")
    den = lcm(a.den, b.den)
    return Matrix.from_integer_rows(a.cols, den, [*_rows_over(a, den), *_rows_over(b, den)])


def block_diag(*blocks: Matrix) -> Matrix:
    den = lcm(*(b.den for b in blocks))
    rows: list[Row] = []
    c0 = 0
    for b in blocks:
        rows += [{j + c0: v for j, v in row.items()} for row in _rows_over(b, den)]
        c0 += b.cols
    return Matrix.from_integer_rows(c0, den, rows)


# ---------------------------------------------------------------------------
# Elimination: sparse Gaussian-integer rows in canonical form
#
# A Row maps a column to the nonzero Gaussian integer (re, im) there.
# The canonical representative of a line is unique, so a pivot row's
# entries are as small as its line allows, whatever order the rows were
# reduced in; without it, entries grow with every elimination step.

Row = dict[int, tuple[int, int]]


def _rref_matrix(rows: list[Row], n_rows: int, cols: int) -> Matrix:
    """Canonical reduced rows, each divided by its pivot, zero-padded to n_rows rows."""
    pivots = [row[min(row)][0] for row in rows]
    den = lcm(*pivots)
    scaled = [_times(row, den // p) for row, p in zip(rows, pivots)]
    return Matrix.from_integer_rows(cols, den, scaled + [{}] * (n_rows - len(rows)))


def _primitive(row: Row) -> Row:
    """row divided by the gcd of its integer components."""
    g = gcd(*chain.from_iterable(row.values()))
    if g != 1:
        row = {j: (x // g, y // g) for j, (x, y) in row.items()}
    return row


def _canonical(row: Row) -> Row:
    """The canonical representative of row's line; row must be nonzero."""
    a, b = row[min(row)]
    if b:  # times conj(lead): the leading entry becomes a*a + b*b > 0
        row = {j: (x * a + y * b, y * a - x * b) for j, (x, y) in row.items()}
    elif a < 0:
        row = {j: (-x, -y) for j, (x, y) in row.items()}
    return _primitive(row)


def _reduce(row: Row, pivot_row: Row, col: int) -> Row:
    """P*row - row[col]*pivot_row, which is zero at col; P = pivot_row[col] > 0."""
    p = pivot_row[col][0]
    a, b = row[col]
    out = dict(row) if p == 1 else {j: (p * x, p * y) for j, (x, y) in row.items()}
    for j, (x, y) in pivot_row.items():
        u, v = out.get(j, (0, 0))
        u -= a * x - b * y
        v -= a * y + b * x
        if u or v:
            out[j] = (u, v)
        else:
            del out[j]
    return out


def _reduce_below(pivots: dict[int, Row], row: Row, width: float) -> Row | None:
    """Reduce row against the pivot rows while it leads in a column below width.

    A row that comes to lead in a new such column joins the pivots, and
    None is returned; otherwise the reduced row, zero in every column below
    width, is returned.
    """
    while row:
        col = min(row)
        if col >= width:
            break
        pivot_row = pivots.get(col)
        if pivot_row is None:
            pivots[col] = _canonical(row)
            return None
        row = _reduce(row, pivot_row, col)
        if row:
            row = _primitive(row)
    return row


def extend_echelon(pivots: dict[int, Row], row: Row) -> bool:
    """Reduce row against the pivot rows; keep it if it leads in a new column.

    ``pivots`` maps each pivot column to its canonical pivot row.  Returns
    whether the row was independent of them, that is, whether it was added.
    """
    return _reduce_below(pivots, row, inf) is None


def echelon(rows: Iterable[Row]) -> list[Row]:
    """Canonical echelon basis of the rows' span, by increasing pivot column.

    The forward pass of Gaussian elimination: each row is reduced at its
    leading column by the pivot row found there, until it vanishes or
    leads in a new column.  The count of rows returned is the rank.  A
    row is divided by its content after each step and made canonical
    once, when it becomes a pivot row.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        extend_echelon(pivots, row)
    return [pivots[c] for c in sorted(pivots)]


def reduced_echelon(rows: list[Row]) -> list[Row]:
    """Back-substitution: the canonical rows of the reduced row-echelon form.

    ``rows`` is an echelon basis as :func:`echelon` returns it.  Row k
    clears its pivot column from every row above it, bottom up, so each
    row is zero in every pivot column but its own.
    """
    rows = list(rows)
    for k in range(len(rows) - 1, 0, -1):
        pivot_row = rows[k]
        col = min(pivot_row)
        for i in range(k):
            if col in rows[i]:
                # the positive lead of row i is only scaled by P > 0
                rows[i] = _primitive(_reduce(rows[i], pivot_row, col))
    return rows


def row_times(row: Row, rows: Sequence[Row]) -> Row:
    """The row vector times the matrix whose sparse rows are ``rows``."""
    out: dict[int, tuple[int, int]] = {}
    for t, (a, b) in row.items():
        for j, (x, y) in rows[t].items():
            u, v = out.get(j, (0, 0))
            out[j] = (u + a * x - b * y, v + a * y + b * x)
    return {j: uv for j, uv in out.items() if uv != (0, 0)}


def _rref_rows(a: Matrix) -> list[Row]:
    """The canonical rows of A's reduced row-echelon form, zero rows dropped."""
    return reduced_echelon(echelon(a.int_rows))


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns.

    The result is the unique RREF of ``a``; pivot columns are strictly
    increasing.  Each canonical row divided by its pivot P is a row of it.
    """
    rows = _rref_rows(a)
    return _rref_matrix(rows, a.rows, a.cols), tuple(min(row) for row in rows)


def rank(a: Matrix) -> int:
    return len(echelon(a.int_rows))


def is_invertible(a: Matrix) -> bool:
    """Whether the square matrix A has full rank.

    A zero row or column decides it without elimination.
    """
    rows = a.int_rows
    if not all(rows) or len(set(chain.from_iterable(rows))) < a.cols:
        return False
    return rank(a) == a.rows


class Subspace:
    """A subspace of the ambient column space, held as canonical integer rows.

    ``rows`` are the canonical rows of the reduced row-echelon basis, so
    set equality coincides with equality of rows.  The basis matrix is
    built from them on first use.
    """

    __slots__ = ("ambient_dim", "rows", "_basis")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width must equal the ambient dimension")
        rows = _rref_rows(basis)
        if len(rows) != basis.rows or _rref_matrix(rows, basis.rows, ambient_dim) != basis:
            raise ValueError("basis rows must be a reduced row-echelon basis")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_basis", basis)

    @classmethod
    def _from_rows(cls, ambient_dim: int, rows: tuple[Row, ...]) -> "Subspace":
        """Wrap rows that are canonical and reduced by construction, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_basis", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rows(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rows(ambient_dim, tuple({i: (1, 0)} for i in range(ambient_dim)))

    @property
    def basis(self) -> Matrix:
        """The reduced row-echelon basis, one row per dimension."""
        if self._basis is None:
            object.__setattr__(self, "_basis", _rref_matrix(self.rows, self.dim, self.ambient_dim))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        pivots = {min(row): row for row in self.rows}
        return not any(extend_echelon(pivots, row) for row in other.rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


def integer_span(ambient_dim: int, rows: Iterable[Row]) -> Subspace:
    """The subspace spanned by sparse Gaussian-integer rows."""
    return Subspace._from_rows(ambient_dim, tuple(reduced_echelon(echelon(rows))))


def _null_space(reduced: Sequence[Row], cols: int) -> Subspace:
    """N(M), M a matrix with ``cols`` columns and canonical reduced rows ``reduced``.

    With L the lcm of the pivots of the rows, free column f contributes
    the integer vector L*e_f - sum over pivot rows R of
    (L/P_R) * R[f] * e_pivot(R).
    """
    lead = {min(row): row for row in reduced}
    scale = lcm(*(row[c][0] for c, row in lead.items()))
    vectors = []
    for f in range(cols):
        if f in lead:
            continue
        vec = {f: (scale, 0)}
        for c, row in lead.items():
            if f in row:
                x, y = row[f]
                q = scale // row[c][0]
                vec[c] = (-x * q, -y * q)
        vectors.append(vec)
    return integer_span(cols, vectors)


def kernel_basis(a: Matrix) -> Subspace:
    """Canonical basis of the null space {x : Ax = 0}."""
    return _null_space(_rref_rows(a), a.cols)


def image_basis(a: Matrix) -> Subspace:
    """Canonical basis of the column space of A, the row space of its transpose."""
    return integer_span(a.rows, a.transpose().int_rows)


def sum_and_intersection(y: Subspace, z: Subspace) -> tuple[Subspace, Subspace]:
    """Y + Z and Y ∩ Z from one elimination (Zassenhaus's algorithm).

    Echelonize the rows [y | y] for Y's rows and [z | 0] for Z's rows,
    which are independent.  The left halves of the rows leading in the
    left half are independent and span Y + Z.  Every other row is
    [0 | c] with c = sum a_i y_i = -sum b_j z_j, so it lies in Y ∩ Z; the
    counts add up to dim Y + dim Z, so these right halves span Y ∩ Z.
    """
    y._check_ambient(z)
    n = y.ambient_dim
    doubled = [{**row, **{j + n: v for j, v in row.items()}} for row in y.rows]
    left, right = [], []
    for row in echelon(doubled + list(z.rows)):
        if min(row) < n:
            left.append({j: v for j, v in row.items() if j < n})
        else:
            right.append({j - n: v for j, v in row.items()})
    return integer_span(n, left), integer_span(n, right)


def subspace_sum(y: Subspace, z: Subspace) -> Subspace:
    return sum_and_intersection(y, z)[0]


def subspace_intersection(y: Subspace, z: Subspace) -> Subspace:
    return sum_and_intersection(y, z)[1]


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff the dimensions add up: the stacked rows have rank sum(dim)."""
    if any(p.ambient_dim != parts[0].ambient_dim for p in parts):
        raise ValueError("ambient mismatch among direct-sum parts")
    return len(echelon(row for p in parts for row in p.rows)) == sum(p.dim for p in parts)


def _dot(terms: list[tuple[int, int, int]], vec: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of c * vec[j] over the (j, re c, im c) in terms, as a Gaussian integer."""
    sr = si = 0
    for j, cr, ci in terms:
        vr, vi = vec[j]
        sr += cr * vr - ci * vi
        si += cr * vi + ci * vr
    return sr, si


def _berkowitz(n: int, rows: Sequence[Row]) -> list[tuple[int, int]]:
    """Coefficients of det(xI - B), descending, for B given by its n sparse rows.

    Berkowitz's division-free recurrence (Berkowitz 1984): with B_r the
    leading r x r block, s the part of column r above the diagonal, c the
    part of row r left of it and b = B[r][r], the characteristic
    polynomial of B_(r+1) is the Toeplitz product of
    (1, -b, -c s, -c B_r s, ..., -c B_r^(r-1) s) with that of B_r.  Only
    Gaussian-integer products and sums occur.
    """
    poly = [(1, 0)]
    for r in range(n):
        br, bi = rows[r].get(r, (0, 0))
        q = [(1, 0), (-br, -bi)]
        block = [[(j, cr, ci) for j, (cr, ci) in rows[i].items() if j < r] for i in range(r + 1)]
        vec = [rows[i].get(r, (0, 0)) for i in range(r)]
        for k in range(r):
            if k:
                vec = [_dot(terms, vec) for terms in block[:r]]
            sr, si = _dot(block[r], vec)
            q.append((-sr, -si))
        new = []
        for i in range(r + 2):
            sr = si = 0
            for j in range(max(0, i - r - 1), min(i, r) + 1):
                qr, qi = q[i - j]
                pr, pi = poly[j]
                sr += qr * pr - qi * pi
                si += qr * pi + qi * pr
            new.append((sr, si))
        poly = new
    return poly


def char_poly(a: Matrix) -> tuple[GaussianRational, ...]:
    """Coefficients of det(xI - A), ascending by power, leading term 1.

    With D the common denominator of the entries, the division-free
    Berkowitz recurrence runs once on the Gaussian-integer rows of
    B = D*A, as (re, im) pairs of ints.  det(xI - A) = det(Dx I - B) / D^n,
    so the coefficient of x^k is that of B divided by D^(n-k), exactly.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n, den = a.rows, a.den
    coeffs = _berkowitz(n, a.int_rows)
    return tuple(
        GQ(Fraction(re, den ** (n - k)), Fraction(im, den ** (n - k)))
        for k, (re, im) in enumerate(reversed(coeffs))
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
    if any(aug.int_rows[a.cols :]):  # a pivot right of A's columns
        raise ValueError("inconsistent linear system")
    rows = [{j - a.cols: v for j, v in row.items() if j >= a.cols}
            for row in aug.int_rows[: a.cols]]
    return Matrix.from_integer_rows(b.cols, aug.den, rows)


def invert(a: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix."""
    if not a.is_square:
        raise ValueError("inverse requires a square matrix")
    return solve_exact(a, Matrix.identity(a.rows))


# ---------------------------------------------------------------------------
# JSON interchange


def matrix_to_obj(a: Matrix) -> dict:
    """The JSON object of A, each entry printed from its integers over D."""
    den = a.den
    return {
        "rows": a.rows,
        "cols": a.cols,
        "field": "gq",
        "entries": [
            [_entry_text(*row[j], den) if j in row else "0" for j in range(a.cols)]
            for row in a.int_rows
        ],
    }


def _entry_text(x: int, y: int, den: int) -> str:
    """The literal of (x + y i) / den."""
    g, h = gcd(x, den), gcd(y, den)
    return format_parts(x // g, den // g, y // h, den // h)


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
        raw = json_array(obj["entries"], "entries")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if field != "gq":
        raise ValueError(f"expected field 'gq', got {field!r}")
    if len(raw) != rows or any(len(json_array(r, "entries row")) != cols for r in raw):
        raise ValueError("entry grid does not match rows x cols")
    if cols < 0:  # only a 0 x cols grid gets here with cols < 0
        raise ValueError("matrix dimensions must be nonnegative")
    parts = [[parse_parts(str(v)) for v in row] for row in raw]
    den = lcm(*{d for row in parts for (_, q, _, s) in row for d in (q, s)})
    int_rows = [
        {j: (p * (den // q), r * (den // s)) for j, (p, q, r, s) in enumerate(row) if p or r}
        for row in parts
    ]
    return Matrix.from_integer_rows(cols, den, int_rows)


@lru_cache(maxsize=128)
def left_kernel_chain(a: Matrix) -> tuple[tuple[Row, ...], ...]:
    """Left Jordan chains of A: step k holds the new vectors of LN(A^k).

    LN(M) = {y : yM = 0} is the left null space of M.  Steps k = 1, ..., s
    are returned, s the first index with LN(A^(s+1)) = LN(A^s), which is
    the ascent; the vectors of steps 1..k are a basis of LN(A^k), so
    rank(A^k) = d - their count.  The rows of D*A stand for A here: they
    have the same left null spaces.  One pivot dict over the columns
    [A-part | preimage tag | kernel tag] serves the whole chain, and every
    row reduced against it keeps the form [pA + sum c_j l_j | p | c]:

    1. Row i of A is reduced as [row i | e_i | 0].  A row whose A-part
       vanishes leaves its preimage tag p with pA = 0.  Each reduction
       step is invertible on the d rows, whose tags so stay independent:
       these p are a basis of LN(A), step 1.
    2. Each vector l of step k is reduced, in order, as [l | 0 | e_l].
       If it comes to lead in a new A-column it joins the pivots.
       Otherwise it leaves [0 | p | c] with pA = -sum c_j l_j in LN(A^k),
       so p lies in LN(A^(k+1)); these p are step k + 1.  The chain stops
       at the first step that finds none.

    Step k + 1 is a basis of LN(A^(k+1)) modulo LN(A^k), by induction on k:

    (a) Independent: the pivot rows present when l is reduced name only
        vectors reduced before l in their kernel tags, and l's own tag
        stays nonzero.  So modulo
        LN(A^(k-1)), each u = pA is a nonzero multiple of its l plus
        earlier vectors of step k, triangular in step k, whose vectors
        are independent modulo LN(A^(k-1)).  A combination of the p's in
        LN(A^k) would give the same combination of the u's in
        LN(A^(k-1)), so it is trivial.
    (b) y -> yA maps LN(A^(k+1)) onto LN(A^k) ∩ row A with kernel LN(A),
        so dim LN(A^(k+1)) = dim LN(A) + dim(LN(A^k) ∩ row A).
    (c) Each vector reduced either joins the pivots or already lies in the
        span of their A-parts, so before step k that span is
        row A + LN(A^(k-1)), and l is dependent exactly when it lies in
        this plus the earlier l's of step k.  So the p's found number
        |step k| - dim(row A + LN(A^k)) + dim(row A + LN(A^(k-1)))
        = dim(LN(A^k) ∩ row A) - dim(LN(A^(k-1)) ∩ row A), and by (b)
        that is dim LN(A^(k+1)) - dim LN(A^k): each dependent l adds one
        to the intersection.

    A nilpotent matrix so costs d reductions and holds d vectors in all.
    Keyed by A; at most ``maxsize`` chains are held.
    """
    if not a.is_square:
        raise ValueError("power chains require a square matrix")
    d = a.rows
    pivots: dict[int, Row] = {}

    def preimage(row: Row) -> Row | None:
        rest = _reduce_below(pivots, row, d)
        if rest is None:
            return None
        return _primitive({j - d: v for j, v in rest.items() if j < 2 * d})

    found = [preimage({**row, d + i: (1, 0)}) for i, row in enumerate(a.int_rows)]
    steps = []
    tag = 2 * d
    while new := [p for p in found if p is not None]:
        steps.append(tuple(new))
        found = [preimage({**ell, tag + j: (1, 0)}) for j, ell in enumerate(new)]
        tag += len(new)
    return tuple(steps)


def _steps(a: Matrix, k: int) -> tuple[tuple[Row, ...], ...]:
    """A's chain, after the check that k is a valid exponent."""
    if k < 0:
        raise ValueError("negative powers are not supported")
    return left_kernel_chain(a)


@lru_cache(maxsize=4096)
def power_kernel(a: Matrix, k: int) -> Subspace:
    """N(A^k) = LN((A^T)^k), read from the chain of the transpose."""
    steps = _steps(a.transpose(), k)
    if k > len(steps):
        return power_kernel(a, len(steps))
    return integer_span(a.cols, chain.from_iterable(steps[:k]))


@lru_cache(maxsize=4096)
def power_image(a: Matrix, k: int) -> Subspace:
    """R(A^k) = {x : yx = 0 for every y in LN(A^k)}, read from A's chain.

    R(A^k) lies in that annihilator, and both have dimension rank(A^k).
    """
    steps = _steps(a, k)
    if k > len(steps):
        return power_image(a, len(steps))
    return _null_space(reduced_echelon(echelon(chain.from_iterable(steps[:k]))), a.rows)


def power_rank(a: Matrix, k: int) -> int:
    """rank(A^k) = d - dim LN(A^k), read from A's chain; A^0 = I needs none."""
    if k == 0 and a.is_square:
        return a.rows
    return a.rows - sum(map(len, _steps(a, k)[:k]))
