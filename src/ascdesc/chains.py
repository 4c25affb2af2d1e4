"""Kernel/range chains, ascent and descent, and related decompositions.

The ascent of a square matrix T is the first k with N(T^k) = N(T^k+1);
the descent is the first k with R(T^k) = R(T^k+1).  Both chains are
monotone, so dimension comparisons decide subspace equality, and both
stabilize no later than the ambient dimension.  In dimension d, rank
nullity gives dim N(T^k) = d - rank(T^k), so both chains are read from
rank(T^k) alone, and asc = dsc.  The ranks are read off the lengths of
T's left-kernel chain (:func:`ascdesc.exact.left_kernel_chain`): step k
holds the new vectors of LN(T^k) = {y : yT^k = 0}, whose dimension is
d - rank(T^k).  The same chains serve the kernels and ranges of powers
(:func:`ascdesc.exact.power_kernel`, :func:`ascdesc.exact.power_image`).
The Prop 1.1 predicates work on the canonical integer rows of the
subspaces involved, and each is decided by one elimination: the ascent
predicate stacks the rows of R(T^m) and N(T^d) and compares ranks, and
the descent predicate extends the echelon rows of R(T^n) by the rows of
N(T^m), whose kept rows span the witness complement Y_n.  A witness
complement is checked as a direct sum by its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .exact import (
    Matrix,
    Row,
    Subspace,
    block_diag,
    extend_echelon,
    image_basis,
    integer_span,
    is_direct_sum,
    kernel_basis,
    left_kernel_chain,
    power_image,
    power_kernel,
    solve_exact,
    subspace_intersection,
    vstack,
)


@dataclass(frozen=True)
class ChainReport:
    """Chain dimensions and stabilization indices for one operator.

    kernel_dims[k] = dim N(T^k) is non-decreasing, range_dims[k] =
    dim R(T^k) is non-increasing, and the two add up to the ambient
    dimension at every k.  Lists run one step past stabilization.
    """

    kernel_dims: tuple[int, ...]
    range_dims: tuple[int, ...]
    asc: int
    dsc: int
    alpha: int
    beta: int

    def kernel_dim(self, k: int) -> int:
        """dim N(T^k) for any k >= 0; the chain is constant past its lists."""
        return self.kernel_dims[min(k, len(self.kernel_dims) - 1)]

    def to_obj(self) -> dict:
        return {
            "kernel_dims": list(self.kernel_dims),
            "range_dims": list(self.range_dims),
            "asc": self.asc,
            "dsc": self.dsc,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def chain_report(t: Matrix) -> ChainReport:
    """Kernel and range chains of T up to stabilization.

    dim N(T^k) = dim LN(T^k) is the count of vectors in the first k steps
    of T's left-kernel chain (:func:`ascdesc.exact.left_kernel_chain`),
    whose length is the ascent: no subspace is built.
    """
    if not t.is_square:
        raise ValueError("chain_report requires a square matrix")
    return report_from_chain(t.rows, left_kernel_chain(t))


def report_from_chain(d: int, steps: tuple[tuple[Row, ...], ...]) -> ChainReport:
    """The report of a d x d matrix whose left-kernel chain has these steps.

    An invertible matrix has no steps, and every index and dimension of
    its report is 0.
    """
    kernel_dims = (0, *accumulate(map(len, steps)))
    kernel_dims += kernel_dims[-1:]
    range_dims = tuple(d - dim for dim in kernel_dims)
    asc = len(steps)
    return ChainReport(kernel_dims, range_dims, asc, asc, kernel_dims[1], d - range_dims[1])


@dataclass(frozen=True)
class AscentCheck:
    """Outcome of the range/kernel intersection test at index m."""

    holds: bool
    witness: tuple | None  # nonzero vector in R(T^m) ∩ N(T^d) when false


def prop_asc_predicate(t: Matrix, m: int) -> AscentCheck:
    """True iff R(T^m) ∩ N(T^d) = {0}, d the ambient dimension.

    The kernel chain stabilizes by d, so intersecting against N(T^d)
    covers every exponent at once.  The intersection is {0} exactly when
    the two subspaces form a direct sum, and it is built only for the
    witness of a failure.  Equivalent to asc(T) <= m.
    """
    if not t.is_square:
        raise ValueError("prop_asc_predicate requires a square matrix")
    d = t.rows
    r_m = power_image(t, m)
    n_d = power_kernel(t, d)
    if is_direct_sum([r_m, n_d]):
        return AscentCheck(True, None)
    return AscentCheck(False, subspace_intersection(r_m, n_d).basis.row(0))


@dataclass(frozen=True)
class DescentCheck:
    """Outcome of the complement-in-kernel test at index m.

    On success, ``witnesses[n]`` is a subspace Y_n inside N(T^m) with
    X = Y_n ⊕ R(T^n), for every n up to the ambient dimension.
    """

    holds: bool
    witnesses: tuple[tuple[int, Subspace], ...]
    failing_n: int | None = None


def prop_dsc_predicate(t: Matrix, m: int) -> DescentCheck:
    """True iff N(T^m) + R(T^n) = X for every n <= dim; builds witnesses.

    For each n the rows of N(T^m) are reduced, in order, against the
    echelon rows of R(T^n) and the rows kept before them; a row is kept
    when it is independent of both.  The kept rows K extend a basis of
    R(T^n) to one of N(T^m) + R(T^n), so the sum is X exactly when
    |K| + dim R(T^n) = dim, and then Y_n = span K is a complement of
    R(T^n) inside N(T^m).  These are the rows that extending a basis of
    N(T^m) ∩ R(T^n) would keep: for a row r of N(T^m) and kept rows
    K ⊆ N(T^m), r lies in R(T^n) + span K exactly when it lies in
    (N(T^m) ∩ R(T^n)) + span K, because r - k lies in both N(T^m) and
    R(T^n).  The direct-sum identity X = Y_n ⊕ R(T^n) is re-verified
    before return.  Equivalent to dsc(T) <= m.
    """
    if not t.is_square:
        raise ValueError("prop_dsc_predicate requires a square matrix")
    d = t.rows
    n_m = power_kernel(t, m)
    witnesses: list[tuple[int, Subspace]] = []
    for n in range(d + 1):
        r_n = power_image(t, n)
        pivots = {min(row): row for row in r_n.rows}
        kept = [row for row in n_m.rows if extend_echelon(pivots, row)]
        if len(kept) + r_n.dim < d:
            return DescentCheck(False, tuple(witnesses), failing_n=n)
        y_n = integer_span(d, kept)
        if y_n.dim + r_n.dim != d or not is_direct_sum([y_n, r_n]):
            raise RuntimeError("witness construction failed the direct-sum check")
        witnesses.append((n, y_n))
    return DescentCheck(True, tuple(witnesses))


def compression(t: Matrix, p: Matrix) -> Matrix:
    """Matrix of y -> PTy on R(P), in the canonical basis of R(P).

    The basis is the reduced row-echelon basis of the column space of
    P, taken as columns.  Requires P idempotent (exactly)."""
    if not t.is_square or not p.is_square or t.rows != p.rows:
        raise ValueError("compression requires square matrices of equal size")
    if p @ p != p:
        raise ValueError("projection must be idempotent")
    cols = image_basis(p).basis.transpose()  # d x rank(P)
    mapped = p @ (t @ cols)
    return solve_exact(cols, mapped)


def ptp_block_form(t: Matrix, p: Matrix) -> tuple[Matrix, Matrix]:
    """PTP in a basis adapted to X = R(P) ⊕ N(P), plus the basis change.

    For commuting idempotent P the result is block-diagonal with the
    compression in the leading block and zero elsewhere; the conjugation
    identity is verified exactly before returning.
    """
    if not t.is_square or not p.is_square or t.rows != p.rows:
        raise ValueError("block form requires square matrices of equal size")
    if p @ p != p:
        raise ValueError("projection must be idempotent")
    if t @ p != p @ t:
        raise ValueError("projection must commute with the operator")
    range_part = image_basis(p)
    null_part = kernel_basis(p)
    v = vstack(range_part.basis, null_part.basis).transpose()
    block = solve_exact(v, (p @ t @ p) @ v)
    expected = block_diag(compression(t, p), Matrix.zeros(null_part.dim, null_part.dim))
    if block != expected:
        raise RuntimeError("block form does not match the compression")
    return block, v


def direct_sum(t1: Matrix, t2: Matrix) -> Matrix:
    """Block-diagonal sum; chains combine by taking maxima blockwise."""
    if not t1.is_square or not t2.is_square:
        raise ValueError("direct_sum requires square matrices")
    return block_diag(t1, t2)
