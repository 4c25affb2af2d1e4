"""Independent oracles for the test suite.

The library's exact core is fraction-free too, so the rank oracle here is
kept a separate implementation that shares no code with it.  The core
(``ascdesc.exact.echelon``) eliminates sparse Gaussian-integer rows and
keeps each pivot row as the canonical representative of its line over
Q(i).  The oracle clears the matrix to dense Gaussian-integer entries on
its own and ranks it by Bareiss condensation (Bareiss 1968) with exact
Gaussian-integer division; powers are formed by a local integer matrix
product.  Chain indices derived this way give a second opinion on ascent
and descent.  Eigenvalues get a second opinion from sympy's own
characteristic polynomial factored over QQ_I."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy

from ascdesc.exact import Matrix

# Gaussian integers as (re, im) pairs of Python ints
GInt = tuple[int, int]


def _gi_mul(a: GInt, b: GInt) -> GInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_sub(a: GInt, b: GInt) -> GInt:
    return (a[0] - b[0], a[1] - b[1])


def _gi_div_exact(a: GInt, b: GInt) -> GInt:
    """a / b in Z[i]; the caller guarantees divisibility."""
    norm = b[0] * b[0] + b[1] * b[1]
    num = _gi_mul(a, (b[0], -b[1]))
    re, re_rem = divmod(num[0], norm)
    im, im_rem = divmod(num[1], norm)
    if re_rem or im_rem:
        raise ArithmeticError("inexact Gaussian-integer division")
    return (re, im)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def to_gaussian_int(matrix: Matrix) -> list[list[GInt]]:
    """Scale all entries by the common denominator; rank is unchanged."""
    scale = 1
    for v in matrix.entries:
        scale = _lcm(scale, v.re.denominator)
        scale = _lcm(scale, v.im.denominator)
    out = []
    for i in range(matrix.rows):
        row = []
        for v in matrix.row(i):
            row.append((int(v.re * scale), int(v.im * scale)))
        out.append(row)
    return out


def gi_matmul(a: list[list[GInt]], b: list[list[GInt]]) -> list[list[GInt]]:
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[(0, 0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait != (0, 0):
                brow = b[t]
                orow = out[i]
                for j in range(m):
                    bv = brow[j]
                    if bv != (0, 0):
                        p = _gi_mul(ait, bv)
                        orow[j] = (orow[j][0] + p[0], orow[j][1] + p[1])
    return out


def bareiss_rank(rows: list[list[GInt]]) -> int:
    """Fraction-free rank over Z[i] with column skipping."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    prev = (1, 0)
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c] != (0, 0):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            mic = m[i][c]
            for j in range(c + 1, n_cols):
                num = _gi_sub(_gi_mul(m[i][j], pivot), _gi_mul(mic, m[r][j]))
                m[i][j] = _gi_div_exact(num, prev)
            m[i][c] = (0, 0)
        prev = pivot
        r += 1
    return r


def oracle_rank(matrix: Matrix) -> int:
    return bareiss_rank(to_gaussian_int(matrix))


def brute_chain(matrix: Matrix) -> tuple[list[int], list[int], int, int]:
    """(kernel_dims, range_dims, asc, dsc) for k = 0..dim+1 by Bareiss ranks."""
    d = matrix.rows
    base = to_gaussian_int(matrix)
    power = [[(1, 0) if i == j else (0, 0) for j in range(d)] for i in range(d)]
    ranks = []
    for _ in range(d + 2):
        ranks.append(bareiss_rank(power))
        power = gi_matmul(power, base)
    kernel_dims = [d - r for r in ranks]
    asc = next(k for k in range(d + 1) if kernel_dims[k] == kernel_dims[k + 1])
    dsc = next(k for k in range(d + 1) if ranks[k] == ranks[k + 1])
    return kernel_dims, ranks, asc, dsc


def oracle_eigen(matrix: Matrix) -> tuple[dict[tuple[Fraction, Fraction], int], int]:
    """{(re, im): multiplicity} of the Q(i)-eigenvalues, plus residual degree.

    The reference method: the characteristic polynomial of a
    ``sympy.Matrix`` built from the entries, factored over ``QQ_I``,
    keeping the linear factors.  It shares no code with
    ``ascdesc.spectra`` or ``ascdesc.exact.char_poly``.
    """
    x = sympy.Symbol("x")
    n = matrix.rows
    entries = [
        sympy.Rational(v.re_num, v.re_den) + sympy.I * sympy.Rational(v.im_num, v.im_den)
        for v in matrix.entries
    ]
    char = sympy.Matrix(n, n, entries).charpoly(x).as_expr()
    _, factors = sympy.factor_list(char, x, domain="QQ_I")
    roots: dict[tuple[Fraction, Fraction], int] = {}
    residual = 0
    for fac, mult in factors:
        poly = sympy.Poly(fac, x)
        if poly.degree() == 1:
            c1, c0 = poly.all_coeffs()
            re, im = (-c0 / c1).as_real_imag()
            roots[(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))] = int(mult)
        else:
            residual += poly.degree() * int(mult)
    return roots, residual
