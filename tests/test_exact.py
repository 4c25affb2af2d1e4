import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ascdesc.exact import (
    Matrix,
    Subspace,
    block_diag,
    char_poly,
    echelon,
    hstack,
    image_basis,
    integer_span,
    invert,
    is_direct_sum,
    is_invertible,
    kernel_basis,
    left_kernel_chain,
    matrix_from_obj,
    matrix_to_obj,
    power_image,
    power_kernel,
    power_rank,
    rank,
    reduced_echelon,
    rref,
    solve_exact,
    subspace_intersection,
    subspace_sum,
    vstack,
)
from ascdesc.chains import chain_report
from ascdesc.gq import GQ, format_scalar, parse_scalar

from oracles import gi_matmul, oracle_rank, to_gaussian_int


def gq_matrix(rows, cols, seed):
    rng = random.Random(f"exact-test:{seed}")
    return Matrix(
        rows, cols, [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rows * cols)]
    )


small_dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


# --- rref ---------------------------------------------------------------


def test_rref_permutation():
    m, piv = rref(Matrix.from_rows([[0, 1], [1, 0]]))
    assert m == Matrix.identity(2) and piv == (0, 1)


def test_rref_rank_one():
    m, piv = rref(Matrix.from_rows([[1, 2], [2, 4]]))
    assert m == Matrix.from_rows([[1, 2], [0, 0]]) and piv == (0,)


def test_rref_fractional():
    # hand elimination: divide the first row by 1/2, subtract from the second
    m, piv = rref(Matrix.from_rows([[Fraction(1, 2), 1], [1, 2]]))
    assert m == Matrix.from_rows([[1, 2], [0, 0]]) and piv == (0,)


@given(small_dims, small_dims, seeds)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows, cols, seed):
    m = gq_matrix(rows, cols, seed)
    reduced, _ = rref(m)
    again, _ = rref(reduced)
    assert again == reduced


@given(small_dims, small_dims, seeds)
@settings(max_examples=60, deadline=None)
def test_rank_matches_bareiss_oracle(rows, cols, seed):
    m = gq_matrix(rows, cols, seed)
    assert len(rref(m)[1]) == oracle_rank(m)


@given(small_dims, seeds, st.sampled_from(["as drawn", "zero row", "zero column", "repeated row"]))
@settings(max_examples=80, deadline=None)
def test_is_invertible_matches_bareiss_oracle(d, seed, damage):
    rows = [list(row) for row in gq_matrix(d, d, seed).to_lists()]
    i, j = seed % d, (seed // d) % d
    if damage == "zero row":
        rows[i] = [GQ(0)] * d
    elif damage == "zero column":
        for row in rows:
            row[j] = GQ(0)
    elif damage == "repeated row" and i != j:
        rows[i] = rows[j]
    m = Matrix.from_rows(rows)
    assert is_invertible(m) == (oracle_rank(m) == d)


# --- the elimination kernel against the oracle --------------------------

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_entries = st.builds(GQ, _rationals, _rationals)
_sparse_entries = st.one_of(st.just(GQ(0)), st.just(GQ(0)), st.just(GQ(0)), _entries)


@st.composite
def _filled(draw, rows, cols, entries):
    return Matrix(rows, cols, draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def gq_matrices(draw, square=False, max_dim=10, rows=None):
    """Dense, sparse, or rank-deficient A*B Gaussian-rational matrices."""
    if rows is None:
        rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = rows if square else draw(st.integers(min_value=0, max_value=max_dim))
    kind = draw(st.sampled_from(["dense", "sparse", "product"]))
    if kind == "product":
        inner = draw(st.integers(min_value=0, max_value=max(0, min(rows, cols) - 1)))
        return draw(_filled(rows, inner, _entries)) @ draw(_filled(inner, cols, _entries))
    return draw(_filled(rows, cols, _entries if kind == "dense" else _sparse_entries))


def dense_matrix(rows, cols, seed):
    """Entries with numerators and denominators up to 9 in both parts."""
    rng = random.Random(f"dense:{seed}")

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return Matrix(rows, cols, [GQ(rat(), rat()) for _ in range(rows * cols)])


def assert_canonical(rows):
    """Each row leads with a positive integer and has no common factor."""
    for row in rows:
        re, im = row[min(row)]
        assert im == 0 and re > 0
        assert gcd(*(v for xy in row.values() for v in xy)) == 1


def assert_reduced(rows):
    """Canonical rows with increasing pivots, each zero in the others' pivots."""
    assert_canonical(rows)
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots))
    for row in rows:
        assert sum(p in row for p in pivots) == 1


def assert_rref_of(m):
    reduced, pivots = rref(m)
    r = len(pivots)
    assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
    assert list(pivots) == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert reduced.at(i, p) == GQ(1)
        assert not any(reduced.at(i, j) for j in range(p))
        assert all(not reduced.at(k, p) for k in range(m.rows) if k != i)
    assert not any(reduced.entries[r * m.cols :])
    # same row space: stacking adds nothing to either rank
    assert oracle_rank(m) == r == oracle_rank(reduced) == oracle_rank(vstack(m, reduced))
    assert rank(m) == r


@given(gq_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_and_rref_agree_with_oracle(m):
    assert_rref_of(m)


@given(gq_matrices())
@settings(max_examples=60, deadline=None)
def test_elimination_rows_are_canonical_and_reduced(m):
    basis = echelon(m.int_rows)
    assert_canonical(basis)
    assert [min(row) for row in basis] == sorted({min(row) for row in basis})
    assert_reduced(reduced_echelon(basis))


@given(gq_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_reduced_rows_ignore_row_order_and_scale(m, rnd):
    """The canonical reduced rows depend on the row space alone."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    rnd.shuffle(rows)
    scales = [GQ(rnd.choice([-3, 2, 5]), rnd.choice([-1, 0, 4])) for _ in rows]
    other = Matrix(m.rows, m.cols, [c * v for c, row in zip(scales, rows) for v in row])
    want = reduced_echelon(echelon(m.int_rows))
    assert reduced_echelon(echelon(other.int_rows)) == want


def test_single_row_becomes_its_canonical_representative():
    assert echelon([{0: (1, 1), 2: (3, 0)}]) == [{0: (2, 0), 2: (3, -3)}]
    assert echelon([{1: (-4, 0), 3: (6, 2)}]) == [{1: (2, 0), 3: (-3, -1)}]
    assert echelon([{}, {}]) == []


@pytest.mark.parametrize("d", [8, 12])
def test_dense_rref_entries_stay_within_the_hadamard_bound(d):
    """Canonical reduced rows of D*A are P*R_i, P | |det M|^2, so each
    component is at most H^2, H the product of the row norms of D*A."""
    m = dense_matrix(d, d, d)
    assert_rref_of(m)
    h2 = 1
    for row in m.int_rows:
        h2 *= sum(x * x + y * y for x, y in row.values()) or 1  # zero rows drop out
    rows = reduced_echelon(echelon(m.int_rows))
    assert_reduced(rows)
    assert all(x * x + y * y <= h2 * h2 for row in rows for x, y in row.values())


# --- kernel and image ---------------------------------------------------


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(3)).dim == 0


def test_kernel_zero_matrix():
    k = kernel_basis(Matrix.zeros(2, 2))
    assert k.dim == 2 and k.is_full()


def test_kernel_jordan_block():
    k = kernel_basis(Matrix.from_rows([[0, 1], [0, 0]]))
    assert k.basis == Matrix.from_rows([[1, 0]])


def test_image_examples():
    assert image_basis(Matrix.identity(3)).is_full()
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert image_basis(j2).basis == Matrix.from_rows([[1, 0]])
    ones = Matrix.from_rows([[1, 1], [1, 1]])
    assert image_basis(ones).basis == Matrix.from_rows([[1, 1]])


@given(small_dims, small_dims, seeds)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows, cols, seed):
    m = gq_matrix(rows, cols, seed)
    assert kernel_basis(m).dim + image_basis(m).dim == cols


# --- subspace algebra ---------------------------------------------------


def span(ambient, *rows):
    m = Matrix(len(rows), ambient, [v for row in rows for v in row])
    return integer_span(m.cols, m.int_rows)


def test_sum_examples():
    e1 = span(2, [1, 0])
    e2 = span(2, [0, 1])
    assert subspace_sum(e1, e2).is_full()
    assert subspace_sum(e1, e1) == e1
    diag = span(2, [1, 1])
    assert subspace_sum(e1, diag).is_full()


def test_intersection_examples():
    e1 = span(2, [1, 0])
    e2 = span(2, [0, 1])
    assert subspace_intersection(e1, e2).is_zero()
    assert subspace_intersection(e1, e1) == e1
    y = span(3, [1, 0, 0], [0, 1, 0])
    z = span(3, [0, 1, 0], [0, 0, 1])
    assert subspace_intersection(y, z) == span(3, [0, 1, 0])


def test_direct_sum_examples():
    e1 = span(2, [1, 0])
    e2 = span(2, [0, 1])
    diag = span(2, [1, 1])
    assert is_direct_sum([e1, e2])
    assert not is_direct_sum([e1, e1])
    assert is_direct_sum([diag, e2])


def test_three_lines_in_a_plane_are_not_a_direct_sum():
    # no two of the lines meet, but three lines cannot be direct in a plane
    lines = [span(2, [1, 0]), span(2, [0, 1]), span(2, [1, 1])]
    assert all(
        subspace_intersection(y, z).is_zero() for i, y in enumerate(lines) for z in lines[i + 1 :]
    )
    assert not is_direct_sum(lines)
    assert is_direct_sum(lines[:2]) and is_direct_sum([])


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(span(2, [1, 0]), span(3, [1, 0, 0]))
    with pytest.raises(ValueError):
        subspace_intersection(span(2, [1, 0]), span(3, [1, 0, 0]))


@given(small_dims, seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_dimension_formula(dim, seed_y, seed_z):
    y = image_basis(gq_matrix(dim, dim, seed_y))
    z = image_basis(gq_matrix(dim, dim, seed_z))
    assert (
        subspace_sum(y, z).dim + subspace_intersection(y, z).dim == y.dim + z.dim
    )


@st.composite
def _spanning_pairs(draw):
    """Two matrices with the same column count, their row counts drawn apart."""
    a = draw(gq_matrices())
    return a, draw(gq_matrices(rows=a.cols)).transpose()


@given(_spanning_pairs())
@settings(max_examples=100, deadline=None)
def test_sum_and_intersection_agree_with_oracle(pair):
    a, b = pair
    n = a.cols
    y = integer_span(a.cols, a.int_rows)
    z = integer_span(b.cols, b.int_rows)
    assert (y.dim, z.dim) == (oracle_rank(a), oracle_rank(b))
    r = oracle_rank(vstack(a, b))
    total, meet = subspace_sum(y, z), subspace_intersection(y, z)
    assert total.dim == r
    assert meet.dim == y.dim + z.dim - r
    for part in (a, b):  # Y + Z holds both, and Y ∩ Z lies in each
        assert oracle_rank(vstack(total.basis, part)) == total.dim
        assert oracle_rank(vstack(part, meet.basis)) == oracle_rank(part)
    for space in (total, meet):
        assert_reduced(list(space.rows))
        assert Subspace(n, space.basis) == space  # raises unless the basis is canonical


@given(small_dims, seeds, seeds)
@settings(max_examples=60, deadline=None)
def test_canonical_equality_matches_containment(dim, seed_y, seed_z):
    y = image_basis(gq_matrix(dim, dim, seed_y))
    z = image_basis(gq_matrix(dim, dim, seed_z))
    assert (y == z) == (y.contains(z) and z.contains(y))


def test_canonical_equality_matches_containment_500_pairs():
    rng = random.Random("canonicality-500")
    for _ in range(500):
        dim = rng.randint(1, 5)
        rows_y = [
            [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
            for _ in range(rng.randint(0, dim))
        ]
        rows_z = [
            [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
            for _ in range(rng.randint(0, dim))
        ]
        m_y = Matrix(len(rows_y), dim, [v for row in rows_y for v in row])
        m_z = Matrix(len(rows_z), dim, [v for row in rows_z for v in row])
        y = integer_span(m_y.cols, m_y.int_rows)
        z = integer_span(m_z.cols, m_z.int_rows)
        assert (y == z) == (y.contains(z) and z.contains(y))


def test_subspace_requires_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(2, Matrix.from_rows([[2, 0]]))  # pivot not normalized


# --- matrix operations --------------------------------------------------


def test_mat_op_examples():
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert j2 @ j2 == Matrix.zeros(2, 2)
    assert Matrix.identity(2).shifted(1) == Matrix.zeros(2, 2)
    assert Matrix.diag([2]) @ Matrix.diag([2]) == Matrix.diag([4])
    assert j2 @ Matrix.identity(2) == j2 == Matrix.identity(2) @ j2


@pytest.mark.parametrize("d", range(6))
def test_power_matches_repeated_products(d):
    for seed, ks in ((20_000 + d, range(d + 3)), (30_000 + d, range(d + 2, -1, -1))):
        a = gq_matrix(d, d, seed)
        products = [Matrix.identity(d)]
        for _ in range(d + 2):
            products.append(products[-1] @ a)
        for k in list(ks) + list(reversed(ks)):  # growing then shrinking, or reverse
            assert power_kernel(a, k) == kernel_basis(products[k])
            assert power_image(a, k) == image_basis(products[k])
            assert power_rank(a, k) == oracle_rank(products[k])


def test_power_and_power_chain_share_one_chain():
    a = gq_matrix(3, 3, 7)
    left_kernel_chain.cache_clear()
    power_kernel.cache_clear()
    power_image.cache_clear()
    report = chain_report(a)
    power_rank(a, 5)
    power_image(a, 2)
    info = left_kernel_chain.cache_info()
    assert (info.misses, info.currsize) == (1, 1)  # the chain of A serves all three
    assert len(left_kernel_chain(a)) == report.asc  # LN(A^1) .. LN(A^asc)
    power_kernel(a, 2)
    info = left_kernel_chain.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # N(A^k) reads the chain of A^T
    with pytest.raises(ValueError):
        power_rank(Matrix.zeros(2, 3), 1)
    with pytest.raises(ValueError):
        power_rank(a, -1)


def test_power_rank_at_zero_builds_no_chain():
    a = gq_matrix(4, 4, 11)
    left_kernel_chain.cache_clear()
    assert power_rank(a, 0) == 4
    assert left_kernel_chain.cache_info().misses == 0
    with pytest.raises(ValueError):
        power_rank(Matrix.zeros(2, 3), 0)
    with pytest.raises(ValueError):
        power_rank(a, -1)


def _denominator(m):
    return lcm(1, *(v.re.denominator for v in m.entries), *(v.im.denominator for v in m.entries))


def _as_integer_pairs(m, scale):
    """The entries of scale * m, which must be Gaussian integers, row by row."""
    out = []
    for i in range(m.rows):
        row = []
        for v in m.row(i):
            w = v * scale
            assert w.re.denominator == w.im.denominator == 1
            row.append((w.re.numerator, w.im.numerator))
        out.append(row)
    return out


@st.composite
def _product_pairs(draw):
    a = draw(gq_matrices())
    return a, draw(gq_matrices(rows=a.cols))


@given(_product_pairs())
@settings(max_examples=100, deadline=None)
def test_matmul_agrees_with_integer_oracle(pair):
    a, b = pair
    c = a @ b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    if a.cols:
        want = gi_matmul(to_gaussian_int(a), to_gaussian_int(b))
    else:  # an empty inner dimension gives the zero matrix
        want = [[(0, 0)] * b.cols for _ in range(a.rows)]
    assert _as_integer_pairs(c, _denominator(a) * _denominator(b)) == want


@given(gq_matrices())
@settings(max_examples=100, deadline=None)
def test_kernel_and_image_agree_with_oracle(m):
    r = oracle_rank(m)
    kernel, image = kernel_basis(m), image_basis(m)
    assert (kernel.ambient_dim, kernel.dim) == (m.cols, m.cols - r)
    assert (image.ambient_dim, image.dim) == (m.rows, r)
    Subspace(m.cols, kernel.basis)  # raises unless the basis is canonical
    Subspace(m.rows, image.basis)
    if kernel.dim:
        product = gi_matmul(to_gaussian_int(m), to_gaussian_int(kernel.basis.transpose()))
        assert all(v == (0, 0) for row in product for v in row)
    if image.dim:  # the basis columns add nothing to the column space
        assert oracle_rank(hstack(m, image.basis.transpose())) == r


@given(gq_matrices(square=True, max_dim=6))
@settings(max_examples=60, deadline=None)
def test_power_readers_agree_with_products(a):
    product = Matrix.identity(a.rows)
    for k in range(a.rows + 2):
        assert power_kernel(a, k) == kernel_basis(product)
        assert power_image(a, k) == image_basis(product)
        assert power_rank(a, k) == oracle_rank(product)
        product = product @ a


@pytest.mark.parametrize("d", [0, 1, 3])
def test_power_readers_on_zero_and_identity(d):
    zero, ident = Matrix.zeros(d, d), Matrix.identity(d)
    for a in (zero, ident):
        assert power_kernel(a, 0) == Subspace.zero(d)
        assert power_image(a, 0) == Subspace.full(d)
        assert power_rank(a, 0) == d
    for k in (1, 2, d + 1):
        assert power_kernel(zero, k) == Subspace.full(d) == power_image(ident, k)
        assert power_image(zero, k) == Subspace.zero(d) == power_kernel(ident, k)
        assert (power_rank(zero, k), power_rank(ident, k)) == (0, d)
    assert kernel_basis(Matrix.zeros(2, 3)) == Subspace.full(3)
    assert image_basis(Matrix.zeros(2, 3)) == Subspace.zero(2)
    with pytest.raises(ValueError):
        power_rank(Matrix.zeros(2, 3), 1)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.identity(2) + Matrix.identity(3)


def test_block_diag_layout():
    b = block_diag(Matrix.diag([1]), Matrix.diag([2, 3]))
    assert b == Matrix.diag([1, 2, 3])


def test_solve_and_invert():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    assert invert(a) @ a == Matrix.identity(2)
    x = solve_exact(a, Matrix.from_rows([[2], [1]]))
    assert a @ x == Matrix.from_rows([[2], [1]])
    with pytest.raises(ValueError):
        solve_exact(Matrix.zeros(2, 2), Matrix.identity(2))


# --- canonical form -----------------------------------------------------


@st.composite
def _two_paths(draw):
    """A matrix built by an operation on integer rows, and (rows, cols, entries)
    of the same matrix computed entry by entry in GaussianRational arithmetic."""
    a = draw(gq_matrices(max_dim=5))
    r, c = a.rows, a.cols
    op = draw(st.sampled_from(["sum", "difference", "cancel", "negation", "scale",
                               "product", "shifted", "transpose", "block_diag"]))
    if op in ("sum", "difference"):
        b = draw(_filled(r, c, _sparse_entries))
        if op == "sum":
            return a + b, (r, c, [x + y for x, y in zip(a.entries, b.entries)])
        return a - b, (r, c, [x - y for x, y in zip(a.entries, b.entries)])
    if op == "cancel":
        return a.scale(GQ(1, 2)) - a.scale(GQ(1, 2)), (r, c, [GQ(0)] * (r * c))
    if op == "negation":
        return -a, (r, c, [-x for x in a.entries])
    if op == "scale":
        f = draw(_sparse_entries)
        return a.scale(f), (r, c, [f * x for x in a.entries])
    if op == "product":
        b = draw(gq_matrices(max_dim=5, rows=c))
        flat = [sum((a.at(i, k) * b.at(k, j) for k in range(c)), GQ(0))
                for i in range(r) for j in range(b.cols)]
        return a @ b, (r, b.cols, flat)
    if op == "shifted":
        a, lam = draw(gq_matrices(square=True, max_dim=5)), draw(_sparse_entries)
        flat = [a.at(i, j) - lam if i == j else a.at(i, j)
                for i in range(a.rows) for j in range(a.rows)]
        return a.shifted(lam), (a.rows, a.rows, flat)
    if op == "transpose":
        return a.transpose(), (c, r, [a.at(i, j) for j in range(c) for i in range(r)])
    b = draw(gq_matrices(max_dim=5))
    rows = [list(a.row(i)) + [GQ(0)] * b.cols for i in range(r)]
    rows += [[GQ(0)] * c + list(b.row(i)) for i in range(b.rows)]
    return block_diag(a, b), (r + b.rows, c + b.cols, [v for row in rows for v in row])


@given(_two_paths())
@settings(max_examples=200, deadline=None)
def test_every_path_reaches_the_same_canonical_form(pair):
    got, (rows, cols, entries) = pair
    want = Matrix(rows, cols, entries)
    assert (got.rows, got.cols) == (rows, cols)
    assert (got.den, got.int_rows, hash(got)) == (want.den, want.int_rows, hash(want))
    assert got == want
    components = [v for row in got.int_rows for xy in row.values() for v in xy]
    assert got.den > 0 and gcd(got.den, *components) == 1  # D is minimal
    assert all(xy != (0, 0) for row in got.int_rows for xy in row.values())
    assert got.entries == want.entries == tuple(entries)
    assert Matrix(rows, cols, got.entries) == got  # the entries round-trip


# --- characteristic polynomial ------------------------------------------


def test_char_poly_examples():
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert char_poly(j2) == (GQ(0), GQ(0), GQ(1))
    assert char_poly(Matrix.diag([1, 2])) == (GQ(2), GQ(-3), GQ(1))
    # cofactor expansion of the rotation matrix gives x^2 + 1
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    assert char_poly(rot) == (GQ(1), GQ(0), GQ(1))


@given(
    st.integers(min_value=0, max_value=5),
    seeds,
    st.sampled_from([GQ(1), GQ(Fraction(1, 2), Fraction(-1, 3))]),
)
@settings(max_examples=40, deadline=None)
def test_cayley_hamilton(dim, seed, scale):
    m = gq_matrix(dim, dim, seed).scale(scale)
    coeffs = char_poly(m)
    assert len(coeffs) == dim + 1 and coeffs[-1] == GQ(1)
    assert dim == 0 or coeffs[-2] == -sum((m.at(i, i) for i in range(dim)), GQ(0))
    acc = Matrix.zeros(dim, dim)
    for c in reversed(coeffs):
        acc = acc @ m + Matrix.identity(dim).scale(c)
    assert acc == Matrix.zeros(dim, dim)


@given(st.one_of(gq_matrices(square=True, max_dim=9),
                 gq_matrices(square=True, max_dim=9).map(lambda m: m.scale(GQ(10**12, -7)))))
@settings(max_examples=50, deadline=None)
def test_char_poly_matches_sympy_domain_matrix(m):
    from sympy.polys.domains import ZZ_I
    from sympy.polys.matrices import DomainMatrix

    n, den = m.rows, m.den
    rows = [[ZZ_I(*row.get(j, (0, 0))) for j in range(n)] for row in m.int_rows]
    reference = DomainMatrix(rows, (n, n), ZZ_I).charpoly()
    assert char_poly(m) == tuple(
        GQ(Fraction(int(c.x), den ** (n - k)), Fraction(int(c.y), den ** (n - k)))
        for k, c in enumerate(reversed(reference))
    )


# --- JSON ----------------------------------------------------------------


def test_matrix_json_round_trip():
    m = Matrix.from_rows([[GQ(1), GQ(0)], [GQ(0), GQ(Fraction(1, 2), Fraction(3, 4))]])
    obj = matrix_to_obj(m)
    assert obj == {
        "rows": 2,
        "cols": 2,
        "field": "gq",
        "entries": [["1", "0"], ["0", "1/2+3/4i"]],
    }
    assert matrix_from_obj(obj) == m


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 2, "cols": 2, "field": "gq", "entries": [["1"]]})
    with pytest.raises(ValueError):
        matrix_from_obj({"rows": 1, "cols": 1, "field": "f64", "entries": [[1.0]]})


# --- the literal path ----------------------------------------------------


def _matrix_by_scalars(obj):
    """matrix_from_obj through one parsed GaussianRational per literal."""
    flat = [parse_scalar(str(v)) for row in obj["entries"] for v in row]
    return Matrix(obj["rows"], obj["cols"], flat)


def _obj_by_scalars(m):
    """matrix_to_obj through one formatted GaussianRational per entry."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "field": "gq",
        "entries": [[format_scalar(v) for v in m.row(i)] for i in range(m.rows)],
    }


_FIXED_LITERALS = ("2/4", "-0/7", "+3", "i", "-i", "+i", "3-i", "1/2+3/4i", "0", "-0", " 5 / 10 ")
_BIG = 10**40


@st.composite
def _rat_text(draw, signed):
    """A rational literal, often not in lowest terms, with an optional sign."""
    num = draw(st.integers(-12, 12) | st.integers(-_BIG, _BIG))
    den = draw(st.integers(1, 12) | st.integers(1, _BIG))
    k = draw(st.sampled_from([1, 1, 2, 6]))
    body = f"{abs(num) * k}"
    if den * k != 1 or draw(st.booleans()):
        body += f"/{den * k}"
    sign = "-" if num < 0 else draw(st.sampled_from(["+"] if signed else ["", "+"]))
    return sign + body


@st.composite
def _literals(draw):
    kind = draw(st.sampled_from(["fixed", "int", "real", "imag", "unit", "full"]))
    if kind == "fixed":
        return draw(st.sampled_from(_FIXED_LITERALS))
    if kind == "int":
        return draw(st.integers(-_BIG, _BIG))  # a JSON number, read through str()
    if kind == "real":
        return draw(_rat_text(False))
    if kind == "imag":
        return draw(_rat_text(False)) + "i"
    if kind == "unit":
        return draw(_rat_text(False) | st.just("")) + draw(st.sampled_from(["+i", "-i"]))
    return draw(_rat_text(False)) + draw(_rat_text(True)) + "i"


@st.composite
def _literal_objects(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    zero = st.sampled_from(["0", "-0/7", "+0", "0/3+0i", 0])
    entry = draw(st.sampled_from([_literals(), zero | _literals()]))
    entries = [
        draw(st.lists(zero if draw(st.booleans()) and rows > 1 else entry,
                      min_size=cols, max_size=cols))
        for _ in range(rows)
    ]
    return {"rows": rows, "cols": cols, "field": "gq", "entries": entries}


_EDGE_OBJECTS = [
    {"rows": 0, "cols": 0, "entries": []},
    {"rows": 0, "cols": 3, "entries": []},
    {"rows": 2, "cols": 0, "entries": [[], []]},
    {"rows": 2, "cols": 2, "entries": [["0", "-0/7"], ["0/5+0i", 0]]},
    {"rows": 2, "cols": 3, "entries": [["0", "0", "0"], ["2/4", "-i", f"1/{_BIG}+3/{_BIG * 7}i"]]},
    {"rows": 1, "cols": 7, "entries": [list(_FIXED_LITERALS[:7])]},
]


@pytest.mark.parametrize("obj", _EDGE_OBJECTS)
def test_literal_path_edge_cases(obj):
    got = matrix_from_obj(obj)
    assert got == _matrix_by_scalars(obj)
    assert (got.rows, got.cols) == (obj["rows"], obj["cols"])
    assert matrix_to_obj(got) == _obj_by_scalars(got)


@given(_literal_objects())
@settings(max_examples=300, deadline=None)
def test_literal_path_matches_the_scalar_route(obj):
    got = matrix_from_obj(obj)
    want = _matrix_by_scalars(obj)
    assert got == want  # the same D and the same integer rows
    assert matrix_to_obj(got) == _obj_by_scalars(want)


_scales = st.builds(
    GQ,
    st.fractions(min_value=-5, max_value=5, max_denominator=10**15),
    st.fractions(min_value=-5, max_value=5, max_denominator=36).filter(bool),
)


@given(gq_matrices(max_dim=5), _scales)
@settings(max_examples=100, deadline=None)
def test_matrix_to_obj_matches_the_scalar_route(m, scale):
    m = m.scale(scale)
    assume(m.den > 1)
    assert matrix_to_obj(m) == _obj_by_scalars(m)
    assert matrix_from_obj(matrix_to_obj(m)) == m
