import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascdesc.exact import (
    Matrix,
    Subspace,
    block_diag,
    char_poly,
    codim,
    image_basis,
    invert,
    is_direct_sum,
    kernel_basis,
    matrix_from_obj,
    matrix_to_obj,
    power_chain,
    rref,
    solve_exact,
    subspace_intersection,
    subspace_sum,
)
from ascdesc.gq import GQ

from oracles import oracle_rank


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
    return Subspace.from_spanning_rows(ambient, rows)


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


def test_codim():
    assert codim(span(3, [1, 0, 0], [0, 1, 0], [0, 0, 1])) == 0
    assert codim(Subspace.zero(3)) == 3
    assert codim(image_basis(Matrix.from_rows([[0, 1], [0, 0]]))) == 1


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
        y = Subspace.from_spanning_rows(dim, rows_y)
        z = Subspace.from_spanning_rows(dim, rows_z)
        assert (y == z) == (y.contains(z) and z.contains(y))


def test_subspace_requires_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(2, Matrix.from_rows([[2, 0]]))  # pivot not normalized


# --- matrix operations --------------------------------------------------


def test_mat_op_examples():
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert j2.power(2) == Matrix.zeros(2, 2)
    assert Matrix.identity(2).shifted(1) == Matrix.zeros(2, 2)
    assert Matrix.diag([2]).power(3) == Matrix.diag([8])
    assert j2.power(0) == Matrix.identity(2)


@pytest.mark.parametrize("d", range(6))
def test_power_matches_repeated_products(d):
    for seed, ks in ((20_000 + d, range(d + 3)), (30_000 + d, range(d + 2, -1, -1))):
        a = gq_matrix(d, d, seed)
        products = [Matrix.identity(d)]
        for _ in range(d + 2):
            products.append(products[-1] @ a)
        for k in list(ks) + list(reversed(ks)):  # growing then shrinking, or reverse
            assert a.power(k) == products[k]


def test_power_and_power_chain_share_one_chain():
    a = gq_matrix(3, 3, 7)
    assert power_chain(a, 5)[3] is a.power(3)
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).power(1)
    with pytest.raises(ValueError):
        a.power(-1)


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
    assert dim == 0 or coeffs[-2] == -m.trace()
    acc = Matrix.zeros(dim, dim)
    for c in reversed(coeffs):
        acc = acc @ m + Matrix.identity(dim).scale(c)
    assert acc == Matrix.zeros(dim, dim)


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
