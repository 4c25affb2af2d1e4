import pytest
from hypothesis import given, settings

from ascdesc import exact
from ascdesc.chains import (
    chain_report,
    compression,
    direct_sum,
    prop_asc_predicate,
    prop_dsc_predicate,
    ptp_block_form,
)
from ascdesc.exact import (
    Matrix,
    block_diag,
    extend_echelon,
    integer_span,
    invert,
    is_direct_sum,
    power_image,
    left_kernel_chain,
    power_kernel,
    subspace_intersection,
    subspace_sum,
)
from ascdesc.gq import GQ
from ascdesc.theorems import random_matrix, _random_unimodular, _structured_block

import random

from oracles import brute_chain
from test_exact import dense_matrix, gq_matrices

J2 = Matrix.from_rows([[0, 1], [0, 0]])
J3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_chain_report_jordan3():
    rep = chain_report(J3)
    assert rep.kernel_dims == (0, 1, 2, 3, 3)
    assert rep.range_dims == (3, 2, 1, 0, 0)
    assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (3, 3, 1, 1)


def test_chain_report_identity():
    rep = chain_report(Matrix.identity(4))
    assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (0, 0, 0, 0)


def test_chain_report_idempotent_like():
    rep = chain_report(Matrix.diag([0, 1]))
    assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (1, 1, 1, 1)


def test_chain_report_monotone_and_complementary():
    for seed in range(30):
        t = random_matrix(seed, 2 + seed % 5)
        rep = chain_report(t)
        assert all(a <= b for a, b in zip(rep.kernel_dims, rep.kernel_dims[1:]))
        assert all(a >= b for a, b in zip(rep.range_dims, rep.range_dims[1:]))
        assert all(
            k + r == t.rows for k, r in zip(rep.kernel_dims, rep.range_dims)
        )
        assert rep.asc <= t.rows and rep.dsc <= t.rows


def test_chain_matches_oracle():
    for seed in range(40):
        t = random_matrix(seed, 1 + seed % 6)
        rep = chain_report(t)
        _, _, asc, dsc = brute_chain(t)
        assert rep.asc == asc and rep.dsc == dsc


@given(gq_matrices(square=True))
@settings(max_examples=60, deadline=None)
def test_chain_report_agrees_with_oracle(t):
    rep = chain_report(t)
    kernel_dims, ranks, asc, dsc = brute_chain(t)
    n = len(rep.range_dims)
    assert rep.range_dims == tuple(ranks[:n]) and rep.kernel_dims == tuple(kernel_dims[:n])
    assert (rep.asc, rep.dsc) == (asc, dsc) and ranks[n - 1] == ranks[-1]


def _dense_nilpotent(d):
    """V N V^-1 with N a 0/1 superdiagonal (some ones dropped), V dense."""
    rng = random.Random(f"nilpotent:{d}")
    n = Matrix(d, d, [int(j == i + 1 and rng.random() < 0.8) for i in range(d) for j in range(d)])
    v = dense_matrix(d, d, f"similarity:{d}")
    return n, v @ n @ invert(v)


@pytest.mark.parametrize("d", [16, 20])
def test_dense_nilpotent_chain_holds_d_vectors(d, monkeypatch):
    """The chain of a nilpotent d x d matrix holds d vectors, one reduction
    each after the first elimination, not the d(d+1)/2 rows of every
    power's row space."""
    n, t = _dense_nilpotent(d)
    left_kernel_chain.cache_clear()
    reduced = []
    real = exact._reduce_below

    def reduce_below(pivots, row, width):
        reduced.append(row)
        return real(pivots, row, width)

    monkeypatch.setattr(exact, "_reduce_below", reduce_below)
    rep = chain_report(t)
    kernel_dims, ranks, asc, dsc = brute_chain(n)  # similar matrices share chains
    assert rep.range_dims == tuple(ranks[: asc + 2]) and (rep.asc, rep.dsc) == (asc, dsc)
    steps = left_kernel_chain(t)
    assert len(steps) == asc and sum(map(len, steps)) == d
    assert len(reduced) == 2 * d  # d rows of T, then each vector of the chain once


def test_asc_equals_dsc_in_finite_dimension():
    for seed in range(60):
        t = random_matrix(seed, 1 + seed % 8)
        rep = chain_report(t)
        assert rep.asc == rep.dsc


def test_similarity_invariance():
    rng = random.Random("similarity")
    for seed in range(20):
        t = random_matrix(seed, 2 + seed % 4)
        v = _random_unimodular(rng, t.rows)
        rep = chain_report(t)
        conj = chain_report(v @ t @ invert(v))
        assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (
            conj.asc,
            conj.dsc,
            conj.alpha,
            conj.beta,
        )


def test_chain_report_requires_square():
    with pytest.raises(ValueError):
        chain_report(Matrix.zeros(2, 3))


def test_chain_report_zero_dimensional():
    rep = chain_report(Matrix.zeros(0, 0))
    assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (0, 0, 0, 0)


# --- the ascent/descent characterizations --------------------------------


def test_asc_predicate_examples():
    check = prop_asc_predicate(J2, 1)
    assert not check.holds and check.witness == (GQ(1), GQ(0))
    assert prop_asc_predicate(J2, 2).holds
    assert prop_asc_predicate(Matrix.identity(2), 0).holds


def test_dsc_predicate_examples():
    assert prop_dsc_predicate(J2, 2).holds
    failing = prop_dsc_predicate(J2, 1)
    assert not failing.holds and failing.failing_n is not None
    trivial = prop_dsc_predicate(Matrix.identity(2), 0)
    assert trivial.holds
    assert all(y.dim == 0 for _, y in trivial.witnesses)


def _reference_complement(n_m, r_n):
    """Y_n as a basis of N(T^m) ∩ R(T^n) extended by the rows of N(T^m) gives it."""
    pivots = {min(row): row for row in subspace_intersection(n_m, r_n).rows}
    return integer_span(n_m.ambient_dim, [row for row in n_m.rows if extend_echelon(pivots, row)])


def test_predicates_match_chain_indices_exhaustively():
    rng = random.Random("dsc-witnesses")
    matrices = [random_matrix(seed, 1 + seed % 5) for seed in range(25)]
    matrices += [_structured_block(rng, 2 + seed % 4) for seed in range(15)]
    failures = overlaps = 0
    for t in matrices:
        d = t.rows
        rep = chain_report(t)
        for m in range(d + 1):
            assert prop_asc_predicate(t, m).holds == (rep.asc <= m)
            check = prop_dsc_predicate(t, m)
            assert check.holds == (rep.dsc <= m)
            n_m = power_kernel(t, m)
            sums = [subspace_sum(n_m, power_image(t, n)).is_full() for n in range(d + 1)]
            first_short = sums.index(False) if False in sums else None
            assert check.failing_n == first_short
            stop = d + 1 if first_short is None else first_short
            assert [n for n, _ in check.witnesses] == list(range(stop))
            for n, y_n in check.witnesses:
                r_n = power_image(t, n)
                assert n_m.contains(y_n)
                assert is_direct_sum([y_n, r_n])
                assert subspace_sum(y_n, r_n).is_full()
                assert y_n.rows == _reference_complement(n_m, r_n).rows
                overlaps += not subspace_intersection(n_m, r_n).is_zero()
            failures += first_short is not None
    # both outcomes occur, and so do complements that must skip kernel
    # rows lying in R(T^n)
    assert failures >= 20 and overlaps >= 20, (failures, overlaps)


# --- compressions ---------------------------------------------------------


def test_compression_identity_projection():
    t = random_matrix(3, 3)
    assert compression(t, Matrix.identity(3)) == t


def test_compression_diagonal():
    t = Matrix.diag([1, 2])
    p = Matrix.diag([1, 0])
    assert compression(t, p) == Matrix.diag([1])


def test_compression_block_extraction():
    t = block_diag(J2, Matrix.identity(1))
    p = Matrix.diag([1, 1, 0])
    assert compression(t, p) == J2


def test_compression_rejects_non_idempotent():
    with pytest.raises(ValueError):
        compression(Matrix.identity(2), Matrix.from_rows([[1, 1], [0, 1]]))


def test_block_form_examples():
    t = random_matrix(7, 3)
    block, v = ptp_block_form(t, Matrix.identity(3))
    assert block == t
    block, _ = ptp_block_form(Matrix.diag([1, 2, 3]), Matrix.diag([1, 1, 0]))
    assert block == Matrix.diag([1, 2, 0])
    block, _ = ptp_block_form(t, Matrix.zeros(3, 3))
    assert block == Matrix.zeros(3, 3)


def test_block_form_requires_commuting():
    with pytest.raises(ValueError):
        ptp_block_form(J2, Matrix.diag([1, 0]))


def test_block_form_matches_compression_chain():
    # conjugated commuting projection: first block and compression agree
    rng = random.Random("ptp")
    for seed in range(10):
        r, k = 2, 2
        core = block_diag(random_matrix(seed, r), random_matrix(seed + 99, k))
        proj = block_diag(Matrix.identity(r), Matrix.zeros(k, k))
        v = _random_unimodular(rng, r + k)
        t = v @ core @ invert(v)
        p = v @ proj @ invert(v)
        block, _ = ptp_block_form(t, p)
        t_p = compression(t, p)
        lead = Matrix(
            t_p.rows,
            t_p.cols,
            [block.at(i, j) for i in range(t_p.rows) for j in range(t_p.cols)],
        )
        assert lead == t_p
        rep_block = chain_report(lead)
        rep_comp = chain_report(t_p)
        assert (rep_block.asc, rep_block.dsc) == (rep_comp.asc, rep_comp.dsc)


# --- direct sums ----------------------------------------------------------


def test_direct_sum_chain_examples():
    rep = chain_report(direct_sum(J2, Matrix.identity(1)))
    assert rep.asc == 2 and rep.dsc == 2
    rep = chain_report(direct_sum(Matrix.identity(2), Matrix.identity(2)))
    assert rep.asc == 0
    rep = chain_report(direct_sum(J2, J3))
    assert rep.asc == 3


def test_direct_sum_max_law():
    for seed in range(25):
        t1 = random_matrix(seed, 1 + seed % 3)
        t2 = random_matrix(seed + 1000, 1 + (seed + 1) % 3)
        rep = chain_report(direct_sum(t1, t2))
        r1, r2 = chain_report(t1), chain_report(t2)
        assert rep.asc == max(r1.asc, r2.asc)
        assert rep.dsc == max(r1.dsc, r2.dsc)
