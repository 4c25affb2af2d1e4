"""The left-kernel chain against explicit powers ranked by the Bareiss oracle.

Every reader of the chain is compared at k = 0, ..., asc + 1 with the
k-th power, formed by the oracle's own integer product: rank(A^k) and
the chain report by ``bareiss_rank``; N(A^k) by A^k x = 0 on its basis
and its dimension; R(A^k) by its dimension and by [A^k | basis] having
the rank of A^k.  Equal ranks at asc and asc + 1 close the chain.
"""

import random

import pytest

from ascdesc.chains import chain_report
from ascdesc.exact import (
    Matrix,
    block_diag,
    invert,
    left_kernel_chain,
    power_image,
    power_kernel,
    power_rank,
)
from ascdesc.gq import GQ, parse_scalar
from ascdesc.theorems import _random_unimodular
from ascdesc.tower import spec_from_obj

from oracles import bareiss_rank, gi_matmul, to_gaussian_int


def _int_rows(rows, d):
    """Sparse Gaussian-integer rows as dense (re, im) lists of length d."""
    return [[row.get(j, (0, 0)) for j in range(d)] for row in rows]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def assert_chain_matches_powers(a: Matrix, subspaces_at=None):
    """Compare every chain reader with the oracle's powers of A.

    Subspaces are compared at every k, or only at the k in
    ``subspaces_at`` (negative k counted back from asc + 1), which keeps
    the long nilpotent chains of large sections quick.
    """
    d = a.rows
    rep = chain_report(a)
    s = rep.asc
    assert sum(map(len, left_kernel_chain(a))) == rep.kernel_dims[-1]
    if subspaces_at is None:
        check = set(range(s + 2))
    else:
        check = {k % (s + 2) for k in subspaces_at}
    base = to_gaussian_int(a)
    power = [[(int(i == j), 0) for j in range(d)] for i in range(d)]
    ranks = []
    for k in range(s + 2):
        r = bareiss_rank(power)
        ranks.append(r)
        assert power_rank(a, k) == r, k
        assert (rep.range_dims[k], rep.kernel_dims[k]) == (r, d - r), k
        if k in check:
            kernel, image = power_kernel(a, k), power_image(a, k)
            assert kernel.dim == d - r and image.dim == r, k
            if kernel.dim:
                vectors = _int_rows(kernel.rows, d)
                assert bareiss_rank(vectors) == kernel.dim
                assert all(v == (0, 0) for row in gi_matmul(power, _transpose(vectors))
                           for v in row), k
            if image.dim:
                vectors = _int_rows(image.rows, d)
                assert bareiss_rank(vectors) == image.dim
                stacked = [p + v for p, v in zip(power, _transpose(vectors))]
                assert bareiss_rank(stacked) == r, k
        power = gi_matmul(power, base)
    # strictly falling ranks up to the ascent, then one repeat
    assert all(x > y for x, y in zip(ranks[:s], ranks[1 : s + 1])) and ranks[s] == ranks[s + 1]
    assert (rep.asc, rep.dsc, rep.alpha, rep.beta) == (s, s, d - ranks[1], d - ranks[1])
    far = s + 5  # every later power reads the stable entry
    assert power_rank(a, far) == ranks[s]
    assert power_kernel(a, far) == power_kernel(a, s) and power_image(a, far) == power_image(a, s)


def _jordan(eigen_blocks) -> Matrix:
    """Block diagonal of Jordan blocks J_m(lam), one per (lam, m)."""
    blocks = []
    for lam, m in eigen_blocks:
        lam = parse_scalar(lam)
        blocks.append(Matrix(m, m, [lam if i == j else GQ(int(j == i + 1))
                                    for i in range(m) for j in range(m)]))
    return block_diag(*blocks)


JORDAN_LAYOUTS = {
    "mixed": [("0", 3), ("0", 2), ("0", 1), ("1", 2), ("i", 1), ("i", 2), ("2-i", 3)],
    "nilpotent-heavy": [("0", 4), ("0", 2), ("0", 2), ("1", 1), ("i", 3), ("2-i", 1)],
    "one-block-each": [("0", 5), ("1", 3), ("i", 2), ("2-i", 2)],
}


@pytest.mark.parametrize("layout", sorted(JORDAN_LAYOUTS))
def test_conjugated_jordan_matrices_at_every_eigenvalue(layout):
    j = _jordan(JORDAN_LAYOUTS[layout])
    v = _random_unimodular(random.Random(f"power-chain:{layout}"), j.rows)
    a = v @ j @ invert(v)
    for lam in ("0", "1", "i", "2-i", "1/2"):  # every eigenvalue, then none
        assert_chain_matches_powers(a.shifted(parse_scalar(lam)))


WEIGHTED = {"variant": "banded", "diagonals": {
    "1": {"pre": ["1/2"], "period": ["2/3", "3/5+i", "5/7"]}}}
SHIFT = {"variant": "banded", "diagonals": {"1": {"pre": [], "period": ["1"]}}}
FORWARD = {"variant": "banded", "diagonals": {"-1": {"pre": [], "period": ["1"]}}}
RANK_ONE = {"variant": "finite_rank",
            "terms": [{"left": ["1", "-1+i", "2"], "right": ["1/3", "0", "1-i"]}]}
J3_PLUS_S = {"variant": "direct_sum", "parts": [
    {"variant": "dense", "matrix": {"rows": 3, "cols": 3, "field": "gq", "entries": [
        ["1+i", "1", "0"], ["0", "1+i", "1"], ["0", "0", "1+i"]]}},
    FORWARD]}

TOWER_CASES = {
    "B": (SHIFT, ("0", "1/2", "2-i")),
    "S": (FORWARD, ("0", "1/2", "2-i")),
    "weighted": (WEIGHTED, ("0", "1/2")),
    "B+rank-one": ({"variant": "sum", "parts": [SHIFT, RANK_ONE]}, ("0", "1/3", "1/2")),
    "J3+S": (J3_PLUS_S, ("0", "1+i", "1/2")),
}


@pytest.mark.parametrize("n", [9, 48])
@pytest.mark.parametrize("label", sorted(TOWER_CASES))
def test_tower_sections_at_window_points(label, n):
    spec, points = TOWER_CASES[label]
    section = spec_from_obj(spec).realize(n)
    for lam in points:
        # at size 48 the subspaces are compared at the ends of the chain
        assert_chain_matches_powers(section.shifted(parse_scalar(lam)),
                                    None if n < 48 else (0, 1, 2, -3, -2, -1))
