"""Hand-worked cases for the benchmark's independent checkers.

    python3 -m pytest ascbench/test_oracle.py -q
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
from oracle import GQ, chain, classify, fmt_scalar, parse_scalar, rank, section

F = Fraction
Z = GQ(F(0), F(0))


def q(re, im=0) -> GQ:
    return GQ(F(re), F(im))


def jordan_nilpotent(n: int) -> list[list[GQ]]:
    return [[q(1) if j == i + 1 else Z for j in range(n)] for i in range(n)]


def test_oracle_imports_nothing_from_the_program():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [n for n in names if n.split(".")[0] == "ascdesc"]


def test_jordan_block_has_asc_equal_dsc_equal_n():
    for n in (1, 2, 5, 9):
        ch = chain(jordan_nilpotent(n))
        assert ch["asc"] == ch["dsc"] == n
        assert ch["kernel_dims"] == list(range(n + 1)) + [n]
        assert ch["range_dims"] == list(range(n, -1, -1)) + [0]
        assert ch["alpha"] == ch["beta"] == 1


def test_rank_deficient_gaussian_rational_matrix():
    # second row is twice the first, third is independent: rank 2
    a = [[q(F(1, 2)), q(0, 1), q(1, 1)],
         [q(1), q(0, 2), q(2, 2)],
         [q(0), q(F(1, 3)), q(0, -1)]]
    assert rank(a) == 2
    # outer product (1, i/2, -1/3)^T (2, 1+i, 0): rank 1, not nilpotent since
    # its trace (right . left = 3/2 + i/2) is nonzero, so asc = 1
    left, right = (q(1), GQ(F(0), F(1, 2)), q(F(-1, 3))), (q(2), q(1, 1), q(0))
    b = [[x * y for y in right] for x in left]
    assert rank(b) == 1
    ch = chain(b)
    assert (ch["kernel_dims"], ch["asc"], ch["alpha"]) == ([0, 2, 2], 1, 2)


def test_chain_of_jordan_block_plus_invertible_part():
    # J2 (+) (1/2 + i): the nilpotent block stabilizes after two steps
    t = [[q(0), q(1), Z], [Z, q(0), Z], [Z, Z, GQ(F(1, 2), F(1))]]
    ch = chain(t)
    assert ch["kernel_dims"] == [0, 1, 2, 2]
    assert ch["range_dims"] == [3, 2, 1, 1]
    assert ch["asc"] == ch["dsc"] == 2


def test_resolvent_gamma_matches_the_closed_form_and_an_svd():
    for n in (2, 10, 100, 1000):
        a = 1.0 / n
        closed = math.sqrt((1 + 2 * a * a - math.sqrt(1 + 4 * a * a)) / 2)
        svd = np.linalg.svd(np.array([[a, 1.0], [0.0, a]]), compute_uv=False)[-1]
        assert math.isclose(oracle.resolvent_gamma(n), svd, rel_tol=1e-9)
        # the closed form loses about 4 log10(n) digits to cancellation
        assert math.isclose(oracle.resolvent_gamma(n), closed, rel_tol=max(1e-12, 1e-15 * n ** 4))
    assert math.isclose(oracle.resolvent_gamma(2), 0.20710678118654752, rel_tol=1e-14)


def test_scalar_text_round_trips():
    for text in ("0", "3", "-2/3", "1i", "-1i", "-2/3i", "1/2+3/4i", "-1-1i", "5-1/7i"):
        assert fmt_scalar(parse_scalar(text)) == text
    assert parse_scalar("1/2+3/4i") == GQ(F(1, 2), F(3, 4))
    assert (parse_scalar("i"), parse_scalar("-i"), parse_scalar("2-i")) == (q(0, 1), q(0, -1), q(2, -1))


def test_banded_section_follows_the_readme_rule():
    # entry (i, j) reads diagonal j - i at position min(i, j)
    spec = {"variant": "banded", "diagonals": {
        "1": {"pre": ["7"], "period": ["1", "2"]}, "-1": {"pre": [], "period": ["i"]}}}
    sec = section(spec, 4)
    assert [sec[t][t + 1] for t in range(3)] == [q(7), q(1), q(2)]
    assert [sec[t + 1][t] for t in range(3)] == [q(0, 1)] * 3
    assert sec[0][0] == Z and sec[0][2] == Z


def test_direct_sum_section_gives_the_rest_to_the_flexible_part():
    dense = {"variant": "dense", "matrix": {"rows": 1, "cols": 1, "field": "gq", "entries": [["5"]]}}
    shift = {"variant": "banded", "diagonals": {"1": {"pre": [], "period": ["1"]}}}
    sec = section({"variant": "direct_sum", "parts": [dense, shift]}, 4)
    assert sec[0] == [q(5), Z, Z, Z]
    assert [sec[i][i + 1] for i in range(1, 3)] == [q(1), q(1)]
    assert sec[0][1] == Z


def test_window_rule():
    assert classify([1, 1, 1]) == 1
    assert classify([16, 24, 32]) == "divergent"
    assert classify([1, 2, 2]) == "inconclusive"
    assert classify([3, 2, 1]) == "inconclusive"


def test_backward_shift_diverges_at_zero_only():
    shift = {"variant": "banded", "diagonals": {"1": {"pre": [], "period": ["1"]}}}
    sizes = (4, 6, 8)
    at_zero = [chain(section(shift, n)) for n in sizes]
    assert classify([c["asc"] for c in at_zero]) == "divergent"
    assert classify([c["alpha"] for c in at_zero]) == 1
    shifted = [chain(oracle.shifted(section(shift, n), q(2, 1))) for n in sizes]
    assert classify([c["asc"] for c in shifted]) == 0


def test_analyze_check_flags_a_wrong_report():
    t = jordan_nilpotent(3)
    good = {"report": chain(t)}
    assert oracle.check_analyze(good, t) == []
    bad = {"report": {**chain(t), "asc": 2}}
    assert oracle.check_analyze(bad, t)


def test_wrongly_shaped_output_is_a_failed_operation():
    import run
    from workloads import Op

    op = Op("verify/prop11", ["verify", "--theorem", "prop11", "--seed", "0", "--trials", "1"],
            "verify", data={"trials": 1})
    spectrum = Op("spectrum/x", ["spectrum", "m.json"], "spectrum",
                  data={"matrix": jordan_nilpotent(2), "eigen": None})
    shapes = ['{"report": []}', '{"report": {"theorem": "prop11", "trials": 1, "verdicts": 1}}']
    for text in shapes:
        rounds = [[run.Outcome(0.1, 0, text, None)]]
        attempted, failed, bad_exit, wrong = run.check_all([op], rounds)
        assert (attempted, failed, bad_exit) == (1, 1, [])
        assert "unreadable output" in wrong[0]
    # a scalar such as 1/0 in a report raises ZeroDivisionError in the checker
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")
    text = ('{"report": {"mode": "dense", "sigma_asc": [], "sigma_dsc": [], "complete": true, '
            '"points": [{"lambda": "1/0", "alpha": 1, "beta": 1, "asc": 2, "dsc": 2}]}}')
    attempted, failed, _, wrong = run.check_all([spectrum], [[run.Outcome(0.1, 0, text, None)]] * 2)
    assert (attempted, failed) == (2, 2) and len(wrong) == 2
