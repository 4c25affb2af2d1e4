import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from ascdesc import spectra
from ascdesc.cli import main
from ascdesc.exact import Matrix, block_diag, invert, matrix_to_obj
from ascdesc.gq import GQ
from ascdesc.spectra import (
    CERT_FINITE_DIM,
    _simple_roots_mod,
    ascent_spectrum,
    eigenvalue_multiplicities,
    eigenvalues_exact,
    point_profile,
)
from ascdesc.theorems import random_matrix
from oracles import oracle_eigen

J2 = Matrix.from_rows([[0, 1], [0, 0]])
J3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_eigenvalues_diag():
    values, residual = eigenvalues_exact(Matrix.diag([1, 2, 2]))
    assert values == (GQ(1), GQ(2)) and residual == 0


def test_eigenvalues_rotation_split_over_gaussian_rationals():
    values, residual = eigenvalues_exact(Matrix.from_rows([[0, -1], [1, 0]]))
    assert values == (GQ(0, -1), GQ(0, 1)) and residual == 0


def test_eigenvalues_irrational_residual():
    companion = Matrix.from_rows([[0, 2], [1, 0]])  # x^2 - 2
    values, residual = eigenvalues_exact(companion)
    assert values == () and residual == 2


def test_eigenvalue_multiplicities():
    roots, residual = eigenvalue_multiplicities(Matrix.diag([1, 2, 2]))
    assert roots == ((GQ(1), 1), (GQ(2), 2)) and residual == 0


def companion(*coeffs):
    """Companion matrix of the monic x^n + c_(n-1) x^(n-1) + ... + c_0 (coeffs ascending)."""
    n = len(coeffs)
    rows = [[GQ(0)] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = GQ(1)
        rows[i][n - 1] = -GQ(coeffs[i])
    return Matrix.from_rows(rows)


def jordan_similar(blocks, seed):
    """V J V^-1 for J with Jordan blocks [(eigenvalue, size), ...], V random invertible."""
    j = block_diag(*(
        Matrix(size, size, [lam if r == c else GQ(int(c == r + 1))
                            for r in range(size) for c in range(size)])
        for lam, size in blocks
    ))
    rng = random.Random(f"jordan-similar:{seed}")
    while True:
        v = Matrix(j.rows, j.rows, [GQ(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in j.entries])
        try:
            return v @ j @ invert(v)
        except ValueError:
            continue


def random_gq_matrix(seed):
    """d = 1..8; odd seeds keep about a quarter of the entries, so more roots split."""
    rng = random.Random(f"eigen-oracle:{seed}")
    d = 1 + seed % 8
    keep = 0.25 if seed % 2 else 1.0
    return Matrix(d, d, [
        GQ(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
        if rng.random() < keep else GQ(0)
        for _ in range(d * d)
    ])


GAUSS = GQ(Fraction(1, 3), Fraction(2, 3))
EIGEN_CASES = {
    "d0": Matrix(0, 0, []),
    "jordan-gauss": jordan_similar([(GAUSS, 3), (GAUSS, 1), (GQ(-2, 1), 2)], 0),
    "jordan-mixed": jordan_similar(
        [(GQ(0), 2), (GQ(0), 1), (GQ(0, 1), 2), (GQ(Fraction(-1, 2)), 1)], 1
    ),
    "x2-2": companion(-2, 0),
    "x2+2": companion(2, 0),
    "4x2+1": companion(Fraction(1, 4), 0),
    "9x2-4": companion(Fraction(-4, 9), 0),
    # (x^2 - 2) (x - 1/2 - i)^2 (x^2 + 1/9) (x^2 + x + 1): two factors split, two do not
    "mixed": block_diag(
        companion(-2, 0),
        jordan_similar([(GQ(Fraction(1, 2), 1), 2)], 2),
        companion(Fraction(1, 9), 0),
        companion(1, 1),
    ),
    "mixed-companion": companion(2, -2, 1, -1, -1),  # (x - 1)(x^2 + 1)(x^2 - 2)
    **{f"random-{seed}": random_gq_matrix(seed) for seed in range(16)},
}


@pytest.mark.parametrize("name", list(EIGEN_CASES))
def test_eigenvalue_multiplicities_match_oracle(name):
    t = EIGEN_CASES[name]
    roots, residual = eigenvalue_multiplicities(t)
    expected, expected_residual = oracle_eigen(t)
    assert {(lam.re, lam.im): mult for lam, mult in roots} == expected
    assert residual == expected_residual
    assert [lam.sort_key() for lam, _ in roots] == sorted(lam.sort_key() for lam, _ in roots)


def test_eigenvalue_oracle_cases_cover_the_root_shapes():
    assert eigenvalue_multiplicities(EIGEN_CASES["d0"]) == ((), 0)
    assert eigenvalue_multiplicities(EIGEN_CASES["jordan-gauss"])[0][1] == (GAUSS, 4)
    assert eigenvalue_multiplicities(EIGEN_CASES["x2-2"]) == ((), 2)
    assert eigenvalue_multiplicities(EIGEN_CASES["x2+2"]) == ((), 2)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    assert eigenvalue_multiplicities(EIGEN_CASES["4x2+1"]) == (
        ((GQ(0, -half), 1), (GQ(0, half), 1)), 0
    )
    assert eigenvalue_multiplicities(EIGEN_CASES["9x2-4"]) == (
        ((GQ(-two_thirds), 1), (GQ(two_thirds), 1)), 0
    )
    roots, residual = eigenvalue_multiplicities(EIGEN_CASES["mixed"])
    assert dict(roots) == {GQ(half, 1): 2, GQ(0, Fraction(1, 3)): 1, GQ(0, Fraction(-1, 3)): 1}
    assert residual == 4


@st.composite
def _scalars(draw, bound):
    den = draw(st.sampled_from([1, 1, 2, 3, 7]))
    part = st.integers(min_value=-bound, max_value=bound)
    return GQ(Fraction(draw(part), den), Fraction(draw(part), den))


@st.composite
def eigen_matrices(draw):
    """n <= 8: plain or sparse entries, or V J V^-1 with repeated nonzero eigenvalues."""
    n = draw(st.integers(min_value=1, max_value=8))
    bound = draw(st.sampled_from([3, 10**12]))
    kind = draw(st.sampled_from(["dense", "sparse", "jordan"]))
    if kind != "jordan":
        zero = st.just(GQ(0))
        entry = _scalars(bound) if kind == "dense" else st.one_of(zero, zero, zero, _scalars(bound))
        return Matrix(n, n, draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    values = draw(st.lists(_scalars(bound), min_size=1, max_size=3))
    blocks, left = [], n
    while left:
        size = draw(st.integers(min_value=1, max_value=left))
        blocks.append((draw(st.sampled_from(values)), size))
        left -= size
    j = block_diag(*(
        Matrix(size, size, [lam if r == c else GQ(int(c == r + 1))
                            for r in range(size) for c in range(size)])
        for lam, size in blocks
    ))
    unit = st.integers(min_value=-1, max_value=1)
    lower = Matrix(n, n, [GQ(1) if r == c else GQ(draw(unit)) if c < r else GQ(0)
                          for r in range(n) for c in range(n)])
    upper = Matrix(n, n, [GQ(1) if r == c else GQ(draw(unit), draw(unit)) if c > r else GQ(0)
                          for r in range(n) for c in range(n)])
    v = lower @ upper
    return v @ j @ invert(v)


@given(eigen_matrices())
@settings(max_examples=30, deadline=None)
def test_eigenvalue_multiplicities_match_oracle_property(t):
    roots, residual = eigenvalue_multiplicities(t)
    expected, expected_residual = oracle_eigen(t)
    assert {(lam.re, lam.im): mult for lam, mult in roots} == expected
    assert residual == expected_residual


def test_eigenvalues_of_one_by_one_and_zero_matrices():
    lam = GQ(Fraction(-7, 3), 2)
    assert eigenvalue_multiplicities(Matrix.from_rows([[lam]])) == (((lam, 1),), 0)
    assert eigenvalue_multiplicities(Matrix.zeros(4, 4)) == (((GQ(0), 4),), 0)


def test_roots_colliding_modulo_small_primes_move_the_prime_on():
    # 4390 - 1 = 3 * 7 * 11 * 19: the two roots meet mod 3, 7, 11 and 19
    h = [(1, 0), (-4391, 0), (4390, 0)]
    assert _simple_roots_mod(h, [(2, 0), (-4391, 0)])[0] == 23
    t = jordan_similar([(GQ(1), 1), (GQ(4390), 2)], 4)
    assert eigenvalue_multiplicities(t) == (((GQ(1), 1), (GQ(4390), 2)), 0)


def test_repeated_root_raises_instead_of_searching_primes_forever():
    # (x - 1)^2 has no prime at which its root is simple; run in a child
    # process so that an unbounded search fails by timeout, not a hang
    code = (
        "from ascdesc.spectra import _gaussian_integer_roots\n"
        "_gaussian_integer_roots([(1, 0), (-2, 0), (1, 0)])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.stderr.splitlines()[-1].startswith("RuntimeError: h has a repeated root")


def test_eigenvalue_far_beyond_the_prime_is_lifted():
    # Both roots are simple mod 3.  The residue of 10^9 + 5i is only right
    # once 3^k exceeds twice the coefficient bound of about 3 * 10^9.
    lam = GQ(10**9, 5)
    t = jordan_similar([(lam, 2), (GQ(2), 1)], 3)
    assert eigenvalue_multiplicities(t) == (((GQ(2), 1), (lam, 2)), 0)
    assert eigenvalue_multiplicities(t.scale(Fraction(1, 6))) == (
        ((GQ(Fraction(1, 3)), 1), (lam * GQ(Fraction(1, 6)), 2)), 0
    )


def test_dense_paths_do_not_call_sympy(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy reached from the eigenvalue path")

    for name in ("dup_factor_list", "dup_zz_factor"):
        monkeypatch.setattr(sympy.polys.factortools, name, refuse)
    monkeypatch.setattr(DomainMatrix, "charpoly", refuse)
    calls = []

    def counting(t):
        calls.append(t)
        return eigenvalue_multiplicities(t)

    monkeypatch.setattr(spectra, "eigenvalue_multiplicities", counting)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(matrix_to_obj(EIGEN_CASES["mixed"])), encoding="utf-8")
    for argv in (["spectrum", str(path)],
                 ["verify", "--theorem", "app_blocks", "--seed", "0", "--trials", "3"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    assert calls


def test_point_profile_examples():
    assert point_profile(J2, 0) == (2, 2, 1, 1)
    assert point_profile(J2, 1) == (0, 0, 0, 0)
    assert point_profile(Matrix.diag([1, 2]), 1) == (1, 1, 1, 1)


def test_spectra_empty_with_certificate():
    for seed in range(10):
        t = random_matrix(seed, 2 + seed % 4)
        profile = ascent_spectrum(t)
        assert profile.sigma_asc == () and profile.sigma_dsc == ()
        assert profile.certificate == CERT_FINITE_DIM


def test_profile_table_contents():
    profile = ascent_spectrum(J3)
    assert profile.complete
    assert len(profile.points) == 1
    point = profile.points[0]
    assert point.lam == GQ(0) and point.asc == 3 and point.alpha == 1


def test_profile_json_shape():
    obj = ascent_spectrum(J3).to_obj()
    assert obj["complete"] is True
    assert obj["sigma_asc"] == [] and obj["certificate"] == CERT_FINITE_DIM
    assert obj["points"] == [
        {"lambda": "0", "asc": 3, "dsc": 3, "alpha": 1, "beta": 1}
    ]


def test_positive_alpha_iff_eigenvalue():
    for seed in range(10):
        t = random_matrix(seed, 2 + seed % 3)
        values, residual = eigenvalues_exact(t)
        for lam in values:
            assert point_profile(t, lam)[2] > 0
        if residual == 0:
            # a point off the eigenvalue list has trivial kernel
            probe = GQ(17)
            assert probe not in values
            assert point_profile(t, probe)[2] == 0

