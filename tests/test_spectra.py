import random
from fractions import Fraction

import pytest

from ascdesc.exact import Matrix, block_diag, invert
from ascdesc.gq import GQ
from ascdesc.spectra import (
    CERT_FINITE_DIM,
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

