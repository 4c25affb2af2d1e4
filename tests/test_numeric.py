import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascdesc.exact import (
    Matrix,
    Subspace,
    image_basis,
    integer_span,
    matrix_from_obj,
    subspace_sum,
)
from ascdesc.gq import GQ
from ascdesc.numeric import (
    FloatSubspace,
    Tolerance,
    delta,
    gamma,
    gap,
    matrix_to_array,
    orthonormalize_rows,
    subspace_to_float,
    svd_views,
)
from ascdesc.theorems import random_matrix


def line(*coords):
    v = np.array(coords, dtype=float)
    return FloatSubspace(len(coords), (v / np.linalg.norm(v)).reshape(-1, 1))


def test_gamma_examples():
    assert gamma(np.diag([3.0, 4.0, 0.0])) == pytest.approx(3.0, abs=1e-12)
    assert gamma(np.zeros((2, 2))) == math.inf
    assert gamma(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_gamma_accepts_exact_matrix():
    assert gamma(Matrix.diag([2, 1])) == pytest.approx(1.0, abs=1e-12)


def test_gamma_definitional_form():
    # brute minimization of |Tx| over unit vectors at distance 1 from the
    # kernel never drops below the reported value
    rng = np.random.default_rng(7)
    for seed in range(10):
        t = matrix_to_array(random_matrix(seed, 4))
        g = gamma(t)
        kernel = svd_views(t)[1]
        q = kernel.ortho_basis
        best = math.inf
        for _ in range(200):
            x = rng.normal(size=4)
            if q.shape[1]:
                x = x - q @ (q.conj().T @ x)
            norm = np.linalg.norm(x)
            if norm < 1e-9:
                continue
            x = x / norm  # unit vector orthogonal to the kernel: dist = 1
            best = min(best, float(np.linalg.norm(t @ x)))
        if math.isinf(g):
            assert q.shape[1] == 4
        else:
            assert best >= g - 1e-6


def test_delta_examples():
    e1 = line(1, 0)
    e2 = line(0, 1)
    assert delta(e1, e2) == pytest.approx(1.0, abs=1e-12)
    plane = FloatSubspace(2, np.eye(2))
    assert delta(e1, plane) == pytest.approx(0.0, abs=1e-12)
    tilted = line(math.cos(math.pi / 6), math.sin(math.pi / 6))
    assert delta(e1, tilted) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_delta_matches_sine_oracle(theta):
    # independent derivation: residual of e1 against the explicit projector
    z = np.array([math.cos(theta), math.sin(theta)])
    residual = np.array([1.0, 0.0]) - (z @ np.array([1.0, 0.0])) * z
    assert delta(line(1, 0), line(*z)) == pytest.approx(
        np.linalg.norm(residual), abs=1e-10
    )
    assert delta(line(1, 0), line(*z)) == pytest.approx(abs(math.sin(theta)), abs=1e-10)


def test_delta_zero_subspace_conventions():
    zero = FloatSubspace.zero(2)
    assert delta(zero, line(1, 0)) == 0.0
    assert delta(line(1, 0), zero) == pytest.approx(1.0, abs=1e-12)


def test_delta_bounded_by_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = orthonormalize_rows(rng.normal(size=(2, 4)))
        z = orthonormalize_rows(rng.normal(size=(2, 4)))
        assert delta(y, z) <= 1 + 1e-12


def test_gap_examples():
    e1 = line(1, 0)
    assert gap(e1, e1) == 0.0
    assert gap(e1, line(0, 1)) == pytest.approx(1.0, abs=1e-12)
    tilted = line(math.cos(math.pi / 6), math.sin(math.pi / 6))
    assert gap(e1, tilted) == pytest.approx(0.5, abs=1e-10)


def test_gap_equals_projector_norm_for_equal_dims():
    rng = np.random.default_rng(11)
    for _ in range(25):
        y = orthonormalize_rows(rng.normal(size=(2, 5)))
        z = orthonormalize_rows(rng.normal(size=(2, 5)))
        if y.dim != z.dim:
            continue
        qy, qz = y.ortho_basis, z.ortho_basis
        norm = np.linalg.norm(qy @ qy.conj().T - qz @ qz.conj().T, ord=2)
        assert gap(y, z) == pytest.approx(norm, abs=1e-9)


def test_to_float_examples():
    ident = matrix_to_array(Matrix.identity(2))
    assert np.allclose(ident, np.eye(2))
    m = Matrix.from_rows([[1, 1]])
    diag = integer_span(m.cols, m.int_rows)
    q = subspace_to_float(diag)
    assert q.dim == 1
    assert np.allclose(np.abs(q.ortho_basis.ravel()), [1 / math.sqrt(2)] * 2)
    assert subspace_to_float(Subspace.zero(3)).dim == 0


def test_to_float_complex_entries():
    m = Matrix.from_rows([[GQ(0, 1)]])
    arr = matrix_to_array(m)
    assert arr.dtype == np.complex128 and arr[0, 0] == 1j


def _array_from_entries(m):
    """The float view of m built from its GaussianRational entries."""
    if any(v.im for v in m.entries):
        data = [v.to_complex() for v in m.entries]
        return np.array(data, dtype=np.complex128).reshape(m.rows, m.cols)
    return np.array([float(v.re) for v in m.entries], dtype=np.float64).reshape(m.rows, m.cols)


@pytest.mark.parametrize(
    "m",
    [
        matrix_from_obj({"rows": 2, "cols": 3, "entries": [
            ["1/3", "-2/7", "0"], ["5", "0", "-1/1000000007"]]}),
        matrix_from_obj({"rows": 3, "cols": 2, "entries": [
            ["1/3+2/9i", "0"], ["0", "-7"], ["1/6i", "3/5"]]}),
        Matrix.zeros(0, 3),
        Matrix.zeros(2, 0),
        Matrix.zeros(2, 2),
        # numerators and denominator past 2^53: each entry is rounded once
        Matrix.from_integer_rows(
            2, 3 * 10**40 + 1, [{0: (10**41 + 7, 0), 1: (-(10**39) - 3, 10**18 + 1)}]
        ),
        Matrix.from_integer_rows(2, 10**300 + 1, [{0: (1, 0), 1: (-(10**300), 0)}]),
    ],
)
def test_matrix_to_array_matches_the_entry_route(m):
    arr, ref = matrix_to_array(m), _array_from_entries(m)
    assert arr.dtype == ref.dtype and arr.shape == ref.shape
    assert arr.tobytes() == ref.tobytes()


def test_delta_zero_iff_containment_on_rational_subspaces():
    import random

    rng = random.Random("containment")
    for seed in range(40):
        dim = rng.randint(2, 5)
        y_exact = image_basis(random_matrix(seed, dim))
        z_exact = image_basis(random_matrix(seed + 5000, dim))
        merged = subspace_sum(y_exact, z_exact)
        contained = merged.dim == z_exact.dim  # Y + Z = Z exactly
        value = delta(subspace_to_float(y_exact), subspace_to_float(z_exact))
        if contained:
            assert value < 1e-9
        else:
            assert value > 1e-6


def test_float_kernel_and_image_ranks():
    t = np.array([[1.0, 2.0], [2.0, 4.0]])
    rank, kernel, image, _ = svd_views(t)
    assert (rank, kernel.dim, image.dim) == (1, 1, 1)


def test_tolerance_validation():
    # at rank_rel >= 1 (or inf, or nan) every rank reads 0, and an
    # infinite or nan conv_tol makes every tail converged or undecided
    for kwargs in (
        {"rank_rel": 0},
        {"rank_rel": math.nan},
        {"rank_rel": math.inf},
        {"rank_rel": float("1e400")},
        {"rank_rel": 1},
        {"conv_tol": 0},
        {"conv_tol": math.nan},
        {"conv_tol": math.inf},
    ):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


def test_float_subspace_rejects_skew_basis():
    with pytest.raises(ValueError):
        FloatSubspace(2, np.array([[1.0], [1.0]]))


def _low_rank(gen, rows, cols, rank, is_complex):
    def draw(shape):
        a = gen.normal(size=shape)
        return a + 1j * gen.normal(size=shape) if is_complex else a

    return draw((rows, rank)) @ draw((rank, cols))


def _bare(s):
    """The same subspace without its complement: delta takes the residual route."""
    return FloatSubspace(s.ambient_dim, s.ortho_basis)


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.data(),
    st.booleans(),
    st.sampled_from([1.0, 1e-3, 1e-8, 0.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_delta_from_svd_complements_matches_residual_route(rows, cols, data, is_complex, scale, seed):
    # T and a perturbation T + scale * E, both of any rank up to full
    gen = np.random.default_rng(seed)
    full = min(rows, cols)
    t = _low_rank(gen, rows, cols, data.draw(st.integers(0, full)), is_complex)
    e = _low_rank(gen, rows, cols, data.draw(st.integers(0, full)), is_complex)
    _, k_t, r_t, _ = svd_views(t)
    _, k_n, r_n, _ = svd_views(t + scale * e)
    for y, z in [(k_n, k_t), (k_t, k_n), (r_n, r_t), (r_t, r_n), (k_t, k_t), (r_n, r_n)]:
        assert z.complement is not None
        assert abs(delta(y, z) - delta(y, _bare(z))) <= 1e-12


def test_delta_is_exactly_one_when_y_has_the_larger_dimension():
    gen = np.random.default_rng(5)
    for ambient in (1, 2, 5, 9):
        for dy in range(1, ambient + 1):
            for dz in range(dy):
                y = orthonormalize_rows(gen.normal(size=(dy, ambient)))
                z_rows = gen.normal(size=(dz, ambient))
                z = orthonormalize_rows(z_rows)
                assert delta(y, z) == 1.0
                # the same Z as an image carrying its complement
                if dz:
                    z_image = svd_views(z_rows.T)[2]
                    assert z_image.dim == dz and delta(y, z_image) == 1.0


def test_delta_into_the_whole_space_is_exactly_zero():
    whole = svd_views(np.random.default_rng(2).normal(size=(4, 4)))[2]
    assert whole.dim == 4 and whole.complement.shape == (4, 0)
    assert delta(line(1, 2, 3, 4), whole) == 0.0


def test_float_subspace_rejects_a_complement_that_is_not_orthogonal():
    e1 = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        FloatSubspace(2, e1, e1)  # the basis itself
    with pytest.raises(ValueError):
        FloatSubspace(2, e1, np.array([[1.0], [1.0]]) / math.sqrt(2))
    with pytest.raises(ValueError):
        FloatSubspace(2, e1, np.eye(2))  # too many columns for a complement
    assert FloatSubspace(2, e1, np.array([[0.0], [1.0]])).complement.shape == (2, 1)


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        delta(line(1, 0), line(1, 0, 0))
