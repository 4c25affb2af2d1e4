import pytest

from ascdesc.exact import Matrix, block_diag, matrix_to_obj
from ascdesc.gq import GQ
from ascdesc.reporting import dumps
from ascdesc.theorems import (
    THEOREM_IDS,
    batch_summary,
    check_H1,
    check_H2,
    check_hypotheses,
    in_M_set,
    in_N_set,
    in_R_set,
    instance_for,
    invertible_commuting_pair,
    random_commuting_pair,
    random_h1_family,
    run_batch,
    verify,
    verify_tower,
)
from ascdesc.tower import BandedSpec, DenseSpec, DirectSumSpec, TowerConfig, backward_shift

J2 = Matrix.from_rows([[0, 1], [0, 0]])
I2 = Matrix.identity(2)
T_BLOCK = block_diag(J2, I2)
S_BLOCK = block_diag(I2, J2)


# --- hypothesis checks ----------------------------------------------------


def test_h1_on_complementary_blocks():
    report = check_H1(S_BLOCK, T_BLOCK)
    assert report.commute and report.h1


def test_h1_fails_for_shared_kernel():
    report = check_H1(J2, J2)
    assert report.commute and not report.h1
    assert report.h1_failing_p == 1
    n_t, n_s, n_ts = report.h1_subspaces
    assert n_t == n_s and n_ts.dim == 2


def test_h1_trivial_with_identity():
    assert check_H1(Matrix.identity(4), T_BLOCK).h1


def test_h2_identity_pair():
    report = check_H2(Matrix.identity(2), Matrix.identity(2))
    assert report.h2 and report.h2_n0 == 0


def test_h2_block_pair():
    report = check_H2(S_BLOCK, T_BLOCK)
    assert report.h2_n0 == 2 and report.h2
    assert report.h2_inclusion == "N(S^n0) in R(T)"


def test_h2_invertible_factor():
    # T invertible makes N(T^n0) = {0} from the second inclusion
    report = check_H2(J2, Matrix.identity(2))
    assert report.h2


def test_check_hypotheses_f_tilde():
    assert check_hypotheses(S_BLOCK, T_BLOCK).f_tilde == "certain-true"


# --- exception sets ---------------------------------------------------------


def test_R_set_membership():
    member = in_R_set(J2, J2, 0)
    assert member.member  # finite ascent and the splitting fails
    assert in_R_set(S_BLOCK, T_BLOCK, 0).member is False


def test_M_set_always_false_dense():
    result = in_M_set(J2, J2, 0)
    assert not result.member
    assert "finite" in result.certificate
    assert result.details["codim_S"] >= 0


def test_N_set_membership():
    assert not in_N_set(S_BLOCK, T_BLOCK, 0).member
    assert in_N_set(J2, J2, 0).member  # H1 fails for the shared-kernel pair


# --- generators -------------------------------------------------------------


def test_h1_family_construction():
    for seed in range(10):
        s, t = random_h1_family(seed)
        report = check_hypotheses(s, t)
        assert report.commute and report.h1 and report.h2


def test_commuting_pair_commutes():
    for seed in range(10):
        s, t = random_commuting_pair(seed)
        assert s @ t == t @ s


def test_invertible_pair():
    from ascdesc.exact import rank

    for seed in range(10):
        a, b = invertible_commuting_pair(seed)
        assert a @ b == b @ a and rank(a) == a.rows


def test_instances_replayable():
    for theorem in THEOREM_IDS:
        first = instance_for(theorem, 3)
        second = instance_for(theorem, 3)
        assert first == second
        assert dumps(verify(theorem, first).to_obj()) == dumps(
            verify(theorem, second).to_obj()
        )


# --- individual verdicts ----------------------------------------------------


def test_theo34_block_pair():
    inst = {
        "theorem": "theo34",
        "seed": None,
        "matrices": {"S": matrix_to_obj(S_BLOCK), "T": matrix_to_obj(T_BLOCK)},
    }
    verdict = verify("theo34", inst)
    assert verdict.verdict == "pass"
    assert verdict.witness["asc_TS"] == 2 == max(
        verdict.witness["asc_T"], verdict.witness["asc_S"]
    )
    assert verdict.quantitative_form


def test_theo34_gates_on_h1():
    inst = {
        "theorem": "theo34",
        "seed": None,
        "matrices": {"S": matrix_to_obj(J2), "T": matrix_to_obj(J2)},
    }
    assert verify("theo34", inst).verdict == "inconclusive"


def test_thC_block_pair():
    inst = {
        "theorem": "thC",
        "seed": None,
        "matrices": {"S": matrix_to_obj(S_BLOCK), "T": matrix_to_obj(T_BLOCK)},
    }
    verdict = verify("thC", inst)
    assert verdict.verdict == "pass"
    assert verdict.witness["n0"] == 2


def test_lemma41_jordan_blocks():
    j3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    inst = {
        "theorem": "lemma41",
        "seed": None,
        "matrices": {"T1": matrix_to_obj(J2), "T2": matrix_to_obj(j3)},
    }
    verdict = verify("lemma41", inst)
    assert verdict.verdict == "pass" and verdict.witness["asc_sum"] == 3


def test_eq_mul_requires_invertible():
    inst = {
        "theorem": "eq_mul",
        "seed": None,
        "matrices": {"A": matrix_to_obj(J2), "B": matrix_to_obj(J2)},
    }
    assert verify("eq_mul", inst).verdict == "inconclusive"


def test_app_blocks_documented_example():
    t = J2
    s = Matrix.diag([1])
    c = Matrix.from_rows([[1], [0]])
    inst = {
        "theorem": "app_blocks",
        "seed": None,
        "matrices": {"T": matrix_to_obj(t), "S": matrix_to_obj(s), "C": matrix_to_obj(c)},
        "params": {"ks": [2]},
    }
    verdict = verify("app_blocks", inst)
    assert verdict.verdict == "pass"
    assert verdict.witness["eigenvalues"] == ["0", "1"]


def test_verify_unknown_theorem():
    with pytest.raises(ValueError):
        verify("nope", {"matrices": {}})


def test_verify_malformed_instance():
    with pytest.raises(ValueError):
        verify("theo34", {"matrices": {"S": {"rows": 1}}})
    with pytest.raises(ValueError):
        verify("theo34", {"matrices": {"S": matrix_to_obj(J2)}})


# --- batches -----------------------------------------------------------------


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_small_batches_have_no_failures(theorem):
    verdicts = run_batch(theorem, 0, 8)
    summary = batch_summary(verdicts)
    assert summary["fail"] == 0, summary
    assert summary["pass"] >= 1


def test_hypothesis_gating_never_fails():
    # shared-kernel commuting pairs violate the splitting hypothesis
    for theorem in ("theo34", "thC", "lemma36"):
        inst = {
            "theorem": theorem,
            "seed": None,
            "matrices": {"S": matrix_to_obj(J2), "T": matrix_to_obj(J2)},
        }
        assert verify(theorem, inst).verdict == "inconclusive"


# --- tower mode ----------------------------------------------------------------


CFG = TowerConfig(n0=8, step=4, count=3)


def _block_fixture():
    # S carries a dense block with a zero tail, T a zero block with a
    # shift tail: the sections commute exactly and the product vanishes
    j3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    s_spec = DirectSumSpec((DenseSpec(j3), BandedSpec.from_dict({})))
    t_spec = DirectSumSpec((DenseSpec(Matrix.zeros(3, 3)), backward_shift()))
    return s_spec, t_spec


def test_tower_monn_inclusion():
    s_spec, t_spec = _block_fixture()
    verdict = verify_tower("monn", s_spec, t_spec, [GQ(0), GQ(1), GQ(2)], CFG)
    assert verdict.verdict == "pass", verdict.witness
    by_lambda = {row["lambda"]: row for row in verdict.witness["candidates"]}
    assert by_lambda["0"]["sum"] == "divergent"
    assert by_lambda["0"]["T"] == "divergent"
    assert by_lambda["2"]["sum"] == 0


def test_tower_th1_equality():
    s_spec, t_spec = _block_fixture()
    verdict = verify_tower("th1", s_spec, t_spec, [GQ(0), GQ(2)], CFG, p_bound=2)
    assert verdict.verdict == "pass", verdict.witness


def test_tower_th1_shared_kernels():
    # B and 2B share every kernel N(B^p), so splitting fails only at 0
    b = backward_shift()
    verdict = verify_tower("th1", b, b.scaled(GQ(2)), [GQ(0), GQ(2)], CFG, p_bound=2)
    in_r = {row["lambda"]: row["in_R"] for row in verdict.witness["candidates"]}
    assert in_r == {"0": True, "2": False}


def test_tower_nov_equality():
    s_spec, t_spec = _block_fixture()
    verdict = verify_tower("nov", s_spec, t_spec, [GQ(0), GQ(2)], CFG, p_bound=2)
    assert verdict.verdict == "pass", verdict.witness


def test_tower_rejects_non_spectral_theorems():
    s_spec, t_spec = _block_fixture()
    with pytest.raises(ValueError):
        verify_tower("theo34", s_spec, t_spec, [GQ(0)], CFG)
