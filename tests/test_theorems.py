import hashlib
import random
from dataclasses import replace

import pytest

from ascdesc import theorems

from ascdesc.exact import Matrix, block_diag, matrix_from_obj, matrix_to_obj
from ascdesc.gq import GQ, parse_scalar
from ascdesc.reporting import dumps
from ascdesc.spectra import eigenvalues_exact
from ascdesc.theorems import (
    THEOREM_IDS,
    batch_summary,
    check_H1,
    check_H2,
    check_hypotheses,
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
from ascdesc.tower import (
    BandedSpec,
    DenseSpec,
    DirectSumSpec,
    EventuallyPeriodic,
    TowerConfig,
    backward_shift,
    forward_shift,
    identity_tail,
    is_power_finite_rank,
    window_sections,
)
from oracles import bareiss_rank, gi_matmul, to_gaussian_int

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
    n_t, n_s = report.h1_subspaces
    assert n_t == n_s and n_t.dim == 1


def test_h1_not_evaluated_for_non_commuting_pair():
    # J2 J2^T = diag(1, 0) but J2^T J2 = diag(0, 1)
    s, t = J2, J2.transpose()
    report = check_H1(s, t)
    assert not report.commute and report.h1 is None and report.h1_subspaces is None
    assert "h1" not in check_hypotheses(s, t).to_obj()
    inst = {"theorem": "th1", "seed": None,
            "matrices": {"S": matrix_to_obj(s), "T": matrix_to_obj(t)}}
    assert verify("th1", inst).verdict == "inconclusive"


def test_h1_trivial_with_identity():
    assert check_H1(Matrix.identity(4), T_BLOCK).h1


def _h1_first_failure(s, t):
    """First p in 1..d at which N((TS)^p) = N(T^p) ⊕ N(S^p) fails, or None.

    Bareiss ranks of the powers decide each p: for a commuting pair the
    sum of the two kernels lies in N((TS)^p), so the split holds when
    N(T^p) ∩ N(S^p) = {0} (T^p stacked on S^p has rank d) and the
    nullities add up to that of (TS)^p.
    """
    d = s.rows
    gs, gt = to_gaussian_int(s), to_gaussian_int(t)
    gts = gi_matmul(gt, gs)
    sp, tp, tsp = gs, gt, gts
    for p in range(1, d + 1):
        direct = bareiss_rank(tp + sp) == d
        nullities = 2 * d - bareiss_rank(tp) - bareiss_rank(sp)
        if not (direct and nullities == d - bareiss_rank(tsp)):
            return p
        sp, tp, tsp = gi_matmul(sp, gs), gi_matmul(tp, gt), gi_matmul(tsp, gts)
    return None


def _h1_reference_pairs():
    j3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    pairs = [(j3, j3 @ j3), (block_diag(j3, I2), block_diag(j3 @ j3, J2))]
    for seed in range(20):
        pairs += [random_h1_family(seed), random_commuting_pair(seed)]
    for s, t in pairs:
        yield s, t
        lams = {lam for m in (s, t, s + t) for lam in eigenvalues_exact(m)[0]}
        for lam in sorted(lams, key=lambda v: v.sort_key()):
            yield s.shifted(lam), t.shifted(lam)


def test_h1_at_p1_matches_a_scan_over_every_power():
    failures = 0
    for s, t in _h1_reference_pairs():
        report = check_H1(s, t)
        assert report.commute
        first = _h1_first_failure(s, t)
        assert report.h1 == (first is None)
        assert report.h1_failing_p == first
        failures += first is not None
    # H1 fails on both fixed pairs and at shifts by an eigenvalue that S
    # and T share (15 of the 264 pairs), so the reported p is exercised
    assert failures >= 10


def test_h2_identity_pair():
    report = check_H2(Matrix.identity(2), Matrix.identity(2))
    assert report.h2 and report.h2_n0 == 0


def test_h2_block_pair():
    report = check_H2(S_BLOCK, T_BLOCK)
    assert report.h2_n0 == 2 and report.h2
    assert report.h2_inclusion == "N(S^n0) in R(T)"


def test_h2_invertible_factor():
    # T invertible makes R(T) = X, so the first inclusion holds
    report = check_H2(J2, Matrix.identity(2))
    assert report.h2 and report.h2_inclusion == "N(S^n0) in R(T)"


def test_h2_second_inclusion():
    # S = J4², T = J4: TS = J4³ has descent 2, N(S²) = X is not inside
    # R(T), but N(T²) = span(e1, e2) = R(S)
    j4 = Matrix.from_rows([[int(j == i + 1) for j in range(4)] for i in range(4)])
    report = check_H2(j4 @ j4, j4)
    assert report.h2 and report.h2_n0 == 2
    assert report.h2_inclusion == "N(T^n0) in R(S)"


def test_check_hypotheses_f_tilde():
    assert check_hypotheses(S_BLOCK, T_BLOCK).f_tilde == "certain-true"


# --- exception sets ---------------------------------------------------------


def test_R_set_membership():
    assert in_R_set(J2, J2, 0) is True  # finite ascent and the splitting fails
    assert in_R_set(S_BLOCK, T_BLOCK, 0) is False


def test_N_set_membership():
    assert in_N_set(S_BLOCK, T_BLOCK, 0) is False
    assert in_N_set(J2, J2, 0) is True  # H1 fails for the shared-kernel pair


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


# sha256 of dumps(run_batch(theorem, 0, 15)): the reports themselves are
# pinned, not only their reruns, so a change to the exact core that alters
# any verdict, witness or note shows here
BATCH_SHA256 = {
    "prop11": "481114911110e88638650500a07b2705a1d2b28565a740ab8fd05e361d66e6d5",
    "th1": "79bbb4a044e4f6e27207ee80cf76561a1b34e2cbac4c824d9be542a1209def6c",
    "theo34": "bb657322af205086e0152cd3a162bdc26405a27875da091bfb398b9478d054dc",
    "monn": "38414a32804139013cd60da8b29eb86ddb02e560fa7435a510448421d02d4ed6",
    "thC": "0a0ef6a8eb2179772b27825c2b9594dc4309620b295eff0d8697ad8978fa8dc1",
    "nov": "97e97ec6c1c2e5ca1fab0d2277c441882af38858ba73ae897d7ab32827b1e586",
    "lemma41": "15df0ab44d65ce5b35a9d626e1b551070806edecccd8a00eaca953ae5fcf2332",
    "lemma_ca": "8039ae9c15411080714178ab4121d3027bf7332b81b5e2c46091d584577d5212",
    "lemma35": "1052862ca9913065e743c4b0e8fb3eaf2ca0a10c96c5ca0fc82ee8bb0b9c7fd1",
    "lemma36": "e08019d18021a4b2c34e3e1d6a71ef179d33efa81f2360474023b67c3d27195c",
    "eq_mul": "ee90cda32a1df05c8e8dabfec813fe7a4332a9a68bfee39ae9443b0ddb76e9a2",
    "app_blocks": "f677569756e84b0d5267b4b1cb30e194a7dc3f8d69c46496465c64cae5cbcb29",
}


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_batch_reports_match_pinned_digests(theorem):
    text = dumps(run_batch(theorem, 0, 15))
    assert hashlib.sha256(text.encode()).hexdigest() == BATCH_SHA256[theorem]


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_batch_matches_verify_on_the_replayed_instances(theorem):
    # run_batch hands the generated matrices to the handler; verify parses
    # them back from the instance, which must give the same reports
    replayed = [verify(theorem, instance_for(theorem, s)) for s in range(15)]
    assert dumps(run_batch(theorem, 0, 15)) == dumps(replayed)


# The generators as they were written before they filled integer rows:
# one GaussianRational per entry, drawn in the same order.


def _ref_random_unimodular(rng, d):
    lower = Matrix.identity(d).to_lists()
    upper = Matrix.identity(d).to_lists()
    for i in range(d):
        for j in range(i):
            lower[i][j] = GQ(rng.randint(-1, 1))
            upper[j][i] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def _ref_random_nilpotent(rng, j):
    rows = Matrix.zeros(j, j).to_lists()
    for i in range(j - 1):
        rows[i][i + 1] = rng.choice((GQ(1), GQ(-1), GQ(2)))
        for k in range(i + 2, j):
            rows[i][k] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(rows) if j else Matrix.zeros(0, 0)


def _ref_upper_triangular(rng, d):
    rows = Matrix.zeros(d, d).to_lists()
    pool = (GQ(0), GQ(1), GQ(2), GQ(-1), GQ(0, 1))
    for i in range(d):
        rows[i][i] = rng.choice(pool)
        for j in range(i + 1, d):
            rows[i][j] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(rows)


def _ref_random_gaussian(rng, rows, cols, re_bound):
    values = [GQ(rng.randint(-re_bound, re_bound), rng.randint(-1, 1)) for _ in range(rows * cols)]
    return Matrix(rows, cols, values)


def _ref_structured_block(rng, d):
    j = rng.randint(0, d)
    nil = _ref_random_nilpotent(rng, j)
    small = (GQ(1), GQ(-1), GQ(2), GQ(-2), GQ(0, 1), GQ(1, 1), GQ(0, -1))
    diag = Matrix.diag([rng.choice(small) for _ in range(d - j)])
    core = block_diag(nil, diag)
    v = _ref_random_unimodular(rng, d)
    return v @ core @ theorems.invert(v)


@pytest.mark.parametrize(
    "name,args",
    [
        ("_random_unimodular", ()),
        ("_random_nilpotent", ()),
        ("_upper_triangular", ()),
        ("_structured_block", ()),
        ("_random_gaussian", (3, 2)),
        ("_random_gaussian", (2, 1)),
    ],
)
def test_integer_row_generators_match_the_scalar_generators(name, args):
    reference = globals()[f"_ref{name}"]
    for seed in range(40):
        for d in range(6):
            mine, theirs = random.Random(f"gen:{seed}"), random.Random(f"gen:{seed}")
            got = getattr(theorems, name)(mine, d, *args)
            assert got == reference(theirs, d, *args), (name, seed, d)
            assert mine.getstate() == theirs.getstate()  # the same draws, in order


def test_thC_forms_each_product_once(monkeypatch):
    instance = instance_for("thC", 0)
    s, t = (matrix_from_obj(instance["matrices"][name]) for name in ("S", "T"))
    operands = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        operands.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    verify("thC", instance)
    assert operands.count((s, t)) <= 1 and operands.count((t, s)) <= 1, len(operands)


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
    verdict = verify_tower("th1", s_spec, t_spec, [GQ(0), GQ(2)], CFG)
    assert verdict.verdict == "pass", verdict.witness


def _twice_backward_shift() -> BandedSpec:
    """2B: twos on the first superdiagonal."""
    return BandedSpec.from_dict({1: EventuallyPeriodic(period=(GQ(2),))})


def test_tower_th1_shared_kernels():
    # B and 2B share every kernel N(B^p), so splitting fails only at 0
    verdict = verify_tower(
        "th1", backward_shift(), _twice_backward_shift(), [GQ(0), GQ(2)], CFG
    )
    in_r = {row["lambda"]: row["in_R"] for row in verdict.witness["candidates"]}
    assert in_r == {"0": True, "2": False}


def test_tower_nov_equality():
    s_spec, t_spec = _block_fixture()
    verdict = verify_tower("nov", s_spec, t_spec, [GQ(0), GQ(2)], CFG)
    assert verdict.verdict == "pass", verdict.witness


def test_tower_nov_sum_descent_puts_a_point_in_N():
    # at 1 the sum B + I - 1 = B has divergent dsc while S - 1 = B - 1 and
    # T - 1 = 0 have dsc 0 and 1: only the sum's descent puts 1 in M or N
    verdict = verify_tower(
        "nov", backward_shift(), identity_tail(), [GQ(0), GQ(1), GQ(2)], CFG
    )
    row = {r["lambda"]: r for r in verdict.witness["candidates"]}["1"]
    assert (row["sum"], row["S"], row["T"]) == ("divergent", 0, 1)
    assert row["in_M_or_N"] and row["ok"]
    # TS = B has no finite-rank power, so the hypothesis TS in F̃ fails
    assert verdict.verdict == "inconclusive", verdict.witness
    assert verdict.witness["f_tilde"] == {"verdict": "certain-false"}
    assert "no power of TS has finite rank" in verdict.note


@pytest.mark.parametrize("theorem", ["monn", "th1", "nov"])
def test_tower_non_commuting_sections_are_inconclusive(theorem):
    # BS = I but SB = I minus a rank-one projection, on every section
    verdict = verify_tower(theorem, backward_shift(), forward_shift(), [GQ(0)], CFG)
    assert verdict.verdict == "inconclusive"
    assert verdict.note == "sections do not commute on the window"
    assert verdict.witness["commute_on_window"] is False
    assert "candidates" not in verdict.witness


@pytest.mark.parametrize("theorem", ["monn", "th1", "nov"])
def test_tower_f_tilde_falls_back_to_a_commuting_factor(theorem):
    # TS with S = J2 ⊕ 0 mixes a direct sum with a band, so TS ∈ F̃ is
    # undecided; S has finite rank and commutes with T = I, so TS is in F̃
    s_spec = DirectSumSpec((DenseSpec(J2), BandedSpec.from_dict({})))
    t_spec = identity_tail()
    assert is_power_finite_rank(t_spec, s_spec).kind == "undecided"
    verdict = verify_tower(theorem, s_spec, t_spec, [GQ(0), GQ(1), GQ(2)], CFG)
    assert verdict.witness["f_tilde"] == {"verdict": "certain-true", "n0": 1}
    assert verdict.verdict == "pass" and verdict.note == "", verdict.witness
    if theorem == "th1":
        assert not any(row["in_R"] for row in verdict.witness["candidates"])


def _plant_divergence(monkeypatch, planted_sections, point):
    """Make every quantity of the given sections read divergent at point."""
    reports_of = theorems.section_reports

    def planted(sections, lam):
        out = reports_of(sections, lam)
        if lam == point and sections == planted_sections:
            # strictly increasing over the window, so each quantity is divergent
            out = {n: replace(rep, asc=n, dsc=n, alpha=n, beta=n) for n, rep in out.items()}
        return out

    monkeypatch.setattr(theorems, "section_reports", planted)


@pytest.mark.parametrize("theorem", ["monn", "th1", "nov"])
@pytest.mark.parametrize("pair, expected", [("block", "fail"), ("B,2B", "inconclusive")])
def test_tower_planted_mismatch_fails_only_when_f_tilde_is_certain(
    monkeypatch, theorem, pair, expected
):
    # monn needs 2 in sigma(S + T) outside sigma(S) and sigma(T); th1 and nov
    # need 2 in sigma(S) while 2 is in sigma(S + T) and in neither exception set
    s_spec, t_spec = TOWER_PAIRS[pair]()
    s_secs = window_sections(s_spec, CFG)
    t_secs = window_sections(t_spec, CFG)
    if theorem == "monn":
        planted = {n: s_secs[n] + t_secs[n] for n in CFG.window()}
    else:
        planted = s_secs
    _plant_divergence(monkeypatch, planted, GQ(2))
    verdict = verify_tower(theorem, s_spec, t_spec, [GQ(0), GQ(2)], CFG)
    assert [row["lambda"] for row in verdict.witness["mismatches"]] == ["2"]
    assert verdict.verdict == expected, verdict.witness
    # the block fixture's TS vanishes, so it is in F̃; 2B², and every
    # power of it, has infinite rank, so for B and 2B the verdict cannot fail
    certain = verdict.witness["f_tilde"]["verdict"] == "certain-true"
    assert certain == (pair == "block")


def _parity_projections():
    """P_even and P_odd: diagonal projections onto even and odd coordinates."""
    even = BandedSpec.from_dict({0: EventuallyPeriodic(period=(GQ(1), GQ(0)))})
    odd = BandedSpec.from_dict({0: EventuallyPeriodic(period=(GQ(0), GQ(1)))})
    return even, odd


@pytest.mark.parametrize("theorem", ["th1", "nov"])
def test_tower_planted_mismatch_fails_on_a_vanishing_product(monkeypatch, theorem):
    # neither projection has a finite-rank power, but their product is 0,
    # so TS is in F̃ for certain and a planted mismatch is a fail
    s_spec, t_spec = _parity_projections()
    _plant_divergence(monkeypatch, window_sections(s_spec, CFG), GQ(2))
    verdict = verify_tower(theorem, s_spec, t_spec, [GQ(0), GQ(2)], CFG)
    assert verdict.witness["f_tilde"] == {"verdict": "certain-true", "n0": 1}
    assert [row["lambda"] for row in verdict.witness["mismatches"]] == ["2"]
    assert verdict.verdict == "fail", verdict.witness


@pytest.mark.parametrize("theorem", ["monn", "th1", "nov"])
@pytest.mark.parametrize(
    "pair",
    [
        (backward_shift, _twice_backward_shift),
        (forward_shift, forward_shift),
        (backward_shift, identity_tail),
    ],
    ids=["B,2B", "S,S", "B,I"],
)
def test_tower_never_passes_without_f_tilde(theorem, pair):
    s_spec, t_spec = (make() for make in pair)
    verdict = verify_tower(theorem, s_spec, t_spec, [GQ(0), GQ(1), GQ(2)], CFG)
    assert verdict.witness["f_tilde"] == {"verdict": "certain-false"}
    assert verdict.verdict == "inconclusive", verdict.witness
    assert verdict.witness["candidates"]


@pytest.mark.parametrize("theorem", ["monn", "th1", "nov"])
def test_verify_tower_forms_each_section_product_once(monkeypatch, theorem):
    s_spec, t_spec = _block_fixture()
    s_secs = window_sections(s_spec, CFG)
    t_secs = window_sections(t_spec, CFG)
    operands = []
    matmul = Matrix.__matmul__

    def counting(a, b):
        operands.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    verify_tower(theorem, s_spec, t_spec, [GQ(0), GQ(2)], CFG)
    for n in CFG.window():
        assert operands.count((t_secs[n], s_secs[n])) <= 1, n
        assert operands.count((s_secs[n], t_secs[n])) <= 1, n


# sha256 of dumps(verify_tower(...)) at four points on CFG, so that a change
# in how tower points are classified shows in the whole report.  Each
# (theorem, pair) is pinned under the suffixes 2 and 3 with one digest: no
# setting is read from the suffix, which only keeps the test ids stable.
TOWER_PAIRS = {
    "block": _block_fixture,
    "B,2B": lambda: (backward_shift(), _twice_backward_shift()),
    "S,S": lambda: (forward_shift(), forward_shift()),
}
TOWER_SHA256 = {
    ("monn", "block", 2): "ab6ffdd5c483460d4cadfea51952fce9591e60a4a1f04b4b9490be5dc5dcb2b0",
    ("monn", "block", 3): "ab6ffdd5c483460d4cadfea51952fce9591e60a4a1f04b4b9490be5dc5dcb2b0",
    ("monn", "B,2B", 2): "d94562811e92f1bae1a55f00145327f635f1c160f2e26d3e0ebcffeedc0a3b5d",
    ("monn", "B,2B", 3): "d94562811e92f1bae1a55f00145327f635f1c160f2e26d3e0ebcffeedc0a3b5d",
    ("monn", "S,S", 2): "850f9bbe0c7a8eaa3f135c379920c8c1ac1e51808ed7913125740c0825e885ba",
    ("monn", "S,S", 3): "850f9bbe0c7a8eaa3f135c379920c8c1ac1e51808ed7913125740c0825e885ba",
    ("th1", "block", 2): "4d2e6b7bcddb0d2ed5cc0fb778bc010018d1beccf0509d2b77a8b06015377961",
    ("th1", "block", 3): "4d2e6b7bcddb0d2ed5cc0fb778bc010018d1beccf0509d2b77a8b06015377961",
    ("th1", "B,2B", 2): "6d621dda0addcc8a4927cacc93e6d5e0204f63bb7045470f8efb8b666cb29c13",
    ("th1", "B,2B", 3): "6d621dda0addcc8a4927cacc93e6d5e0204f63bb7045470f8efb8b666cb29c13",
    ("th1", "S,S", 2): "9d2652ebc9f768d880f257f39bcf9dd686a3d2f8c506b3f8a19aa5adc31fa968",
    ("th1", "S,S", 3): "9d2652ebc9f768d880f257f39bcf9dd686a3d2f8c506b3f8a19aa5adc31fa968",
    ("nov", "block", 2): "5db76a787b79de67a706c3488d728cdf2f88a7b68aa1004e39c252ab65027fcf",
    ("nov", "block", 3): "5db76a787b79de67a706c3488d728cdf2f88a7b68aa1004e39c252ab65027fcf",
    ("nov", "B,2B", 2): "edefef6dc5f49540cad76ea93cc3f7b3277a57eef3b0d2e4242b58a2d3d0ba26",
    ("nov", "B,2B", 3): "edefef6dc5f49540cad76ea93cc3f7b3277a57eef3b0d2e4242b58a2d3d0ba26",
    ("nov", "S,S", 2): "908669a5d0aa4a5f3329ee5468c64aff29cd02bce05678f8ef0fb5e76838e380",
    ("nov", "S,S", 3): "908669a5d0aa4a5f3329ee5468c64aff29cd02bce05678f8ef0fb5e76838e380",
}


@pytest.mark.parametrize("key", list(TOWER_SHA256), ids=lambda k: "-".join(map(str, k)))
def test_tower_reports_match_pinned_digests(key):
    theorem, pair, _ = key
    s_spec, t_spec = TOWER_PAIRS[pair]()
    points = [GQ(0), GQ(1), GQ(2), parse_scalar("1/2+1/2i")]
    verdict = verify_tower(theorem, s_spec, t_spec, points, CFG)
    assert hashlib.sha256(dumps(verdict).encode()).hexdigest() == TOWER_SHA256[key]


def test_tower_rejects_non_spectral_theorems():
    s_spec, t_spec = _block_fixture()
    with pytest.raises(ValueError):
        verify_tower("theo34", s_spec, t_spec, [GQ(0)], CFG)
