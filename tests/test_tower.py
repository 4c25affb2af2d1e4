import pytest

from ascdesc.chains import chain_report
from ascdesc.exact import Matrix
from ascdesc.gq import GQ, parse_scalar
from ascdesc.tower import (
    BandedSpec,
    DenseSpec,
    DirectSumSpec,
    EventuallyPeriodic,
    FiniteRankSpec,
    SumSpec,
    TowerConfig,
    backward_shift,
    forward_shift,
    identity_tail,
    is_power_finite_rank,
    spec_from_obj,
    tower_spectrum,
    window_profile,
    window_sections,
)

from oracles import brute_chain

J2 = Matrix.from_rows([[0, 1], [0, 0]])
J3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

CFG = TowerConfig(n0=8, step=4, count=3)


def profile(spec, lam, cfg=CFG):
    return window_profile(window_sections(spec, cfg), lam)


def test_realize_backward_shift():
    assert backward_shift().realize(3) == Matrix.from_rows(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )


def test_realize_forward_shift():
    assert forward_shift().realize(2) == Matrix.from_rows([[0, 0], [1, 0]])


def test_realize_direct_sum_blocks():
    spec = DirectSumSpec((DenseSpec(J2), backward_shift()))
    m = spec.realize(5)
    assert m.at(0, 1) == GQ(1)  # dense block
    assert m.at(1, 2) == GQ(0)  # block boundary
    assert m.at(2, 3) == GQ(1) and m.at(3, 4) == GQ(1)  # shift tail


def test_realize_too_small():
    with pytest.raises(ValueError):
        DenseSpec(J3).realize(2)
    with pytest.raises(ValueError):
        DirectSumSpec((DenseSpec(J3), backward_shift())).realize(3)


def test_realization_consistency():
    # band-respecting indices: the leading corner is stable under growth
    for spec in (
        backward_shift(),
        forward_shift(),
        SumSpec((backward_shift(), identity_tail())),
        FiniteRankSpec((((GQ(1), GQ(2)), (GQ(1),)),)),
    ):
        small = spec.realize(8)
        large = spec.realize(8 + CFG.step)
        assert all(
            small.at(i, j) == large.at(i, j) for i in range(8) for j in range(8)
        )


def test_eventually_periodic_values():
    seq = EventuallyPeriodic(pre=(GQ(5),), period=(GQ(1), GQ(2)))
    assert [seq.value(t) for t in range(6)] == [GQ(5), GQ(1), GQ(2), GQ(1), GQ(2), GQ(1)]
    silent = EventuallyPeriodic(pre=(GQ(3),), period=())
    assert silent.value(0) == GQ(3) and silent.value(5) == GQ(0)


def test_backward_shift_kernel_chain_closed_form():
    for n in CFG.window():
        rep = chain_report(backward_shift().realize(n))
        assert rep.kernel_dims == tuple(range(n + 1)) + (n,)


LAM = GQ(2, -1)  # norm 5, like the benchmark's tower candidates
WEIGHTED = BandedSpec.from_dict(
    {1: EventuallyPeriodic(
        pre=(parse_scalar("3/2"),),
        period=tuple(parse_scalar(w) for w in ("2/3", "4/5", "9/7")),
    )}
)
SHIFT_PLUS_RANK_ONE = SumSpec(
    (backward_shift(), FiniteRankSpec((((GQ(1), GQ(-2, 1), GQ(2)), (GQ(0, 1), GQ(1), GQ(-1))),)))
)
JORDAN_PLUS_FORWARD = DirectSumSpec(
    (DenseSpec(Matrix.from_rows([[LAM, 1, 0], [0, LAM, 1], [0, 0, LAM]])), forward_shift())
)


def _assert_chain_matches_oracle(section):
    rep = chain_report(section)
    kernel_dims, range_dims, asc, dsc = brute_chain(section)
    d = section.rows
    assert (rep.asc, rep.dsc) == (asc, dsc)
    assert len(rep.range_dims) == rep.asc + 2
    assert rep.range_dims == tuple(range_dims[: rep.asc + 2])
    assert rep.kernel_dims == tuple(kernel_dims[: rep.asc + 2])
    assert all(k + r == d for k, r in zip(rep.kernel_dims, rep.range_dims))
    assert (rep.alpha, rep.beta) == (kernel_dims[1], d - range_dims[1])


@pytest.mark.parametrize("lam", [GQ(0), LAM], ids=["0", "2-i"])
@pytest.mark.parametrize(
    "spec",
    [WEIGHTED, SHIFT_PLUS_RANK_ONE, JORDAN_PLUS_FORWARD],
    ids=["weighted", "shift_plus_rank_one", "jordan_plus_forward"],
)
def test_chain_report_matches_oracle_on_tower_sections(spec, lam):
    for n in (spec.min_truncation(), 8, 16, 24):
        _assert_chain_matches_oracle(spec.realize(n).shifted(lam))


def test_chain_report_matches_oracle_zero_dimensional():
    _assert_chain_matches_oracle(Matrix.zeros(0, 0))


def test_tower_verdict_divergent_backward_asc():
    verdict = profile(backward_shift(), 0)["asc"]
    assert verdict.kind == "divergent"
    assert [v for _, v in verdict.per_truncation] == list(CFG.window())


def test_tower_verdict_divergent_forward_dsc():
    verdict = profile(forward_shift(), 0)["dsc"]
    assert verdict.kind == "divergent"


def test_tower_verdict_finite_dense_block():
    spec = DirectSumSpec((DenseSpec(J2), identity_tail()))
    verdict = profile(spec, 0)["asc"]
    assert verdict.kind == "finite" and verdict.value == 2


def test_tower_verdict_dense_embedded_zero_tail():
    # the zero tail contributes ascent 1, so the embedded block dominates
    verdict = profile(DenseSpec(J2), 0)["asc"]
    assert verdict.kind == "finite" and verdict.value == 2


def test_tower_verdict_invertible_point():
    verdict = profile(backward_shift(), 2)["asc"]
    assert verdict.kind == "finite" and verdict.value == 0


def test_direct_sum_verdict_composition():
    blocks = DirectSumSpec((DenseSpec(J2), DenseSpec(J3), identity_tail()))
    verdict = profile(blocks, 0)["asc"]
    assert verdict.kind == "finite" and verdict.value == 3
    mixed = DirectSumSpec((DenseSpec(J3), backward_shift()))
    assert profile(mixed, 0)["asc"].kind == "divergent"


def test_finite_verdicts_stable_across_disjoint_windows():
    spec = DirectSumSpec((DenseSpec(J3), identity_tail()))
    first = profile(spec, 0, TowerConfig(8, 4, 3))["asc"]
    second = profile(spec, 0, TowerConfig(24, 4, 3))["asc"]
    assert first.kind == second.kind == "finite"
    assert first.value == second.value


def test_tower_spectrum_candidates():
    report = tower_spectrum(backward_shift(), [GQ(0), GQ(2)], CFG)
    assert [str(v) for v in report.sigma("asc")] == ["0"]
    profile = {str(lam): p for lam, p in report.points}
    assert profile["0"]["asc"].kind == "divergent" and profile["2"]["asc"].kind != "divergent"
    assert profile["2"]["asc"].value == 0


def test_tower_spectrum_forward_descent():
    report = tower_spectrum(forward_shift(), [GQ(0)], CFG)
    assert [str(v) for v in report.sigma("dsc")] == ["0"]


def test_tower_spectrum_dense_not_in_sigma():
    spec = DirectSumSpec((DenseSpec(J3), identity_tail()))
    report = tower_spectrum(spec, [GQ(0)], CFG)
    assert report.sigma("asc") == ()
    assert report.points[0][1]["asc"].value == 3


def test_power_finite_rank_examples():
    fr = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    verdict = is_power_finite_rank(fr, CFG)
    assert verdict.kind == "certain-true" and verdict.n0 == 1

    dense = is_power_finite_rank(DenseSpec(J2), CFG)
    assert dense.kind == "certain-true" and dense.n0 == 1 and dense.rank == 1

    shift = is_power_finite_rank(backward_shift(), CFG)
    assert shift.kind == "likely-false"
    # rank of the k-th power at truncation N is N - k
    first_probe = dict(shift.ranks_seen)[1]
    assert first_probe == tuple(n - 1 for n in CFG.window())


def test_power_finite_rank_sum_with_vanishing_band():
    silent = BandedSpec.from_dict({1: EventuallyPeriodic(period=(GQ(0),))})
    fr = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    verdict = is_power_finite_rank(SumSpec((silent, fr)), CFG)
    assert verdict.kind == "certain-true"


def test_power_finite_rank_nilpotent_band_probe():
    # a dense block beside a band with no diagonals has finite rank by its
    # structure alone, so no window probe runs
    spec = DirectSumSpec((DenseSpec(J2), BandedSpec.from_dict({})))
    verdict = is_power_finite_rank(spec, CFG)
    assert verdict.kind == "certain-true" and verdict.ranks_seen == ()


def test_power_finite_rank_weighted_shift_reaches_the_probe():
    # the weighted shift with weights 1, 0, 1, 0, ... squares to 0 on every
    # section, which only the window probe of its powers sees
    spec = BandedSpec.from_dict({1: EventuallyPeriodic(period=(GQ(1), GQ(0)))})
    verdict = is_power_finite_rank(spec, CFG)
    assert verdict.kind == "likely-true" and verdict.n0 == 2 and verdict.rank == 0
    assert verdict.ranks_seen == ((1, (4, 6, 8)), (2, (0, 0, 0)))


def test_spec_json_round_trip():
    spec = DirectSumSpec(
        (
            DenseSpec(J2),
            SumSpec((backward_shift(), FiniteRankSpec((((GQ(1),), (GQ(0), GQ(1))),)))),
        )
    )
    obj = spec.to_obj()
    clone = spec_from_obj(obj)
    assert clone.realize(9) == spec.realize(9)


def test_documented_backward_shift_json():
    obj = {"variant": "banded", "diagonals": {"1": {"pre": [], "period": ["1"]}}}
    spec = spec_from_obj(obj)
    assert spec.realize(3) == backward_shift().realize(3)
    assert spec.to_obj() == obj


def test_config_validation():
    with pytest.raises(ValueError):
        TowerConfig(n0=0)
    with pytest.raises(ValueError):
        TowerConfig(count=1)
