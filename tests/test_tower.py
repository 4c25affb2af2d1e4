import random

import pytest

from ascdesc.chains import chain_report
from ascdesc.exact import Matrix, left_kernel_chain
from ascdesc.gq import GQ, parse_scalar
from ascdesc.tower import (
    MAX_SECTION,
    BandedSpec,
    DenseSpec,
    DirectSumSpec,
    EventuallyPeriodic,
    FiniteRankSpec,
    SumSpec,
    TowerConfig,
    backward_shift,
    classify_reports,
    forward_shift,
    identity_tail,
    is_power_finite_rank,
    section_reports,
    spec_from_obj,
    tower_spectrum,
    window_profile,
    window_sections,
)

from oracles import bareiss_rank, brute_chain, gi_matmul, to_gaussian_int

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
    # each flexible part gets at least the largest flexible minimum (2)
    zero = BandedSpec.from_dict({})
    for spec, minimum in (
        (DirectSumSpec((backward_shift(), zero)), 4),
        (DirectSumSpec((DenseSpec(J3), zero, forward_shift(), zero)), 3 + 3 * 2),
    ):
        assert spec.min_truncation() == minimum
        assert spec.realize(minimum).rows == minimum
        with pytest.raises(ValueError):
            spec.realize(minimum - 1)


@pytest.mark.parametrize("n", [8, 9, 12])
def test_direct_sums_of_one_layout_split_every_section_alike(n):
    # B ⊕ 0 and 0 ⊕ S split alike, so their sum is a section of B ⊕ S,
    # although B, S (minimum 2) and 0 (minimum 1) differ in minimum size
    zero = BandedSpec.from_dict({})
    left = DirectSumSpec((backward_shift(), zero))
    right = DirectSumSpec((zero, forward_shift()))
    both = DirectSumSpec((backward_shift(), forward_shift()))
    halves = [n // 2, n - n // 2]
    assert left._allocate(n) == right._allocate(n) == both._allocate(n) == halves
    assert SumSpec((left, right)).realize(n) == both.realize(n)
    with_block = DirectSumSpec((DenseSpec(J2), backward_shift(), zero))
    assert with_block._allocate(n)[1:] == left._allocate(n - 2)


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


# u1 v1^T + u2 v2^T with v1 . u2 = 0: its nonzero eigenvalues are
# v1 . u1 = 2 + i/2 and v2 . u2 = i/3
FINITE_RANK = FiniteRankSpec((
    ((GQ(1), parse_scalar("1/2")), (GQ(2), GQ(0, 1))),
    ((GQ(0), GQ(0), GQ(0, 1)), (GQ(1), GQ(0), parse_scalar("1/3"))),
))
ON_SPECTRA = (GQ(0), LAM, parse_scalar("2+1/2i"), parse_scalar("1/3i"))
OFF_SPECTRA = (GQ(3), parse_scalar("1/2+i"), GQ(-2, -1))
DECIDED_SPECS = {
    "B": backward_shift(),
    "S": forward_shift(),
    "B+S": SumSpec((backward_shift(), forward_shift())),
    "weighted": WEIGHTED,
    "finite_rank": FINITE_RANK,
    "sum": SHIFT_PLUS_RANK_ONE,
    "direct_sum": JORDAN_PLUS_FORWARD,
}


def test_regular_points_are_decided_by_rank():
    # every section's report equals the chain report of its shift, whether
    # the shift is invertible (decided by rank) or singular (by its chain)
    nullities = set()
    for spec in DECIDED_SPECS.values():
        sections = window_sections(spec, TowerConfig(5, 3, 3))
        for lam in ON_SPECTRA + OFF_SPECTRA:
            expected = {n: chain_report(a.shifted(lam)) for n, a in sections.items()}
            assert section_reports(sections, lam) == expected, (spec, lam)
            assert window_profile(sections, lam) == classify_reports(expected)
            for n, a in sections.items():
                t = a.shifted(lam)
                zero_line = not all(t.int_rows) or len(set().union(*t.int_rows)) < n
                nullities.add((expected[n].alpha, zero_line))
    # both sides of the rank test occur, and shifts of rank N - 1 without a
    # zero row or column (B + S at 0 for odd N, the finite-rank eigenvalues)
    assert {(0, False), (1, False), (1, True)} <= nullities


@pytest.mark.parametrize("name", ["B", "B+S", "direct_sum"])
def test_a_window_of_regular_points_builds_no_chain(name):
    sections = window_sections(DECIDED_SPECS[name], TowerConfig(5, 4, 3))
    left_kernel_chain.cache_clear()
    for lam in OFF_SPECTRA:
        assert window_profile(sections, lam)["asc"].label == 0
    assert left_kernel_chain.cache_info().misses == 0
    window_profile(sections, 0)  # singular on every section here
    assert left_kernel_chain.cache_info().misses == len(sections)


def test_finite_rank_realize_is_the_sum_of_outer_products():
    spec = FiniteRankSpec((
        *FINITE_RANK.terms,
        ((GQ(0), parse_scalar("-3/4+2/5i"), GQ(1, -1), parse_scalar("1/6")),
         (parse_scalar("5/3"), parse_scalar("-1/2i"))),
        ((GQ(-1),), (GQ(2),)),  # cancels entry (0, 0) of the first term
    ))
    for n in range(spec.min_truncation(), spec.min_truncation() + 4):
        expected = [[GQ(0)] * n for _ in range(n)]
        for left, right in spec.terms:
            for i, u in enumerate(left):
                for j, v in enumerate(right):
                    expected[i][j] = expected[i][j] + u * v
        assert spec.realize(n).to_lists() == expected
        assert spec.realize(n) == Matrix.from_rows(expected)
    assert not spec.realize(4).int_rows[0].get(0)


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
    verdict = is_power_finite_rank(fr)
    assert verdict.kind == "certain-true" and verdict.n0 == 1

    dense = is_power_finite_rank(DenseSpec(J2))
    assert dense.kind == "certain-true" and dense.n0 == 1

    shift = is_power_finite_rank(backward_shift())
    assert shift.kind == "certain-false" and shift.n0 is None


def test_power_finite_rank_sum_with_vanishing_band():
    silent = BandedSpec.from_dict({1: EventuallyPeriodic(period=(GQ(0),))})
    fr = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    verdict = is_power_finite_rank(SumSpec((silent, fr)))
    assert verdict.kind == "certain-true"


def test_power_finite_rank_nilpotent_band_probe():
    # a dense block beside a band with no diagonals has finite rank itself
    spec = DirectSumSpec((DenseSpec(J2), BandedSpec.from_dict({})))
    verdict = is_power_finite_rank(spec)
    assert verdict.kind == "certain-true" and verdict.n0 == 1


def _weighted_shift(period, pre=()):
    """Weights on the first superdiagonal, as integers."""
    return BandedSpec.from_dict(
        {1: EventuallyPeriodic(tuple(map(GQ, pre)), tuple(map(GQ, period)))}
    )


def test_power_finite_rank_weighted_shift_reaches_the_probe():
    # the weighted shift with weights 1, 0, 1, 0, ... squares to 0, and a
    # preperiod adds only finite rank
    for pre in ((), (1, 1, 1)):
        verdict = is_power_finite_rank(_weighted_shift((1, 0), pre))
        assert verdict.kind == "certain-true" and verdict.n0 == 2, pre


def _diagonal(period):
    return BandedSpec.from_dict({0: EventuallyPeriodic(period=tuple(map(GQ, period)))})


def test_power_finite_rank_nilpotent_weighted_shift_of_period_six():
    # a zero weight in every run of six kills the sixth power, and no earlier
    # one: a window of four exponents cannot see it
    verdict = is_power_finite_rank(_weighted_shift((1, 1, 1, 1, 1, 0)))
    assert verdict.kind == "certain-true" and verdict.n0 == 6


@pytest.mark.parametrize(
    "spec",
    [
        forward_shift(),
        _weighted_shift((2,)),
        SumSpec((backward_shift(), FiniteRankSpec((((GQ(1),), (GQ(1),)),)))),
        identity_tail(),
    ],
    ids=["S", "2B", "B+rank-one", "I"],
)
def test_power_finite_rank_certainly_false(spec):
    assert is_power_finite_rank(spec).kind == "certain-false"


def test_power_finite_rank_direct_sums_combine_part_by_part():
    # one part outside F̃ puts the whole sum outside, whatever the others say
    assert is_power_finite_rank(DirectSumSpec((DenseSpec(J3), backward_shift()))).kind == (
        "certain-false"
    )
    verdict = is_power_finite_rank(DirectSumSpec((DenseSpec(J3), _weighted_shift((1, 0)))))
    assert verdict.kind == "certain-true" and verdict.n0 == 2


def test_power_finite_rank_of_products():
    zero = BandedSpec.from_dict({})
    # (B ⊕ 0)(0 ⊕ S) = 0 and P_even P_odd = 0, though no factor is in F̃
    split = is_power_finite_rank(
        DirectSumSpec((backward_shift(), zero)), DirectSumSpec((zero, forward_shift()))
    )
    assert split.kind == "certain-true" and split.n0 == 1
    parity = is_power_finite_rank(_diagonal((1, 0)), _diagonal((0, 1)))
    assert parity.kind == "certain-true" and parity.n0 == 1
    # BS = I and SB = I minus a rank-one projection are not
    assert is_power_finite_rank(backward_shift(), forward_shift()).kind == "certain-false"
    assert is_power_finite_rank(forward_shift(), backward_shift()).kind == "certain-false"
    # diag(1, 0, 1, 0, ...) B is the weighted shift with weights 1, 0, ...
    verdict = is_power_finite_rank(_diagonal((1, 0)), backward_shift())
    assert verdict.kind == "certain-true" and verdict.n0 == 2


def test_power_finite_rank_mixed_direct_sum_is_undecided():
    mixed = DirectSumSpec((DenseSpec(J3), backward_shift()))
    assert is_power_finite_rank(mixed, backward_shift()).kind == "undecided"
    assert is_power_finite_rank(SumSpec((mixed,))).kind == "undecided"
    other = DirectSumSpec((DenseSpec(J2), backward_shift()))
    assert is_power_finite_rank(mixed, other).kind == "undecided"


def _random_band(rng):
    """Seeded band: offsets in -2..2, periods up to 3 with zeros, short preperiods."""
    diagonals = {}
    for offset in rng.sample(range(-2, 3), rng.randint(1, 3)):
        period = tuple(GQ(rng.choice((0, 0, 1, 2, -1))) for _ in range(rng.randint(1, 3)))
        pre = tuple(GQ(rng.choice((0, 1, 3))) for _ in range(rng.randint(0, 2)))
        diagonals[offset] = EventuallyPeriodic(pre, period)
    return BandedSpec.from_dict(diagonals)


def _rank_growth_n0(factors, small, large, top):
    """First k <= top whose section power ranks agree at both sizes, by Bareiss."""

    def power_rank(n, k):
        product = None
        for f in factors:
            section = to_gaussian_int(f.realize(n))
            product = section if product is None else gi_matmul(product, section)
        power = product
        for _ in range(k - 1):
            power = gi_matmul(power, product)
        return bareiss_rank(power)

    for k in range(1, top + 1):
        if power_rank(small, k) == power_rank(large, k):
            return k
    return None


@pytest.mark.parametrize("seed", range(30))
def test_power_finite_rank_matches_the_section_rank_growth(seed):
    # Some power of a banded operator has finite rank exactly when the
    # ranks of its sections' powers stop growing; both sizes are multiples
    # of every period in play, so the truncation corner looks the same
    rng = random.Random(seed)
    factors = [_random_band(rng) for _ in range(1 + seed % 2)]
    verdict = is_power_finite_rank(*factors)
    expected = _rank_growth_n0(factors, 24, 36, 6)
    assert verdict.kind == ("certain-true" if expected else "certain-false")
    assert verdict.n0 == expected


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


@pytest.mark.parametrize("n0, step, count", [(MAX_SECTION - 1, 1, 2), (1, 1, MAX_SECTION),
                                             (MAX_SECTION - 30, 10, 4)])
def test_config_accepts_a_window_up_to_the_section_cap(n0, step, count):
    # only the config is built: no section is realized
    assert TowerConfig(n0, step, count).window()[-1] == MAX_SECTION


@pytest.mark.parametrize("n0, step, count", [(MAX_SECTION, 1, 2), (1, 1, MAX_SECTION + 1),
                                             (MAX_SECTION - 29, 10, 4), (1, 10**9, 10**9)])
def test_config_rejects_a_window_past_the_section_cap(n0, step, count):
    with pytest.raises(ValueError, match=f"exceeds the cap of {MAX_SECTION}"):
        TowerConfig(n0, step, count)
