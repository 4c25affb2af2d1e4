from fractions import Fraction

import pytest

from ascdesc.convergence import (
    MAX_SAMPLES,
    Perturbation,
    SequenceSpec,
    _tower_members,
    classify_convergence,
    limsup_gamma,
    probe,
    sequence_from_obj,
    trajectory,
)
from ascdesc.exact import Matrix, matrix_to_obj
from ascdesc.gq import GQ
from ascdesc.tower import (
    BandedSpec,
    DenseSpec,
    DirectSumSpec,
    EventuallyPeriodic,
    FiniteRankSpec,
    SumSpec,
    TowerConfig,
    backward_shift,
)

J2 = Matrix.from_rows([[0, 1], [0, 0]])
I2 = Matrix.identity(2)

RESOLVENT = SequenceSpec(J2, Perturbation(exponent=1.0, direction=I2), (10, 500, 10))
SCALING = SequenceSpec(J2, Perturbation(exponent=1.0, direction=J2), (10, 500, 10))


def test_trajectory_resolvent_fixture():
    traj = trajectory(RESOLVENT)
    assert all(s.dku < 1e-9 for s in traj.samples)
    assert all(abs(s.dkl - 1.0) < 1e-9 for s in traj.samples)
    # every sample is invertible while the limit has rank 1
    assert traj.base_rank == 1
    assert traj.rank_jumps == tuple(s.n for s in traj.samples)


def test_trajectory_scaling_fixture():
    traj = trajectory(SCALING)
    for s in traj.samples:
        assert max(s.dku, s.dkl, s.dru, s.drl) < 1e-9
    assert traj.rank_jumps == ()


def test_trajectory_rank_drop_fixture():
    spec = SequenceSpec(
        Matrix.diag([1, 0]),
        Perturbation(exponent=1.0, direction=Matrix.diag([0, 1])),
        (10, 500, 10),
    )
    traj = trajectory(spec)
    assert all(abs(s.dkl - 1.0) < 1e-9 for s in traj.samples)
    assert len(traj.rank_jumps) == len(traj.samples)


def test_classification_examples():
    assert classify_convergence(trajectory(SCALING), "upper", "kernel") == "converged"
    resolvent = trajectory(RESOLVENT)
    assert classify_convergence(resolvent, "upper", "kernel") == "converged"
    assert classify_convergence(resolvent, "lower", "kernel") == "not-converged"


def test_classification_needs_enough_samples():
    spec = SequenceSpec(J2, Perturbation(exponent=1.0, direction=I2), (10, 30, 10))
    with pytest.raises(ValueError):
        classify_convergence(trajectory(spec), "upper", "kernel")


def test_classification_rejects_bad_keys():
    with pytest.raises(ValueError):
        classify_convergence(trajectory(SCALING), "sideways", "kernel")


def test_limsup_gamma_constant_identity():
    spec = SequenceSpec(I2, Perturbation(exponent=2.0, direction=Matrix.zeros(2, 2)), (10, 200, 10))
    assert limsup_gamma(trajectory(spec)) == pytest.approx(1.0, abs=1e-9)


def test_limsup_gamma_resolvent_scale():
    traj = trajectory(RESOLVENT)
    # smallest singular value of J2 + I/n is of order 1/n^2
    expected = 1.0 / 500**2
    assert limsup_gamma(traj) == pytest.approx(expected, rel=0.5)


def test_upper_kernel_converges_for_every_sequence():
    import random

    rng = random.Random("upper-kernel")
    from ascdesc.theorems import random_matrix

    for seed in range(12):
        base = random_matrix(seed, rng.randint(2, 4))
        spec = SequenceSpec(
            base, Perturbation(exponent=2.0, seed=seed), (100, 2000, 100)
        )
        assert classify_convergence(trajectory(spec), "upper", "kernel") == "converged"


def test_probe_scaling_lem1_passes():
    verdict = probe(SCALING, "lem1", GQ(0))
    assert verdict.verdict == "pass"
    # finite dimension decides the chain conditions: labelled, not computed
    label = verdict.witness["chain_conditions"]
    assert label.startswith("met:") and "Fitting" in label
    assert "intersection_condition" not in verdict.witness
    assert verdict.witness["machinery_failures"] == []


@pytest.mark.parametrize("proposition", ["lem2", "lem4", "T1"])
def test_probe_badly_scaled_base_does_not_fail_on_rounding(proposition):
    # singular values 1e10 and 1e-16: a float A^d of these matrices puts
    # the chain conditions of the limit and the tail on different sides
    # of the rank cut, which once failed these probes although every
    # sub-lemma converges
    import numpy as np

    spec = SequenceSpec(
        np.array([[1.0, 1e10], [0.0, 1e-6]]),
        Perturbation(exponent=1.0, direction=np.diag([0.0, 1e6])),
        (10, 500, 10),
    )
    verdict = probe(spec, proposition, GQ(0))
    sub_lemmas = verdict.witness["sub_lemmas"].values()
    assert all(entry["classification"] == "converged" for entry in sub_lemmas)
    assert verdict.verdict != "fail", verdict.note


def test_probe_resolvent_ker_lower_fails():
    verdict = probe(RESOLVENT, "ker_lower", GQ(0))
    assert verdict.verdict == "fail"
    tail = verdict.witness["sub_lemmas"]["ker_lower"]["tail"]
    assert all(abs(v - 1.0) <= 1e-12 for v in tail)
    assert verdict.witness["hypotheses"]["dist_reached"] == "met"
    assert verdict.witness["hypotheses"]["closed_range"] == "met"


def test_probe_resolvent_T1_fails_via_kernel_lemma():
    verdict = probe(RESOLVENT, "T1", GQ(0))
    assert verdict.verdict == "fail"
    assert "ker_lower" in verdict.note


def test_probe_ker_upper_passes_on_resolvent():
    assert probe(RESOLVENT, "ker_upper", GQ(0)).verdict == "pass"


def test_probe_rng_upper_gated_by_gamma():
    # gamma of the resolvent sequence decays like 1/n^2, so the
    # hypothesis cannot be certified and the probe must not conclude
    verdict = probe(RESOLVENT, "rng_upper", GQ(0))
    assert verdict.verdict == "inconclusive"
    assert verdict.witness["hypotheses"]["gamma"] in ("unmet", "ambiguous")
    longer = SequenceSpec(J2, Perturbation(exponent=1.0, direction=I2), (100, 5000, 100))
    verdict = probe(longer, "rng_upper", GQ(0))
    assert verdict.witness["hypotheses"]["gamma"] == "unmet"
    assert verdict.verdict == "inconclusive"


@pytest.mark.parametrize("proposition", ["T1", "ker_lower", "lem1"])
@pytest.mark.parametrize("lam", [GQ(0), GQ(Fraction(1, 2))])
def test_probe_reuses_given_trajectory(proposition, lam):
    given = probe(RESOLVENT, proposition, lam, traj=trajectory(RESOLVENT))
    assert given.to_obj() == probe(RESOLVENT, proposition, lam).to_obj()


def test_probe_shifts_limit_and_samples():
    # J2 + I/n - I and J2 - I are invertible, so both kernels are zero;
    # shifting only one side would leave a kernel gap of 1
    assert probe(RESOLVENT, "ker_lower", GQ(1)).verdict == "pass"
    assert probe(RESOLVENT, "ker_lower", GQ(0)).verdict == "fail"


def test_probe_lem2_vacuous_pass():
    verdict = probe(SCALING, "lem2", GQ(0))
    assert verdict.verdict == "pass"


def test_probe_records_both_gammas():
    verdict = probe(RESOLVENT, "lem1", GQ(1))
    assert "limsup_gamma" in verdict.witness
    assert "limsup_gamma_shifted" in verdict.witness


def test_probe_tower_backward_shift():
    perturbation = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    spec = SequenceSpec(
        backward_shift(), Perturbation(exponent=1.0, direction=perturbation), (1, 6, 1)
    )
    cfg = TowerConfig(n0=8, step=4, count=3)
    verdict = probe(spec, "lem2", GQ(0), cfg=cfg)
    assert verdict.verdict == "pass"
    assert verdict.witness["classifications"]["asc"]["limit"] == "divergent"
    verdict = probe(spec, "T1", GQ(0), cfg=cfg)
    assert verdict.verdict == "pass"


def test_probe_tower_requires_exact_point():
    perturbation = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    spec = SequenceSpec(
        backward_shift(), Perturbation(exponent=1.0, direction=perturbation), (1, 6, 1)
    )
    with pytest.raises(ValueError):
        probe(spec, "lem2", 0.5)


# E scaled by f, written out by hand for each variant: T_n = T + n^-2 E
# must have the sections of SumSpec((T, E scaled by 1/n^2))
SCALED_PERTURBATIONS = {
    "banded": lambda f: BandedSpec.from_dict(
        {-1: EventuallyPeriodic(pre=(f * Fraction(3, 7),), period=(f, f * GQ(0, 2)))}
    ),
    "finite_rank": lambda f: FiniteRankSpec(
        (((f, f * GQ(Fraction(1, 2), 1)), (GQ(1), GQ(0), GQ(3))),)
    ),
    "dense": lambda f: DenseSpec(
        Matrix.from_rows([[f * Fraction(1, 3), f * GQ(0, 2)], [0, -f]])
    ),
    "direct_sum": lambda f: DirectSumSpec(
        (
            DenseSpec(Matrix.from_rows([[f * Fraction(1, 3), f * GQ(0, 2)], [0, -f]])),
            BandedSpec.from_dict({-1: EventuallyPeriodic(pre=(f * 5,), period=(f,))}),
        )
    ),
}


@pytest.mark.parametrize("variant", list(SCALED_PERTURBATIONS))
def test_tower_members_match_the_scaled_sum_spec(variant):
    base = BandedSpec.from_dict(
        {
            0: EventuallyPeriodic(pre=(GQ(Fraction(1, 2)),), period=(GQ(0, Fraction(1, 3)),)),
            1: EventuallyPeriodic(period=(GQ(1),)),
        }
    )
    scaled = SCALED_PERTURBATIONS[variant]
    spec = SequenceSpec(base, Perturbation(exponent=2, direction=scaled(GQ(1))), (1, 5, 2))
    sizes = (5, 8)
    base_sections, members = _tower_members(spec, sizes)
    assert base_sections == {k: base.realize(k) for k in sizes}
    assert [n for n, _ in members] == [1, 3, 5]
    for n, sections in members:
        member = SumSpec((base, scaled(GQ(Fraction(1, n * n)))))
        assert sections == {k: member.realize(k) for k in sizes}, n


def test_tower_members_rejects_what_cannot_stay_exact():
    finite_rank = FiniteRankSpec((((GQ(1),), (GQ(1),)),))
    with pytest.raises(ValueError, match="operator-spec perturbation"):
        _tower_members(SequenceSpec(backward_shift(), Perturbation(1, I2), (1, 3, 1)), (4,))
    with pytest.raises(ValueError, match="integer exponent"):
        _tower_members(
            SequenceSpec(backward_shift(), Perturbation(1.5, finite_rank), (1, 3, 1)), (4,)
        )
    # a window below the base's minimum fails on the base first
    long_pre = BandedSpec.from_dict({0: EventuallyPeriodic(pre=(GQ(1),) * 5)})
    with pytest.raises(ValueError, match="truncation 2 below the minimum 5"):
        _tower_members(SequenceSpec(long_pre, Perturbation(1, I2), (1, 3, 1)), (2, 6))


@pytest.mark.parametrize("stride", [1, 7])
def test_sequence_spec_caps_the_sample_count(stride):
    # only the specs are built: no sample is realized
    start = 3
    at_cap = (start, start + stride * (MAX_SAMPLES - 1), stride)
    assert len(SequenceSpec(J2, Perturbation(1.0, I2), at_cap).samples()) == MAX_SAMPLES
    past_cap = (start, at_cap[1] + stride, stride)
    with pytest.raises(ValueError, match=f"samples {MAX_SAMPLES + 1} indices, more than the cap"):
        SequenceSpec(J2, Perturbation(1.0, I2), past_cap)


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(J2, Perturbation(exponent=0.0, direction=I2), (10, 20, 10))
    with pytest.raises(ValueError):
        SequenceSpec(J2, Perturbation(exponent=1.0, direction=I2), (0, 20, 10))
    with pytest.raises(ValueError):
        Perturbation(exponent=1.0)
    for exponent in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Perturbation(exponent=exponent, direction=I2)


def test_sequence_json_round_trip():
    obj = {
        "base": matrix_to_obj(J2),
        "perturbation": {"rule": "scaled", "exponent": 1, "matrix": matrix_to_obj(I2)},
        "n_range": [10, 100, 10],
    }
    spec = sequence_from_obj(obj)
    assert spec.samples()[0] == 10 and not spec.is_tower
    assert sequence_from_obj(spec.to_obj()).to_obj() == spec.to_obj()


def test_csv_shape():
    csv = trajectory(SCALING).to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "n,dku,dkl,dru,drl,gamma"
    assert len(lines) == len(SCALING.samples()) + 1
    assert lines[1].startswith("10,")


def test_seeded_random_perturbation_is_deterministic():
    spec = SequenceSpec(J2, Perturbation(exponent=2.0, seed=5), (10, 200, 10))
    first = trajectory(spec).to_csv()
    second = trajectory(spec).to_csv()
    assert first == second


def test_float_matrix_sequence_input():
    import numpy as np

    obj = {
        "base": {"rows": 2, "cols": 2, "field": "f64", "entries": [[0.0, 1.0], [0.0, 0.0]]},
        "perturbation": {
            "rule": "scaled",
            "exponent": 1,
            "matrix": {"rows": 2, "cols": 2, "field": "f64", "entries": [[1.0, 0.0], [0.0, 1.0]]},
        },
        "n_range": [10, 200, 10],
    }
    spec = sequence_from_obj(obj)
    assert isinstance(spec.base, np.ndarray)
    traj = trajectory(spec)
    assert all(abs(s.dkl - 1.0) < 1e-9 for s in traj.samples)
    assert sequence_from_obj(spec.to_obj()).to_obj() == spec.to_obj()


def test_trajectory_invariant_under_unitary_conjugation():
    import numpy as np

    rng = np.random.default_rng(42)
    for seed in range(8):
        from ascdesc.theorems import random_matrix
        from ascdesc.numeric import matrix_to_array

        dim = 3
        t = matrix_to_array(random_matrix(seed, dim))
        e = rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        plain = trajectory(
            SequenceSpec(np.asarray(t), Perturbation(exponent=1.0, direction=e), (10, 200, 10))
        )
        conjugated = trajectory(
            SequenceSpec(
                q @ t @ q.T.conj(),
                Perturbation(exponent=1.0, direction=q @ e @ q.T.conj()),
                (10, 200, 10),
            )
        )
        for a, b in zip(plain.samples, conjugated.samples):
            assert abs(a.dku - b.dku) < 1e-9
            assert abs(a.dkl - b.dkl) < 1e-9
            assert abs(a.dru - b.dru) < 1e-9
            assert abs(a.drl - b.drl) < 1e-9
            assert abs(a.gamma - b.gamma) < 1e-9


def test_probe_replayable():
    from ascdesc.reporting import dumps

    first = probe(RESOLVENT, "T1", GQ(0))
    second = probe(RESOLVENT, "T1", GQ(0))
    assert dumps(first.to_obj()) == dumps(second.to_obj())
