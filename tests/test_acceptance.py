"""Acceptance suite: one test per criterion, printed as it completes.

The corpus criteria share one set of 500 seeded matrices with dimension
at most 8 and entries drawn from {-2..2} + {-1,0,1}i.  Oracle-backed
criteria compare against the Bareiss-rank chain oracle in oracles.py,
which shares no elimination code with the library.
"""

import math
import time
from functools import lru_cache

import numpy as np

from ascdesc.chains import chain_report, direct_sum, prop_asc_predicate, prop_dsc_predicate
from ascdesc.convergence import TAIL_WINDOW, Perturbation, SequenceSpec, probe, trajectory
from ascdesc.exact import (
    Matrix,
    block_diag,
    is_direct_sum,
    matrix_to_obj,
    power_image,
    power_kernel,
    subspace_sum,
)
from ascdesc.gq import GQ
from ascdesc.numeric import Tolerance, delta, gamma, subspace_to_float
from ascdesc.reporting import dumps
from ascdesc.spectra import CERT_FINITE_DIM, ascent_spectrum
from ascdesc.theorems import (
    check_H1,
    check_hypotheses,
    invertible_commuting_pair,
    random_commuting_pair,
    random_h1_family,
    random_matrix,
    run_batch,
    verify,
)
from ascdesc.tower import (
    DenseSpec,
    DirectSumSpec,
    TowerConfig,
    backward_shift,
    forward_shift,
    identity_tail,
    window_profile,
    window_sections,
)

from oracles import brute_chain

CORPUS_SIZE = 500

J2 = Matrix.from_rows([[0, 1], [0, 0]])
J3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


@lru_cache(maxsize=1)
def corpus() -> tuple[Matrix, ...]:
    return tuple(
        random_matrix(seed, 1 + seed % 8) for seed in range(CORPUS_SIZE)
    )


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_chain_oracle_equivalence():
    start = time.monotonic()
    for t in corpus():
        rep = chain_report(t)
        _, _, asc, dsc = brute_chain(t)
        assert rep.asc == asc and rep.dsc == dsc
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"chain oracle sweep took {elapsed:.1f}s"
    _report(1, f"chain indices match the Bareiss oracle on {CORPUS_SIZE} matrices "
               f"({elapsed:.1f}s)")


def test_criterion_2_characterization_equivalence():
    for t in corpus():
        rep = chain_report(t)
        d = t.rows
        for m in range(d + 1):
            asc_check = prop_asc_predicate(t, m)
            assert asc_check.holds == (rep.asc <= m)
            if not asc_check.holds:
                assert asc_check.witness is not None
            dsc_check = prop_dsc_predicate(t, m)
            assert dsc_check.holds == (rep.dsc <= m)
            if dsc_check.holds:
                kernel_m = power_kernel(t, m)
                assert len(dsc_check.witnesses) == d + 1
                for n, y_n in dsc_check.witnesses:
                    range_n = power_image(t, n)
                    assert kernel_m.contains(y_n)
                    assert is_direct_sum([y_n, range_n])
                    assert subspace_sum(y_n, range_n).is_full()
    _report(2, "ascent/descent characterizations match chain indices for every m, "
               "all complement witnesses verified exactly")


def test_criterion_3_finite_dimension_facts():
    for t in corpus():
        rep = chain_report(t)
        assert rep.asc == rep.dsc
        profile = ascent_spectrum(t)
        assert profile.sigma_asc == ()
        assert profile.sigma_dsc == ()
        assert profile.certificate == CERT_FINITE_DIM
    _report(3, "ascent equals descent and both spectra are empty with the "
               "stabilization certificate on the whole corpus")


def test_criterion_4_quantitative_product_and_sum_suite():
    start = time.monotonic()
    for seed in range(500):
        s, t = random_h1_family(seed)
        if seed % 10 == 0:
            hyp = check_H1(s, t)
            assert hyp.commute and hyp.h1
        assert chain_report(t @ s).asc == max(chain_report(t).asc, chain_report(s).asc)
    for seed in range(500):
        s, t = random_commuting_pair(seed)
        assert chain_report(s @ t).dsc <= max(chain_report(s).dsc, chain_report(t).dsc)
    for seed in range(200):
        t1 = random_matrix(seed, 1 + seed % 3)
        t2 = random_matrix(seed + 9000, 1 + (seed + 1) % 3)
        combined = chain_report(direct_sum(t1, t2))
        assert combined.asc == max(chain_report(t1).asc, chain_report(t2).asc)
        assert combined.dsc == max(chain_report(t1).dsc, chain_report(t2).dsc)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"quantitative suite took {elapsed:.1f}s"
    _report(4, f"500 product ascents, 500 product descents, 200 block sums, "
               f"zero failures ({elapsed:.1f}s)")


def test_criterion_5_descent_product_theorem_both_directions():
    passes = 0
    for seed in range(200):
        s, t = random_h1_family(seed + 10_000)
        inst = {
            "theorem": "thC",
            "seed": seed,
            "matrices": {"S": matrix_to_obj(s), "T": matrix_to_obj(t)},
        }
        verdict = verify("thC", inst)
        assert verdict.verdict == "pass", verdict.witness
        n0 = verdict.witness["n0"]
        lhs = verdict.witness["dsc_T"] <= n0 and verdict.witness["dsc_S"] <= n0
        rhs = verdict.witness["dsc_TS"] <= n0
        assert lhs == rhs
        passes += 1
    assert passes == 200
    # instances that violate the hypotheses must gate, never fail
    violators = [(J2, J2), (J3, J3), (block_diag(J2, J2), block_diag(J2, J2))]
    pairs = violators + [random_commuting_pair(seed + 50_000) for seed in range(60)]
    gated = 0
    for seed, (s, t) in enumerate(pairs):
        hyp = check_hypotheses(s, t)
        inst = {
            "theorem": "thC",
            "seed": seed,
            "matrices": {"S": matrix_to_obj(s), "T": matrix_to_obj(t)},
        }
        verdict = verify("thC", inst)
        assert verdict.verdict != "fail"
        if not (hyp.commute and hyp.h1 and hyp.h2):
            assert verdict.verdict == "inconclusive"
            gated += 1
    assert gated >= len(violators), "expected the crafted violators to gate"
    _report(5, f"descent product equivalence on 200 verified instances; "
               f"{gated} hypothesis-violating instances gated to inconclusive")


def test_criterion_6_invertible_factor_suite():
    for seed in range(200):
        a, b = invertible_commuting_pair(seed)
        rep_b = chain_report(b)
        rep_ab = chain_report(a @ b)
        assert rep_ab.asc == rep_b.asc
        assert rep_ab.dsc == rep_b.dsc
    _report(6, "asc(ab) = asc(b) and dsc(ab) = dsc(b) for 200 commuting pairs "
               "with invertible factor")


def test_criterion_7_tower_fixtures_two_windows():
    windows = (TowerConfig(n0=16, step=4, count=3), TowerConfig(n0=32, step=4, count=3))
    finite_values = {}
    for cfg in windows:
        def profile_at_0(spec):
            return window_profile(window_sections(spec, cfg), 0)

        assert profile_at_0(backward_shift())["asc"].kind == "divergent"
        assert profile_at_0(forward_shift())["dsc"].kind == "divergent"
        blocks = DirectSumSpec((DenseSpec(J2), DenseSpec(J3), identity_tail()))
        verdict = profile_at_0(blocks)["asc"]
        assert verdict.kind == "finite" and verdict.value == 3
        finite_values.setdefault("blocks", set()).add(verdict.value)
        small = DirectSumSpec((DenseSpec(J2), identity_tail()))
        verdict = profile_at_0(small)["asc"]
        assert verdict.kind == "finite" and verdict.value == 2
        finite_values.setdefault("small", set()).add(verdict.value)
    assert all(len(v) == 1 for v in finite_values.values()), "windows disagree"
    _report(7, "shift fixtures divergent and dense-block sums finite with the "
               "exact maxima on both disjoint windows")


def test_criterion_8_block_application():
    t = J2
    s = Matrix.diag([1, 2])
    couplings = (
        Matrix.from_rows([[1, 0], [0, 1]]),
        Matrix.from_rows([[1, 1], [0, 0]]),
        Matrix.from_rows([[0, 1], [1, 0]]),
    )
    for c in couplings:
        inst = {
            "theorem": "app_blocks",
            "seed": None,
            "matrices": {
                "T": matrix_to_obj(t),
                "S": matrix_to_obj(s),
                "C": matrix_to_obj(c),
            },
            "params": {"ks": [2, 3, 10]},
        }
        verdict = verify("app_blocks", inst)
        assert verdict.verdict == "pass", verdict.witness
        assert verdict.witness["violations"] == []
    _report(8, "coupled block profiles invariant under the scaling similarity "
               "for k in {2,3,10} and block-diagonal profiles compose as unions")


def test_criterion_9_gap_and_gamma_numerics():
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        from ascdesc.numeric import FloatSubspace

        e1 = FloatSubspace(2, np.array([[1.0], [0.0]]))
        tilted = FloatSubspace(
            2, np.array([[math.cos(theta)], [math.sin(theta)]])
        )
        assert abs(delta(e1, tilted) - abs(math.sin(theta))) < 1e-10
    assert abs(gamma(np.diag([3.0, 4.0, 0.0])) - 3.0) < 1e-12

    import random

    from ascdesc.exact import integer_span

    rng = random.Random("acceptance-9")
    contained_seen = separated_seen = 0
    for seed in range(200):
        dim = rng.randint(3, 6)
        # proper subspaces: spans of a few short random rows
        y_rows = [
            [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
            for _ in range(rng.randint(1, dim - 1))
        ]
        z_rows = [
            [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
            for _ in range(rng.randint(1, dim - 1))
        ]
        y_m, z_m = Matrix.from_rows(y_rows), Matrix.from_rows(z_rows)
        y_exact = integer_span(y_m.cols, y_m.int_rows)
        z_exact = integer_span(z_m.cols, z_m.int_rows)
        if seed % 2 == 0:
            z_exact = subspace_sum(z_exact, y_exact)  # force containment
        contained = subspace_sum(y_exact, z_exact).dim == z_exact.dim
        value = delta(subspace_to_float(y_exact), subspace_to_float(z_exact))
        if contained:
            contained_seen += 1
            assert value < 1e-9
        else:
            separated_seen += 1
            assert value > 1e-6
    assert contained_seen >= 50 and separated_seen >= 50
    _report(9, f"one-sided gaps match the sine oracle, gamma pinned at 1e-12, "
               f"and gap-vs-containment agreed on 200 pairs "
               f"({contained_seen} contained / {separated_seen} apart)")


def test_criterion_10_convergence_lab():
    tol = Tolerance()
    for seed in range(50):
        import random

        rng = random.Random(f"acceptance-10:{seed}")
        dim = rng.randint(2, 4)
        core = random_matrix(seed + 40_000, dim - 1)
        t = block_diag(core, Matrix.zeros(1, 1))  # singular limit
        b = random_matrix(seed + 41_000, dim)
        direction = t @ b  # range-preserving drift keeps the rank constant
        spec = SequenceSpec(
            t,
            Perturbation(exponent=2.0, direction=direction),
            (2000, 10_000, 2000),
        )
        traj = trajectory(spec, tol)
        assert all(r == traj.base_rank for r in traj.ranks), "rank must stay constant"
        assert all(v < 1e-6 for v in traj.tail("dku", TAIL_WINDOW))
        assert all(v < 1e-6 for v in traj.tail("dkl", TAIL_WINDOW))

    fixture = SequenceSpec(
        J2, Perturbation(exponent=1.0, direction=Matrix.identity(2)), (100, 2000, 100)
    )
    verdict = probe(fixture, "ker_lower", GQ(0), tol)
    assert verdict.verdict == "fail"
    tail = verdict.witness["sub_lemmas"]["ker_lower"]["tail"]
    assert all(abs(v - 1.0) <= 1e-12 for v in tail)
    assert verdict.witness["hypotheses"]["closed_range"] == "met"
    assert verdict.witness["hypotheses"]["dist_reached"] == "met"
    _report(10, "50 constant-rank sequences reach kernel-gap tails below 1e-6 "
                "by n=10^4; the resolvent fixture is detected as a kernel "
                "lower-convergence counterexample with tail gap 1")


def test_criterion_11_determinism():
    for theorem in ("theo34", "lemma35", "app_blocks"):
        first = run_batch(theorem, 11, 10)
        second = run_batch(theorem, 11, 10)
        first_bytes = dumps([v.to_obj() for v in first])
        second_bytes = dumps([v.to_obj() for v in second])
        assert first_bytes == second_bytes
    _report(11, "verify batches re-run byte-identically")
