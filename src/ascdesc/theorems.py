"""Hypothesis predicates, exception sets, and mechanical theorem checks.

Each statement about ascent/descent of sums, products, compressions and
block operators is verified on explicit instances: hypotheses are
evaluated (never assumed), conclusions are compared against computed
chain indices, and every verdict carries enough of the instance to
replay it.  Instances whose hypotheses fail yield ``inconclusive``,
never ``fail``.

Several checks are quantitative strengthenings read off the underlying
stabilization indices (for example asc(TS) = max(asc T, asc S) for a
kernel-splitting commuting pair, where the literal statement only
asserts finiteness).  Those verdicts are flagged ``quantitative_form``
so a failure distinguishes the strengthening from the literal claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .chains import (
    ChainReport,
    chain_report,
    compression,
    direct_sum,
    prop_asc_predicate,
    prop_dsc_predicate,
    ptp_block_form,
)
from .exact import (
    Matrix,
    Subspace,
    block_diag,
    cached_image,
    cached_kernel,
    hstack,
    invert,
    matrix_from_obj,
    matrix_to_obj,
    poly_of_matrix,
    power_chain,
    rank,
    subspace_intersection,
    subspace_sum,
    is_direct_sum,
    vstack,
)
from .gq import GQ, GaussianRational, as_gq, format_scalar
from .spectra import eigenvalues_exact, point_profile
from .tower import (
    DEFAULT_CONFIG,
    OperatorSpec,
    TowerConfig,
    classify_window,
    probed_power_rank,
)

THEOREM_IDS = (
    "prop11",
    "th1",
    "theo34",
    "monn",
    "thC",
    "nov",
    "lemma41",
    "lemma_ca",
    "lemma35",
    "lemma36",
    "eq_mul",
    "app_blocks",
)


# ---------------------------------------------------------------------------
# hypothesis predicates


@dataclass(frozen=True)
class HypothesisReport:
    """Evaluation of the kernel-splitting and range-inclusion hypotheses.

    ``h1`` records whether N((TS)^p) = N(T^p) ⊕ N(S^p) for every p up
    to the ambient dimension (the chains stabilize there); on failure
    the offending p and the three kernels are kept.  ``h2`` records
    whether, with n0 the descent of TS, one of N(S^n0) ⊆ R(T) or
    N(T^n0) ⊆ R(S) holds.  Fields not computed by a given check stay
    None.
    """

    commute: bool
    h1: bool | None = None
    h1_failing_p: int | None = None
    h1_subspaces: tuple[Subspace, Subspace, Subspace] | None = None
    h2: bool | None = None
    h2_n0: int | None = None
    h2_inclusion: str | None = None
    f_tilde: str | None = None

    def to_obj(self) -> dict:
        obj: dict = {"commute": self.commute}
        if self.h1 is not None:
            obj["h1"] = self.h1
            if not self.h1:
                obj["h1_failing_p"] = self.h1_failing_p
        if self.h2 is not None:
            obj["h2"] = self.h2
            obj["h2_n0"] = self.h2_n0
            if self.h2_inclusion:
                obj["h2_inclusion"] = self.h2_inclusion
        if self.f_tilde is not None:
            obj["f_tilde"] = self.f_tilde
        return obj


def _check_square_pair(s: Matrix, t: Matrix) -> int:
    if not s.is_square or not t.is_square or s.rows != t.rows:
        raise ValueError("expected square matrices of equal size")
    return s.rows


def _h1_kernel_split(s: Matrix, t: Matrix, top: int | None = None):
    """Kernel condition of the splitting hypothesis for p = 1..top (default dim)."""
    d = _check_square_pair(s, t)
    top = d if top is None else top
    ts = t @ s
    s_pow = power_chain(s, top)
    t_pow = power_chain(t, top)
    ts_pow = power_chain(ts, top)
    for p in range(1, top + 1):
        n_t = cached_kernel(t_pow[p])
        n_s = cached_kernel(s_pow[p])
        n_ts = cached_kernel(ts_pow[p])
        if not is_direct_sum([n_t, n_s]) or subspace_sum(n_t, n_s) != n_ts:
            return False, p, (n_t, n_s, n_ts)
    return True, None, None


def check_H1(s: Matrix, t: Matrix) -> HypothesisReport:
    """Commutation plus the kernel-splitting condition for every power."""
    commute = s @ t == t @ s
    holds, failing_p, spaces = _h1_kernel_split(s, t)
    return HypothesisReport(
        commute=commute, h1=holds, h1_failing_p=failing_p, h1_subspaces=spaces
    )


def check_H2(s: Matrix, t: Matrix) -> HypothesisReport:
    """Descent index of TS plus the two range-inclusion alternatives."""
    _check_square_pair(s, t)
    commute = s @ t == t @ s
    n0, inclusion = _h2_inclusion(s, t)
    return HypothesisReport(
        commute=commute, h2=inclusion is not None, h2_n0=n0, h2_inclusion=inclusion
    )


def _h2_inclusion(s: Matrix, t: Matrix) -> tuple[int, str | None]:
    """Descent n0 of TS and the first range inclusion that holds at n0, if any."""
    n0 = chain_report(t @ s).dsc
    if cached_image(t).contains(cached_kernel(s.power(n0))):
        return n0, "N(S^n0) in R(T)"
    if cached_image(s).contains(cached_kernel(t.power(n0))):
        return n0, "N(T^n0) in R(S)"
    return n0, None


def check_hypotheses(s: Matrix, t: Matrix) -> HypothesisReport:
    """Full report: commutation, kernel splitting, range inclusion, F-class."""
    h1 = check_H1(s, t)
    h2 = check_H2(s, t)
    # any dense matrix has finite rank, so its first power already qualifies
    f_tilde = "certain-true"
    return HypothesisReport(
        commute=h1.commute,
        h1=h1.h1,
        h1_failing_p=h1.h1_failing_p,
        h1_subspaces=h1.h1_subspaces,
        h2=h2.h2,
        h2_n0=h2.h2_n0,
        h2_inclusion=h2.h2_inclusion,
        f_tilde=f_tilde,
    )


def _h1_satisfied(s: Matrix, t: Matrix) -> bool:
    rep = check_H1(s, t)
    return rep.commute and bool(rep.h1)


def _h2_satisfied(s: Matrix, t: Matrix) -> bool:
    return bool(check_H2(s, t).h2)


# ---------------------------------------------------------------------------
# exception sets


@dataclass(frozen=True)
class SetMembership:
    member: bool
    certificate: str
    details: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "member": self.member,
            "certificate": self.certificate,
            "details": self.details,
        }


def in_R_set(s: Matrix, t: Matrix, lam) -> SetMembership:
    """Literal evaluation: finite ascent of S+T-lam forces the pair to fail H1."""
    _check_square_pair(s, t)
    s_l = s.shifted(lam)
    t_l = t.shifted(lam)
    asc_sum = chain_report((s + t).shifted(lam)).asc
    asc_finite = asc_sum is not None  # always holds for matrices
    h1 = _h1_satisfied(s_l, t_l)
    member = (not asc_finite) or (not h1)
    return SetMembership(
        member,
        "implication evaluated literally; finite dimension keeps ascent finite",
        {"asc_sum": asc_sum, "h1": h1, "lambda": format_scalar(as_gq(lam))},
    )


def in_M_set(s: Matrix, t: Matrix, lam) -> SetMembership:
    """Always false for matrices: every codimension is finite."""
    _check_square_pair(s, t)
    s_l = s.shifted(lam)
    t_l = t.shifted(lam)
    n0 = chain_report(s_l @ t_l).dsc
    codim_s = s.rows - cached_image(s_l.power(n0)).dim
    codim_t = t.rows - cached_image(t_l.power(n0)).dim
    return SetMembership(
        False,
        "finite-dimensional: all codimensions finite",
        {
            "n0": n0,
            "codim_S": codim_s,
            "codim_T": codim_t,
            "lambda": format_scalar(as_gq(lam)),
        },
    )


def in_N_set(s: Matrix, t: Matrix, lam) -> SetMembership:
    """Literal evaluation: finite descent of S+T-lam forces H1 or H2 to fail."""
    _check_square_pair(s, t)
    s_l = s.shifted(lam)
    t_l = t.shifted(lam)
    dsc_sum = chain_report((s + t).shifted(lam)).dsc
    dsc_finite = dsc_sum is not None
    hyps = _h1_satisfied(s_l, t_l) and _h2_satisfied(s_l, t_l)
    member = (not dsc_finite) or (not hyps)
    return SetMembership(
        member,
        "implication evaluated literally; finite dimension keeps descent finite",
        {"dsc_sum": dsc_sum, "h1_and_h2": hyps, "lambda": format_scalar(as_gq(lam))},
    )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: dict
    instance: dict
    seed: int | None = None
    quantitative_form: bool = False
    note: str = ""

    def to_obj(self) -> dict:
        obj = {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "witness": self.witness,
            "instance": self.instance,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.quantitative_form:
            obj["quantitative_form"] = True
        if self.note:
            obj["note"] = self.note
        return obj


# ---------------------------------------------------------------------------
# seeded instance generators


_SMALL_NONZERO = (
    GQ(1),
    GQ(-1),
    GQ(2),
    GQ(-2),
    GQ(0, 1),
    GQ(1, 1),
    GQ(0, -1),
)


def random_matrix(seed: int, dim: int) -> Matrix:
    """Entries with real part in -2..2 and imaginary part in -1..1."""
    rng = random.Random(f"matrix:{seed}")
    return _random_matrix_from(rng, dim)


def _random_matrix_from(rng: random.Random, dim: int) -> Matrix:
    return Matrix(
        dim,
        dim,
        [GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim * dim)],
    )


def _random_unimodular(rng: random.Random, d: int) -> Matrix:
    lower = Matrix.identity(d).to_lists()
    upper = Matrix.identity(d).to_lists()
    for i in range(d):
        for j in range(i):
            lower[i][j] = GQ(rng.randint(-1, 1))
            upper[j][i] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def _random_nilpotent(rng: random.Random, j: int) -> Matrix:
    rows = Matrix.zeros(j, j).to_lists()
    for i in range(j - 1):
        rows[i][i + 1] = rng.choice((GQ(1), GQ(-1), GQ(2)))
        for k in range(i + 2, j):
            rows[i][k] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(rows) if j else Matrix.zeros(0, 0)


def _structured_block(rng: random.Random, d: int) -> Matrix:
    """Similarity-conjugated nilpotent-plus-invertible block of size d."""
    j = rng.randint(0, d)
    nil = _random_nilpotent(rng, j)
    diag = Matrix.diag([rng.choice(_SMALL_NONZERO) for _ in range(d - j)])
    core = block_diag(nil, diag)
    v = _random_unimodular(rng, d)
    return v @ core @ invert(v)


def random_h1_family(seed: int, dims: tuple[int, int] | None = None) -> tuple[Matrix, Matrix]:
    """Commuting pair with kernels in complementary blocks.

    T = A ⊕ I and S = I ⊕ B commute for any blocks, and kernels of all
    powers split across the two blocks, so the splitting hypothesis
    holds by construction.
    """
    rng = random.Random(f"h1:{seed}")
    if dims is None:
        dims = (rng.randint(2, 4), rng.randint(2, 4))
    d1, d2 = dims
    a = _structured_block(rng, d1)
    b = _structured_block(rng, d2)
    t = block_diag(a, Matrix.identity(d2))
    s = block_diag(Matrix.identity(d1), b)
    return s, t


def random_commuting_pair(
    seed: int, dim: int | None = None, degree: int = 2
) -> tuple[Matrix, Matrix]:
    """(p(A), q(A)) for one random A: commutation is automatic and exact."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = random.Random(f"commuting:{seed}")
    if dim is None:
        dim = rng.randint(2, 4)
    a = _structured_block(rng, dim)
    p = _random_poly(rng, degree)
    q = _random_poly(rng, degree)
    return poly_of_matrix(p, a), poly_of_matrix(q, a)


def _random_poly(rng: random.Random, degree: int) -> list[GaussianRational]:
    while True:
        coeffs = [GQ(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(degree + 1)]
        if any(coeffs):
            return coeffs


def invertible_commuting_pair(seed: int, dim: int | None = None) -> tuple[Matrix, Matrix]:
    """(a, b) with ab = ba and a invertible: a = A + cI, c off the spectrum."""
    rng = random.Random(f"invertible:{seed}")
    if dim is None:
        dim = rng.randint(2, 4)
    a0 = _structured_block(rng, dim)
    b = poly_of_matrix(_random_poly(rng, 2), a0)
    for c in range(1, dim + 2):
        shifted = a0.shifted(GQ(-c))  # A + cI
        if rank(shifted) == dim:
            return shifted, b
    raise RuntimeError("no invertible shift found below dim+2 candidates")


def _upper_triangular(rng: random.Random, d: int) -> Matrix:
    rows = Matrix.zeros(d, d).to_lists()
    pool = (GQ(0), GQ(1), GQ(2), GQ(-1), GQ(0, 1))
    for i in range(d):
        rows[i][i] = rng.choice(pool)
        for j in range(i + 1, d):
            rows[i][j] = GQ(rng.randint(-1, 1))
    return Matrix.from_rows(rows)


def instance_for(theorem: str, seed: int) -> dict:
    """Deterministic replayable instance for one theorem check."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    rng = random.Random(f"{theorem}:{seed}")
    if theorem == "prop11":
        dim = rng.randint(2, 5)
        t = _structured_block(rng, dim)
        return _instance(theorem, seed, "structured", T=t)
    if theorem in ("theo34", "thC", "lemma36", "monn", "th1", "nov"):
        if seed % 3 == 2:
            s, t = random_commuting_pair(seed)
            return _instance(theorem, seed, "commuting", S=s, T=t)
        s, t = random_h1_family(seed)
        return _instance(theorem, seed, "h1_family", S=s, T=t)
    if theorem == "lemma35":
        s, t = random_commuting_pair(seed)
        return _instance(theorem, seed, "commuting", S=s, T=t)
    if theorem == "eq_mul":
        a, b = invertible_commuting_pair(seed)
        return _instance(theorem, seed, "invertible_commuting", A=a, B=b)
    if theorem == "lemma41":
        t1 = _structured_block(rng, rng.randint(1, 3))
        t2 = _structured_block(rng, rng.randint(1, 3))
        return _instance(theorem, seed, "blocks", T1=t1, T2=t2)
    if theorem == "lemma_ca":
        r = rng.randint(1, 3)
        k = rng.randint(0, 2)
        core = block_diag(_structured_block(rng, r), _structured_block(rng, k))
        proj = block_diag(Matrix.identity(r), Matrix.zeros(k, k))
        v = _random_unimodular(rng, r + k)
        v_inv = invert(v)
        return _instance(
            theorem, seed, "commuting_projection", T=v @ core @ v_inv, P=v @ proj @ v_inv
        )
    if theorem == "app_blocks":
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        t = _upper_triangular(rng, d1)
        s = _upper_triangular(rng, d2)
        c = Matrix(d1, d2, [GQ(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(d1 * d2)])
        inst = _instance(theorem, seed, "block_triangular", T=t, S=s, C=c)
        inst["params"] = {"ks": [2, 3, 10]}
        return inst
    raise AssertionError(theorem)


def _instance(theorem: str, seed: int | None, generator: str, **matrices: Matrix) -> dict:
    return {
        "theorem": theorem,
        "seed": seed,
        "generator": generator,
        "matrices": {name: matrix_to_obj(m) for name, m in sorted(matrices.items())},
    }


def _instance_matrices(instance: dict) -> dict[str, Matrix]:
    try:
        raw = instance["matrices"]
        return {name: matrix_from_obj(obj) for name, obj in raw.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc


# ---------------------------------------------------------------------------
# verification


def verify(theorem: str, instance: dict) -> TheoremVerdict:
    """Check one theorem on one instance; hypotheses gate the verdict."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    mats = _instance_matrices(instance)
    seed = instance.get("seed")
    handler = _HANDLERS[theorem]
    try:
        return handler(mats, instance, seed)
    except KeyError as exc:
        raise ValueError(f"malformed instance: missing matrix {exc}") from exc


def _verdict(theorem, instance, seed, verdict, witness, quantitative=False, note=""):
    return TheoremVerdict(
        theorem=theorem,
        verdict=verdict,
        witness=witness,
        instance=instance,
        seed=seed,
        quantitative_form=quantitative,
        note=note,
    )


def _verify_prop11(mats, instance, seed) -> TheoremVerdict:
    t = mats["T"]
    rep = chain_report(t)
    failures = []
    for m in range(t.rows + 1):
        asc_check = prop_asc_predicate(t, m)
        if asc_check.holds != (rep.asc <= m):
            failures.append({"m": m, "side": "asc"})
        dsc_check = prop_dsc_predicate(t, m)
        if dsc_check.holds != (rep.dsc <= m):
            failures.append({"m": m, "side": "dsc"})
        if dsc_check.holds:
            n_m = cached_kernel(t.power(m))
            for n, y_n in dsc_check.witnesses:
                r_n = cached_image(t.power(n))
                ok = (
                    n_m.contains(y_n)
                    and subspace_intersection(y_n, r_n).is_zero()
                    and subspace_sum(y_n, r_n).is_full()
                )
                if not ok:
                    failures.append({"m": m, "side": "witness", "n": n})
    witness = {"asc": rep.asc, "dsc": rep.dsc, "failures": failures}
    return _verdict(
        "prop11", instance, seed, "fail" if failures else "pass", witness
    )


def _verify_theo34(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_H1(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1):
        return _verdict("theo34", instance, seed, "inconclusive", witness,
                        note="kernel-splitting hypothesis not met")
    asc_t = chain_report(t).asc
    asc_s = chain_report(s).asc
    asc_ts = chain_report(t @ s).asc
    witness.update({"asc_T": asc_t, "asc_S": asc_s, "asc_TS": asc_ts})
    ok = asc_ts == max(asc_t, asc_s)
    return _verdict("theo34", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _verify_lemma35(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    if s @ t != t @ s:
        return _verdict("lemma35", instance, seed, "inconclusive",
                        {"commute": False}, note="operators do not commute")
    dsc_t = chain_report(t).dsc
    dsc_s = chain_report(s).dsc
    dsc_ts = chain_report(s @ t).dsc
    witness = {"dsc_T": dsc_t, "dsc_S": dsc_s, "dsc_TS": dsc_ts}
    ok = dsc_ts <= max(dsc_t, dsc_s)
    return _verdict("lemma35", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _verify_lemma36(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1 and hyp.h2):
        return _verdict("lemma36", instance, seed, "inconclusive", witness,
                        note="splitting or inclusion hypothesis not met")
    dsc_t = chain_report(t).dsc
    dsc_s = chain_report(s).dsc
    dsc_ts = chain_report(t @ s).dsc
    witness.update({"dsc_T": dsc_t, "dsc_S": dsc_s, "dsc_TS": dsc_ts})
    ok = min(dsc_t, dsc_s) <= dsc_ts
    return _verdict("lemma36", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _verify_thC(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1 and hyp.h2):
        return _verdict("thC", instance, seed, "inconclusive", witness,
                        note="splitting or inclusion hypothesis not met")
    n0 = hyp.h2_n0
    dsc_t = chain_report(t).dsc
    dsc_s = chain_report(s).dsc
    dsc_ts = chain_report(t @ s).dsc
    codim_t = t.rows - cached_image(t.power(n0)).dim
    codim_s = s.rows - cached_image(s.power(n0)).dim
    witness.update(
        {
            "n0": n0,
            "dsc_T": dsc_t,
            "dsc_S": dsc_s,
            "dsc_TS": dsc_ts,
            "codim_R_T_n0": codim_t,
            "codim_R_S_n0": codim_s,
        }
    )
    lhs = dsc_t <= n0 and dsc_s <= n0
    rhs = dsc_ts <= n0
    ok = lhs == rhs
    return _verdict("thC", instance, seed, "pass" if ok else "fail", witness)


def _verify_eq_mul(mats, instance, seed) -> TheoremVerdict:
    a, b = mats["A"], mats["B"]
    commute = a @ b == b @ a
    invertible = rank(a) == a.rows
    witness: dict = {"commute": commute, "a_invertible": invertible}
    if not (commute and invertible):
        return _verdict("eq_mul", instance, seed, "inconclusive", witness,
                        note="needs a commuting pair with invertible first factor")
    rep_b = chain_report(b)
    rep_ab = chain_report(a @ b)
    witness.update(
        {
            "asc_b": rep_b.asc,
            "asc_ab": rep_ab.asc,
            "dsc_b": rep_b.dsc,
            "dsc_ab": rep_ab.dsc,
        }
    )
    ok = rep_ab.asc == rep_b.asc and rep_ab.dsc == rep_b.dsc
    return _verdict("eq_mul", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _verify_lemma41(mats, instance, seed) -> TheoremVerdict:
    t1, t2 = mats["T1"], mats["T2"]
    combined = chain_report(direct_sum(t1, t2))
    rep1 = chain_report(t1)
    rep2 = chain_report(t2)
    witness = {
        "asc_T1": rep1.asc,
        "asc_T2": rep2.asc,
        "asc_sum": combined.asc,
        "dsc_T1": rep1.dsc,
        "dsc_T2": rep2.dsc,
        "dsc_sum": combined.dsc,
    }
    ok = combined.asc == max(rep1.asc, rep2.asc) and combined.dsc == max(
        rep1.dsc, rep2.dsc
    )
    return _verdict("lemma41", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _verify_lemma_ca(mats, instance, seed) -> TheoremVerdict:
    t, p = mats["T"], mats["P"]
    if p @ p != p:
        return _verdict("lemma_ca", instance, seed, "inconclusive",
                        {"idempotent": False}, note="P is not a projection")
    if t @ p != p @ t:
        return _verdict("lemma_ca", instance, seed, "inconclusive",
                        {"commute": False}, note="P does not commute with T")
    block, _ = ptp_block_form(t, p)  # verifies the block identity exactly
    t_p = compression(t, p)
    rep_t = chain_report(t)
    rep_tp = chain_report(t_p) if t_p.rows else ChainReport((0, 0), (0, 0), 0, 0, 0, 0)
    rep_ptp = chain_report(p @ t @ p)
    null_dim = t.rows - cached_image(p).dim
    zero_asc = 1 if null_dim else 0
    witness = {
        "asc_T": rep_t.asc,
        "asc_TP": rep_tp.asc,
        "asc_PTP": rep_ptp.asc,
        "dsc_T": rep_t.dsc,
        "dsc_TP": rep_tp.dsc,
        "dsc_PTP": rep_ptp.dsc,
        "block_rows": block.rows,
    }
    finite_equiv = (rep_t.asc is not None) == (rep_tp.asc is not None) and (
        rep_t.dsc is not None
    ) == (rep_tp.dsc is not None)
    block_consistent = rep_ptp.asc == max(rep_tp.asc, zero_asc) and rep_ptp.dsc == max(
        rep_tp.dsc, zero_asc
    )
    ok = finite_equiv and block_consistent
    return _verdict("lemma_ca", instance, seed, "pass" if ok else "fail",
                    witness, quantitative=True)


def _nonzero_candidates(*mats: Matrix) -> list[GaussianRational]:
    values: set[GaussianRational] = set()
    for m in mats:
        roots, _ = eigenvalues_exact(m)
        values.update(roots)
    values.add(GQ(0))
    return sorted(values, key=lambda v: v.sort_key())


def _verify_monn(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not hyp.commute:
        return _verdict("monn", instance, seed, "inconclusive", witness,
                        note="operators do not commute")
    table = []
    bad = []
    for lam in _nonzero_candidates(s, t, s + t):
        if lam == GQ(0):
            continue
        asc_s = chain_report(s.shifted(lam)).asc
        asc_t = chain_report(t.shifted(lam)).asc
        asc_sum = chain_report((s + t).shifted(lam)).asc
        row = {
            "lambda": format_scalar(lam),
            "asc_S": asc_s,
            "asc_T": asc_t,
            "asc_sum": asc_sum,
        }
        table.append(row)
        if asc_s is not None and asc_t is not None and asc_sum is None:
            bad.append(row)
    witness["profiles"] = table
    witness["violations"] = bad
    return _verdict(
        "monn", instance, seed, "fail" if bad else "pass", witness,
        note="profile level; dense spectra are empty",
    )


def _verify_th1(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1):
        return _verdict("th1", instance, seed, "inconclusive", witness,
                        note="kernel-splitting hypothesis not met")
    rows = []
    mismatches = []
    for lam in _nonzero_candidates(s, t, s + t):
        r_mem = in_R_set(s, t, lam).member
        nonzero = lam != GQ(0)
        lhs = r_mem or (nonzero and chain_report((s + t).shifted(lam)).asc is None)
        rhs = r_mem or (
            nonzero
            and (
                chain_report(s.shifted(lam)).asc is None
                or chain_report(t.shifted(lam)).asc is None
            )
        )
        row = {"lambda": format_scalar(lam), "lhs": lhs, "rhs": rhs, "in_R": r_mem}
        rows.append(row)
        if lhs != rhs:
            mismatches.append(row)
    witness["candidates"] = rows
    witness["mismatches"] = mismatches
    return _verdict(
        "th1", instance, seed, "fail" if mismatches else "pass", witness,
        note="candidate-set equality at the profile level",
    )


def _verify_nov(mats, instance, seed) -> TheoremVerdict:
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    witness: dict = {"hypotheses": hyp.to_obj()}
    if not hyp.commute:
        return _verdict("nov", instance, seed, "inconclusive", witness,
                        note="operators do not commute")
    rows = []
    mismatches = []
    for lam in _nonzero_candidates(s, t, s + t):
        nonzero = lam != GQ(0)
        m_mem = in_M_set(s, t, lam).member
        n_mem = in_N_set(s, t, lam).member
        dsc_sum_inf = chain_report((s + t).shifted(lam)).dsc is None
        dsc_parts_inf = (
            chain_report(s.shifted(lam)).dsc is None
            or chain_report(t.shifted(lam)).dsc is None
        )
        lhs = m_mem or n_mem or (nonzero and dsc_sum_inf)
        rhs = m_mem or n_mem or (nonzero and dsc_parts_inf)
        inclusion_ok = not (nonzero and dsc_sum_inf) or dsc_parts_inf
        row = {
            "lambda": format_scalar(lam),
            "lhs": lhs,
            "rhs": rhs,
            "in_M": m_mem,
            "in_N": n_mem,
        }
        rows.append(row)
        if lhs != rhs or not inclusion_ok:
            mismatches.append(row)
    witness["candidates"] = rows
    witness["mismatches"] = mismatches
    return _verdict(
        "nov", instance, seed, "fail" if mismatches else "pass", witness,
        note="candidate-set equality at the profile level",
    )


def _verify_app_blocks(mats, instance, seed) -> TheoremVerdict:
    t, s, c = mats["T"], mats["S"], mats["C"]
    ks = instance.get("params", {}).get("ks", [2, 3, 10])
    d1, d2 = t.rows, s.rows
    if c.rows != d1 or c.cols != d2:
        raise ValueError("coupling block has the wrong shape")
    zero_c = Matrix.zeros(d1, d2)
    m_plain = _block_operator(t, s, zero_c)
    m_c = _block_operator(t, s, c)
    eig_mc, residual = eigenvalues_exact(m_c)
    witness: dict = {"ks": list(ks), "eigenvalues": [format_scalar(v) for v in eig_mc]}
    if residual:
        return _verdict("app_blocks", instance, seed, "inconclusive", witness,
                        note="characteristic polynomial does not split over Q(i)")
    problems = []
    for k in ks:
        k_gq = GQ(k)
        m_ck = _block_operator(t, s, c.scale(GQ(1) / k_gq))
        left = block_diag(Matrix.identity(d1), Matrix.identity(d2).scale(k_gq))
        right = block_diag(Matrix.identity(d1), Matrix.identity(d2).scale(GQ(1) / k_gq))
        if left @ m_c @ right != m_ck:
            problems.append({"k": k, "issue": "similarity identity"})
            continue
        for lam in eig_mc:
            if point_profile(m_c, lam) != point_profile(m_ck, lam):
                problems.append({"k": k, "lambda": format_scalar(lam), "issue": "profile"})
    eig_t, _ = eigenvalues_exact(t)
    eig_s, _ = eigenvalues_exact(s)
    union = sorted(set(eig_t) | set(eig_s), key=lambda v: v.sort_key())
    eig_m, _ = eigenvalues_exact(m_plain)
    if list(eig_m) != union:
        problems.append({"issue": "eigenvalue union"})
    for lam in union:
        asc_t, dsc_t, alpha_t, beta_t = point_profile(t, lam)
        asc_s, dsc_s, alpha_s, beta_s = point_profile(s, lam)
        expected = (
            max(asc_t, asc_s),
            max(dsc_t, dsc_s),
            alpha_t + alpha_s,
            beta_t + beta_s,
        )
        if point_profile(m_plain, lam) != expected:
            problems.append({"lambda": format_scalar(lam), "issue": "block profile"})
    witness["violations"] = problems
    return _verdict(
        "app_blocks", instance, seed, "fail" if problems else "pass", witness
    )


def _block_operator(t: Matrix, s: Matrix, c: Matrix) -> Matrix:
    return vstack(hstack(t, c), hstack(Matrix.zeros(s.rows, t.rows), s))


_HANDLERS = {
    "prop11": _verify_prop11,
    "theo34": _verify_theo34,
    "monn": _verify_monn,
    "th1": _verify_th1,
    "thC": _verify_thC,
    "nov": _verify_nov,
    "lemma41": _verify_lemma41,
    "lemma_ca": _verify_lemma_ca,
    "lemma35": _verify_lemma35,
    "lemma36": _verify_lemma36,
    "eq_mul": _verify_eq_mul,
    "app_blocks": _verify_app_blocks,
}


def run_batch(theorem: str, seed: int, trials: int) -> list[TheoremVerdict]:
    """Seeded batch of checks, reported in seed order."""
    return [verify(theorem, instance_for(theorem, s)) for s in range(seed, seed + trials)]


def batch_summary(verdicts: list[TheoremVerdict]) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for v in verdicts:
        counts[v.verdict] += 1
    return counts


# ---------------------------------------------------------------------------
# tower-mode checks for the spectra-level statements


def _window_sections(spec: OperatorSpec, cfg: TowerConfig) -> dict[int, Matrix]:
    return {n: spec.realize(n) for n in cfg.window()}


def _classify_quantity(sections, lam, quantity, cfg) -> str | int:
    samples = []
    for n in cfg.window():
        rep = chain_report(sections[n].shifted(lam))
        samples.append((n, getattr(rep, quantity)))
    verdict = classify_window(quantity, samples)
    return verdict.value if verdict.kind == "finite" else verdict.kind


def _h1_window(s_secs, t_secs, lam, cfg, p_bound: int) -> bool:
    return all(
        _h1_kernel_split(s_secs[n].shifted(lam), t_secs[n].shifted(lam), p_bound)[0]
        for n in cfg.window()
    )


def _h2_window(s_secs, t_secs, lam, cfg) -> bool:
    return all(
        _h2_inclusion(s_secs[n].shifted(lam), t_secs[n].shifted(lam))[1] is not None
        for n in cfg.window()
    )


def verify_tower(
    theorem: str,
    s_spec: OperatorSpec,
    t_spec: OperatorSpec,
    candidates,
    cfg: TowerConfig = DEFAULT_CONFIG,
    p_bound: int = 3,
) -> TheoremVerdict:
    """Spectra-level statements tested literally over a candidate set.

    Divergence across the window stands in for membership in the
    ascent/descent spectrum.  Hypotheses checked on finite sections are
    window-empirical: when they hold only empirically a failing
    conclusion downgrades to inconclusive rather than fail.
    """
    if theorem not in ("monn", "th1", "nov"):
        raise ValueError("tower mode covers the spectra-level statements only")
    s_secs = _window_sections(s_spec, cfg)
    t_secs = _window_sections(t_spec, cfg)
    sum_secs = {n: s_secs[n] + t_secs[n] for n in cfg.window()}
    prod_secs = {n: t_secs[n] @ s_secs[n] for n in cfg.window()}
    commute = all(
        s_secs[n] @ t_secs[n] == t_secs[n] @ s_secs[n] for n in cfg.window()
    )
    f_tilde = probed_power_rank(prod_secs, cfg)
    instance = {
        "theorem": theorem,
        "mode": "tower",
        "S": s_spec.to_obj(),
        "T": t_spec.to_obj(),
        "window": list(cfg.window()),
        "candidates": [format_scalar(as_gq(lam)) for lam in candidates],
    }
    witness: dict = {
        "commute_on_window": commute,
        "f_tilde": f_tilde.to_obj(),
    }
    if not commute:
        return _verdict(theorem, instance, None, "inconclusive", witness,
                        note="sections do not commute on the window")

    quantity = "asc" if theorem in ("monn", "th1") else "dsc"
    rows = []
    mismatches = []
    saw_inconclusive = False
    for lam in candidates:
        lam = as_gq(lam)
        cls_sum = _classify_quantity(sum_secs, lam, quantity, cfg)
        cls_s = _classify_quantity(s_secs, lam, quantity, cfg)
        cls_t = _classify_quantity(t_secs, lam, quantity, cfg)
        if "inconclusive" in (cls_sum, cls_s, cls_t):
            saw_inconclusive = True
        nonzero = lam != GQ(0)
        in_sigma_sum = cls_sum == "divergent"
        in_sigma_parts = cls_s == "divergent" or cls_t == "divergent"
        row = {
            "lambda": format_scalar(lam),
            "sum": cls_sum,
            "S": cls_s,
            "T": cls_t,
        }
        if theorem == "monn":
            ok = not (nonzero and in_sigma_sum) or in_sigma_parts
        elif theorem == "th1":
            # literal implication: a sum without finite ascent is a member
            sum_asc_finite = cls_sum not in ("divergent", "inconclusive")
            member_r = (not sum_asc_finite) or not _h1_window(
                s_secs, t_secs, lam, cfg, p_bound
            )
            row["in_R"] = member_r
            lhs = member_r or (nonzero and in_sigma_sum)
            rhs = member_r or (nonzero and in_sigma_parts)
            ok = lhs == rhs
        else:  # nov
            member_mn = _in_M_or_N_window(s_secs, t_secs, prod_secs, sum_secs, lam, cfg, p_bound)
            row["in_M_or_N"] = member_mn
            lhs = member_mn or (nonzero and in_sigma_sum)
            rhs = member_mn or (nonzero and in_sigma_parts)
            ok = lhs == rhs
        row["ok"] = ok
        rows.append(row)
        if not ok:
            mismatches.append(row)
    witness["candidates"] = rows
    witness["mismatches"] = mismatches
    if mismatches:
        if f_tilde.kind == "certain-true":
            verdict = "fail"
            note = "candidate-set statement violated"
        else:
            verdict = "inconclusive"
            note = "violation under empirical hypotheses only"
    elif saw_inconclusive:
        verdict = "inconclusive"
        note = "window classification inconclusive at some candidate"
    else:
        verdict = "pass"
        note = "window-empirical hypotheses" if f_tilde.kind != "certain-true" else ""
    return _verdict(theorem, instance, None, verdict, witness, note=note)


def _in_M_or_N_window(s_secs, t_secs, prod_secs, sum_secs, lam, cfg, p_bound) -> bool:
    window = cfg.window()
    # membership in the codimension exception set
    dsc_vals = []
    for n in window:
        dsc_vals.append((n, chain_report(prod_secs[n].shifted(lam)).dsc))
    dsc_cls = classify_window("dsc", dsc_vals)
    if dsc_cls.kind != "finite":
        in_m = True  # no finite descent index exists for the product
    else:
        n0 = dsc_cls.value
        def grows(secs):
            samples = []
            for n in window:
                shifted = secs[n].shifted(lam)
                samples.append((n, n - cached_image(shifted.power(n0)).dim))
            return classify_window("beta", samples).kind == "divergent"
        in_m = grows(s_secs) or grows(t_secs)
    if in_m:
        return True
    # membership in the hypothesis-failure exception set
    sum_dsc = classify_window(
        "dsc", [(n, chain_report(sum_secs[n].shifted(lam)).dsc) for n in window]
    )
    if sum_dsc.kind != "finite":
        return True
    hyps = _h1_window(s_secs, t_secs, lam, cfg, p_bound) and _h2_window(
        s_secs, t_secs, lam, cfg
    )
    return not hyps
