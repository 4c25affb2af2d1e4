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
so a failure distinguishes the strengthening from the literal claim:
the flag is set for theo34, lemma35, lemma36, eq_mul, lemma41 and
lemma_ca whenever the verdict is not ``inconclusive``.

Each statement's handler returns its findings (verdict, witness, note);
``verify`` alone wraps them in a ``TheoremVerdict``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .chains import (
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
    hstack,
    invert,
    is_direct_sum,
    matrix_from_obj,
    matrix_to_obj,
    poly_of_matrix,
    power_image,
    power_kernel,
    power_rank,
    rank,
    vstack,
)
from .gq import GQ, GaussianRational, as_gq, format_scalar
from .spectra import eigenvalues_exact, point_profile
from .tower import (
    DEFAULT_CONFIG,
    OperatorSpec,
    TowerConfig,
    classify_reports,
    classify_window,
    is_power_finite_rank,
    section_reports,
    window_profile,
    window_sections,
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

    ``h1`` records whether N((TS)^p) = N(T^p) ⊕ N(S^p) for every p.  It
    is evaluated for commuting pairs only, for which it is equivalent to
    N(T) ∩ N(S) = {0} (see ``check_H1``); so on failure
    ``h1_failing_p`` is always 1 and ``h1_subspaces`` holds N(T), N(S).
    ``h2`` records whether, with n0 the descent of TS, one of
    N(S^n0) ⊆ R(T) or N(T^n0) ⊆ R(S) holds.  Fields not computed by a
    given check stay None.
    """

    commute: bool
    h1: bool | None = None
    h1_failing_p: int | None = None
    h1_subspaces: tuple[Subspace, Subspace] | None = None
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


@lru_cache(maxsize=1)
def _products(s: Matrix, t: Matrix) -> tuple[bool, Matrix]:
    """Whether S and T commute, and T·S; H1 and H2 ask in turn for the same pair."""
    st, ts = s @ t, t @ s
    return st == ts, ts


def check_H1(s: Matrix, t: Matrix) -> HypothesisReport:
    """Commutation plus, for a commuting pair, kernel splitting for every power.

    For commuting S and T, N(T^p) + N(S^p) lies in N((TS)^p), whose
    dimension is at most dim N(T^p) + dim N(S^p); so the split holds at p
    exactly when V = N(T^p) ∩ N(S^p) is {0}.  V is invariant under both
    operators.  If V ≠ {0}, T is nilpotent on V, so K = V ∩ N(T) ≠ {0};
    K is S-invariant and S is nilpotent on it, so K ∩ N(S) ≠ {0}.  Hence
    the split holds for every p iff N(T) ∩ N(S) = {0}, and the first
    failing p is always 1.  The argument about V uses no finite
    dimension, and tower sections are matrices, so the same test serves
    them.
    """
    commute = _products(s, t)[0]
    _check_square_pair(s, t)
    if not commute:
        return HypothesisReport(commute=False)
    n_t, n_s = power_kernel(t, 1), power_kernel(s, 1)
    if is_direct_sum([n_t, n_s]):
        return HypothesisReport(commute=True, h1=True)
    return HypothesisReport(commute=True, h1=False, h1_failing_p=1, h1_subspaces=(n_t, n_s))


def check_H2(s: Matrix, t: Matrix) -> HypothesisReport:
    """Descent n0 of TS and the first range inclusion that holds at n0, if any."""
    _check_square_pair(s, t)
    commute, ts = _products(s, t)
    n0 = chain_report(ts).dsc
    if power_image(t, 1).contains(power_kernel(s, n0)):
        inclusion = "N(S^n0) in R(T)"
    elif power_image(s, 1).contains(power_kernel(t, n0)):
        inclusion = "N(T^n0) in R(S)"
    else:
        inclusion = None
    return HypothesisReport(
        commute=commute, h2=inclusion is not None, h2_n0=n0, h2_inclusion=inclusion
    )


def check_hypotheses(s: Matrix, t: Matrix) -> HypothesisReport:
    """Full report: commutation, kernel splitting, range inclusion, F-class."""
    h1 = check_H1(s, t)
    h2 = check_H2(s, t)
    # any dense matrix has finite rank, so its first power already qualifies
    return replace(
        h1, h2=h2.h2, h2_n0=h2.h2_n0, h2_inclusion=h2.h2_inclusion, f_tilde="certain-true"
    )


# ---------------------------------------------------------------------------
# exception sets


def in_R_set(s: Matrix, t: Matrix, lam) -> bool:
    """Whether lam is in R: finite asc(S+T-lam) implies H1 fails.

    The ascent of S+T-lam is finite for every matrix, so membership is
    H1 failing for the shifted pair.  ``verify_tower`` th1 asks it of
    each window section; the dense th1 needs no exception set.
    """
    _check_square_pair(s, t)
    rep = check_H1(s.shifted(lam), t.shifted(lam))
    return not (rep.commute and rep.h1)


def in_N_set(s: Matrix, t: Matrix, lam) -> bool:
    """Whether lam is in N: finite dsc(S+T-lam) implies H1 or H2 fails.

    The descent of S+T-lam is finite for every matrix, so membership is
    H1 or H2 failing for the shifted pair; H2 is evaluated only when H1
    holds.  ``verify_tower`` nov asks it of each window section; the
    dense nov needs no exception set.
    """
    _check_square_pair(s, t)
    s_l, t_l = s.shifted(lam), t.shifted(lam)
    rep = check_H1(s_l, t_l)
    return not (rep.commute and rep.h1 and check_H2(s_l, t_l).h2)


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


# The generators fill the sparse Gaussian-integer rows (``exact.Row``) of
# their matrices directly; each draws from ``rng`` in a fixed order, so a
# seed always gives the same instance.

_SMALL_NONZERO = ((1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (1, 1), (0, -1))


def _put(row: dict, col: int, value: tuple[int, int]) -> None:
    """Store a nonzero Gaussian integer in a sparse row; a zero leaves it unset."""
    if value != (0, 0):
        row[col] = value


def random_matrix(seed: int, dim: int) -> Matrix:
    """Entries with real part in -2..2 and imaginary part in -1..1."""
    rng = random.Random(f"matrix:{seed}")
    return _random_gaussian(rng, dim, dim, 2)


def _random_gaussian(rng: random.Random, rows: int, cols: int, re_bound: int) -> Matrix:
    """Entries a + bi with a in -re_bound..re_bound and b in -1..1, a drawn first."""
    out = []
    for _ in range(rows):
        row: dict = {}
        for j in range(cols):
            _put(row, j, (rng.randint(-re_bound, re_bound), rng.randint(-1, 1)))
        out.append(row)
    return Matrix.from_integer_rows(cols, 1, out)


def _random_unimodular(rng: random.Random, d: int) -> Matrix:
    lower = [{i: (1, 0)} for i in range(d)]
    upper = [{i: (1, 0)} for i in range(d)]
    for i in range(d):
        for j in range(i):
            _put(lower[i], j, (rng.randint(-1, 1), 0))
            _put(upper[j], i, (rng.randint(-1, 1), 0))
    return Matrix.from_integer_rows(d, 1, lower) @ Matrix.from_integer_rows(d, 1, upper)


def _random_nilpotent(rng: random.Random, j: int) -> Matrix:
    rows = [{} for _ in range(j)]
    for i in range(j - 1):
        rows[i][i + 1] = rng.choice(((1, 0), (-1, 0), (2, 0)))
        for k in range(i + 2, j):
            _put(rows[i], k, (rng.randint(-1, 1), 0))
    return Matrix.from_integer_rows(j, 1, rows)


def _structured_block(rng: random.Random, d: int) -> Matrix:
    """Similarity-conjugated nilpotent-plus-invertible block of size d."""
    j = rng.randint(0, d)
    nil = _random_nilpotent(rng, j)
    diag = Matrix.from_integer_rows(
        d - j, 1, [{i: rng.choice(_SMALL_NONZERO)} for i in range(d - j)]
    )
    core = block_diag(nil, diag)
    v = _random_unimodular(rng, d)
    return v @ core @ invert(v)


def random_h1_family(seed: int) -> tuple[Matrix, Matrix]:
    """Commuting pair with kernels in complementary blocks.

    T = A ⊕ I and S = I ⊕ B commute for any blocks, and kernels of all
    powers split across the two blocks, so the splitting hypothesis
    holds by construction.
    """
    rng = random.Random(f"h1:{seed}")
    d1, d2 = rng.randint(2, 4), rng.randint(2, 4)
    a = _structured_block(rng, d1)
    b = _structured_block(rng, d2)
    t = block_diag(a, Matrix.identity(d2))
    s = block_diag(Matrix.identity(d1), b)
    return s, t


def random_commuting_pair(seed: int) -> tuple[Matrix, Matrix]:
    """(p(A), q(A)) for one random A: commutation is automatic and exact."""
    rng = random.Random(f"commuting:{seed}")
    a = _structured_block(rng, rng.randint(2, 4))
    p = _random_poly(rng, 2)
    q = _random_poly(rng, 2)
    return poly_of_matrix(p, a), poly_of_matrix(q, a)


def _random_poly(rng: random.Random, degree: int) -> list[GaussianRational]:
    while True:
        coeffs = [GQ(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(degree + 1)]
        if any(coeffs):
            return coeffs


def invertible_commuting_pair(seed: int) -> tuple[Matrix, Matrix]:
    """(a, b) with ab = ba and a invertible: a = A + cI, c off the spectrum."""
    rng = random.Random(f"invertible:{seed}")
    dim = rng.randint(2, 4)
    a0 = _structured_block(rng, dim)
    b = poly_of_matrix(_random_poly(rng, 2), a0)
    for c in range(1, dim + 2):
        shifted = a0.shifted(GQ(-c))  # A + cI
        if rank(shifted) == dim:
            return shifted, b
    raise RuntimeError("no invertible shift found below dim+2 candidates")


def _upper_triangular(rng: random.Random, d: int) -> Matrix:
    rows = [{} for _ in range(d)]
    pool = ((0, 0), (1, 0), (2, 0), (-1, 0), (0, 1))
    for i in range(d):
        _put(rows[i], i, rng.choice(pool))
        for j in range(i + 1, d):
            _put(rows[i], j, (rng.randint(-1, 1), 0))
    return Matrix.from_integer_rows(d, 1, rows)


def instance_for(theorem: str, seed: int) -> dict:
    """Deterministic replayable instance for one theorem check."""
    return _generated(theorem, seed)[0]


def _generated(theorem: str, seed: int) -> tuple[dict, dict[str, Matrix]]:
    """instance_for's instance together with the matrices it was written from."""
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
        c = _random_gaussian(rng, d1, d2, 1)
        inst, mats = _instance(theorem, seed, "block_triangular", T=t, S=s, C=c)
        inst["params"] = {"ks": [2, 3, 10]}
        return inst, mats
    raise AssertionError(theorem)


def _instance(
    theorem: str, seed: int | None, generator: str, **matrices: Matrix
) -> tuple[dict, dict[str, Matrix]]:
    instance = {
        "theorem": theorem,
        "seed": seed,
        "generator": generator,
        "matrices": {name: matrix_to_obj(m) for name, m in sorted(matrices.items())},
    }
    return instance, matrices


def _instance_matrices(instance: dict) -> dict[str, Matrix]:
    try:
        raw = instance["matrices"]
        return {name: matrix_from_obj(obj) for name, obj in raw.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc


# ---------------------------------------------------------------------------
# verification


# statements checked in a quantitative form (see the module docstring)
_QUANTITATIVE = frozenset({"theo34", "lemma35", "lemma36", "eq_mul", "lemma41", "lemma_ca"})


def verify(theorem: str, instance: dict) -> TheoremVerdict:
    """Check one theorem on one instance; hypotheses gate the verdict."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return _verdict(theorem, _instance_matrices(instance), instance)


def _verdict(theorem: str, mats: dict[str, Matrix], instance: dict) -> TheoremVerdict:
    """The handler's findings on mats, which the instance records, as a verdict."""
    try:
        verdict, witness, note = _HANDLERS[theorem](mats, instance)
    except KeyError as exc:
        raise ValueError(f"malformed instance: missing matrix {exc}") from exc
    return TheoremVerdict(
        theorem=theorem,
        verdict=verdict,
        witness=witness,
        instance=instance,
        seed=instance.get("seed"),
        quantitative_form=theorem in _QUANTITATIVE and verdict != "inconclusive",
        note=note,
    )


def _chains(witness: dict, quantities, **operators: Matrix) -> dict:
    """Write the chain index q of each named operator as witness entry q_name."""
    for name, op in operators.items():
        rep = chain_report(op)
        for q in quantities:
            witness[f"{q}_{name}"] = getattr(rep, q)
    return witness


def _pass_or_fail(ok: bool) -> str:
    return "pass" if ok else "fail"


def _verify_prop11(mats, instance):
    t = mats["T"]
    rep = chain_report(t)
    failures = []
    for m in range(t.rows + 1):
        asc_check = prop_asc_predicate(t, m)
        if asc_check.holds != (rep.asc <= m):
            failures.append({"m": m, "side": "asc"})
        # prop_dsc_predicate raises unless each witness Y_n lies in N(T^m)
        # and X = Y_n ⊕ R(T^n)
        if prop_dsc_predicate(t, m).holds != (rep.dsc <= m):
            failures.append({"m": m, "side": "dsc"})
    witness = {"asc": rep.asc, "dsc": rep.dsc, "failures": failures}
    return _pass_or_fail(not failures), witness, ""


def _verify_theo34(mats, instance):
    s, t = mats["S"], mats["T"]
    hyp = check_H1(s, t)
    w: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1):
        return "inconclusive", w, "kernel-splitting hypothesis not met"
    _chains(w, ("asc",), T=t, S=s, TS=_products(s, t)[1])
    return _pass_or_fail(w["asc_TS"] == max(w["asc_T"], w["asc_S"])), w, ""


def _verify_lemma35(mats, instance):
    s, t = mats["S"], mats["T"]
    commute, ts = _products(s, t)
    if not commute:
        return "inconclusive", {"commute": False}, "operators do not commute"
    w = _chains({}, ("dsc",), T=t, S=s, TS=ts)
    return _pass_or_fail(w["dsc_TS"] <= max(w["dsc_T"], w["dsc_S"])), w, ""


def _verify_lemma36(mats, instance):
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    w: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1 and hyp.h2):
        return "inconclusive", w, "splitting or inclusion hypothesis not met"
    _chains(w, ("dsc",), T=t, S=s)
    w["dsc_TS"] = hyp.h2_n0  # H2's n0 is dsc(TS)
    return _pass_or_fail(min(w["dsc_T"], w["dsc_S"]) <= w["dsc_TS"]), w, ""


def _verify_thC(mats, instance):
    s, t = mats["S"], mats["T"]
    hyp = check_hypotheses(s, t)
    w: dict = {"hypotheses": hyp.to_obj()}
    if not (hyp.commute and hyp.h1 and hyp.h2):
        return "inconclusive", w, "splitting or inclusion hypothesis not met"
    n0 = hyp.h2_n0  # H2's n0 is dsc(TS)
    _chains(w, ("dsc",), T=t, S=s)
    w.update(n0=n0, dsc_TS=n0, codim_R_T_n0=t.rows - power_rank(t, n0),
             codim_R_S_n0=s.rows - power_rank(s, n0))
    # dsc(TS) <= n0 holds by the choice of n0
    return _pass_or_fail(w["dsc_T"] <= n0 and w["dsc_S"] <= n0), w, ""


def _verify_eq_mul(mats, instance):
    a, b = mats["A"], mats["B"]
    ab = a @ b
    commute = ab == b @ a
    invertible = rank(a) == a.rows
    w: dict = {"commute": commute, "a_invertible": invertible}
    if not (commute and invertible):
        return "inconclusive", w, "needs a commuting pair with invertible first factor"
    _chains(w, ("asc", "dsc"), b=b, ab=ab)
    return _pass_or_fail(w["asc_ab"] == w["asc_b"] and w["dsc_ab"] == w["dsc_b"]), w, ""


def _verify_lemma41(mats, instance):
    t1, t2 = mats["T1"], mats["T2"]
    w = _chains({}, ("asc", "dsc"), T1=t1, T2=t2, sum=direct_sum(t1, t2))
    ok = all(w[f"{q}_sum"] == max(w[f"{q}_T1"], w[f"{q}_T2"]) for q in ("asc", "dsc"))
    return _pass_or_fail(ok), w, ""


def _verify_lemma_ca(mats, instance):
    t, p = mats["T"], mats["P"]
    if p @ p != p:
        return "inconclusive", {"idempotent": False}, "P is not a projection"
    if t @ p != p @ t:
        return "inconclusive", {"commute": False}, "P does not commute with T"
    block, _ = ptp_block_form(t, p)  # verifies the block identity exactly
    tp = compression(t, p)  # of size rank(P)
    w = _chains({}, ("asc", "dsc"), T=t, TP=tp, PTP=p @ t @ p)
    w["block_rows"] = block.rows
    zero_asc = 1 if t.rows - tp.rows else 0  # asc = dsc of the zero block on N(P)
    ok = all(w[f"{q}_PTP"] == max(w[f"{q}_TP"], zero_asc) for q in ("asc", "dsc"))
    return _pass_or_fail(ok), w, ""


_FINITE_DIM_NOTE = (
    "decided by finite dimension: asc and dsc of every matrix are finite and its "
    "spectra empty, so this pass cannot be a fail"
)


def _verify_finite_dim(theorem, mats, instance):
    """monn, th1 and nov on matrices: the hypotheses gate a pass fixed by finite dimension.

    No ascent or descent of a matrix is infinite, so σ_asc and σ_dsc are
    empty: monn's inclusion is of the empty set, and both sides of th1
    and nov reduce to the same exception set.  What can move is the
    gate: commutation, and for th1 kernel splitting too.
    """
    hyp = check_hypotheses(mats["S"], mats["T"])
    witness = {"hypotheses": hyp.to_obj()}
    if theorem == "th1" and not (hyp.commute and hyp.h1):
        return "inconclusive", witness, "kernel-splitting hypothesis not met"
    if not hyp.commute:
        return "inconclusive", witness, "operators do not commute"
    return "pass", witness, _FINITE_DIM_NOTE


def _verify_app_blocks(mats, instance):
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
        return "inconclusive", witness, "characteristic polynomial does not split over Q(i)"
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
    return _pass_or_fail(not problems), witness, ""


def _block_operator(t: Matrix, s: Matrix, c: Matrix) -> Matrix:
    return vstack(hstack(t, c), hstack(Matrix.zeros(s.rows, t.rows), s))


_HANDLERS = {
    "prop11": _verify_prop11,
    "theo34": _verify_theo34,
    "monn": partial(_verify_finite_dim, "monn"),
    "th1": partial(_verify_finite_dim, "th1"),
    "thC": _verify_thC,
    "nov": partial(_verify_finite_dim, "nov"),
    "lemma41": _verify_lemma41,
    "lemma_ca": _verify_lemma_ca,
    "lemma35": _verify_lemma35,
    "lemma36": _verify_lemma36,
    "eq_mul": _verify_eq_mul,
    "app_blocks": _verify_app_blocks,
}


def run_batch(theorem: str, seed: int, trials: int) -> list[TheoremVerdict]:
    """Seeded batch of checks, reported in seed order.

    Each verdict equals verify(theorem, instance_for(theorem, s)); the
    handler gets the generated matrices, which are what parsing the
    instance would give back, since matrices are canonical.
    """
    verdicts = []
    for s in range(seed, seed + trials):
        instance, mats = _generated(theorem, s)
        verdicts.append(_verdict(theorem, mats, instance))
    return verdicts


def batch_summary(verdicts: list[TheoremVerdict]) -> dict:
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for v in verdicts:
        counts[v.verdict] += 1
    return counts


# ---------------------------------------------------------------------------
# tower-mode checks for the spectra-level statements


def verify_tower(
    theorem: str,
    s_spec: OperatorSpec,
    t_spec: OperatorSpec,
    candidates,
    cfg: TowerConfig = DEFAULT_CONFIG,
) -> TheoremVerdict:
    """Spectra-level statements tested literally over a candidate set.

    Divergence in the window profile (``tower.window_profile``) of S, T
    and S + T stands in for spectrum membership.  TS ∈ F̃ is decided by
    ``tower.is_power_finite_rank``; where that leaves it undecided and the
    sections commute, S or else T in F̃ settles it.  TS outside F̃ makes
    the verdict inconclusive, a failing conclusion is a fail only when TS
    is in F̃ for certain, and a pass notes an undecided F̃.  A candidate
    is in the exception set R (or N) when ``in_R_set`` (or ``in_N_set``),
    the predicates of the dense statements, puts it there for some
    section of the window.
    """
    if theorem not in ("monn", "th1", "nov"):
        raise ValueError("tower mode covers the spectra-level statements only")
    instance = {
        "theorem": theorem,
        "mode": "tower",
        "S": s_spec.to_obj(),
        "T": t_spec.to_obj(),
        "window": list(cfg.window()),
        "candidates": [format_scalar(as_gq(lam)) for lam in candidates],
    }
    verdict, witness, note = _tower_findings(theorem, s_spec, t_spec, candidates, cfg)
    return TheoremVerdict(theorem, verdict, witness, instance, note=note)


def _tower_findings(theorem, s_spec, t_spec, candidates, cfg):
    """Verdict, witness and note of verify_tower."""
    s_secs = window_sections(s_spec, cfg)
    t_secs = window_sections(t_spec, cfg)
    sum_secs = {n: s_secs[n] + t_secs[n] for n in cfg.window()}
    prod_secs = {n: t_secs[n] @ s_secs[n] for n in cfg.window()}
    commute = all(s_secs[n] @ t_secs[n] == prod_secs[n] for n in cfg.window())
    f_tilde = is_power_finite_rank(t_spec, s_spec)
    if f_tilde.kind == "undecided" and commute:
        # for commuting S and T, (TS)^k = T^k S^k has rank at most that of
        # S^k and of T^k, so S or else T in F̃ puts TS there at its exponent
        alone = (is_power_finite_rank(factor) for factor in (s_spec, t_spec))
        f_tilde = next((v for v in alone if v.kind == "certain-true"), f_tilde)
    witness: dict = {"commute_on_window": commute, "f_tilde": f_tilde.to_obj()}
    if not commute:
        return "inconclusive", witness, "sections do not commute on the window"

    quantity = "asc" if theorem in ("monn", "th1") else "dsc"
    rows = []
    saw_inconclusive = False
    for lam in candidates:
        lam = as_gq(lam)
        sum_r, s_r, t_r = (section_reports(secs, lam) for secs in (sum_secs, s_secs, t_secs))
        sum_v, s_v, t_v = (classify_reports(r)[quantity] for r in (sum_r, s_r, t_r))
        if "inconclusive" in (sum_v.kind, s_v.kind, t_v.kind):
            saw_inconclusive = True
        nonzero = lam != GQ(0)
        in_sigma_sum = sum_v.kind == "divergent"
        in_sigma_parts = s_v.kind == "divergent" or t_v.kind == "divergent"
        row = {"lambda": format_scalar(lam), "sum": sum_v.label, "S": s_v.label, "T": t_v.label}
        if theorem == "monn":
            ok = not (nonzero and in_sigma_sum) or in_sigma_parts
        else:
            if theorem == "th1":
                # literal implication: a sum without finite ascent is a member
                member = sum_v.kind != "finite" or any(
                    in_R_set(s_secs[n], t_secs[n], lam) for n in s_secs
                )
                row["in_R"] = member
            else:  # nov
                member = _in_M_or_N_window(s_secs, t_secs, prod_secs, s_r, t_r, sum_v, lam)
                row["in_M_or_N"] = member
            ok = (member or (nonzero and in_sigma_sum)) == (member or (nonzero and in_sigma_parts))
        row["ok"] = ok
        rows.append(row)
    mismatches = [row for row in rows if not row["ok"]]
    witness["candidates"] = rows
    witness["mismatches"] = mismatches
    certain = f_tilde.kind == "certain-true"
    if f_tilde.kind == "certain-false":
        return "inconclusive", witness, "no power of TS has finite rank (TS is not in F̃)"
    if mismatches:
        if certain:
            return "fail", witness, "candidate-set statement violated"
        return "inconclusive", witness, "violation while F̃ membership of TS is undecided"
    if saw_inconclusive:
        return "inconclusive", witness, "window classification inconclusive at some candidate"
    return "pass", witness, "" if certain else "F̃ membership of TS undecided"


def _in_M_or_N_window(s_secs, t_secs, prod_secs, s_reports, t_reports, sum_dsc, lam) -> bool:
    """Window membership in M or N.

    s_reports and t_reports are the ``section_reports`` of S - lambda and
    T - lambda, and sum_dsc is the verdict on dsc(S + T - lambda).
    """
    prod_dsc = window_profile(prod_secs, lam)["dsc"]
    # M: no finite descent index n0 for the product, or a divergent codim R(A^n0);
    # N: no finite descent for the sum, or a hypothesis failing on the window
    if prod_dsc.kind != "finite" or sum_dsc.kind != "finite":
        return True

    def grows(reports):
        # codim R(A^n0) = dim N(A^n0) on a section
        samples = [(n, rep.kernel_dim(prod_dsc.value)) for n, rep in reports.items()]
        return classify_window("beta", samples).kind == "divergent"

    if grows(s_reports) or grows(t_reports):
        return True
    return any(in_N_set(s_secs[n], t_secs[n], lam) for n in s_secs)
