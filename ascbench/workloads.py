"""Seeded inputs for the three workloads.

Every input is made here from the workload seed alone and written as the
JSON files the CLI reads.  Alongside each operation the generator keeps
what it knows by construction (Jordan structure, prescribed singular
values, principal angles, exact spec objects) so the checks in
``oracle.py`` never need the program's own answer as a reference.

One operation is one ``ascdesc`` invocation; ``Op.expect_exit`` is the
exit code its input documents (0, or 3 for the resolvent counterexample).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracle import GQ, ZERO, fmt_scalar, gi_matmul, unit_triangular_inverse

@dataclass
class Op:
    name: str
    argv: list[str]
    kind: str  # which checker reads the output
    expect_exit: int = 0
    data: dict = field(default_factory=dict)


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    maker = {
        "dense-check": _dense_check,
        "tower-spectra": _tower_spectra,
        "float-lab": _float_lab,
    }[workload]
    return maker(seed, workdir)


def _write(workdir: Path, name: str, obj: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _gq_obj(rows: list[list[GQ]]) -> dict:
    n, m = len(rows), len(rows[0]) if rows else 0
    return {
        "rows": n,
        "cols": m,
        "field": "gq",
        "entries": [[fmt_scalar(v) for v in row] for row in rows],
    }


# ---------------------------------------------------------------------------
# dense-check: analyze + dense spectrum on a corpus, verify for every theorem

# Jordan block sizes per dimension: fixed, so every seed pays for the same
# chain lengths; the largest block (and so asc at its eigenvalue) is 3 or 4
# from dimension 4 on.
JORDAN_BLOCKS = {
    1: (1,), 2: (2,), 3: (3,), 4: (3, 1), 5: (4, 1), 6: (3, 2, 1),
    7: (4, 2, 1), 8: (4, 3, 1), 9: (4, 2, 2, 1), 10: (4, 3, 2, 1),
}
# Gaussian integers of norm 5: nonzero eigenvalues and tower candidates.
# Any of them costs about the same to factor out or to shift a section by,
# so the seed moves values, not the amount of work.
NORM5 = ((1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1))
SMALL_RATIONALS = tuple(
    Fraction(p, q) for p in (-2, -1, 1, 2) for q in (1, 2, 3)
)

# verify runs every theorem (ascdesc.theorems.THEOREM_IDS, in its order)
# on the program's own seeded instances 0..k-1.  These seeds are fixed,
# not taken from the workload seed: one instance's cost varies about 0.7x
# its mean between seeds and grows steeply with its size, so a seeded draw
# of a few trials moved wall_s by 15-30% from seed to seed, more than the
# program does.  The matrix corpus carries the seed.
VERIFY_TRIALS = {"prop11": 2, "th1": 1, "theo34": 3, "monn": 1, "thC": 3, "nov": 1,
                 "lemma41": 10, "lemma_ca": 6, "lemma35": 6, "lemma36": 3,
                 "eq_mul": 6, "app_blocks": 2}


def jordan_matrix(rng: random.Random, d: int):
    """V J V^-1 with J in Jordan form over Z[i] and V unimodular.

    Returns the matrix and {eigenvalue: (algebraic multiplicity, largest
    block, number of blocks)}.  The first two blocks share the eigenvalue
    0, so `analyze` sees asc = the largest block and alpha = 2 wherever
    there are two or more blocks; the other blocks get distinct nonzero
    eigenvalues.
    """
    blocks = JORDAN_BLOCKS[d]
    others = rng.sample(NORM5, max(0, len(blocks) - 2))
    eig_of_block = [(0, 0), (0, 0)][: len(blocks)] + others
    jord = [[(0, 0)] * d for _ in range(d)]
    at = 0
    known: dict = {}
    for size, lam in zip(blocks, eig_of_block):
        for k in range(size):
            jord[at + k][at + k] = lam
            if k + 1 < size:
                jord[at + k][at + k + 1] = (1, 0)
        mult, top, count = known.get(lam, (0, 0, 0))
        known[lam] = (mult + size, max(top, size), count + 1)
        at += size

    # V is fixed: seeded signs in V changed the entry sizes of V J V^-1
    # (largest entry 3 to 18 at d = 10) and with them the cost of a spectrum
    # by up to 2x from seed to seed
    lower = [[(1, 0) if i - j in (0, 1) else (0, 0) for j in range(d)] for i in range(d)]
    upper = [[(1, 0) if i == j else ((1, 1 if i == 0 else 0) if j - i == 1 else (0, 0))
              for j in range(d)] for i in range(d)]
    v = gi_matmul(lower, upper)
    v_inv = gi_matmul(unit_triangular_inverse(upper, upper=True),
                      unit_triangular_inverse(lower, upper=False))
    m = gi_matmul(gi_matmul(v, jord), v_inv)
    # a seeded similarity by D = diag(units) moves the phases of the entries,
    # not their sizes: D^-1 = conj(D)
    units = [rng.choice(((1, 0), (0, 1), (-1, 0), (0, -1))) for _ in range(d)]
    diag = [[units[i] if i == j else (0, 0) for j in range(d)] for i in range(d)]
    diag_inv = [[(re, -im) for re, im in row] for row in diag]
    m = gi_matmul(gi_matmul(diag, m), diag_inv)
    rows = [[GQ(re, im) for re, im in row] for row in m]
    eig = {GQ(a, b): info for (a, b), info in known.items()}
    return rows, eig


def random_gi_matrix(rng: random.Random, d: int):
    return [[GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(d)] for _ in range(d)]


def low_rank_matrix(rng: random.Random, d: int):
    """B C with B d x r over small rationals and C r x d over Z[i], r = d // 2."""
    r = d // 2
    b = [[GQ(rng.choice(SMALL_RATIONALS), rng.randint(-1, 1)) for _ in range(r)]
         for _ in range(d)]
    c = [[GQ(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(d)] for _ in range(r)]
    return [[sum((b[i][k] * c[k][j] for k in range(r)), ZERO) for j in range(d)]
            for i in range(d)]


def _dense_check(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"dense-check:{seed}")
    ops = []
    for d in range(1, 11):
        # one Jordan-structured matrix per dimension, plus plain random
        # entries: Gaussian integers at odd d, rank d // 2 over small
        # Gaussian rationals at even d
        other = ("random", (random_gi_matrix(rng, d), None)) if d % 2 else (
            "lowrank", (low_rank_matrix(rng, d), None))
        for label, (rows, eig) in (("jordan", jordan_matrix(rng, d)), other):
            path = _write(workdir, f"m-{label}-{d}.json", _gq_obj(rows))
            data = {"matrix": rows, "eigen": eig}
            ops.append(Op(f"analyze/{label}/{d}", ["analyze", path], "analyze", data=data))
            ops.append(Op(f"spectrum/{label}/{d}", ["spectrum", path], "spectrum", data=data))
    for theorem, trials in VERIFY_TRIALS.items():
        ops.append(Op(f"verify/{theorem}",
                      ["verify", "--theorem", theorem, "--seed", "0", "--trials", str(trials)],
                      "verify", data={"trials": trials}))
    return ops


# ---------------------------------------------------------------------------
# tower-spectra: spectrum --tower over structured specs

NONZERO_CANDIDATES = tuple(GQ(a, b) for a, b in NORM5)
ONE = GQ(1, 0)


def _seq(pre, period) -> dict:
    return {"pre": [fmt_scalar(v) for v in pre], "period": [fmt_scalar(v) for v in period]}


def _weight(rng: random.Random, q: int) -> GQ:
    """p/q with q fixed and p in (0, 2q) coprime to q: magnitude near 1."""
    return GQ(Fraction(rng.choice([p for p in range(1, 2 * q) if math.gcd(p, q) == 1]), q), 0)


def _gi(rng: random.Random) -> GQ:
    while True:
        v = GQ(rng.randint(-2, 2), rng.randint(-1, 1))
        if v:
            return v


def _pattern(rng: random.Random, length: int) -> list[str]:
    return [fmt_scalar(_gi(rng)) for _ in range(length)]


def tower_specs(rng: random.Random) -> list[tuple[str, dict, list[GQ], str]]:
    """(label, spec object, candidates, window) per spec; structure is fixed."""
    shift = {"variant": "banded", "diagonals": {"1": _seq([], [ONE])}}
    weighted = {"variant": "banded", "diagonals": {
        "1": _seq([_weight(rng, 2)], [_weight(rng, q) for q in (3, 5, 7)])}}
    finite_rank = {"variant": "finite_rank", "terms": [
        {"left": _pattern(rng, 5), "right": _pattern(rng, 5)} for _ in range(2)]}
    rank_one = {"variant": "finite_rank",
                "terms": [{"left": _pattern(rng, 3), "right": _pattern(rng, 3)}]}
    summed = {"variant": "sum", "parts": [shift, rank_one]}
    lam = rng.choice(NONZERO_CANDIDATES)
    block = [[lam, ONE, ZERO], [ZERO, lam, ONE], [ZERO, ZERO, lam]]
    forward = {"variant": "banded", "diagonals": {"-1": _seq([], [ONE])}}
    direct = {"variant": "direct_sum",
              "parts": [{"variant": "dense", "matrix": _gq_obj(block)}, forward]}

    def cands(k: int) -> list[GQ]:
        return [ZERO] + rng.sample(NONZERO_CANDIDATES, k)

    return [
        ("shift", shift, cands(2), "24,8,4"),
        ("weighted", weighted, cands(2), "12,6,4"),
        ("finite_rank", finite_rank, cands(3), "16,8,4"),
        ("sum", summed, cands(2), "8,4,4"),
        ("direct_sum", direct, [ZERO, lam, rng.choice([c for c in NONZERO_CANDIDATES if c != lam])],
         "12,6,4"),
    ]


def _tower_spectra(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"tower-spectra:{seed}")
    ops = []
    for label, spec, cands, window in tower_specs(rng):
        path = _write(workdir, f"spec-{label}.json", spec)
        argv = ["spectrum", path, "--tower", "--candidates",
                ",".join(fmt_scalar(c) for c in cands), "--window", window]
        ops.append(Op(f"tower/{label}", argv, "tower",
                      data={"spec": spec, "candidates": cands, "window": window}))
    return ops


# ---------------------------------------------------------------------------
# float-lab: converge (JSON, CSV, probes) and gap on f64 inputs

def _orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _f64_obj(a: np.ndarray) -> dict:
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "field": "f64",
            "entries": [[float(v) for v in row] for row in a]}


def drift_sequence(gen: np.random.Generator, d: int, rank: int, invertible: bool):
    """T = U diag(s) V^T with rank `rank`; E = U diag(e) V^T.

    Range-preserving when e vanishes off the support of s (kernels and
    ranges of T_n equal those of T); with e positive everywhere every T_n
    is invertible while T is singular.  Singular values of T_n are
    |s + n^-a e| exactly, so rank and gamma are known.
    """
    u, v = _orthogonal(gen, d), _orthogonal(gen, d)
    s = np.zeros(d)
    s[:rank] = gen.uniform(1.0, 2.0, rank)
    e = np.zeros(d)
    e[:rank] = gen.uniform(-0.5, 0.5, rank)
    if invertible:
        e[rank:] = gen.uniform(0.5, 1.0, d - rank)
    base = (u * s) @ v.T
    direction = (u * e) @ v.T
    return base, direction, s, e


def _seq_obj(base: np.ndarray, direction: np.ndarray, exponent: float, n_range) -> dict:
    return {"base": _f64_obj(base),
            "perturbation": {"rule": "scaled", "exponent": exponent,
                             "matrix": _f64_obj(direction)},
            "n_range": list(n_range)}


def resolvent_embedded(gen: np.random.Generator, d: int):
    """J2 (+) Q diag(c) Q^T with perturbation I: J2 + I/n in the corner.

    The SPD block keeps singular values c + 1/n >= 1, so gamma(T_n) is
    the small singular value of J2 + I/n.
    """
    q = _orthogonal(gen, d - 2)
    c = gen.uniform(1.0, 2.0, d - 2)
    base = np.zeros((d, d))
    base[0, 1] = 1.0
    base[2:, 2:] = (q * c) @ q.T
    return base, np.eye(d)


def angle_pair(gen: np.random.Generator, m: int, k: int):
    """Y, Z of dimension k in R^m with principal angles theta (known).

    Rows handed to the CLI are mixed by a well-conditioned k x k matrix so
    the orthonormal bases are not given away.
    """
    q = _orthogonal(gen, m)
    theta = gen.uniform(0.05, 1.4, k)
    y = q[:, :k]
    z = np.cos(theta) * q[:, :k] + np.sin(theta) * q[:, k:2 * k]
    mix_y = _orthogonal(gen, k) * gen.uniform(1.0, 2.0, k)
    mix_z = _orthogonal(gen, k) * gen.uniform(1.0, 2.0, k)
    return (mix_y @ y.T), (mix_z @ z.T), theta


def _float_lab(seed: int, workdir: Path) -> list[Op]:
    gen = np.random.default_rng([seed, 7])
    rng = random.Random(f"float-lab:{seed}")
    ops = []

    # range-preserving drift: JSON, CSV and a T1 probe
    for d, rank in ((120, 80), (60, 45)):
        base, direction, s, e = drift_sequence(gen, d, rank, invertible=False)
        exponent = rng.choice((1.0, 1.5, 2.0))
        n_range = (10, 10 + 10 * 7, 10)
        path = _write(workdir, f"seq-drift-{d}.json", _seq_obj(base, direction, exponent, n_range))
        data = {"kind": "drift", "s": s, "e": e, "exponent": exponent, "n_range": n_range,
                "rank": rank, "dim": d}
        ops.append(Op(f"converge/drift/{d}", ["converge", path], "trajectory", data=data))
        ops.append(Op(f"converge-csv/drift/{d}", ["converge", path, "--format", "csv"],
                      "trajectory-csv", data=data))
        if d == 60:
            ops.append(Op(f"probe/T1/drift/{d}", ["converge", path, "--probe", "T1", "--lambda", "0"],
                          "probe", data={**data, "probe": "T1", "verdict": "pass"}))

    # invertible samples, singular limit
    d, rank = 100, 60
    base, direction, s, e = drift_sequence(gen, d, rank, invertible=True)
    n_range = (5, 5 + 5 * 7, 5)
    path = _write(workdir, "seq-invertible.json", _seq_obj(base, direction, 1.0, n_range))
    data = {"kind": "invertible", "s": s, "e": e, "exponent": 1.0, "n_range": n_range,
            "rank": rank, "dim": d}
    ops.append(Op("converge/invertible/100", ["converge", path], "trajectory", data=data))
    ops.append(Op("probe/ker_upper/invertible/100",
                  ["converge", path, "--probe", "ker_upper", "--lambda", "0"],
                  "probe", data={**data, "probe": "ker_upper", "verdict": "pass"}))

    # resolvent counterexample: the README fixture and an embedded copy
    start = rng.choice((50, 100, 150))
    n_range = (start, start + 9 * start, start)
    j2 = {"rows": 2, "cols": 2, "field": "gq", "entries": [["0", "1"], ["0", "0"]]}
    i2 = {"rows": 2, "cols": 2, "field": "gq", "entries": [["1", "0"], ["0", "1"]]}
    path = _write(workdir, "seq-resolvent.json", {
        "base": j2, "perturbation": {"rule": "scaled", "exponent": 1, "matrix": i2},
        "n_range": list(n_range)})
    data = {"kind": "resolvent", "n_range": n_range, "dim": 2, "probe": "ker_lower",
            "verdict": "fail"}
    ops.append(Op("probe/ker_lower/resolvent/2",
                  ["converge", path, "--probe", "ker_lower", "--lambda", "0"],
                  "probe", expect_exit=3, data=data))
    base, direction = resolvent_embedded(gen, 50)
    path = _write(workdir, "seq-resolvent-50.json", _seq_obj(base, direction, 1.0, n_range))
    data = {**data, "dim": 50}
    ops.append(Op("probe/ker_lower/resolvent/50",
                  ["converge", path, "--probe", "ker_lower", "--lambda", "0"],
                  "probe", expect_exit=3, data=data))

    # gap between subspaces with prescribed principal angles
    for m, k in ((200, 40), (150, 30), (80, 20)):
        y, z, theta = angle_pair(gen, m, k)
        py = _write(workdir, f"gap-y-{m}.json", _f64_obj(y))
        pz = _write(workdir, f"gap-z-{m}.json", _f64_obj(z))
        ops.append(Op(f"gap/{m}", ["gap", py, pz], "gap",
                      data={"theta": theta, "dims": (k, k), "m": m}))
    # Z inside Y: delta(Z, Y) = 0 and delta(Y, Z) = 1
    y, _, _ = angle_pair(gen, 100, 24)
    pz = _write(workdir, "gap-sub-z.json", _f64_obj(y[:12]))
    py = _write(workdir, "gap-sub-y.json", _f64_obj(y))
    ops.append(Op("gap/nested/100", ["gap", py, pz], "gap",
                  data={"theta": None, "dims": (24, 12), "m": 100}))
    return ops
