"""Independent checks of the CLI's reports.

Nothing here imports ``ascdesc``.  Exact questions are answered by a
sparse fraction-free Bareiss elimination over the Gaussian integers
(Bareiss 1968, Math. Comp. 22): a Gaussian-rational matrix is scaled by
the common denominator of its entries, which leaves every rank
unchanged, and rank(T^k) for k = 0, 1, ... gives both chains.  Tower
sections are rebuilt from the spec definitions in the README.  Float
reports are compared with values known by construction of the inputs.

Each ``check_*`` function returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# scalars


class GQ:
    """Gaussian rational re + im*i with Fraction parts (value type)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o: "GQ") -> "GQ":
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GQ") -> "GQ":
        return GQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "GQ") -> "GQ":
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o) -> bool:
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __repr__(self) -> str:
        return fmt_scalar(self)


ZERO = GQ(0, 0)


def fmt_scalar(v: GQ) -> str:
    """Text in the README scalar grammar: <rat>, <rat>i or <rat>(+|-)<rat>i."""
    if v.im == 0:
        return str(v.re)
    im = f"{abs(v.im)}i"
    if v.re == 0:
        return im if v.im > 0 else f"-{im}"
    return f"{v.re}{'+' if v.im > 0 else '-'}{im}"


def parse_scalar(text: str) -> GQ:
    s = text.strip()
    if not s.endswith("i"):
        return GQ(Fraction(s), Fraction(0))
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im_part in ("", "+", "-"):
        im_part += "1"
    return GQ(Fraction(re_part), Fraction(im_part))


# ---------------------------------------------------------------------------
# Gaussian-integer matrices as lists of (re, im) int pairs


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv_exact(a, b):
    if b == (1, 0):
        return a
    norm = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    q_re, r_re = divmod(re, norm)
    q_im, r_im = divmod(im, norm)
    if r_re or r_im:
        raise ArithmeticError("Bareiss division left a remainder")
    return (q_re, q_im)


def gi_matmul(a, b):
    """Dense product of Gaussian-integer matrices (lists of pair lists)."""
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[(0, 0)] * m for _ in range(n)]
    for i in range(n):
        row = out[i]
        for t in range(k):
            x = a[i][t]
            if x != (0, 0):
                for j, y in enumerate(b[t]):
                    if y != (0, 0):
                        p = _gmul(x, y)
                        row[j] = (row[j][0] + p[0], row[j][1] + p[1])
    return out


def unit_triangular_inverse(t, upper: bool):
    """Inverse of a unit triangular Gaussian-integer matrix (stays integral)."""
    d = len(t)
    inv = [[(1, 0) if i == j else (0, 0) for j in range(d)] for i in range(d)]
    order = range(d - 1, -1, -1) if upper else range(d)
    for i in order:
        span = range(i + 1, d) if upper else range(i)
        for j in range(d):
            acc = inv[i][j]
            for k in span:
                p = _gmul(t[i][k], inv[k][j])
                acc = (acc[0] - p[0], acc[1] - p[1])
            inv[i][j] = acc
    return inv


def to_sparse_int(rows: list[list[GQ]]) -> list[dict[int, tuple[int, int]]]:
    """Scale by the common denominator; rows become {col: (re, im)}."""
    scale = 1
    for row in rows:
        for v in row:
            scale = math.lcm(scale, v.re.denominator, v.im.denominator)
    out = []
    for row in rows:
        out.append({j: (int(v.re * scale), int(v.im * scale)) for j, v in enumerate(row) if v})
    return out


def sparse_matmul(a, b):
    out = []
    for row in a:
        acc: dict[int, tuple[int, int]] = {}
        for t, x in row.items():
            for j, y in b[t].items():
                p = _gmul(x, y)
                q = acc.get(j, (0, 0))
                acc[j] = (q[0] + p[0], q[1] + p[1])
        out.append({j: v for j, v in acc.items() if v != (0, 0)})
    return out


def bareiss_rank(rows: list[dict[int, tuple[int, int]]], ncols: int) -> int:
    """Rank by fraction-free elimination with exact division by the last pivot.

    Every entry after step k is a (k+1)-minor of the input, so each
    division is exact; a remainder raises instead of rounding.
    """
    m = [dict(r) for r in rows if r]
    prev = (1, 0)
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if c in m[i]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        p = prow[c]
        rest = []
        for row in m[rank + 1:]:
            a = row.pop(c, None)
            if a is None:
                new = {j: _gdiv_exact(_gmul(v, p), prev) for j, v in row.items()}
            else:
                new = {}
                for j in row.keys() | prow.keys():
                    if j == c:
                        continue
                    x = _gmul(row.get(j, (0, 0)), p)
                    y = _gmul(a, prow.get(j, (0, 0)))
                    v = _gdiv_exact((x[0] - y[0], x[1] - y[1]), prev)
                    if v != (0, 0):
                        new[j] = v
            if new:
                rest.append(new)
        m[rank + 1:] = rest
        prev = p
        rank += 1
    return rank


def rank(rows: list[list[GQ]]) -> int:
    return bareiss_rank(to_sparse_int(rows), len(rows[0]) if rows else 0)


def chain(rows: list[list[GQ]]) -> dict:
    """kernel_dims, range_dims, asc, dsc, alpha, beta from rank(T^k).

    Lists run one step past stabilization, as the analyze report does.
    """
    d = len(rows)
    base = to_sparse_int(rows)
    power = [{i: (1, 0)} for i in range(d)]
    ranks = [d]
    while len(ranks) < 2 or ranks[-1] != ranks[-2]:
        if len(ranks) > d + 2:
            raise ArithmeticError("chain did not stabilize by the dimension")
        power = sparse_matmul(power, base)
        ranks.append(bareiss_rank(power, d))
    k = len(ranks) - 2
    return {
        "kernel_dims": [d - r for r in ranks],
        "range_dims": ranks,
        "asc": k,
        "dsc": k,
        "alpha": d - ranks[1],
        "beta": d - ranks[1],
    }


def shifted(rows: list[list[GQ]], lam: GQ) -> list[list[GQ]]:
    return [[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]


def matmul(a: list[list[GQ]], b: list[list[GQ]]) -> list[list[GQ]]:
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for t, x in enumerate(row):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b[t])]
        out.append(acc)
    return out


def block_diag(a: list[list[GQ]], b: list[list[GQ]]) -> list[list[GQ]]:
    na, nb = len(a), len(b)
    return [list(r) + [ZERO] * nb for r in a] + [[ZERO] * na + list(r) for r in b]


def matrix_from_obj(obj: dict) -> list[list[GQ]]:
    return [[parse_scalar(str(v)) for v in row] for row in obj["entries"]]


# ---------------------------------------------------------------------------
# analyze / dense spectrum / verify


def check_analyze(report: dict, rows: list[list[GQ]]) -> list[str]:
    want = chain(rows)
    got = report["report"]
    return [f"{k}: got {got.get(k)!r}, Bareiss gives {v!r}" for k, v in want.items() if got.get(k) != v]


def check_spectrum(report: dict, rows: list[list[GQ]], eigen: dict | None) -> list[str]:
    """Every listed point is an eigenvalue with consistent indices.

    eigen, when known by construction, maps each eigenvalue to
    (algebraic multiplicity, largest Jordan block, number of blocks).
    """
    rep = report["report"]
    d = len(rows)
    problems = []
    if rep.get("mode") != "dense":
        problems.append("mode is not dense")
    if rep.get("sigma_asc") != [] or rep.get("sigma_dsc") != []:
        problems.append("a dense spectrum must be empty")
    lams = [parse_scalar(p["lambda"]) for p in rep["points"]]
    if [v.key() for v in lams] != sorted({v.key() for v in lams}):
        problems.append("points are not distinct in (re, im) order")
    total = 0
    for lam, point in zip(lams, rep["points"]):
        ch = chain(shifted(rows, lam))  # alpha = d - rank(T - lambda)
        if ch["alpha"] == 0:
            problems.append(f"{lam}: T - lambda is invertible")
        if not (point["alpha"] == point["beta"] == ch["alpha"]):
            problems.append(f"{lam}: alpha/beta {point['alpha']}/{point['beta']} != d - rank = {ch['alpha']}")
        if not (point["asc"] == point["dsc"] == ch["asc"]):
            problems.append(f"{lam}: asc/dsc {point['asc']}/{point['dsc']} != {ch['asc']}")
        total += ch["kernel_dims"][ch["asc"]]
        if eigen is not None and lam in eigen:
            mult, top, count = eigen[lam]
            if (ch["kernel_dims"][ch["asc"]], point["asc"], point["alpha"]) != (mult, top, count):
                problems.append(f"{lam}: Jordan structure {(mult, top, count)} not reproduced")
    if rep["complete"] and total != d:
        problems.append(f"complete spectrum but eigenspaces sum to {total} != {d}")
    if eigen is not None:
        if not rep["complete"] or set(lams) != set(eigen):
            problems.append("Jordan-structured matrix: eigenvalues not all found")
    if d and rank(rows) < d and ZERO not in lams:
        problems.append("singular matrix without the point 0")
    return problems


# witness keys recomputed from the instance matrices, per theorem
def _products(th: str, m: dict) -> dict:
    if th == "prop11":
        return {"": m["T"]}
    if th in ("theo34", "lemma36", "thC"):
        return {"_T": m["T"], "_S": m["S"], "_TS": matmul(m["T"], m["S"])}
    if th == "lemma35":
        return {"_T": m["T"], "_S": m["S"], "_TS": matmul(m["S"], m["T"])}
    if th == "eq_mul":
        return {"_b": m["B"], "_ab": matmul(m["A"], m["B"])}
    if th == "lemma41":
        return {"_T1": m["T1"], "_T2": m["T2"], "_sum": block_diag(m["T1"], m["T2"])}
    return {}


def _statement_holds(th: str, w: dict) -> bool:
    if th == "theo34":
        return w["asc_TS"] == max(w["asc_T"], w["asc_S"])
    if th == "lemma35":
        return w["dsc_TS"] <= max(w["dsc_T"], w["dsc_S"])
    if th == "lemma36":
        return min(w["dsc_T"], w["dsc_S"]) <= w["dsc_TS"]
    if th == "eq_mul":
        return w["asc_ab"] == w["asc_b"] and w["dsc_ab"] == w["dsc_b"]
    if th == "lemma41":
        return w["asc_sum"] == max(w["asc_T1"], w["asc_T2"]) and w["dsc_sum"] == max(
            w["dsc_T1"], w["dsc_T2"])
    return True


def check_verify(report: dict, theorem: str, seed: int, trials: int) -> list[str]:
    rep = report["report"]
    problems = []
    verdicts = rep["verdicts"]
    if rep["theorem"] != theorem or rep["trials"] != trials or len(verdicts) != trials:
        problems.append("theorem, trial count or verdict count does not match the request")
    if [v.get("seed") for v in verdicts] != list(range(seed, seed + trials)):
        problems.append("verdict seeds are not the requested seeds in order")
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for v in verdicts:
        if v["verdict"] not in ("pass", "inconclusive"):
            problems.append(f"seed {v.get('seed')}: verdict {v['verdict']!r}")
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    if rep["summary"] != counts or sum(rep["summary"].values()) != trials:
        problems.append(f"summary {rep['summary']} does not add up to the verdicts {counts}")
    for v in verdicts:
        mats = {k: matrix_from_obj(o) for k, o in v["instance"]["matrices"].items()}
        w = v["witness"]
        chains = {}
        for suffix, mat in _products(theorem, mats).items():
            for q in ("asc", "dsc"):
                if q + suffix in w:
                    if suffix not in chains:
                        chains[suffix] = chain(mat)
                    ch = chains[suffix]
                    if w[q + suffix] != ch[q]:
                        problems.append(f"seed {v['seed']}: {q + suffix} = {w[q + suffix]}, "
                                        f"Bareiss gives {ch[q]}")
        if theorem == "thC" and "n0" in w:
            for name in ("T", "S"):
                # rank(T^k) is constant past the end of the chain's range_dims
                ranks = (chains.get("_" + name) or chain(mats[name]))["range_dims"]
                want = len(mats[name]) - ranks[min(w["n0"], len(ranks) - 1)]
                if w[f"codim_R_{name}_n0"] != want:
                    problems.append(f"seed {v['seed']}: codim_R_{name}_n0 != {want}")
        if v["verdict"] == "pass" and not _statement_holds(theorem, w):
            problems.append(f"seed {v['seed']}: pass, but the witness violates the statement")
    return problems


# ---------------------------------------------------------------------------
# tower sections from the README spec definitions


def _seq_value(seq: dict, t: int) -> GQ:
    pre, period = seq.get("pre", []), seq.get("period", [])
    if t < len(pre):
        return parse_scalar(pre[t])
    if not period:
        return ZERO
    return parse_scalar(period[(t - len(pre)) % len(period)])


def section(spec: dict, n: int) -> list[list[GQ]]:
    """Leading n x n section of an operator spec, built from its definition."""
    out = [[ZERO] * n for _ in range(n)]
    variant = spec["variant"]
    if variant == "banded":
        # entry (i, j) reads diagonal j - i at position min(i, j)
        for key, seq in spec["diagonals"].items():
            off = int(key)
            for i in range(n):
                j = i + off
                if 0 <= j < n:
                    out[i][j] = _seq_value(seq, min(i, j))
    elif variant == "finite_rank":
        for term in spec["terms"]:
            left = [parse_scalar(v) for v in term["left"]]
            right = [parse_scalar(v) for v in term["right"]]
            for i, lv in enumerate(left[:n]):
                for j, rv in enumerate(right[:n]):
                    out[i][j] = out[i][j] + lv * rv
    elif variant == "dense":
        block = matrix_from_obj(spec["matrix"])
        for i, row in enumerate(block):
            out[i][: len(row)] = row
    elif variant == "sum":
        for part in spec["parts"]:
            sec = section(part, n)
            out = [[a + b for a, b in zip(r, s)] for r, s in zip(out, sec)]
    elif variant == "direct_sum":
        # dense parts keep their size; the single flexible part takes the rest
        fixed = sum(p["matrix"]["rows"] for p in spec["parts"] if p["variant"] == "dense")
        at = 0
        for part in spec["parts"]:
            size = part["matrix"]["rows"] if part["variant"] == "dense" else n - fixed
            for i, row in enumerate(section(part, size)):
                out[at + i][at: at + size] = row
            at += size
    else:
        raise ValueError(f"unknown variant {variant}")
    return out


def classify(values: list[int]):
    """Window rule: constant -> the value, strictly increasing -> divergent."""
    if all(v == values[0] for v in values):
        return values[0]
    if all(a < b for a, b in zip(values, values[1:])):
        return "divergent"
    return "inconclusive"


def check_tower(report: dict, spec: dict, candidates: list[GQ], window: str) -> list[str]:
    rep = report["report"]
    n0, step, count = (int(v) for v in window.split(","))
    sizes = [n0 + k * step for k in range(count)]
    problems = []
    if rep.get("mode") != "tower" or rep.get("window") != sizes:
        problems.append("mode or window does not match the request")
    sections = {n: section(spec, n) for n in sizes}
    expected = []
    for lam in sorted(set(candidates), key=GQ.key):
        chains = [chain(shifted(sections[n], lam)) for n in sizes]
        point = {q: classify([c[q] for c in chains]) for q in ("asc", "dsc", "alpha", "beta")}
        point["lambda"] = fmt_scalar(lam)
        point["in_sigma_asc"] = point["asc"] == "divergent"
        point["in_sigma_dsc"] = point["dsc"] == "divergent"
        expected.append(point)
    if [p["lambda"] for p in rep["points"]] != [p["lambda"] for p in expected]:
        problems.append("candidate list does not match the request")
    for got, want in zip(rep["points"], expected):
        for k, v in want.items():
            if got.get(k) != v:
                problems.append(f"lambda {want['lambda']}: {k} = {got.get(k)!r}, sections give {v!r}")
    sig_asc = [p["lambda"] for p in expected if p["in_sigma_asc"]]
    sig_dsc = [p["lambda"] for p in expected if p["in_sigma_dsc"]]
    if rep["sigma_asc"] != sig_asc or rep["sigma_dsc"] != sig_dsc:
        problems.append("sigma sets disagree with the divergent points")
    return problems


# ---------------------------------------------------------------------------
# float lab: values known by construction

CONV_TOL = 1e-6  # the CLI's default Tolerance.conv_tol
ABS = 1e-9


def _close(x: float, want: float, rel: float) -> bool:
    return abs(x - want) <= rel * max(abs(want), 1e-300)


def resolvent_gamma(n: int) -> float:
    """Small singular value of J2 + I/n: sqrt((1 + 2a^2 - sqrt(1 + 4a^2))/2), a = 1/n.

    Evaluated as a^2 / sigma_max (their product is det = a^2) to avoid the
    cancellation in the closed form.
    """
    a = 1.0 / n
    big = math.sqrt((1 + 2 * a * a + math.sqrt(1 + 4 * a * a)) / 2)
    return a * a / big


def expected_samples(data: dict) -> list[dict]:
    start, end, stride = data["n_range"]
    rows = []
    for n in range(start, end + 1, stride):
        if data["kind"] == "resolvent":
            rows.append({"n": n, "dku": 0.0, "dkl": 1.0, "gamma": resolvent_gamma(n)})
            continue
        sv = abs(data["s"] + n ** -data["exponent"] * data["e"])
        sv = sv[sv > 0]
        row = {"n": n, "gamma": float(sv.min())}
        if data["kind"] == "drift":
            row.update(dku=0.0, dkl=0.0, dru=0.0, drl=0.0)
        else:
            row.update(dku=0.0, dkl=1.0, dru=1.0, drl=0.0)
        rows.append(row)
    return rows


def check_samples(samples: list[dict], data: dict) -> list[str]:
    problems = []
    want = expected_samples(data)
    if [s["n"] for s in samples] != [w["n"] for w in want]:
        return ["sample indices do not follow n_range"]
    for got, exp in zip(samples, want):
        for key in ("dku", "dkl", "dru", "drl"):
            v = got[key]
            if not 0.0 <= v <= 1.0:
                problems.append(f"n={got['n']}: {key} = {v} outside [0, 1]")
            if key in exp:
                ok = v < CONV_TOL if exp[key] == 0.0 else abs(v - exp[key]) <= ABS
                if not ok:
                    problems.append(f"n={got['n']}: {key} = {v}, construction gives {exp[key]}")
        if not _close(float(got["gamma"]), exp["gamma"], 1e-7):
            problems.append(f"n={got['n']}: gamma = {got['gamma']}, construction gives {exp['gamma']}")
    return problems


def check_trajectory_obj(traj: dict, data: dict) -> list[str]:
    problems = check_samples(traj["samples"], data)
    count = len(traj["samples"])
    d = data["dim"]
    if data["kind"] == "resolvent":
        base, ranks = d - 1, [d] * count
    elif data["kind"] == "drift":
        base, ranks = data["rank"], [data["rank"]] * count
    else:
        base, ranks = data["rank"], [d] * count
    if traj["base_rank"] != base or traj["ranks"] != ranks:
        problems.append(f"ranks: base {traj['base_rank']} (want {base}), samples {set(traj['ranks'])}")
    jumps = [s["n"] for s, r in zip(traj["samples"], ranks) if r != base]
    if traj["rank_jumps"] != jumps:
        problems.append("rank_jumps disagree with the ranks")
    return problems


def check_trajectory(report: dict, data: dict) -> list[str]:
    return check_trajectory_obj(report["report"]["trajectory"], data)


def check_trajectory_csv(text: str, data: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or list(rows[0]) != ["n", "dku", "dkl", "dru", "drl", "gamma"]:
        return ["csv header is not n,dku,dkl,dru,drl,gamma"]
    samples = [{k: (int(v) if k == "n" else float(v)) for k, v in r.items()} for r in rows]
    return check_samples(samples, data)


def check_probe(report: dict, data: dict) -> list[str]:
    rep = report["report"]
    problems = check_trajectory_obj(rep["trajectory"], data)
    verdict = rep["probe"]
    if verdict["theorem"] != f"probe:{data['probe']}" or verdict["verdict"] != data["verdict"]:
        problems.append(f"probe {verdict['theorem']} gave {verdict['verdict']}, want {data['verdict']}")
    witness = verdict["witness"]
    if data["verdict"] == "pass":
        for name, sub in witness["sub_lemmas"].items():
            if name == data["probe"] or data["probe"] == "T1":
                if not all(v < CONV_TOL for v in sub["tail"]):
                    problems.append(f"{name}: tail not below conv_tol on a converging sequence")
    else:
        tail = witness["sub_lemmas"]["ker_lower"]["tail"]
        if not all(abs(v - 1.0) <= ABS for v in tail):
            problems.append("resolvent: ker_lower tail is not pinned at 1")
    return problems


def check_gap(report: dict, data: dict) -> list[str]:
    rep = report["report"]
    problems = []
    k_y, k_z = data["dims"]
    if (rep["dim_Y"], rep["dim_Z"], rep["ambient_dim"]) != (k_y, k_z, data["m"]):
        problems.append("dimensions do not match the construction")
    values = (rep["delta_YZ"], rep["delta_ZY"], rep["gap"])
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append(f"gap values {values} outside [0, 1]")
    if data["theta"] is None:
        want = (1.0, 0.0, 1.0)
    else:
        s = math.sin(max(data["theta"]))
        want = (s, s, s)
    if any(abs(v - w) > ABS for v, w in zip(values, want)):
        problems.append(f"gap values {values}, construction gives {want}")
    return problems
