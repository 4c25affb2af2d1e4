"""Truncation towers for shift-like operators.

Infinite-dimensional behaviour is modelled by finite sections: a spec is
realized once as N x N matrices over a window of increasing N, and a point
is decided by one report per shifted section (``window_profile``).  Off a
section's spectrum T_N - lambda is invertible and its four quantities are
0, so a shift of full rank is decided by its rank alone; only a singular
shift builds its left-kernel chain.  Ascent, descent, kernel and cokernel
dimension are each classified by how they move across the window.  A
value constant on the whole window reads as finite, a strictly increasing
one as divergent, anything else is inconclusive.  The window is a
heuristic and every verdict carries it; a quantity stable on one window
may still move later.

Truncation policy is compression: entries outside the leading N x N
square are dropped.  Sections are built as the sparse integer rows of
D*T_N (D the common denominator), in time proportional to their nonzeros.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from math import lcm

from .chains import ChainReport, chain_report, report_from_chain
from .exact import (
    Matrix,
    block_diag,
    is_invertible,
    json_array,
    json_object,
    matrix_from_obj,
    matrix_to_obj,
)
from .gq import (
    GQ,
    GaussianRational,
    as_gq,
    cleared,
    common_denominator,
    format_scalar,
    parse_scalar,
)

QUANTITIES = ("asc", "dsc", "alpha", "beta")

# Largest section size a window may ask for.  A shifted section off its
# spectrum is decided by its rank: B + S - (1/2 + i) took 3.5 ms at
# N = 192 and 4.6 ms at N = 256, where its tagged chain takes 82 and
# 205 ms.  A singular section still builds that chain, which grows faster
# than N^3 where the preimage tags fill in: [1/2 + i] ⊕ (B + S), shifted
# by 1/2 + i, took 73 ms at N = 192 and 189 ms at N = 256 (Xeon core,
# Python 3.11).  Since step >= 1, the cap also bounds the number of
# sections.
MAX_SECTION = 256


@dataclass(frozen=True)
class TowerConfig:
    """Window of truncation sizes n0, n0 + step, ... (count sizes).

    The largest size, n0 + step * (count - 1), may not exceed MAX_SECTION.
    """

    n0: int = 16
    step: int = 8
    count: int = 4

    def __post_init__(self):
        if self.n0 < 1 or self.step < 1 or self.count < 2:
            raise ValueError("window requires n0 >= 1, step >= 1, count >= 2")
        largest = self.n0 + self.step * (self.count - 1)
        if largest > MAX_SECTION:
            raise ValueError(
                f"window's largest section {largest} exceeds the cap of {MAX_SECTION}"
            )

    def window(self) -> tuple[int, ...]:
        return tuple(self.n0 + k * self.step for k in range(self.count))


DEFAULT_CONFIG = TowerConfig()


@dataclass(frozen=True)
class EventuallyPeriodic:
    """Scalar sequence with an explicit preperiod and a repeating tail.

    An empty period means the sequence is zero past the preperiod.
    """

    pre: tuple[GaussianRational, ...] = ()
    period: tuple[GaussianRational, ...] = ()

    def value(self, t: int) -> GaussianRational:
        if t < len(self.pre):
            return self.pre[t]
        if not self.period:
            return GQ(0)
        return self.period[(t - len(self.pre)) % len(self.period)]

    def to_obj(self) -> dict:
        return {
            "pre": [format_scalar(v) for v in self.pre],
            "period": [format_scalar(v) for v in self.period],
        }


class OperatorSpec:
    """Base for operator descriptions realizable at any truncation size."""

    def min_truncation(self) -> int:
        raise NotImplementedError

    def realize(self, n: int) -> Matrix:
        """Leading N x N section as an exact matrix."""
        if n < self.min_truncation():
            raise ValueError(
                f"truncation {n} below the minimum {self.min_truncation()} for this spec"
            )
        return self._realize(n)

    def _realize(self, n: int) -> Matrix:
        raise NotImplementedError

    def to_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class DenseSpec(OperatorSpec):
    """A fixed finite block embedded with a zero tail."""

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_square:
            raise ValueError("dense block must be square")

    def min_truncation(self) -> int:
        return max(self.matrix.rows, 1)

    def _realize(self, n: int) -> Matrix:
        m = self.matrix
        return Matrix.from_integer_rows(n, m.den, [*m.int_rows, *[{}] * (n - m.rows)])

    def to_obj(self) -> dict:
        return {"variant": "dense", "matrix": matrix_to_obj(self.matrix)}


@dataclass(frozen=True)
class BandedSpec(OperatorSpec):
    """Diagonals indexed by offset; entry (i, j) reads diagonal j - i.

    Along each diagonal the value at position t = min(i, j) comes from
    an eventually periodic sequence, so sections are consistent: the
    leading corner of a larger section reproduces the smaller one.
    """

    diagonals: tuple[tuple[int, EventuallyPeriodic], ...]

    @classmethod
    def from_dict(cls, diags: dict[int, EventuallyPeriodic]) -> "BandedSpec":
        return cls(tuple(sorted(diags.items())))

    def min_truncation(self) -> int:
        req = 1
        for offset, seq in self.diagonals:
            req = max(req, abs(offset) + 1, abs(offset) + max(len(seq.pre), 1))
        return req

    def _realize(self, n: int) -> Matrix:
        scalars = {v for _, seq in self.diagonals for v in seq.pre + seq.period if v}
        den = common_denominator(scalars)
        integer = {v: cleared(v, den) for v in scalars}
        rows: list[dict] = [{} for _ in range(n)]
        for offset, seq in self.diagonals:
            i0, j0 = max(-offset, 0), max(offset, 0)
            for t in range(n - abs(offset)):
                v = seq.value(t)
                if v:
                    rows[i0 + t][j0 + t] = integer[v]
        return Matrix.from_integer_rows(n, den, rows)

    def to_obj(self) -> dict:
        return {
            "variant": "banded",
            "diagonals": {str(o): s.to_obj() for o, s in self.diagonals},
        }


@dataclass(frozen=True)
class FiniteRankSpec(OperatorSpec):
    """Sum of outer products of finitely supported vector patterns."""

    terms: tuple[tuple[tuple[GaussianRational, ...], tuple[GaussianRational, ...]], ...]

    def min_truncation(self) -> int:
        req = 1
        for left, right in self.terms:
            req = max(req, len(left), len(right))
        return req

    def _realize(self, n: int) -> Matrix:
        """The integer rows of D * sum(left right^T), built directly.

        A term with left = L / a and right = R / b, L and R Gaussian
        integers, adds (D / ab) L_i R_j at (i, j); D is the lcm of the
        terms' ab.
        """
        terms = []
        for left, right in self.terms:
            den_l, den_r = common_denominator(left), common_denominator(right)
            terms.append((den_l * den_r, [cleared(v, den_l) for v in left],
                          [cleared(v, den_r) for v in right]))
        den = lcm(*(d for d, _, _ in terms))
        rows: list[dict] = [{} for _ in range(n)]
        for d, left, right in terms:
            f = den // d
            for row, (a, b) in zip(rows, left):
                a, b = f * a, f * b
                for j, (x, y) in enumerate(right):
                    u, v = row.get(j, (0, 0))
                    row[j] = (u + a * x - b * y, v + a * y + b * x)
        rows = [{j: uv for j, uv in row.items() if uv != (0, 0)} for row in rows]
        return Matrix.from_integer_rows(n, den, rows)

    def to_obj(self) -> dict:
        return {
            "variant": "finite_rank",
            "terms": [
                {
                    "left": [format_scalar(v) for v in left],
                    "right": [format_scalar(v) for v in right],
                }
                for left, right in self.terms
            ],
        }


@dataclass(frozen=True)
class SumSpec(OperatorSpec):
    """Pointwise sum of parts realized on the same section."""

    parts: tuple[OperatorSpec, ...]

    def min_truncation(self) -> int:
        return max((p.min_truncation() for p in self.parts), default=1)

    def _realize(self, n: int) -> Matrix:
        total = Matrix.zeros(n, n)
        for p in self.parts:
            total = total + p.realize(n)
        return total

    def to_obj(self) -> dict:
        return {"variant": "sum", "parts": [p.to_obj() for p in self.parts]}


@dataclass(frozen=True)
class DirectSumSpec(OperatorSpec):
    """Block-diagonal composition.

    Dense parts keep their fixed sizes; the remaining dimension is
    split as evenly as possible among the flexible parts, any leftover
    going to the later ones, whatever their minimum sizes.  So direct
    sums of one layout (part count, and dense sizes by position) split
    every section alike, and each flexible part gets at least the
    largest flexible minimum.  Sections are corner-consistent only when
    at most one flexible part is present (and it comes last); with
    several flexible parts the interior block boundaries move with N.
    """

    parts: tuple[OperatorSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("direct sum needs at least one part")

    def min_truncation(self) -> int:
        fixed = sum(p.min_truncation() for p in self.parts if isinstance(p, DenseSpec))
        flexible = [p.min_truncation() for p in self.parts if not isinstance(p, DenseSpec)]
        return fixed + len(flexible) * max(flexible, default=0)

    def _allocate(self, n: int) -> list[int]:
        sizes = [p.matrix.rows if isinstance(p, DenseSpec) else 0 for p in self.parts]
        flexible = [i for i, p in enumerate(self.parts) if not isinstance(p, DenseSpec)]
        leftover = n - sum(sizes)
        if flexible:
            share, extra = divmod(leftover, len(flexible))
            for rank_from_end, idx in enumerate(reversed(flexible)):
                sizes[idx] = share + (1 if rank_from_end < extra else 0)
        elif leftover:
            raise ValueError(
                f"truncation {n} exceeds the total fixed size {sum(sizes)}"
            )
        return sizes

    def _realize(self, n: int) -> Matrix:
        sizes = self._allocate(n)
        return block_diag(*(p.realize(size) for p, size in zip(self.parts, sizes)))

    def to_obj(self) -> dict:
        return {"variant": "direct_sum", "parts": [p.to_obj() for p in self.parts]}


def _scalars(value, what: str) -> tuple[GaussianRational, ...]:
    return tuple(parse_scalar(str(v)) for v in json_array(value, what))


# int() would also read "+1", "01", " 1", "1_0", "-0" and non-ASCII digits,
# so two keys could name one offset and the last would silently win
_OFFSET = re.compile(r"0|-?[1-9][0-9]*")


def spec_from_obj(obj: dict) -> OperatorSpec:
    try:
        variant = obj["variant"]
    except (KeyError, TypeError) as exc:
        raise ValueError("operator spec needs a 'variant' key") from exc
    try:
        if variant == "dense":
            return DenseSpec(matrix_from_obj(obj["matrix"]))
        if variant == "banded":
            diags = {}
            for key, seq in json_object(obj.get("diagonals", {}), "diagonals").items():
                seq = json_object(seq, f"diagonal {key}")
                if not _OFFSET.fullmatch(key):
                    raise ValueError(
                        f"diagonal key {key!r} is not an integer offset in ASCII digits"
                    )
                diags[int(key)] = EventuallyPeriodic(
                    _scalars(seq.get("pre", []), f"diagonal {key} pre"),
                    _scalars(seq.get("period", []), f"diagonal {key} period"),
                )
            return BandedSpec.from_dict(diags)
        if variant == "finite_rank":
            terms = []
            for term in json_array(obj.get("terms", []), "finite_rank terms"):
                term = json_object(term, "finite_rank term")
                left = _scalars(term["left"], "finite_rank term left")
                right = _scalars(term["right"], "finite_rank term right")
                terms.append((left, right))
            return FiniteRankSpec(tuple(terms))
        if variant in ("sum", "direct_sum"):
            parts = tuple(spec_from_obj(p) for p in json_array(obj["parts"], f"{variant} parts"))
            return (SumSpec if variant == "sum" else DirectSumSpec)(parts)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {variant!r} operator spec: {exc!r}") from exc
    raise ValueError(f"unknown operator spec variant {variant!r}")


def backward_shift() -> BandedSpec:
    """Ones on the first superdiagonal; kernel chains grow without bound."""
    return BandedSpec.from_dict({1: EventuallyPeriodic(period=(GQ(1),))})


def forward_shift() -> BandedSpec:
    """Ones on the first subdiagonal; cokernel chains grow without bound."""
    return BandedSpec.from_dict({-1: EventuallyPeriodic(period=(GQ(1),))})


def identity_tail() -> BandedSpec:
    return BandedSpec.from_dict({0: EventuallyPeriodic(period=(GQ(1),))})


@dataclass(frozen=True)
class TowerVerdict:
    """Window classification of one quantity at one point."""

    quantity: str
    per_truncation: tuple[tuple[int, int], ...]
    kind: str  # "finite" | "divergent" | "inconclusive"
    value: int | None = None

    @property
    def label(self) -> int | str:
        """The value when finite, the kind otherwise."""
        return self.value if self.kind == "finite" else self.kind


def classify_window(quantity: str, samples: list[tuple[int, int]]) -> TowerVerdict:
    """Finite iff constant over the window, divergent iff strictly increasing."""
    values = [v for _, v in samples]
    if all(v == values[0] for v in values):
        return TowerVerdict(quantity, tuple(samples), "finite", values[0])
    if all(a < b for a, b in zip(values, values[1:])):
        return TowerVerdict(quantity, tuple(samples), "divergent")
    return TowerVerdict(quantity, tuple(samples), "inconclusive")


def window_sections(
    spec: OperatorSpec, cfg: TowerConfig = DEFAULT_CONFIG
) -> dict[int, Matrix]:
    """Sections of spec at every window size, in window order."""
    return {n: spec.realize(n) for n in cfg.window()}


def section_reports(sections: dict[int, Matrix], lam) -> dict[int, ChainReport]:
    """Chain report of (section - lambda) for each section, in window order.

    Off a section's spectrum the shift is invertible, and asc, dsc, alpha
    and beta are all 0: a shift of full rank is decided by its untagged
    rank alone and builds no chain.  Only a singular shift builds its
    left-kernel chain; one with a zero row or column needs no rank first
    (``exact.is_invertible``).
    """
    lam = as_gq(lam)
    reports = {}
    for n, a in sections.items():
        t = a.shifted(lam)
        reports[n] = report_from_chain(t.rows, ()) if is_invertible(t) else chain_report(t)
    return reports


def classify_reports(reports: dict[int, ChainReport]) -> dict[str, TowerVerdict]:
    """Classify asc, dsc, alpha and beta over the window's reports."""
    return {
        q: classify_window(q, [(n, getattr(rep, q)) for n, rep in reports.items()])
        for q in QUANTITIES
    }


def window_profile(sections: dict[int, Matrix], lam) -> dict[str, TowerVerdict]:
    """Classify asc, dsc, alpha and beta of (section - lambda) over the window.

    One report per section (``section_reports``) serves all four
    quantities: a regular point is decided by rank, and only a singular
    shift builds its chain.  Every tower reader decides a point here.
    """
    return classify_reports(section_reports(sections, lam))


@dataclass(frozen=True)
class TowerSpectrumReport:
    """Window profile per candidate; divergent asc (dsc) puts it in sigma_asc (sigma_dsc)."""

    config: TowerConfig
    points: tuple[tuple[GaussianRational, dict[str, TowerVerdict]], ...]

    def sigma(self, quantity: str) -> tuple[GaussianRational, ...]:
        return tuple(lam for lam, p in self.points if p[quantity].kind == "divergent")

    def to_obj(self) -> dict:
        return {
            "window": list(self.config.window()),
            "points": [
                {
                    "lambda": format_scalar(lam),
                    **{q: verdict.label for q, verdict in profile.items()},
                    "in_sigma_asc": profile["asc"].kind == "divergent",
                    "in_sigma_dsc": profile["dsc"].kind == "divergent",
                }
                for lam, profile in self.points
            ],
            "sigma_asc": [format_scalar(v) for v in self.sigma("asc")],
            "sigma_dsc": [format_scalar(v) for v in self.sigma("dsc")],
        }


def tower_spectrum(
    spec: OperatorSpec, candidates, cfg: TowerConfig = DEFAULT_CONFIG
) -> TowerSpectrumReport:
    """Desk-scale ascent and descent spectra over a finite candidate set.

    The sections are realized once and profiled at each distinct candidate.
    """
    points = sorted({as_gq(lam) for lam in candidates}, key=lambda v: v.sort_key())
    sections = window_sections(spec, cfg)
    return TowerSpectrumReport(
        cfg, tuple((lam, window_profile(sections, lam)) for lam in points)
    )


@dataclass(frozen=True)
class PowerRankVerdict:
    """Exact answer to "does some power have finite rank" (membership in F̃).

    certain-true carries n0, the least such exponent; undecided is given
    only for products that mix direct sums with other layouts.
    """

    kind: str  # "certain-true" | "certain-false" | "undecided"
    n0: int | None = None

    def to_obj(self) -> dict:
        obj = {"verdict": self.kind}
        if self.n0 is not None:
            obj["n0"] = self.n0
        return obj


def _period_and_width(spec: OperatorSpec) -> tuple[int, int] | None:
    """lcm of the period lengths and largest |offset|; None if a direct sum occurs."""
    if isinstance(spec, (DenseSpec, FiniteRankSpec)):
        return 1, 0
    if isinstance(spec, BandedSpec):
        shapes = [(len(seq.period) or 1, abs(o)) for o, seq in spec.diagonals]
    elif isinstance(spec, SumSpec):
        shapes = [_period_and_width(p) for p in spec.parts]
    else:
        return None
    if None in shapes:
        return None
    return lcm(*(p for p, _ in shapes)), max((w for _, w in shapes), default=0)


def _layout(spec: OperatorSpec) -> tuple | None:
    """Dense part sizes by position of a direct sum (None for flexible parts)."""
    if isinstance(spec, DirectSumSpec):
        return tuple(p.matrix.rows if isinstance(p, DenseSpec) else None for p in spec.parts)
    return None


def is_power_finite_rank(*factors: OperatorSpec) -> PowerRankVerdict:
    """Decide exactly whether some power of the product of factors has finite rank.

    Without direct sums, let P be the lcm of the period lengths, w the
    bandwidth and z = ``min_truncation()``.  Each row i >= z of the spec M
    is row i of a bi-infinite P-periodic band L: its entries read their
    diagonals at t >= z - |offset|, past every preperiod, and finite-rank
    and dense parts vanish there.  So the band M is T(A) + finite rank, with
    T(A) the block Toeplitz operator of L's P x P trigonometric symbol A.  By
    Widom's identity T(A)T(B) = T(AB) - H(A)H(B~), with Hankels of finite
    rank, M^k = T(A^k) + finite rank, and T(A^k) is compact only if A^k = 0
    (Boettcher & Silbermann, *Analysis of Toeplitz Operators*, 2nd ed.
    2006, ch. 2 and 6).  A nilpotent P x P symbol has A^P = 0, so n0 <= P.
    A path of k steps from a row i >= z + (k - 1)w meets rows >= z only, so
    rows z + (k - 1)w .. z + (k - 1)w + P - 1 of M^k are P consecutive rows
    of the Laurent operator L^k and hold every coefficient of A^k.  They
    reach columns below z + (2k - 1)w + P, so the section of size
    N = z + (2P - 1)w + P holds them exactly for every k <= P: n0 is the
    first k at which they are all zero, and none up to P means no power.

    A product F_1 ... F_m is a band of period the lcm of the factors' and
    bandwidth the sum of theirs.  Row i of F_1 R is periodic once i >= z_1
    and i - w_1 clears R's bound, so z <- max(z_i, z + w_i) from the right;
    no path leaves the section, so it is the product of the sections.
    Direct sums are decided part by part when every factor has one layout
    (part count, and dense sizes by position), as powers of the product
    act part by part: certain-false if a part is, else undecided if one
    is, else certain-true with the largest n0.  Any other mix with a
    direct sum is undecided.
    """
    layouts = {_layout(f) for f in factors}
    if None not in layouts:
        if len(layouts) > 1:
            return PowerRankVerdict("undecided")
        parts = [is_power_finite_rank(*fs) for fs in zip(*(f.parts for f in factors))]
        for kind in ("certain-false", "undecided"):
            if any(p.kind == kind for p in parts):
                return PowerRankVerdict(kind)
        return PowerRankVerdict("certain-true", n0=max(p.n0 for p in parts))
    shapes = [_period_and_width(f) for f in factors]
    if None in shapes:
        return PowerRankVerdict("undecided")
    period = lcm(*(p for p, _ in shapes))
    width = sum(w for _, w in shapes)
    z = 0
    for factor, (_, w) in zip(reversed(factors), reversed(shapes)):
        z = max(factor.min_truncation(), z + w)
    n = z + (2 * period - 1) * width + period
    product = reduce(Matrix.__matmul__, (f.realize(n) for f in factors))
    power = product
    for k in range(1, period + 1):
        first = z + (k - 1) * width
        if not any(power.int_rows[first : first + period]):
            return PowerRankVerdict("certain-true", n0=k)
        if k < period:
            power = power @ product
    return PowerRankVerdict("certain-false")
