"""Truncation towers for shift-like operators.

Infinite-dimensional behaviour is modelled by finite sections: a
structured operator description is realized as an N x N matrix for a
window of increasing N, and a quantity (ascent, descent, kernel or
cokernel dimension) is classified from how it moves across the window.
A value that is constant on the whole window reads as finite, a value
that strictly increases reads as divergent, anything else is
inconclusive.  The window is a heuristic and every verdict carries it;
a quantity stable on one window may still move later.

Truncation policy is compression: entries outside the leading N x N
square are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import chain_report
from .exact import (
    Matrix,
    cached_image,
    json_array,
    json_object,
    matrix_from_obj,
    matrix_to_obj,
)
from .gq import GQ, GaussianRational, as_gq, format_scalar, parse_scalar

QUANTITIES = ("asc", "dsc", "alpha", "beta")


@dataclass(frozen=True)
class TowerConfig:
    """Window of truncation sizes plus the finite-rank probing depth."""

    n0: int = 16
    step: int = 8
    count: int = 4
    rank_power_bound: int = 4

    def __post_init__(self):
        if self.n0 < 1 or self.step < 1 or self.count < 2:
            raise ValueError("window requires n0 >= 1, step >= 1, count >= 2")
        if self.rank_power_bound < 1:
            raise ValueError("rank_power_bound must be positive")

    def window(self) -> tuple[int, ...]:
        return tuple(self.n0 + k * self.step for k in range(self.count))

    def to_obj(self) -> dict:
        return {"n0": self.n0, "step": self.step, "count": self.count}


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

    def scaled(self, factor: GaussianRational) -> "EventuallyPeriodic":
        return EventuallyPeriodic(
            tuple(factor * v for v in self.pre),
            tuple(factor * v for v in self.period),
        )

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

    def scaled(self, factor) -> "OperatorSpec":
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
        d = self.matrix.rows
        flat = [GQ(0)] * (n * n)
        for i in range(d):
            row = self.matrix.row(i)
            for j in range(d):
                flat[i * n + j] = row[j]
        return Matrix(n, n, flat)

    def scaled(self, factor) -> "DenseSpec":
        return DenseSpec(self.matrix.scale(factor))

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
        flat = [GQ(0)] * (n * n)
        for offset, seq in self.diagonals:
            if offset >= 0:
                i0, j0 = 0, offset
            else:
                i0, j0 = -offset, 0
            length = n - abs(offset)
            for t in range(length):
                flat[(i0 + t) * n + (j0 + t)] = seq.value(t)
        return Matrix(n, n, flat)

    def scaled(self, factor) -> "BandedSpec":
        f = as_gq(factor)
        return BandedSpec(tuple((o, s.scaled(f)) for o, s in self.diagonals))

    def is_zero(self) -> bool:
        return all(
            not any(seq.pre) and not any(seq.period) for _, seq in self.diagonals
        )

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
        flat = [GQ(0)] * (n * n)
        for left, right in self.terms:
            for i, lv in enumerate(left):
                if lv:
                    for j, rv in enumerate(right):
                        if rv:
                            flat[i * n + j] = flat[i * n + j] + lv * rv
        return Matrix(n, n, flat)

    def scaled(self, factor) -> "FiniteRankSpec":
        f = as_gq(factor)
        return FiniteRankSpec(
            tuple((tuple(f * v for v in left), right) for left, right in self.terms)
        )

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

    def scaled(self, factor) -> "SumSpec":
        return SumSpec(tuple(p.scaled(factor) for p in self.parts))

    def to_obj(self) -> dict:
        return {"variant": "sum", "parts": [p.to_obj() for p in self.parts]}


@dataclass(frozen=True)
class DirectSumSpec(OperatorSpec):
    """Block-diagonal composition.

    Dense parts keep their fixed sizes; the remaining dimension is
    split as evenly as possible among the flexible parts, any leftover
    going to the later ones.  Sections are corner-consistent only when
    at most one flexible part is present (and it comes last); with
    several flexible parts the interior block boundaries move with N.
    """

    parts: tuple[OperatorSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("direct sum needs at least one part")

    def min_truncation(self) -> int:
        return sum(p.min_truncation() for p in self.parts)

    def _allocate(self, n: int) -> list[int]:
        sizes = []
        flexible = []
        for idx, p in enumerate(self.parts):
            if isinstance(p, DenseSpec):
                sizes.append(p.matrix.rows)
            else:
                sizes.append(p.min_truncation())
                flexible.append(idx)
        leftover = n - sum(sizes)
        if leftover < 0:
            raise ValueError(f"truncation {n} cannot fit the fixed blocks")
        if flexible:
            share, extra = divmod(leftover, len(flexible))
            for rank_from_end, idx in enumerate(reversed(flexible)):
                sizes[idx] += share + (1 if rank_from_end < extra else 0)
        elif leftover:
            raise ValueError(
                f"truncation {n} exceeds the total fixed size {sum(sizes)}"
            )
        return sizes

    def _realize(self, n: int) -> Matrix:
        sizes = self._allocate(n)
        flat = [GQ(0)] * (n * n)
        origin = 0
        for p, size in zip(self.parts, sizes):
            block = p.realize(size)
            for i in range(size):
                base = (origin + i) * n + origin
                row = block.row(i)
                for j in range(size):
                    flat[base + j] = row[j]
            origin += size
        return Matrix(n, n, flat)

    def scaled(self, factor) -> "DirectSumSpec":
        return DirectSumSpec(tuple(p.scaled(factor) for p in self.parts))

    def to_obj(self) -> dict:
        return {"variant": "direct_sum", "parts": [p.to_obj() for p in self.parts]}


def _scalars(value, what: str) -> tuple[GaussianRational, ...]:
    return tuple(parse_scalar(str(v)) for v in json_array(value, what))


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
                diags[int(key)] = EventuallyPeriodic(
                    _scalars(seq.get("pre", []), f"diagonal {key} pre"),
                    _scalars(seq.get("period", []), f"diagonal {key} period"),
                )
            return BandedSpec.from_dict(diags)
        if variant == "finite_rank":
            terms = []
            for term in obj.get("terms", []):
                term = json_object(term, "finite_rank term")
                left = _scalars(term["left"], "finite_rank term left")
                right = _scalars(term["right"], "finite_rank term right")
                terms.append((left, right))
            return FiniteRankSpec(tuple(terms))
        if variant == "sum":
            return SumSpec(tuple(spec_from_obj(p) for p in obj["parts"]))
        if variant == "direct_sum":
            return DirectSumSpec(tuple(spec_from_obj(p) for p in obj["parts"]))
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

    def to_obj(self) -> dict:
        obj = {
            "quantity": self.quantity,
            "per_truncation": [[n, v] for n, v in self.per_truncation],
            "classification": self.kind,
        }
        if self.value is not None:
            obj["value"] = self.value
        return obj


def classify_window(quantity: str, samples: list[tuple[int, int]]) -> TowerVerdict:
    """Finite iff constant over the window, divergent iff strictly increasing."""
    values = [v for _, v in samples]
    if all(v == values[0] for v in values):
        return TowerVerdict(quantity, tuple(samples), "finite", values[0])
    if all(a < b for a, b in zip(values, values[1:])):
        return TowerVerdict(quantity, tuple(samples), "divergent")
    return TowerVerdict(quantity, tuple(samples), "inconclusive")


def window_reports(
    spec: OperatorSpec, lam, cfg: TowerConfig = DEFAULT_CONFIG
) -> list[tuple[int, "object"]]:
    """Chain reports of the shifted sections across the window."""
    lam = as_gq(lam)
    out = []
    for n in cfg.window():
        section = spec.realize(n).shifted(lam)
        out.append((n, chain_report(section)))
    return out


def tower_verdict(
    spec: OperatorSpec, lam, quantity: str, cfg: TowerConfig = DEFAULT_CONFIG
) -> TowerVerdict:
    """Classify asc/dsc/alpha/beta of (spec - lambda) over the window."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    samples = [
        (n, getattr(rep, quantity)) for n, rep in window_reports(spec, lam, cfg)
    ]
    return classify_window(quantity, samples)


@dataclass(frozen=True)
class TowerSpectrumEntry:
    lam: GaussianRational
    verdicts: tuple[tuple[str, TowerVerdict], ...]
    in_spectrum: bool

    def verdict(self, quantity: str) -> TowerVerdict:
        return dict(self.verdicts)[quantity]

    def to_obj(self) -> dict:
        obj = {"lambda": format_scalar(self.lam), "in_spectrum": self.in_spectrum}
        for name, verdict in self.verdicts:
            obj[name] = verdict.kind if verdict.kind != "finite" else verdict.value
        return obj


@dataclass(frozen=True)
class TowerSpectrumReport:
    """Per-candidate classification; divergent points form the spectrum."""

    quantity: str
    config: TowerConfig
    entries: tuple[TowerSpectrumEntry, ...]

    @property
    def sigma(self) -> tuple[GaussianRational, ...]:
        return tuple(e.lam for e in self.entries if e.in_spectrum)

    def to_obj(self) -> dict:
        return {
            "quantity": self.quantity,
            "window": list(self.config.window()),
            "points": [e.to_obj() for e in self.entries],
            "sigma": [format_scalar(v) for v in self.sigma],
        }


def tower_spectrum(
    spec: OperatorSpec,
    candidates,
    quantity: str = "asc",
    cfg: TowerConfig = DEFAULT_CONFIG,
) -> TowerSpectrumReport:
    """Desk-scale spectrum over a finite candidate set.

    A candidate belongs to the spectrum exactly when the chosen
    quantity classifies as divergent across the window.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    entries = []
    seen = set()
    for lam in candidates:
        lam = as_gq(lam)
        if lam in seen:
            continue
        seen.add(lam)
        reports = window_reports(spec, lam, cfg)
        verdicts = tuple(
            (q, classify_window(q, [(n, getattr(rep, q)) for n, rep in reports]))
            for q in QUANTITIES
        )
        selected = dict(verdicts)[quantity]
        entries.append(
            TowerSpectrumEntry(lam, verdicts, selected.kind == "divergent")
        )
    entries.sort(key=lambda e: e.lam.sort_key())
    return TowerSpectrumReport(quantity, cfg, tuple(entries))


@dataclass(frozen=True)
class PowerRankVerdict:
    """Three-valued answer to "does some power have bounded finite rank".

    certain verdicts come from the structure of the spec; likely
    verdicts come from rank probes across the window and can be wrong
    past it.
    """

    kind: str  # "certain-true" | "likely-true" | "likely-false"
    n0: int | None = None
    rank: int | None = None
    ranks_seen: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def truthy(self) -> bool:
        return self.kind in ("certain-true", "likely-true")

    def to_obj(self) -> dict:
        obj = {"verdict": self.kind}
        if self.n0 is not None:
            obj["n0"] = self.n0
        if self.rank is not None:
            obj["rank"] = self.rank
        if self.ranks_seen:
            obj["ranks"] = {str(p): list(r) for p, r in self.ranks_seen}
        return obj


def _certain_power_rank(spec: OperatorSpec) -> PowerRankVerdict | None:
    if isinstance(spec, DenseSpec):
        rank = cached_image(spec.matrix).dim
        return PowerRankVerdict("certain-true", n0=1, rank=rank)
    if isinstance(spec, FiniteRankSpec):
        return PowerRankVerdict("certain-true", n0=1, rank=len(spec.terms))
    if isinstance(spec, BandedSpec) and spec.is_zero():
        return PowerRankVerdict("certain-true", n0=1, rank=0)
    if isinstance(spec, SumSpec):
        parts = [_certain_power_rank(p) for p in spec.parts]
        if all(p is not None and p.n0 == 1 for p in parts):
            return PowerRankVerdict(
                "certain-true", n0=1, rank=sum(p.rank or 0 for p in parts)
            )
        return None
    if isinstance(spec, DirectSumSpec):
        parts = [_certain_power_rank(p) for p in spec.parts]
        if all(p is not None for p in parts):
            return PowerRankVerdict(
                "certain-true",
                n0=max(p.n0 or 1 for p in parts),
                rank=sum(p.rank or 0 for p in parts),
            )
        return None
    return None


def is_power_finite_rank(
    spec: OperatorSpec, cfg: TowerConfig = DEFAULT_CONFIG
) -> PowerRankVerdict:
    """Decide membership in the power-finite-rank class where possible.

    Dense blocks, finite-rank terms and their sums settle structurally
    (some power, here the first, has rank bounded independently of the
    section size).  Otherwise ranks of powers are probed across the
    window: an exponent whose rank freezes over the window yields
    likely-true, and none doing so yields likely-false.
    """
    certain = _certain_power_rank(spec)
    if certain is not None:
        return certain
    return probed_power_rank({n: spec.realize(n) for n in cfg.window()}, cfg)


def probed_power_rank(sections: dict[int, Matrix], cfg: TowerConfig) -> PowerRankVerdict:
    """Rank probe of the powers of given window sections, exponents 1..bound.

    The first exponent whose rank is the same on every section yields
    likely-true; none doing so yields likely-false.
    """
    window = cfg.window()
    seen = []
    for exponent in range(1, cfg.rank_power_bound + 1):
        ranks = tuple(
            cached_image(sections[n].power(exponent)).dim for n in window
        )
        seen.append((exponent, ranks))
        if all(r == ranks[0] for r in ranks):
            return PowerRankVerdict(
                "likely-true", n0=exponent, rank=ranks[0], ranks_seen=tuple(seen)
            )
    return PowerRankVerdict("likely-false", ranks_seen=tuple(seen))
