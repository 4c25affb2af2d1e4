"""Operator sequences, subspace-gap trajectories, and convergence probes.

A sequence T_n -> T is realized from a base operator and a decaying
perturbation rule.  For each sample the lab records the four one-sided
gaps between kernels and ranges of T_n and T together with the reduced
minimum modulus, then classifies upper/lower convergence empirically: a
tail of one-sided gaps below the convergence tolerance stands in for
the adherent-point definition (licensed by the fact that one-sided gap
decay follows from either convergence mode).  Rank, kernel, range,
reduced minimum modulus and the complements that the four gaps are read
from all come from one SVD per sample.

Probes evaluate the sequence statements about ascent/descent spectra.
On dense instances they check the stated hypotheses and the
kernel/range convergence conclusions (sub-lemmas) the proofs route
through.  The chain conditions of the proofs are vacuous there: by
Fitting's decomposition R(A^d) ∩ N(A) = {0} and R(A) + N(A^d) = X for
every d x d matrix A, so ascent/descent spectra are empty and the
witness labels the conditions instead of computing them.  Of the stated
hypotheses, closed range and attained distance hold in finite
dimension; only the reduced-minimum-modulus bound is evaluated.  On
tower sequences the spectra statements are tested literally over the
window classification.  Every verdict records which hypotheses were
evaluated and what the tail looked like.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Matrix, json_integer, json_object, matrix_from_obj, matrix_to_obj
from .gq import GaussianRational, format_scalar
from .numeric import (
    DEFAULT_TOL,
    Tolerance,
    array_from_obj,
    array_to_obj,
    delta,
    matrix_to_array,
    svd_views,
)
from .theorems import TheoremVerdict
from .tower import (
    DEFAULT_CONFIG,
    OperatorSpec,
    TowerConfig,
    spec_from_obj,
    window_profile,
)

# Most indices an n_range may sample.  Every sample is realized at once,
# as one matrix (in tower mode, one section per window size), so the cap
# bounds the work one sequence file can ask for; the largest n_range in
# the repository's inputs samples 50 indices.
MAX_SAMPLES = 1000

PROBE_IDS = (
    "lem1",
    "lem2",
    "lem3",
    "lem4",
    "T1",
    "ker_upper",
    "ker_lower",
    "rng_upper",
    "rng_lower",
)


@dataclass(frozen=True)
class Perturbation:
    """Decaying perturbation rule: T_n = T + n^(-exponent) * E.

    The direction E is an explicit matrix (exact or float), an operator
    spec for tower sequences, or a seeded random matrix with entries in
    [-1, 1] drawn once.
    """

    exponent: float
    direction: Matrix | OperatorSpec | np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise ValueError("exponent must be a finite positive number")
        if (self.direction is None) == (self.seed is None):
            raise ValueError("exactly one of direction or seed is required")

    def direction_array(self, dim: int) -> np.ndarray:
        if self.direction is not None:
            if isinstance(self.direction, Matrix):
                return matrix_to_array(self.direction)
            if isinstance(self.direction, np.ndarray):
                return self.direction
            raise ValueError("operator-spec perturbations need the tower path")
        rng = random.Random(f"perturbation:{self.seed}")
        return np.array(
            [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)]
        )

    def to_obj(self) -> dict:
        obj: dict = {"exponent": self.exponent}
        if self.seed is not None:
            obj["rule"] = "seeded-random-decaying"
            obj["seed"] = self.seed
        else:
            obj["rule"] = "scaled"
            if isinstance(self.direction, Matrix):
                obj["matrix"] = matrix_to_obj(self.direction)
            elif isinstance(self.direction, np.ndarray):
                obj["matrix"] = array_to_obj(self.direction)
            else:
                obj["operator"] = self.direction.to_obj()
        return obj


@dataclass(frozen=True)
class SequenceSpec:
    """Base operator plus perturbation rule plus sampled index range."""

    base: Matrix | OperatorSpec | np.ndarray
    perturbation: Perturbation
    n_range: tuple[int, int, int]

    def __post_init__(self):
        start, end, stride = self.n_range
        if start < 1 or end < start or stride < 1:
            raise ValueError("n_range must satisfy 1 <= start <= end, stride >= 1")
        count = len(range(start, end + 1, stride))
        if count > MAX_SAMPLES:
            raise ValueError(
                f"n_range samples {count} indices, more than the cap of {MAX_SAMPLES}"
            )

    def samples(self) -> list[int]:
        start, end, stride = self.n_range
        return list(range(start, end + 1, stride))

    @property
    def is_tower(self) -> bool:
        return isinstance(self.base, OperatorSpec)

    def to_obj(self) -> dict:
        if isinstance(self.base, Matrix):
            base = matrix_to_obj(self.base)
        elif isinstance(self.base, np.ndarray):
            base = array_to_obj(self.base)
        else:
            base = self.base.to_obj()
        return {
            "base": base,
            "perturbation": self.perturbation.to_obj(),
            "n_range": list(self.n_range),
        }


def sequence_from_obj(obj: dict) -> SequenceSpec:
    try:
        base_obj = obj["base"]
        pert = obj["perturbation"]
        n_range = tuple(json_integer(v, "n_range entry") for v in obj["n_range"])
        json_object(base_obj, "base")
        json_object(pert, "perturbation")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sequence spec: {exc}") from exc
    base: Matrix | OperatorSpec | np.ndarray
    if "variant" in base_obj:
        base = spec_from_obj(base_obj)
    else:
        base = _matrix_any_field(base_obj)
    exponent = pert.get("exponent", 1.0)
    if type(exponent) not in (int, float):  # bool is an int subclass
        raise ValueError(f"perturbation exponent must be a JSON number, got {exponent!r}")
    try:
        exponent = float(exponent)
    except OverflowError as exc:
        raise ValueError(f"perturbation exponent must be finite: {exc}") from exc
    rule = pert.get("rule", "scaled")
    if rule == "seeded-random-decaying":
        seed = json_integer(pert.get("seed"), "perturbation seed")
        perturbation = Perturbation(exponent=exponent, seed=seed)
    elif rule == "scaled":
        direction: Matrix | OperatorSpec | np.ndarray
        if "matrix" in pert:
            direction = _matrix_any_field(pert["matrix"])
        elif "operator" in pert:
            direction = spec_from_obj(pert["operator"])
        else:
            raise ValueError("scaled perturbation needs a matrix or operator")
        perturbation = Perturbation(exponent=exponent, direction=direction)
    else:
        raise ValueError(f"unknown perturbation rule {rule!r}")
    if len(n_range) != 3:
        raise ValueError("n_range must be [start, end, stride]")
    return SequenceSpec(base, perturbation, n_range)  # type: ignore[arg-type]


def _matrix_any_field(obj: dict):
    if json_object(obj, "matrix").get("field", "gq") == "f64":
        return array_from_obj(obj)
    return matrix_from_obj(obj)


@dataclass(frozen=True)
class TrajectorySample:
    n: int
    dku: float  # gap from N(T_n) into N(T): upper-convergence side
    dkl: float  # gap from N(T) into N(T_n): lower-convergence side
    dru: float
    drl: float
    gamma: float


@dataclass(frozen=True)
class GapTrajectory:
    samples: tuple[TrajectorySample, ...]
    base_rank: int
    ranks: tuple[int, ...]

    @property
    def rank_jumps(self) -> tuple[int, ...]:
        """Samples where the numerical rank differs from the limit rank.

        These are exactly the places lower-convergence of kernels can
        break."""
        return tuple(
            s.n for s, r in zip(self.samples, self.ranks) if r != self.base_rank
        )

    def column(self, name: str) -> list[float]:
        return [getattr(s, name) for s in self.samples]

    def tail(self, name: str, window: int) -> list[float]:
        return self.column(name)[-window:]

    def to_obj(self) -> dict:
        return {
            "samples": [
                {
                    "n": s.n,
                    "dku": s.dku,
                    "dkl": s.dkl,
                    "dru": s.dru,
                    "drl": s.drl,
                    "gamma": s.gamma,
                }
                for s in self.samples
            ],
            "base_rank": self.base_rank,
            "ranks": list(self.ranks),
            "rank_jumps": list(self.rank_jumps),
        }

    def to_csv(self) -> str:
        lines = ["n,dku,dkl,dru,drl,gamma"]
        for s in self.samples:
            cells = [str(s.n)] + [
                _csv_float(v) for v in (s.dku, s.dkl, s.dru, s.drl, s.gamma)
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _csv_float(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.12g}"


def _sample_matrices(spec: SequenceSpec) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Float realizations of the limit and the samples."""
    if spec.is_tower:
        raise ValueError("dense path requires a matrix base")
    base = (
        matrix_to_array(spec.base)
        if isinstance(spec.base, Matrix)
        else np.asarray(spec.base)
    )
    dim = base.shape[0]
    direction = spec.perturbation.direction_array(dim)
    if direction.shape != base.shape:
        raise ValueError("perturbation shape must match the base")
    exponent = spec.perturbation.exponent
    return base, [(n, base + float(n) ** (-exponent) * direction) for n in spec.samples()]


def trajectory(
    spec: SequenceSpec,
    tol: Tolerance = DEFAULT_TOL,
    cfg: TowerConfig = DEFAULT_CONFIG,
) -> GapTrajectory:
    """Gap and reduced-minimum-modulus trajectory of the sequence.

    Tower-based sequences are realized at the largest truncation of the
    window ``cfg``; the exact window semantics live in the probes.
    """
    if spec.is_tower:
        n_ref = cfg.window()[-1]
        base, tail = _tower_members(spec, (n_ref,))
        limit = matrix_to_array(base[n_ref])
        realized = [(n, matrix_to_array(sections[n_ref])) for n, sections in tail]
    else:
        limit, realized = _sample_matrices(spec)
    return _trajectory_from(limit, realized, tol)


def _trajectory_from(
    limit: np.ndarray, realized: list[tuple[int, np.ndarray]], tol: Tolerance
) -> GapTrajectory:
    base_rank, k_lim, r_lim, _ = svd_views(limit, tol)
    samples = []
    ranks = []
    for n, t_n in realized:
        rank, k_n, r_n, modulus = svd_views(t_n, tol)
        samples.append(
            TrajectorySample(
                n=n,
                dku=delta(k_n, k_lim),
                dkl=delta(k_lim, k_n),
                dru=delta(r_n, r_lim),
                drl=delta(r_lim, r_n),
                gamma=modulus,
            )
        )
        ranks.append(rank)
    return GapTrajectory(tuple(samples), base_rank, tuple(ranks))


# number of trailing samples that make up a tail
TAIL_WINDOW = 5

_COLUMNS = {
    ("upper", "kernel"): "dku",
    ("lower", "kernel"): "dkl",
    ("upper", "range"): "dru",
    ("lower", "range"): "drl",
}


def classify_convergence(
    traj: GapTrajectory, side: str, obj: str, tol: Tolerance = DEFAULT_TOL
) -> str:
    """converged / not-converged / inconclusive from the tail of one gap.

    Converged means the whole tail window sits below conv_tol;
    not-converged means it sits at or above 10 * conv_tol throughout.
    """
    key = (side, obj)
    if key not in _COLUMNS:
        raise ValueError("side must be upper/lower and object kernel/range")
    if len(traj.samples) < TAIL_WINDOW:
        raise ValueError(f"trajectory needs at least {TAIL_WINDOW} samples for a tail")
    tail = traj.tail(_COLUMNS[key], TAIL_WINDOW)
    if all(v < tol.conv_tol for v in tail):
        return "converged"
    if all(v >= 10 * tol.conv_tol for v in tail):
        return "not-converged"
    return "inconclusive"


def limsup_gamma(traj: GapTrajectory) -> float:
    """Empirical limsup surrogate: max of gamma over the tail window."""
    tail = traj.tail("gamma", TAIL_WINDOW)
    return max(tail) if tail else math.inf


# ---------------------------------------------------------------------------
# probes


_SUB_PROBES = ("ker_upper", "ker_lower", "rng_upper", "rng_lower")

# which convergence conclusions each proposition's proof routes through
_PROOF_SUBS = {
    "lem2": ("ker_lower", "rng_lower"),
    "lem1": ("ker_upper", "rng_upper"),
    "lem4": ("ker_lower", "rng_lower"),
    "lem3": ("ker_upper", "rng_upper"),
    "T1": _SUB_PROBES,
}

# hypothesis set each statement carries
_STATED_HYPS = {
    "lem2": ("closed_range", "dist_reached"),
    "lem1": ("gamma",),
    "lem4": ("gamma",),
    "lem3": ("closed_range", "dist_reached"),
    "T1": ("closed_range", "dist_reached"),
    "ker_upper": (),
    "ker_lower": ("closed_range", "dist_reached"),
    "rng_upper": ("gamma",),
    "rng_lower": (),
}

_SUB_SIDE_OBJECT = {
    "ker_upper": ("upper", "kernel"),
    "ker_lower": ("lower", "kernel"),
    "rng_upper": ("upper", "range"),
    "rng_lower": ("lower", "range"),
}


# the intersection and deficiency conditions of the proofs, which finite
# dimension decides for every sample and the limit alike
_CHAIN_CONDITIONS = (
    "met: R(A^d) ∩ N(A) = {0} and R(A) + N(A^d) = X for every d x d matrix A "
    "(Fitting decomposition), so neither chain condition can hold"
)


def _gamma_hypothesis(value: float, tol: Tolerance) -> str:
    if value > 10 * tol.conv_tol:
        return "met"
    if value < tol.conv_tol:
        return "unmet"
    return "ambiguous"


def probe(
    spec: SequenceSpec,
    proposition: str,
    lam,
    tol: Tolerance = DEFAULT_TOL,
    cfg: TowerConfig = DEFAULT_CONFIG,
    traj: GapTrajectory | None = None,
) -> TheoremVerdict:
    """Check one convergence statement on one sequence at one point.

    Dense instances are checked at the level of the proof machinery
    (the kernel/range convergence conclusions; the chain conditions are
    vacuous in finite dimension); tower instances are checked literally
    against window divergence.
    A conclusion that fails while its evaluated hypotheses hold yields
    fail with the counterexample trajectory in the witness.

    traj, if given, must be trajectory(spec, tol); dense probes reuse it
    instead of recomputing it.
    """
    if proposition not in PROBE_IDS:
        raise ValueError(f"unknown proposition id {proposition!r}")
    if spec.is_tower:
        verdict, witness, note = _probe_tower(spec, proposition, lam, cfg)
    else:
        verdict, witness, note = _probe_dense(spec, proposition, lam, tol, traj)
    instance = {
        "proposition": proposition,
        "sequence": spec.to_obj(),
        "lambda": witness["lambda"],
    }
    return TheoremVerdict(f"probe:{proposition}", verdict, witness, instance, note=note)


def _probe_dense(spec, proposition, lam, tol: Tolerance, traj):
    lam_gq = lam if isinstance(lam, GaussianRational) else None
    shift = lam_gq.to_complex() if lam_gq is not None else complex(lam)
    # one realization serves both views: the hypotheses are stated for
    # the unshifted sequence, the proofs apply the lemmas to the shifted
    # one, and at lambda = 0 the two coincide; a given traj already went
    # through the realization's checks, so it is realized only when used
    if traj is None or shift:
        limit, realized = _sample_matrices(spec)
    base = spec.base
    rows, cols = (base.rows, base.cols) if isinstance(base, Matrix) else np.shape(base)
    if rows != cols:
        raise ValueError(f"dense probes need a square base matrix, got {rows}x{cols}")
    if traj is None:
        traj = _trajectory_from(limit, realized, tol)
    if len(traj.samples) < TAIL_WINDOW:
        raise ValueError("sequence too short for the configured tail window")
    shifted = traj
    if shift:
        eye = np.eye(rows)
        limit = limit - shift * eye
        realized = [(n, t_n - shift * eye) for n, t_n in realized]
        shifted = _trajectory_from(limit, realized, tol)

    gamma_stated = limsup_gamma(traj)
    hyp_flags = {
        # in finite dimension every subspace is closed, and orthogonal
        # projection attains the distance to it
        "closed_range": "met",
        "dist_reached": "met",
        "gamma": _gamma_hypothesis(gamma_stated, tol),
    }

    sub_results = {}
    for sub in _SUB_PROBES:
        side, obj = _SUB_SIDE_OBJECT[sub]
        sub_hyps_met = all(hyp_flags[h] == "met" for h in _STATED_HYPS[sub])
        classification = classify_convergence(shifted, side, obj, tol)
        sub_results[sub] = {
            "hypotheses_met": sub_hyps_met,
            "classification": classification,
            "tail": shifted.tail(_COLUMNS[(side, obj)], TAIL_WINDOW),
        }

    witness: dict = {
        "mode": "dense-machinery",
        "lambda": format_scalar(lam_gq) if lam_gq is not None else repr(shift),
        "hypotheses": hyp_flags,
        "limsup_gamma": gamma_stated,
        "limsup_gamma_shifted": limsup_gamma(shifted),
        "sub_lemmas": sub_results,
        "chain_conditions": _CHAIN_CONDITIONS,
        "rank_jumps": list(shifted.rank_jumps),
    }

    if proposition in _SUB_PROBES:
        entry = sub_results[proposition]
        if not entry["hypotheses_met"]:
            return "inconclusive", witness, "hypothesis not met"
        if entry["classification"] == "converged":
            return "pass", witness, ""
        if entry["classification"] == "not-converged":
            return "fail", witness, f"{proposition}: conclusion fails with hypotheses met"
        return "inconclusive", witness, "tail in the gray zone"

    stated = _STATED_HYPS[proposition]
    if any(hyp_flags[h] != "met" for h in stated):
        return "inconclusive", witness, "stated hypotheses not met"

    failures = []
    pending = False
    for sub in _PROOF_SUBS[proposition]:
        entry = sub_results[sub]
        if not entry["hypotheses_met"]:
            continue
        if entry["classification"] == "not-converged":
            failures.append(f"{sub} conclusion fails on the tail")
        elif entry["classification"] == "inconclusive":
            pending = True

    witness["machinery_failures"] = failures
    if failures:
        return "fail", witness, "; ".join(failures)
    if pending:
        return "inconclusive", witness, "sub-lemma tail in the gray zone"
    return "pass", witness, ""


# Sections of the base and of each sampled member (n, T_n), by size.
TowerMembers = tuple[dict[int, Matrix], list[tuple[int, dict[int, Matrix]]]]


def _tower_members(spec: SequenceSpec, sizes: tuple[int, ...]) -> TowerMembers:
    """Exact sections of the base and of every sampled member T_n = T + n^(-k) E.

    T and E are realized once per size, and each member's section is
    T_N + n^(-k) E_N.
    """
    base = {size: spec.base.realize(size) for size in sizes}
    pert = spec.perturbation
    if not isinstance(pert.direction, OperatorSpec):
        raise ValueError("tower sequences need an operator-spec perturbation")
    if pert.exponent != int(pert.exponent):
        raise ValueError("tower sequences need an integer exponent to stay exact")
    k = int(pert.exponent)
    direction = {size: pert.direction.realize(size) for size in sizes}
    return base, [
        (n, {size: base[size] + e.scale(Fraction(1, n**k)) for size, e in direction.items()})
        for n in spec.samples()
    ]


def _probe_tower(spec, proposition, lam, cfg: TowerConfig):
    if not isinstance(lam, GaussianRational):
        raise ValueError("tower probes need an exact Gaussian-rational point")
    if proposition in _SUB_PROBES:
        raise ValueError("sub-lemma probes apply to dense sequences only")
    quantities = ("asc", "dsc") if proposition == "T1" else (
        ("asc",) if proposition in ("lem1", "lem2") else ("dsc",)
    )
    # one profile per sequence member, read for each quantity
    base_sections, member_sections = _tower_members(spec, cfg.window())
    limit = window_profile(base_sections, lam)
    tail = [window_profile(sections, lam) for _, sections in member_sections]
    results: dict = {}
    failures = []
    inconclusive = False
    for quantity in quantities:
        limit_kind = limit[quantity].kind
        tail_kinds = [profile[quantity].kind for profile in tail]
        results[quantity] = {"limit": limit_kind, "tail": tail_kinds}
        if limit_kind == "inconclusive" or "inconclusive" in tail_kinds:
            inconclusive = True
            continue
        limit_in = limit_kind == "divergent"
        tail_in = [k == "divergent" for k in tail_kinds]
        if proposition in ("lem2", "lem4") or proposition == "T1":
            if limit_in and not all(tail_in):
                failures.append(f"{quantity}: divergence not preserved along the tail")
        if proposition in ("lem1", "lem3") or proposition == "T1":
            if all(tail_in) and not limit_in:
                failures.append(f"{quantity}: tail divergence not inherited by the limit")
    witness = {
        "mode": "tower-literal",
        "lambda": format_scalar(lam),
        "window": list(cfg.window()),
        "classifications": results,
        "failures": failures,
    }
    if failures:
        return "fail", witness, "; ".join(failures)
    if inconclusive:
        return "inconclusive", witness, "window classification inconclusive"
    return "pass", witness, ""
