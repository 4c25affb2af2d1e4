"""Command-line front end.

Verbs: analyze (chain report of an exact matrix), spectrum (profiles
and ascent/descent spectra, dense or tower), verify (seeded theorem
batches), converge (gap trajectories and convergence probes), gap
(one- and two-sided subspace gaps).

Exit codes: 0 success, 2 parse or validation error, 3 at least one
fail verdict, 4 an all-inconclusive batch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .convergence import PROBE_IDS, probe, sequence_from_obj, trajectory
from .exact import json_object, matrix_from_obj
from .gq import GaussianRational, parse_scalar
from .numeric import (
    FloatSubspace,
    Tolerance,
    array_from_obj,
    delta,
    gap as gap_fn,
    orthonormalize_rows,
    subspace_to_float,
)
from .reporting import dumps, envelope
from .spectra import ascent_spectrum
from .tower import TowerConfig, spec_from_obj, tower_spectrum
from .theorems import THEOREM_IDS, batch_summary, run_batch
from .chains import chain_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascdesc",
        description="ascent/descent invariants, gap metrics, and theorem checks",
    )
    parser.add_argument("--version", action="version", version=f"ascdesc {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="chain report of an exact matrix")
    p.add_argument("matrix", help="matrix JSON file (field 'gq')")
    _common_output(p)

    p = sub.add_parser("spectrum", help="eigen profiles and spectra")
    p.add_argument("input", help="matrix JSON, or operator spec JSON with --tower")
    p.add_argument("--tower", action="store_true", help="treat input as a truncation-tower spec")
    p.add_argument("--candidates", help="comma-separated exact scalars, e.g. \"0,1,1/2+1/2i\"")
    p.add_argument("--window", help="truncation window N0,step,count")
    _common_output(p)

    p = sub.add_parser("verify", help="seeded theorem verification batch")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    _common_output(p)

    p = sub.add_parser("converge", help="gap trajectory and convergence probes")
    p.add_argument("sequence", help="sequence spec JSON file")
    p.add_argument("--probe", choices=PROBE_IDS)
    p.add_argument("--lambda", dest="lam", default="0", help="point to probe at")
    p.add_argument("--tol-rank", type=float)
    p.add_argument("--tol-conv", type=float)
    p.add_argument("--window", help="truncation window for tower sequences")
    _common_output(p)

    p = sub.add_parser("gap", help="one- and two-sided gaps between subspaces")
    p.add_argument("y", help="subspace file: matrix JSON whose rows span Y")
    p.add_argument("z", help="subspace file: matrix JSON whose rows span Z")
    p.add_argument("--tol-rank", type=float)
    _common_output(p)
    return parser


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _parse_window(text: str | None) -> TowerConfig:
    if text is None:
        return TowerConfig()
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--window expects N0,step,count")
    n0, step, count = (int(v) for v in parts)
    return TowerConfig(n0=n0, step=step, count=count)


def _parse_candidates(text: str | None) -> list[GaussianRational]:
    if not text:
        raise ValueError("--candidates is required in tower mode")
    return [parse_scalar(part) for part in text.split(",") if part.strip()]


def _tolerance(args) -> Tolerance:
    kwargs = {}
    if getattr(args, "tol_rank", None) is not None:
        kwargs["rank_rel"] = args.tol_rank
    if getattr(args, "tol_conv", None) is not None:
        kwargs["conv_tol"] = args.tol_conv
    return Tolerance(**kwargs)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _subspace_from_file(path: str, tol: Tolerance) -> FloatSubspace:
    obj = json_object(_load_json(path), "subspace file")
    field = obj.get("field", "gq")
    if field == "gq":
        from .exact import Subspace

        matrix = matrix_from_obj(obj)
        span = Subspace.from_spanning_rows(
            matrix.cols, [matrix.row(i) for i in range(matrix.rows)]
        )
        return subspace_to_float(span)
    if field == "f64":
        rows = array_from_obj(obj)
        return orthonormalize_rows(rows, rows.shape[1], tol)
    raise ValueError(f"unsupported field {field!r} for a subspace file")


def _echo(argv: list[str]) -> list[str]:
    return ["ascdesc"] + argv


def _cmd_analyze(args, argv) -> int:
    matrix = matrix_from_obj(_load_json(args.matrix))
    if not matrix.is_square:
        raise ValueError("analyze requires a square matrix")
    if args.format != "json":
        raise ValueError("analyze reports are JSON only")
    report = chain_report(matrix).to_obj()
    _emit(args, dumps(envelope(_echo(argv), report)))
    return EXIT_OK


def _cmd_spectrum(args, argv) -> int:
    if args.format != "json":
        raise ValueError("spectrum reports are JSON only")
    if args.tower:
        spec = spec_from_obj(_load_json(args.input))
        cfg = _parse_window(args.window)
        candidates = _parse_candidates(args.candidates)
        asc_report = tower_spectrum(spec, candidates, "asc", cfg)
        points = []
        sigma_dsc = []
        for entry in asc_report.entries:
            obj = entry.to_obj()
            obj["in_sigma_asc"] = obj.pop("in_spectrum")
            dsc_verdict = entry.verdict("dsc")
            obj["in_sigma_dsc"] = dsc_verdict.kind == "divergent"
            if obj["in_sigma_dsc"]:
                sigma_dsc.append(obj["lambda"])
            points.append(obj)
        report = {
            "mode": "tower",
            "window": list(cfg.window()),
            "points": points,
            "sigma_asc": [str(v) for v in asc_report.to_obj()["sigma"]],
            "sigma_dsc": sigma_dsc,
        }
    else:
        matrix = matrix_from_obj(_load_json(args.input))
        profile = ascent_spectrum(matrix)
        report = profile.to_obj()
        report["mode"] = "dense"
        if args.candidates:
            extra = []
            from .spectra import point_profile

            for lam in _parse_candidates(args.candidates):
                asc, dsc, alpha, beta = point_profile(matrix, lam)
                extra.append(
                    {
                        "lambda": str(lam),
                        "asc": asc,
                        "dsc": dsc,
                        "alpha": alpha,
                        "beta": beta,
                    }
                )
            report["candidate_profiles"] = extra
    _emit(args, dumps(envelope(_echo(argv), report)))
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    if args.format != "json":
        raise ValueError("verify reports are JSON only")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    verdicts = run_batch(args.theorem, args.seed, args.trials)
    summary = batch_summary(verdicts)
    report = {
        "theorem": args.theorem,
        "trials": args.trials,
        "summary": summary,
        "verdicts": [v.to_obj() for v in verdicts],
    }
    _emit(args, dumps(envelope(_echo(argv), report, seed=args.seed)))
    if summary["fail"]:
        return EXIT_FAIL
    if summary["inconclusive"] == len(verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_converge(args, argv) -> int:
    spec = sequence_from_obj(_load_json(args.sequence))
    tol = _tolerance(args)
    cfg = _parse_window(args.window)
    traj = trajectory(spec, tol)
    if args.format == "csv":
        if args.probe:
            raise ValueError("csv output covers the trajectory only; drop --probe")
        _emit(args, traj.to_csv())
        return EXIT_OK
    report: dict = {"trajectory": traj.to_obj()}
    code = EXIT_OK
    if args.probe:
        lam = _parse_lambda(args.lam)
        verdict = probe(spec, args.probe, lam, tol=tol, cfg=cfg, traj=traj)
        report["probe"] = verdict.to_obj()
        if verdict.verdict == "fail":
            code = EXIT_FAIL
        elif verdict.verdict == "inconclusive":
            code = EXIT_INCONCLUSIVE
    _emit(args, dumps(envelope(_echo(argv), report)))
    return code


def _parse_lambda(text: str):
    try:
        return parse_scalar(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError as exc:
            raise ValueError(f"cannot parse --lambda value {text!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"--lambda must be finite, got {text!r}")
    return value


def _cmd_gap(args, argv) -> int:
    if args.format != "json":
        raise ValueError("gap reports are JSON only")
    tol = _tolerance(args)
    y = _subspace_from_file(args.y, tol)
    z = _subspace_from_file(args.z, tol)
    report = {
        "dim_Y": y.dim,
        "dim_Z": z.dim,
        "ambient_dim": y.ambient_dim,
        "delta_YZ": delta(y, z),
        "delta_ZY": delta(z, y),
        "gap": gap_fn(y, z),
    }
    _emit(args, dumps(envelope(_echo(argv), report)))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "gap": _cmd_gap,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep its code
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args, argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
