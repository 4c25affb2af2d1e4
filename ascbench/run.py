#!/usr/bin/env python3
"""Checked, layer-by-layer benchmark of the ascdesc CLI.

    python3 ascbench/run.py --workload dense-check --seed 0 --seconds 20 --trace 0
    python3 ascbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run from the repository root.  The program is imported from ``src/`` of
the checkout the script sits in; each operation is one in-process call
of ``ascdesc.cli.main(argv)`` on inputs generated from ``--seed``, with
the ``functools`` caches of every ``ascdesc`` module recorded and cleared
before it, as a fresh CLI process would start.  Whole rounds of the
workload's fixed operation list repeat until the next round would not fit
in ``--seconds``.  Outputs are checked after the timed section against
independent computations (``oracle.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate cProfile-traced round with ``--trace 1``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread on every run (never above nproc)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ASCDESC_THREADS", None)

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from layers import PER_LAYER, Tracer
from workloads import make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".ascbench-work"
RUN_SECONDS = 30
SETUP_REPEATS = 5
MIN_ROUNDS = 3

WORKLOAD_WHY = {
    "dense-check": "analyze, dense spectrum and verify on small exact matrices: many tiny "
                   "eliminations plus sympy factoring, the paper-checking path",
    "tower-spectra": "spectrum --tower on shift-like specs: few large sparse sections with "
                     "growing fractions through the exact core, no sympy",
    "float-lab": "converge (JSON, CSV, probes) and gap on f64 inputs of dimension 50-200: "
                 "numpy SVD only, no exact elimination, no sympy",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def write_manifest() -> None:
    manifest = {
        "command": ["python3", "ascbench/run.py"],
        "paths": ["ascbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# set-up cost: fresh interpreters importing the CLI


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ASCDESC_THREADS", None)
    return env


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)


def setup_seconds(repeats: int) -> list[float]:
    """Import time of ascdesc.cli in fresh interpreters (after one warm-up)."""
    code = ("import time; t = time.perf_counter(); import ascdesc.cli; "
            "print(time.perf_counter() - t)")
    _child(["-c", code])  # compiles bytecode into the checkout once
    return [float(_child(["-c", code]).stdout) for _ in range(repeats)]


def import_layers(repeats: int) -> dict[str, float]:
    """Cumulative import time of numpy and sympy under -X importtime."""
    found: dict[str, list[float]] = {"numpy": [], "sympy": []}
    for _ in range(repeats):
        err = _child(["-X", "importtime", "-c", "import ascdesc.cli"]).stderr
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {f"setup.import_{k}_s": statistics.median(v) for k, v in found.items()}


# ---------------------------------------------------------------------------
# operations


def find_caches() -> list[tuple[str, object]]:
    seen, out = set(), []
    for name, mod in list(sys.modules.items()):
        if name == "ascdesc" or name.startswith("ascdesc."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_info", None)) and id(value) not in seen:
                    seen.add(id(value))
                    out.append((value.__module__, value))
    return out


def clear_caches(caches) -> list[tuple[str, object]]:
    """Record each cache's cache_info(), then empty it (and sympy's cache)."""
    infos = [(module, fn.cache_info()) for module, fn in caches]
    for _, fn in caches:
        fn.cache_clear()
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()
    return infos


class Outcome:
    __slots__ = ("seconds", "code", "out", "error")

    def __init__(self, seconds, code, out, error):
        self.seconds, self.code, self.out, self.error = seconds, code, out, error


def run_op(cli_main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        error = err.getvalue().strip() or None
    except Exception as exc:  # a raising CLI call is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - t0, code, out.getvalue(), error)


def run_round(ops, cli_main, caches, texts, tracer=None) -> list[Outcome]:
    """One pass over ops.  ``texts[i]`` keeps each distinct output of op i
    once, so that the outputs kept for the checks do not grow with the
    number of rounds (and so with the program's speed) in peak_rss_mb."""
    outcomes = []
    clear_caches(caches)
    for op, seen in zip(ops, texts):
        if tracer is None:
            res = run_op(cli_main, op.argv)
        else:
            res = tracer.run(lambda: run_op(cli_main, op.argv))
            tracer.round.report_bytes += len(res.out.encode())
        res.out = seen.setdefault(res.out, res.out)
        infos = clear_caches(caches)
        if tracer is not None:
            tracer.round.add_caches(infos)
        outcomes.append(res)
    return outcomes


# ---------------------------------------------------------------------------
# checks


def check_output(op, text: str) -> list[str]:
    if op.kind == "trajectory-csv":
        return oracle.check_trajectory_csv(text, op.data)
    report = json.loads(text)
    d = op.data
    if op.kind == "analyze":
        return oracle.check_analyze(report, d["matrix"])
    if op.kind == "spectrum":
        return oracle.check_spectrum(report, d["matrix"], d["eigen"])
    if op.kind == "verify":
        seed = int(op.argv[op.argv.index("--seed") + 1])
        return oracle.check_verify(report, op.argv[op.argv.index("--theorem") + 1], seed,
                                   d["trials"])
    if op.kind == "tower":
        return oracle.check_tower(report, d["spec"], d["candidates"], d["window"])
    if op.kind == "trajectory":
        return oracle.check_trajectory(report, d)
    if op.kind == "probe":
        return oracle.check_probe(report, d)
    if op.kind == "gap":
        return oracle.check_gap(report, d)
    raise ValueError(f"no checker for {op.kind}")


def check_all(ops, rounds) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, exit problems, wrong outputs); each distinct output is checked once."""
    attempted = failed = 0
    bad_exit: list[str] = []
    wrong: list[str] = []
    for idx, op in enumerate(ops):
        verdicts: dict[str, list[str]] = {}
        for outcomes in rounds:
            res = outcomes[idx]
            attempted += 1
            if res.code != op.expect_exit:
                failed += 1
                bad_exit.append(f"{op.name}: exit {res.code} (want {op.expect_exit}): {res.error}")
                continue
            if res.out not in verdicts:
                try:
                    verdicts[res.out] = check_output(op, res.out)
                except Exception as exc:  # a wrongly shaped output is a failed operation
                    verdicts[res.out] = [f"unreadable output: {type(exc).__name__}: {exc}"]
                if len(verdicts) > 1:
                    verdicts[res.out].append("output differs between rounds")
            if verdicts[res.out]:
                failed += 1
                wrong.extend(f"{op.name}: {p}" for p in verdicts[res.out][:5])
    return attempted, failed, bad_exit, wrong


# ---------------------------------------------------------------------------
# measurement and result


def wall(rounds) -> float:
    """Mean time of one round, i.e. of the whole operation list.

    The machine's speed drifts over seconds; the mean over every round of
    the run averages that drift over the whole measured time.
    """
    return statistics.fmean(sum(res.seconds for res in r) for r in rounds)


def measure(ops, cli_main, seconds: float, tracer=None):
    """Untraced rounds (alternating with traced ones when tracing) until time is up.

    Untraced runs make at least MIN_ROUNDS rounds, so that every output is
    seen more than once; traced runs make at least one round of each kind.
    """
    caches = find_caches()
    texts = [{} for _ in ops]
    plain, traced, traces = [], [], []
    durations = {False: [], True: []}
    start = time.perf_counter()
    want_traced = False
    while True:
        is_traced = tracer is not None and want_traced
        t0 = time.perf_counter()
        if is_traced:
            tracer.start_round()
            try:
                traced.append(run_round(ops, cli_main, caches, texts, tracer))
            finally:
                traces.append(tracer.end_round())
        else:
            plain.append(run_round(ops, cli_main, caches, texts))
        durations[is_traced].append(time.perf_counter() - t0)
        if tracer is not None:
            want_traced = not is_traced
        nxt = durations[want_traced] or durations[is_traced]
        elapsed = time.perf_counter() - start
        complete = bool(traced) if tracer is not None else len(plain) >= MIN_ROUNDS
        if complete and elapsed + statistics.median(nxt) > seconds:
            return plain, traced, traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "ascdesc" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'ascdesc'} is missing", file=sys.stderr)
        return 2

    setup = setup_seconds(SETUP_REPEATS) if not args.trace else []
    layer_setup = import_layers(3) if args.trace else {}

    sys.path.insert(0, str(SRC))
    import ascdesc.cli

    if Path(ascdesc.cli.__file__).resolve().parent != (SRC / "ascdesc").resolve():
        print(f"error: imported ascdesc from {ascdesc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed, WORK / f"{args.workload}-{args.seed}")
    tracer = Tracer() if args.trace else None

    plain, traced, traces = measure(ops, ascdesc.cli.main, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    attempted, failed, bad_exit, wrong = check_all(ops, plain + traced)
    t_check = time.perf_counter() - t_check
    correct = not wrong  # every operation that ran to its exit code gave a correct output
    for line in (bad_exit + wrong)[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    times = [res.seconds for r in plain for res in r]
    if args.trace:
        per_round = [tracer.metrics(rt) for rt in traces]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values.update(layer_setup)
        values["trace.wall_s"] = wall(traced)
        values["trace.overhead_s"] = wall(traced) - wall(plain)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall(plain),
            "op_p50_ms": statistics.median(times) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops x {len(plain)} rounds ({len(traced)} traced), "
          f"{attempted} attempted, {failed} failed; checks took {t_check:.1f} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps({
        **result,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops": [{"name": op.name, "seconds": [r[i].seconds for r in plain]}
                for i, op in enumerate(ops)],
    }, indent=1))
    if traces:
        (WORK / f"trace-{tag}.json").write_text(json.dumps(
            {"top_self_s": tracer.top_functions(traces[0], 40)}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
