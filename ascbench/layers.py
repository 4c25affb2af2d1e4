"""Per-layer metrics from a traced round.

Each operation of a traced round runs under its own ``cProfile``
profile; the stats are merged over the round and grouped by the
``ascdesc`` module a function's code lives in, with ``numpy.linalg`` and
``sympy`` as groups of their own.  Self time is cProfile's ``tottime``
(a function's time minus its callees').  Counts that need a calling
context (rref calls under ``chain_report``, SVDs per trajectory sample,
section sizes) come from thin wrappers this module installs around the
program's functions for the traced round only and removes afterwards.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODULES = ("gq", "exact", "chains", "tower", "spectra", "theorems", "numeric",
           "convergence", "reporting", "cli")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("gq.self_s", "s", "lower"),
    ("gq.arith_calls", "count", "lower"),
    ("gq.objects", "count", "lower"),
    ("exact.self_s", "s", "lower"),
    ("exact.rref_calls", "count", "lower"),
    ("exact.rref_s", "s", "lower"),
    ("exact.matmul_calls", "count", "lower"),
    ("exact.matmul_s", "s", "lower"),
    ("exact.subspace_inits", "count", "lower"),
    ("exact.cache_hit_ratio", "ratio", "higher"),
    ("chains.self_s", "s", "lower"),
    ("chains.chain_report_calls", "count", "lower"),
    ("chains.chain_report_s", "s", "lower"),
    ("chains.rref_per_chain_report", "ratio", "lower"),
    ("tower.self_s", "s", "lower"),
    ("tower.realize_calls", "count", "lower"),
    ("tower.realize_s", "s", "lower"),
    ("tower.section_entries", "count", "lower"),
    ("spectra.self_s", "s", "lower"),
    ("spectra.eigen_calls", "count", "lower"),
    ("spectra.eigen_s", "s", "lower"),
    ("spectra.char_poly_s", "s", "lower"),
    ("spectra.sympy_s", "s", "lower"),
    ("spectra.eigen_cache_hit_ratio", "ratio", "higher"),
    ("theorems.self_s", "s", "lower"),
    ("theorems.verify_calls", "count", "lower"),
    ("theorems.instance_s", "s", "lower"),
    ("theorems.hypotheses_s", "s", "lower"),
    ("numeric.self_s", "s", "lower"),
    ("numeric.svd_calls", "count", "lower"),
    ("numeric.svd_s", "s", "lower"),
    ("numeric.delta_calls", "count", "lower"),
    ("convergence.self_s", "s", "lower"),
    ("convergence.samples", "count", "lower"),
    ("convergence.svd_per_sample", "ratio", "lower"),
    ("convergence.trajectory_calls", "count", "lower"),
    ("convergence.trajectory_s", "s", "lower"),
    ("convergence.probe_s", "s", "lower"),
    ("convergence.matrix_power_calls", "count", "lower"),
    ("reporting.self_s", "s", "lower"),
    ("reporting.dumps_s", "s", "lower"),
    ("reporting.report_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.parse_scalar_calls", "count", "lower"),
    ("numpy_linalg.self_s", "s", "lower"),
    ("sympy.self_s", "s", "lower"),
    ("setup.import_numpy_s", "s", "lower"),
    ("setup.import_sympy_s", "s", "lower"),
    ("caches.entries", "count", "lower"),
    ("caches.peak_entries", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _group(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    for mod in MODULES:
        if path.endswith(f"/ascdesc/{mod}.py"):
            return mod
    if "/numpy/linalg/" in path:
        return "numpy_linalg"
    if "/sympy/" in path:
        return "sympy"
    return None


def _key(func) -> tuple:
    code = getattr(func, "__wrapped__", func).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@dataclass
class Counters:
    rref: int = 0
    rref_in_chain: int = 0
    chain_depth: int = 0
    svd: int = 0
    svd_in_trajectory: int = 0
    samples: int = 0
    realize_depth: int = 0
    section_entries: int = 0


@dataclass
class RoundTrace:
    """Merged profile plus wrapper counters of one traced round."""

    stats: dict = field(default_factory=dict)  # key -> [ncalls, tottime, cumtime]
    counters: Counters = field(default_factory=Counters)
    report_bytes: int = 0
    cache_entries: list = field(default_factory=list)
    cache_lookups: dict = field(default_factory=dict)  # module -> [hits, misses]
    sympy_from_spectra: float = 0.0  # cumulative time of sympy calls made by spectra.py

    def add_profile(self, prof: cProfile.Profile) -> None:
        for key, (_, nc, tt, ct, callers) in pstats.Stats(prof).stats.items():
            acc = self.stats.setdefault(key, [0, 0.0, 0.0])
            acc[0] += nc
            acc[1] += tt
            acc[2] += ct
            if _group(key[0]) == "sympy":
                self.sympy_from_spectra += sum(
                    sub[3] for caller, sub in callers.items() if _group(caller[0]) == "spectra"
                )

    def add_caches(self, infos: list[tuple[str, object]]) -> None:
        self.cache_entries.append(sum(info.currsize for _, info in infos))
        for module, info in infos:
            acc = self.cache_lookups.setdefault(module, [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses


class Tracer:
    """Installs the counting wrappers for one traced round at a time."""

    def __init__(self):
        import ascdesc.cli  # noqa: F401  (loads every module in MODULES)

        self.mods = {name: sys.modules[f"ascdesc.{name}"] for name in MODULES}
        self.round: RoundTrace | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in self.mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def install(self) -> None:
        c = self.round.counters
        exact_rref = self.mods["exact"].rref
        chain_report = self.mods["chains"].chain_report
        svd = np.linalg.svd
        convergence, tower = self.mods["convergence"], self.mods["tower"]
        traj = convergence._trajectory_from
        realize = tower.OperatorSpec.realize

        def rref(a):
            c.rref += 1
            if c.chain_depth:
                c.rref_in_chain += 1
            return exact_rref(a)

        def chain(t):
            c.chain_depth += 1
            try:
                return chain_report(t)
            finally:
                c.chain_depth -= 1

        def counted_svd(*args, **kwargs):
            c.svd += 1
            return svd(*args, **kwargs)

        def trajectory_from(limit, realized, tol):
            c.samples += len(realized)
            before = c.svd
            try:
                return traj(limit, realized, tol)
            finally:
                c.svd_in_trajectory += c.svd - before

        def realize_section(spec, n):
            if not c.realize_depth:
                c.section_entries += n * n
            c.realize_depth += 1
            try:
                return realize(spec, n)
            finally:
                c.realize_depth -= 1

        self._patch_everywhere(exact_rref, rref)
        self._patch_everywhere(chain_report, chain)
        self._patch(np.linalg, "svd", counted_svd)
        self._patch(convergence, "_trajectory_from", trajectory_from)
        self._patch(tower.OperatorSpec, "realize", realize_section)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def start_round(self) -> None:
        self.round = RoundTrace()
        self.install()

    def end_round(self) -> RoundTrace:
        self.uninstall()
        done, self.round = self.round, None
        return done

    def run(self, fn):
        """Call fn() under a fresh profile merged into the current round."""
        prof = cProfile.Profile(timer=time.perf_counter)
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
            self.round.add_profile(prof)

    # -- metrics ------------------------------------------------------------
    @staticmethod
    def top_functions(rt: RoundTrace, count: int) -> list[dict]:
        """The functions with the most self time in one traced round."""
        rows = sorted(rt.stats.items(), key=lambda kv: -kv[1][1])[:count]
        return [{"function": f"{Path(f).name}:{line}:{name}", "calls": nc,
                 "self_s": tt, "cum_s": ct} for (f, line, name), (nc, tt, ct) in rows]

    def metrics(self, rt: RoundTrace) -> dict[str, float]:
        m = self.mods
        st = rt.stats
        c = rt.counters

        def calls(*funcs) -> int:
            return sum(st.get(_key(f), (0, 0.0, 0.0))[0] for f in funcs)

        def cum(*funcs) -> float:
            return sum(st.get(_key(f), (0, 0.0, 0.0))[2] for f in funcs)

        self_s: dict[str, float] = {}
        for key, (_, tt, _) in st.items():
            group = _group(key[0])
            if group:
                self_s[group] = self_s.get(group, 0.0) + tt

        def ratio(module: str) -> float:
            hits, misses = rt.cache_lookups.get(module, (0, 0))
            return hits / (hits + misses) if hits + misses else 0.0

        gq = m["gq"].GaussianRational
        exact, chains, tower = m["exact"], m["chains"], m["tower"]
        spectra, theorems, numeric = m["spectra"], m["theorems"], m["numeric"]
        conv, reporting, cli = m["convergence"], m["reporting"], m["cli"]
        chain_calls = calls(chains.chain_report)
        return {
            "gq.self_s": self_s.get("gq", 0.0),
            "gq.arith_calls": calls(gq.__add__, gq.__sub__, gq.__rsub__, gq.__mul__,
                                    gq.__truediv__, gq.__rtruediv__, gq.__neg__),
            "gq.objects": calls(gq.__init__),
            "exact.self_s": self_s.get("exact", 0.0),
            "exact.rref_calls": c.rref,
            "exact.rref_s": cum(exact.rref),
            "exact.matmul_calls": calls(exact.Matrix.__matmul__),
            "exact.matmul_s": cum(exact.Matrix.__matmul__),
            "exact.subspace_inits": calls(exact.Subspace.__init__),
            "exact.cache_hit_ratio": ratio("ascdesc.exact"),
            "chains.self_s": self_s.get("chains", 0.0),
            "chains.chain_report_calls": chain_calls,
            "chains.chain_report_s": cum(chains.chain_report),
            "chains.rref_per_chain_report": c.rref_in_chain / chain_calls if chain_calls else 0.0,
            "tower.self_s": self_s.get("tower", 0.0),
            "tower.realize_calls": calls(tower.OperatorSpec.realize),
            "tower.realize_s": cum(tower.OperatorSpec.realize),
            "tower.section_entries": c.section_entries,
            "spectra.self_s": self_s.get("spectra", 0.0),
            "spectra.eigen_calls": calls(spectra.eigenvalue_multiplicities),
            "spectra.eigen_s": cum(spectra.eigenvalue_multiplicities),
            "spectra.char_poly_s": cum(exact.char_poly),
            "spectra.sympy_s": rt.sympy_from_spectra,
            "spectra.eigen_cache_hit_ratio": ratio("ascdesc.spectra"),
            "theorems.self_s": self_s.get("theorems", 0.0),
            "theorems.verify_calls": calls(theorems.verify),
            "theorems.instance_s": cum(theorems.instance_for),
            "theorems.hypotheses_s": cum(theorems.check_H1, theorems.check_H2),
            "numeric.self_s": self_s.get("numeric", 0.0),
            "numeric.svd_calls": c.svd,
            "numeric.svd_s": cum(np.linalg.svd),
            "numeric.delta_calls": calls(numeric.delta),
            "convergence.self_s": self_s.get("convergence", 0.0),
            "convergence.samples": c.samples,
            "convergence.svd_per_sample": c.svd_in_trajectory / c.samples if c.samples else 0.0,
            "convergence.trajectory_calls": calls(conv._trajectory_from),
            "convergence.trajectory_s": cum(conv._trajectory_from),
            "convergence.probe_s": cum(conv.probe),
            "convergence.matrix_power_calls": calls(np.linalg.matrix_power),
            "reporting.self_s": self_s.get("reporting", 0.0),
            "reporting.dumps_s": cum(reporting.dumps),
            "reporting.report_bytes": rt.report_bytes,
            "cli.self_s": self_s.get("cli", 0.0),
            "cli.load_s": cum(cli._load_json),
            "cli.parse_scalar_calls": calls(m["gq"].parse_scalar),
            "numpy_linalg.self_s": self_s.get("numpy_linalg", 0.0),
            "sympy.self_s": self_s.get("sympy", 0.0),
            "caches.entries": sum(rt.cache_entries),
            "caches.peak_entries": max(rt.cache_entries, default=0),
        }
