"""The per-layer tracer of ascbench reads program names by attribute.

``ascbench/layers.py`` wraps and profiles functions such as
``theorems.check_H1``, ``theorems.check_H2`` and
``convergence._trajectory_from``; renaming or deleting one of them breaks
every traced benchmark run.  Running one empty traced round here reads
every such name.
"""

import importlib
import sys
from pathlib import Path

ASCBENCH = Path(__file__).resolve().parents[1] / "ascbench"


def test_tracer_reads_every_program_name_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(ASCBENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    try:
        layers = importlib.import_module("layers")
        tracer = layers.Tracer()
        tracer.start_round()
        rt = tracer.end_round()
        metrics = tracer.metrics(rt)
    finally:
        sys.modules.pop("layers", None)
    assert set(metrics) <= {name for name, _, _ in layers.PER_LAYER}
