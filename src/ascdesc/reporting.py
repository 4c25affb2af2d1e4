"""Canonical report formatting: stable key order, pinned float digits.

Reports are consumed by tests and diffed byte-for-byte, so every value
type has one serialization: floats are rounded to 12 significant
digits, infinities become the string "inf", exact scalars use their
text grammar, and keys are emitted sorted.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .gq import GaussianRational, format_scalar


def normalize(obj):
    """Recursively convert a report tree to JSON-stable primitives."""
    if isinstance(obj, dict):
        return {str(k): normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, GaussianRational):
        return format_scalar(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.12g}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "to_obj"):
        return normalize(obj.to_obj())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    return json.dumps(normalize(obj), sort_keys=True, indent=2) + "\n"


def envelope(command: list[str], report, seed: int | None = None) -> dict:
    from . import __version__

    obj = {
        "tool": "ascdesc",
        "version": __version__,
        "command": list(command),
        "report": report,
    }
    if seed is not None:
        obj["seed"] = seed
    return obj
