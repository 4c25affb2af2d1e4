"""Canonical report formatting: stable key order, pinned float digits.

Reports are consumed by tests and diffed byte-for-byte, so every value
type has one serialization: floats are rounded to 12 significant
digits, infinities become the string "inf", exact scalars use their
text grammar, and keys are emitted sorted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .gq import GaussianRational, format_scalar


# Report values that normalize maps to one JSON primitive each.
_SCALARS = (bool, type(None), GaussianRational, Fraction, float, int, str)


def normalize(obj):
    """Recursively convert a report tree to JSON-stable primitives."""
    if isinstance(obj, dict):
        return {str(k): normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, _SCALARS):
        return _primitive(obj)
    if hasattr(obj, "to_obj"):
        return normalize(obj.to_obj())
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _primitive(obj):
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
    return obj  # bool, None, int or str


def dumps(obj) -> str:
    """The report text: `json.dumps(normalize(obj), sort_keys=True, indent=2)`
    plus a newline, written in one pass without the normalized copy."""
    parts: list[str] = []
    _write(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(obj, newline: str, parts: list[str]) -> None:
    """Append the text of `obj` at the indent that `newline` ends with."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # Keys collide after str() as in normalize: the later value wins.
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            parts.append(sep + _quote(key) + ": ")
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) == {float}:
            parts.append("[" + inner + ("," + inner).join(_float_row(obj)) + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _write(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, _SCALARS):
        parts.append(_encode(_primitive(obj)))
    elif hasattr(obj, "to_obj"):
        _write(obj.to_obj(), newline, parts)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _encode(value) -> str:
    """JSON text of a primitive, as json.dumps writes it."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return int.__repr__(value)


def _float_row(row) -> list[str]:
    """JSON texts of the normalized entries of an all-float list.

    A finite %.12g text in fixed notation has at most 12 significant
    digits, and distinct decimals of at most 15 digits are distinct
    normal doubles, so it is already repr of the value it parses to, up
    to the ".0" that repr adds to integral values. E-notation (repr and
    %g switch at different exponents, and subnormals are not unique at 12
    digits), "inf" and "nan" take the general path.
    """
    texts = ["%.12g" % x for x in row]
    for i, text in enumerate(texts):
        if "e" in text or "n" in text:
            texts[i] = _encode(_primitive(row[i]))
        elif "." not in text:
            texts[i] = text + ".0"
    return texts


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
