"""Exact complex-rational scalars (Gaussian rationals) and their text form.

One literal grammar serves every exact input: :func:`parse_parts` reads
a literal into integer parts in lowest terms, (re_num, re_den, im_num,
im_den), and :func:`format_parts` writes such parts back as canonical
text.  Exact matrices are read and written through these two as
Gaussian-integer rows (:func:`ascdesc.exact.matrix_from_obj`,
:func:`ascdesc.exact.matrix_to_obj`), with no scalar object per entry.
``GaussianRational`` is the scalar for single values: eigenvalues,
shifts, candidate points and tower weights; :func:`parse_scalar` and
:func:`format_scalar` wrap the two for it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """Complex number ``re + im*i`` with exact Fraction components.

    Values are immutable.  ``Fraction`` keeps each component in lowest
    terms with a strictly positive denominator, so equal values always
    have identical representations and all arithmetic is exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # component views matching the numerator/denominator field layout
    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(value: Scalarish) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = self._coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Lexicographic (re, im) key for deterministic ordering."""
        return (self.re, self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


GQ = GaussianRational

ZERO = GQ(0)
ONE = GQ(1)


def as_gq(value) -> GaussianRational:
    """value itself if it is a GaussianRational, else GQ(value)."""
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


def common_denominator(values: Iterable[GaussianRational]) -> int:
    """Least positive D with D * v a Gaussian integer for every v."""
    return lcm(*{f.denominator for v in values for f in (v.re, v.im)})


def cleared(value: GaussianRational, den: int) -> tuple[int, int]:
    """den * value as a Gaussian integer (re, im); den must clear its denominators."""
    re, im = value.re, value.im
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)


def parse_parts(text: str) -> tuple[int, int, int, int]:
    """Parse ``<rat>``, ``<rat>i`` or ``<rat>(+|-)<rat>i`` into integer parts.

    Returns ``(re_num, re_den, im_num, im_den)``, each part in lowest
    terms with a positive denominator.  ``<rat>`` is an optionally signed
    integer or ``p/q`` with q > 0.  The bare forms ``i``, ``+i`` and
    ``-i`` are accepted for unit imaginary parts.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if not s.endswith("i"):
        return (*_parse_rat(s), 0, 1)
    body = s[:-1]
    # any sign past position 0 separates the real part from the imaginary one
    split = max(body.rfind("+", 1), body.rfind("-", 1))
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return (*_parse_rat(re_part), *_parse_rat(im_part))


def parse_scalar(text: str) -> GaussianRational:
    """The scalar that :func:`parse_parts` reads from ``text``."""
    re_num, re_den, im_num, im_den = parse_parts(text)
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


_RAT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rat(text: str) -> tuple[int, int]:
    """``[+-]?[0-9]+(/[0-9]+)?`` with ASCII digits only, as (num, den) in lowest terms."""
    if not _RAT.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    n, d = int(num), int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    g = gcd(n, d)
    return n // g, d // g


def format_parts(re_num: int, re_den: int, im_num: int, im_den: int) -> str:
    """Canonical text of re_num/re_den + (im_num/im_den)i; round-trips through parse_parts.

    Each part must be in lowest terms with a positive denominator.
    """
    if not im_num:
        return _rat_text(re_num, re_den)
    imag = f"{_rat_text(abs(im_num), im_den)}i"
    if not re_num:
        return imag if im_num > 0 else f"-{imag}"
    sign = "+" if im_num > 0 else "-"
    return f"{_rat_text(re_num, re_den)}{sign}{imag}"


def _rat_text(num: int, den: int) -> str:
    return f"{num}/{den}" if den != 1 else str(num)


def format_scalar(value: GaussianRational) -> str:
    """Canonical text form; round-trips through parse_scalar."""
    return format_parts(value.re_num, value.re_den, value.im_num, value.im_den)
