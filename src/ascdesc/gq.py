"""Exact complex-rational scalars (Gaussian rationals)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

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
I_UNIT = GQ(0, 1)


def as_gq(value) -> GaussianRational:
    """value itself if it is a GaussianRational, else GQ(value)."""
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


def common_denominator(values: Iterable[GaussianRational]) -> int:
    """Least positive D with D * v a Gaussian integer for every v."""
    den = 1
    for v in values:
        den = lcm(den, v.re_den, v.im_den)
    return den


def parse_scalar(text: str) -> GaussianRational:
    """Parse ``<rat>``, ``<rat>i`` or ``<rat>(+|-)<rat>i`` into a scalar.

    ``<rat>`` is an optionally signed integer or ``p/q`` with q > 0.
    The bare forms ``i``, ``+i`` and ``-i`` are accepted for unit
    imaginary parts.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    if not s.endswith("i"):
        return GaussianRational(_parse_rat(s))
    body = s[:-1]
    # any sign past position 0 separates the real part from the imaginary one
    split = -1
    for idx in range(1, len(body)):
        if body[idx] in "+-":
            split = idx
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return GaussianRational(_parse_rat(re_part), _parse_rat(im_part))


def _parse_rat(text: str) -> Fraction:
    if not text:
        raise ValueError("empty rational literal")
    if "/" in text:
        num, _, den = text.partition("/")
        if den.startswith(("+", "-")):
            raise ValueError(f"denominator must be a positive integer: {text!r}")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        value = Fraction(int(num), int(den))
    else:
        value = Fraction(int(text))
    return value


def format_scalar(value: GaussianRational) -> str:
    """Canonical text form; round-trips through parse_scalar."""
    if value.im == 0:
        return str(value.re)
    imag = f"{abs(value.im)}i"
    if value.re == 0:
        return imag if value.im > 0 else f"-{imag}"
    sign = "+" if value.im > 0 else "-"
    return f"{value.re}{sign}{imag}"
