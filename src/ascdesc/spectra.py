"""Eigenvalue enumeration and ascent/descent spectra for exact matrices.

Eigenvalues are the roots of the characteristic polynomial that lie in
the Gaussian rationals.  They are read off the integer norm of that
polynomial, factored over the integers, and confirmed by exact
synthetic division; roots living in larger extensions are reported
through a residual degree instead of being approximated.  For a
finite-dimensional operator every point has finite ascent and descent,
so both spectra are empty; ``ascent_spectrum`` returns them together
with the profile table of per-eigenvalue indices that remain
meaningful."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from sympy.polys.densearith import dup_add, dup_sqr
from sympy.polys.densebasic import dup_strip
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from .chains import chain_report
from .exact import Matrix, char_poly
from .gq import GQ, ZERO, GaussianRational, common_denominator, format_scalar

CERT_FINITE_DIM = "finite-dim-stabilization"


@dataclass(frozen=True)
class ProfilePoint:
    """Ascent/descent indices of T - lambda at one point."""

    lam: GaussianRational
    asc: int | str
    dsc: int | str
    alpha: int | str
    beta: int | str

    def to_obj(self) -> dict:
        return {
            "lambda": format_scalar(self.lam),
            "asc": self.asc,
            "dsc": self.dsc,
            "alpha": self.alpha,
            "beta": self.beta,
        }


@dataclass(frozen=True)
class SpectrumProfile:
    """Point profiles plus the (possibly empty) spectrum itself."""

    complete: bool
    points: tuple[ProfilePoint, ...]
    sigma_asc: tuple[GaussianRational, ...]
    sigma_dsc: tuple[GaussianRational, ...]
    certificate: str

    def to_obj(self) -> dict:
        return {
            "complete": self.complete,
            "points": [p.to_obj() for p in self.points],
            "sigma_asc": [format_scalar(v) for v in self.sigma_asc],
            "sigma_dsc": [format_scalar(v) for v in self.sigma_dsc],
            "certificate": self.certificate,
        }


def _norm_polynomial(coeffs: tuple[GaussianRational, ...]) -> list:
    """Integer coefficients (descending) of N = P * conj(P), P = D * p.

    Writing P = R + iS with R, S in Z[x] gives N = R^2 + S^2.
    """
    den = common_denominator(coeffs)
    re = dup_strip([ZZ(c.re_num * (den // c.re_den)) for c in reversed(coeffs)])
    im = dup_strip([ZZ(c.im_num * (den // c.im_den)) for c in reversed(coeffs)])
    return dup_add(dup_sqr(re, ZZ), dup_sqr(im, ZZ), ZZ)


def _candidates(norm: list) -> list[GaussianRational]:
    """Q(i)-points among the roots of the integer polynomial ``norm``."""
    out: list[GaussianRational] = []
    for fac, _ in dup_factor_list(norm, ZZ)[1]:
        fac = [int(c) for c in fac]
        if len(fac) == 2:
            a, b = fac
            out.append(GQ(Fraction(-b, a)))
        elif len(fac) == 3:
            a, b, c = fac
            disc = b * b - 4 * a * c
            s = isqrt(-disc) if disc < 0 else 0
            if s and s * s == -disc:
                re = Fraction(-b, 2 * a)
                im = Fraction(s, 2 * a)
                out.extend((GQ(re, im), GQ(re, -im)))
    return out


def _deflate(poly: list[GaussianRational], root: GaussianRational) -> list | None:
    """Quotient of ``poly`` (descending) by x - root, or None if root is no root."""
    acc = ZERO
    out = []
    for c in poly:
        acc = acc * root + c
        out.append(acc)
    return None if out.pop() else out


@lru_cache(maxsize=512)
def eigenvalue_multiplicities(t: Matrix) -> tuple[tuple[tuple[GaussianRational, int], ...], int]:
    """Roots of char(T) in Q(i) with multiplicities, plus residual degree.

    Candidates come from the norm N = P * conj(P), an integer polynomial
    with P = D * char(T) cleared of denominators, factored over the
    integers (Trager 1976).  Every root a + bi of char(T) is a root of N,
    so its minimal polynomial over Q, x - a or (x - a)^2 + b^2, divides N
    and is, up to a constant, one of N's irreducible factors over Z
    (Gauss's lemma).  So the linear factors of N and those quadratic
    factors whose roots lie in Q(i) give every Q(i)-root; each
    candidate is confirmed, and its multiplicity counted, by exact
    synthetic division of char(T).  The residual degree counts the part
    that does not split (0 means the polynomial splits completely).
    """
    coeffs = char_poly(t)
    if t.rows == 0:
        return (), 0
    poly = list(reversed(coeffs))
    roots: list[tuple[GaussianRational, int]] = []
    for cand in _candidates(_norm_polynomial(coeffs)):
        mult = 0
        while (quotient := _deflate(poly, cand)) is not None:
            poly = quotient
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return tuple(roots), len(poly) - 1


def eigenvalues_exact(t: Matrix) -> tuple[tuple[GaussianRational, ...], int]:
    """Distinct Q(i)-eigenvalues in canonical order, with residual degree."""
    if not t.is_square:
        raise ValueError("eigenvalues require a square matrix")
    roots, residual = eigenvalue_multiplicities(t)
    return tuple(r for r, _ in roots), residual


def point_profile(t: Matrix, lam) -> tuple[int, int, int, int]:
    """(asc, dsc, alpha, beta) of T - lambda."""
    rep = chain_report(t.shifted(lam))
    return rep.asc, rep.dsc, rep.alpha, rep.beta


def ascent_spectrum(t: Matrix) -> SpectrumProfile:
    """Both spectra, empty for a dense matrix since its chains stabilize by dim X.

    The accompanying profile table lists asc, dsc, alpha and beta of
    T - lambda at every exact eigenvalue so profile-level statements
    stay checkable.
    """
    values, residual = eigenvalues_exact(t)
    points = []
    for lam in values:
        asc, dsc, alpha, beta = point_profile(t, lam)
        points.append(ProfilePoint(lam, asc, dsc, alpha, beta))
    return SpectrumProfile(
        complete=residual == 0,
        points=tuple(points),
        sigma_asc=(),
        sigma_dsc=(),
        certificate=CERT_FINITE_DIM,
    )
