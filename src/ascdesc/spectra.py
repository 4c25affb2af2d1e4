"""Eigenvalue enumeration and ascent/descent spectra for exact matrices.

Eigenvalues are the roots of the characteristic polynomial that lie in
the Gaussian rationals.  With the denominators cleared they are
Gaussian integers, found by p-adic lifting of the roots of the
square-free part modulo a prime p = 3 mod 4 and confirmed by exact
synthetic division, all in Gaussian-integer arithmetic; roots living in
larger extensions are reported through a residual degree instead of
being approximated.  For a finite-dimensional operator every point has
finite ascent and descent, so both spectra are empty;
``ascent_spectrum`` returns them together with the profile table of
per-eigenvalue indices that remain meaningful."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .chains import chain_report
from .exact import Matrix, _berkowitz
from .gq import GQ, GaussianRational, format_scalar

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


# A Gaussian integer is an (re, im) pair of ints, and a polynomial over
# Z[i] is a list of them, leading coefficient first.
GI = tuple[int, int]


def _mul(a: GI, b: GI) -> GI:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub(a: GI, b: GI) -> GI:
    return a[0] - b[0], a[1] - b[1]


def _power(a: GI, k: int) -> GI:
    out = (1, 0)
    for _ in range(k):
        out = _mul(out, a)
    return out


def _divexact(a: GI, b: GI) -> GI:
    """a / b for Gaussian integers with b | a."""
    norm = b[0] * b[0] + b[1] * b[1]
    re, im = _mul(a, (b[0], -b[1]))
    return re // norm, im // norm


def _divides(b: GI, a: GI) -> bool:
    """Whether b | a in Z[i], for b != 0."""
    norm = b[0] * b[0] + b[1] * b[1]
    re, im = _mul(a, (b[0], -b[1]))
    return not (re % norm or im % norm)


def _strip(f: list[GI]) -> list[GI]:
    """f without its leading zero coefficients."""
    k = 0
    while k < len(f) and f[k] == (0, 0):
        k += 1
    return f[k:]


def _derivative(f: list[GI]) -> list[GI]:
    n = len(f) - 1
    return [(re * (n - k), im * (n - k)) for k, (re, im) in enumerate(f[:-1])]


def _prem(a: list[GI], b: list[GI]) -> list[GI]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, leading zeros stripped."""
    lb, nb = b[0], len(b)
    e = len(a) - nb + 1
    r = a
    while len(r) >= nb:
        lr = r[0]
        r = _strip([_sub(_mul(lb, c), _mul(lr, d)) for c, d in zip(r[1:nb], b[1:])]
                   + [_mul(lb, c) for c in r[nb:]])
        e -= 1
    scale = _power(lb, e)
    return [_mul(scale, c) for c in r]


def _subresultant_gcd(a: list[GI], b: list[GI]) -> list[GI]:
    """Last nonzero member of the subresultant PRS of a and b, deg a > deg b.

    It is a Z[i]-multiple of gcd(a, b) over Q(i).  Each remainder is
    divided by g * h^delta, which the subresultant theorem makes exact
    (Collins 1967; Brown and Traub 1971), so coefficients grow like
    determinants of the Sylvester matrix instead of exponentially.
    """
    g = h = (1, 0)
    while True:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if len(r) <= 1:
            return r or b
        div = _mul(g, _power(h, delta))
        a, b = b, [_divexact(c, div) for c in r]
        g = a[0]
        h = _divexact(_power(g, delta), _power(h, delta - 1))


# Arithmetic modulo a prime p = 3 mod 4 (or a power of it): -1 is not a
# square mod p, so Z[i]/(p) is the field F_(p^2), and a + bi is a unit
# mod p^k exactly when its norm a^2 + b^2 is.

# A prime = 3 mod 4 too large to divide a discriminant by chance.
_CERTIFYING_PRIME = 2**61 - 1


def _inverse_mod(a: GI, m: int) -> GI:
    """1 / a in (Z/m)[i], m a power of a prime p = 3 mod 4 with p not dividing a."""
    inv = pow(a[0] * a[0] + a[1] * a[1], -1, m)
    return a[0] * inv % m, -a[1] * inv % m


def _eval_mod(f: list[GI], z: GI, m: int) -> GI:
    """f(z) in (Z/m)[i], by Horner."""
    zr, zi = z
    re = im = 0
    for cr, ci in f:
        re, im = (re * zr - im * zi + cr) % m, (re * zi + im * zr + ci) % m
    return re, im


def _coprime_mod(a: list[GI], b: list[GI], q: int) -> bool:
    """Whether a and b, reduced mod the prime q = 3 mod 4, are coprime over F_(q^2)."""
    a = _strip([(re % q, im % q) for re, im in a])
    b = _strip([(re % q, im % q) for re, im in b])
    while len(b) > 1:
        inv = _inverse_mod(b[0], q)
        while len(a) >= len(b):
            cr, ci = _mul(a[0], inv)
            a = _strip([((x - cr * u + ci * v) % q, (y - cr * v - ci * u) % q)
                        for (x, y), (u, v) in zip(a[1:], b[1:])] + a[len(b):])
        a, b = b, a
    return bool(b)


def _primes_3_mod_4():
    p = 3
    while True:
        if all(p % d for d in range(3, int(p**0.5) + 1, 2)):
            yield p
        p += 4


# rejected primes after which _simple_roots_mod checks that h is square-free;
# more than the four that the roots 1 and 4390 reject (3, 7, 11 and 19)
_PRIMES_BEFORE_PROOF = 8


def _simple_roots_mod(h: list[GI], dh: list[GI]) -> tuple[int, list[GI]]:
    """The first prime p = 3 mod 4 at which every root of h in F_(p^2) is simple, and those roots.

    A square-free h has a nonzero discriminant, so all but finitely many
    primes qualify.  Once _PRIMES_BEFORE_PROOF primes are rejected,
    gcd(h, h') is computed once over Z[i]: a repeated root raises
    RuntimeError instead of rejecting every prime, and a square-free h
    goes on to the next prime.
    """
    for rejected, p in enumerate(_primes_3_mod_4()):
        if rejected == _PRIMES_BEFORE_PROOF and len(_subresultant_gcd(h, dh)) > 1:
            raise RuntimeError("h has a repeated root, so it is not square-free")
        roots = [z for z in product(range(p), repeat=2) if _eval_mod(h, z, p) == (0, 0)]
        if all(_eval_mod(dh, z, p) != (0, 0) for z in roots):
            return p, roots


def _square_free(f: list[GI]) -> list[GI]:
    """f / gcd(f, f') for monic f in Z[i][x]; the quotient is monic in Z[i][x].

    f is square-free when it is so modulo the prime 2^61 - 1, which is
    decided with word-sized numbers; only otherwise does the subresultant
    PRS run over Z[i].
    """
    df = _derivative(f)
    if _coprime_mod(f, df, _CERTIFYING_PRIME):
        return f
    g = _subresultant_gcd(f, df)
    if len(g) <= 1:
        return f
    # gcd(f, f') is monic over Q(i) and divides the monic f, so it lies in
    # Z[i][x] (Z[i] is integrally closed) and so does the quotient.
    lead = g[0]
    g = [_divexact(c, lead) for c in g]
    quotient, rem = [], list(f)
    for k in range(len(f) - len(g) + 1):
        q = rem[k]
        quotient.append(q)
        for j in range(1, len(g)):
            rem[k + j] = _sub(rem[k + j], _mul(q, g[j]))
    return quotient


def _gaussian_integer_roots(h: list[GI]) -> list[GI]:
    """Candidates that include every root in Z[i] of the monic square-free h.

    Each root of h mod p is simple, so Newton's iteration lifts it to the
    unique root mod p^k it reduces from (Loos 1983).  Every root r of the
    monic h has |r| < 1 + sum |h_i|, so once p^k exceeds twice that, the
    symmetric residue of a lift that comes from a root in Z[i] is that
    root.  Lifts of roots that do not come from Z[i] are returned too;
    the caller confirms each candidate exactly.
    """
    dh = _derivative(h)
    p, roots = _simple_roots_mod(h, dh)
    bound = 2 * (1 + sum(abs(re) + abs(im) for re, im in h))
    out = []
    for z in roots:
        m = p
        while m <= bound:
            m *= m
            step = _mul(_eval_mod(h, z, m), _inverse_mod(_eval_mod(dh, z, m), m))
            z = (z[0] - step[0]) % m, (z[1] - step[1]) % m
        half = m // 2
        out.append(tuple(v - m if v > half else v for v in z))
    return out


def _deflate(poly: list[GI], root: GI) -> list[GI] | None:
    """Quotient of ``poly`` by x - root, or None if root is no root."""
    acc = (0, 0)
    out = []
    for c in poly:
        acc = _mul(acc, root)
        acc = acc[0] + c[0], acc[1] + c[1]
        out.append(acc)
    return None if out.pop() != (0, 0) else out


def eigenvalue_multiplicities(t: Matrix) -> tuple[tuple[tuple[GaussianRational, int], ...], int]:
    """Roots of char(T) in Q(i) with multiplicities, plus residual degree.

    With D the common denominator of T, the roots of char(T) are those of
    the monic chi = char(D*T) in Z[i][x] divided by D; chi comes straight
    from the Berkowitz recurrence on T's integer rows.  A root of chi
    in Q(i) lies in Z[i], because Z[i] is integrally closed.  The root 0
    is read off the powers of x that chi has.  The others are roots of
    the square-free part h of the rest, found by p-adic lifting from a
    prime p = 3 mod 4 at which every root of h mod p is simple (Loos
    1983); each candidate is confirmed, and its multiplicity counted, by
    exact synthetic division of chi.  The residual degree counts the
    part that does not split (0 means the polynomial splits completely).
    """
    n, den = t.rows, t.den
    if n == 0:
        return (), 0
    poly = _berkowitz(n, t.int_rows)
    roots: list[tuple[GI, int]] = []
    while poly[-1] == (0, 0):
        poly.pop()
    if len(poly) <= n:
        roots.append(((0, 0), n + 1 - len(poly)))
    if len(poly) > 1:
        # no candidate is 0: poly(0) != 0, and a lift 0 would make h(0) = 0
        for cand in _gaussian_integer_roots(_square_free(poly)):
            if not _divides(cand, poly[-1]):
                continue
            mult = 0
            while (quotient := _deflate(poly, cand)) is not None:
                poly = quotient
                mult += 1
            if mult:
                roots.append((cand, mult))
    roots.sort()
    return tuple(
        (GQ(Fraction(re, den), Fraction(im, den)), mult) for (re, im), mult in roots
    ), len(poly) - 1


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
