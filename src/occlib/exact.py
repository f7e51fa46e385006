"""Exact univariate polynomial arithmetic over the rationals, Sturm chains,
and machine-checkable sign certificates on closed intervals.

Everything here is exact: coefficients, interval endpoints and witnesses are
`fractions.Fraction` values and no floating point is ever consulted.  The
certificate object produced by `certify_sign` records enough data (polynomial,
interval, root count, witness, endpoint adjustments) to be re-checked
independently, and serializes to JSON with rationals rendered as "num/den"
strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "Polynomial",
    "RationalFunction",
    "CertificateError",
    "SignCertificate",
    "sturm_chain",
    "count_roots",
    "count_roots_above",
    "certify_sign",
    "frac_str",
    "parse_frac",
]

Coeffable = Union[int, Fraction]


def _frac(x: Coeffable) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def frac_str(x: Fraction) -> str:
    """Render a rational as 'num/den', or plain 'num' for integers."""
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> Fraction:
    """Parse 'num/den' or integer text back into a Fraction."""
    return Fraction(text)


class Polynomial:
    """Dense univariate polynomial over Q, coefficients stored lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeffable] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # construction helpers

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def constant(c: Coeffable) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def from_roots(roots: Sequence[Coeffable]) -> "Polynomial":
        """Monic polynomial with the given rational roots (with multiplicity)."""
        p = Polynomial.one()
        for r in roots:
            p = p * Polynomial((-_frac(r), 1))
        return p

    # basic queries

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: Coeffable) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # ring operations

    def __add__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Polynomial(a)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Coeffable) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            q = top / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= q * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial(tuple(c / lead for c in self.coeffs))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        a, b = self, _as_poly(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def square_free_part(self) -> "Polynomial":
        """Quotient by gcd(P, P'); same roots, all simple."""
        if self.is_zero():
            raise ValueError("zero polynomial has no square-free part")
        if self.degree == 0:
            return self
        return self // self.gcd(self.derivative())

    def cauchy_root_bound(self) -> Fraction:
        """B with every real root of the polynomial inside (-B, B)."""
        if self.is_zero() or self.degree == 0:
            return Fraction(1)
        lead = abs(self.leading())
        return 1 + max(abs(c) for c in self.coeffs[:-1]) / lead

    # misc

    def coeff_strings(self) -> list[str]:
        return [frac_str(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(frac_str(c))
            elif i == 1:
                parts.append(f"{frac_str(c)}*x")
            else:
                parts.append(f"{frac_str(c)}*x^{i}")
        return "Polynomial(" + " + ".join(parts) + ")"


def _as_poly(v: "Polynomial | Coeffable") -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    return Polynomial.constant(v)


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials, kept in lowest terms with a monic denominator."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial | Coeffable, den: Polynomial | Coeffable = 1):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading()
            num = num * (1 / lead)
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    @staticmethod
    def constant(c: Coeffable) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other: "Polynomial | Coeffable") -> "RationalFunction":
        return _as_rf(other) - self

    def __mul__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "Polynomial | Coeffable") -> "RationalFunction":
        return _as_rf(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num ** k, self.den ** k)

    def __call__(self, x: Coeffable) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = _as_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def sign_polynomial(self) -> Polynomial:
        """num*den: shares the sign of the function wherever the function is defined."""
        return self.num * self.den


def _as_rf(v: "RationalFunction | Polynomial | Coeffable") -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    return RationalFunction(_as_poly(v))


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def sturm_chain(p: Polynomial) -> tuple[Polynomial, ...]:
    """Canonical Sturm chain of the square-free part of p.

    P0 is the square-free part, P1 its derivative, and each later entry is the
    negated polynomial remainder of the previous two.  The chain ends at a
    nonzero constant (or earlier, for constant input).
    """
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    p0 = p.square_free_part()
    chain = [p0]
    if p0.degree < 1:
        return tuple(chain)
    chain.append(p0.derivative())
    while chain[-1].degree > 0:
        nxt = -(chain[-2] % chain[-1])
        if nxt.is_zero():
            # cannot happen for a square-free P0; guard against misuse
            break
        chain.append(nxt)
    return tuple(chain)


def _variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    """Sign variations of the chain at x, zero entries dropped.

    Dropping zeros makes V(x) right-continuous, so V(a) - V(b) counts the
    distinct roots in the half-open interval (a, b] even when an endpoint is
    itself a root.
    """
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(p: Polynomial, a: Coeffable, b: Coeffable,
                chain: Optional[Sequence[Polynomial]] = None) -> int:
    """Exact number of distinct real roots of p in (a, b]."""
    a, b = _frac(a), _frac(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} and {b}")
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, a) - _variations(chain, b)


def count_roots_above(p: Polynomial, a: Coeffable) -> int:
    """Distinct real roots of p in (a, +infinity), via the Cauchy bound."""
    a = _frac(a)
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    bound = p.cauchy_root_bound()
    if bound <= a:
        return 0
    return count_roots(p, a, bound)


class CertificateError(ValueError):
    """Raised when a requested certificate cannot be formed exactly."""


@dataclass(frozen=True)
class SignCertificate:
    """Result of a constant-sign check on a closed interval.

    A passing certificate asserts: the polynomial has no roots strictly inside
    [lo, hi] except possibly at an endpoint flagged by zero_at_lower /
    zero_at_upper, and its sign everywhere else on the interval equals
    witness_sign.  Endpoint roots are excluded by shrinking the certified
    interval by an exact power of two; the shift is recorded and the shrunk-off
    segment is separately verified to contain no further roots, so nothing is
    skipped.
    """

    polynomial: Polynomial
    lo: Fraction
    hi: Fraction
    certified_lo: Fraction
    certified_hi: Fraction
    witness: Fraction
    witness_sign: int
    root_count: int
    zero_at_lower: bool
    zero_at_upper: bool
    status: str  # "pass" or "fail"
    case_id: str = ""
    failure_bracket: Optional[tuple[Fraction, Fraction, int, int]] = None
    root_hit: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "case_id": self.case_id,
            "polynomial": self.polynomial.coeff_strings(),
            "interval": [frac_str(self.lo), frac_str(self.hi)],
            "certified_interval": [frac_str(self.certified_lo), frac_str(self.certified_hi)],
            "witness": frac_str(self.witness),
            "sign": "+" if self.witness_sign > 0 else "-",
            "root_count": self.root_count,
            "zero_at_lower": self.zero_at_lower,
            "zero_at_upper": self.zero_at_upper,
            "status": self.status,
        }
        if self.failure_bracket is not None:
            x1, x2, s1, s2 = self.failure_bracket
            out["failure_bracket"] = {
                "interval": [frac_str(x1), frac_str(x2)],
                "signs": [s1, s2],
            }
        if self.root_hit is not None:
            out["root_hit"] = frac_str(self.root_hit)
        return out


_MAX_ENDPOINT_SHIFT = 64


def _shrink_from_lower(sf: Polynomial, chain: Sequence[Polynomial],
                       a: Fraction, b: Fraction) -> Fraction:
    """Smallest-k shift a + 2^-k past an endpoint root, skipping no roots."""
    for k in range(_MAX_ENDPOINT_SHIFT + 1):
        cand = a + Fraction(1, 2 ** k)
        if cand >= b:
            continue
        if sf(cand) == 0:
            continue
        if count_roots(sf, a, cand, chain) == 0:
            return cand
    raise CertificateError(f"cannot shift lower endpoint {a} off a root within 2^-{_MAX_ENDPOINT_SHIFT}")


def _shrink_from_upper(sf: Polynomial, chain: Sequence[Polynomial],
                       a: Fraction, b: Fraction) -> Fraction:
    for k in range(_MAX_ENDPOINT_SHIFT + 1):
        cand = b - Fraction(1, 2 ** k)
        if cand <= a:
            continue
        if sf(cand) == 0:
            continue
        # the discarded segment must contain exactly the endpoint root itself
        if count_roots(sf, cand, b, chain) == 1:
            return cand
    raise CertificateError(f"cannot shift upper endpoint {b} off a root within 2^-{_MAX_ENDPOINT_SHIFT}")


def _locate_failure(sf: Polynomial, p: Polynomial, chain: Sequence[Polynomial],
                    lo: Fraction, hi: Fraction) -> tuple[tuple[Fraction, Fraction, int, int], Optional[Fraction]]:
    """Bisect down to a narrow subinterval around one root of sf in (lo, hi]."""
    root_hit: Optional[Fraction] = None
    for _ in range(128):
        mid = (lo + hi) / 2
        if sf(mid) == 0:
            root_hit = mid
            delta = (hi - lo) / 2 ** 16
            x1, x2 = mid - delta, mid + delta
            while sf(x1) == 0:
                x1 = (x1 + mid) / 2
            while sf(x2) == 0:
                x2 = (mid + x2) / 2
            lo, hi = x1, x2
            break
        if count_roots(sf, lo, mid, chain) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < Fraction(1, 2 ** 24) and count_roots(sf, lo, hi, chain) == 1:
            break
    s1 = p(lo)
    s2 = p(hi)
    sgn = lambda v: 0 if v == 0 else (1 if v > 0 else -1)
    return (lo, hi, sgn(s1), sgn(s2)), root_hit


def certify_sign(p: Polynomial, a: Coeffable, b: Coeffable, witness: Coeffable,
                 case_id: str = "") -> SignCertificate:
    """Certify that p keeps one sign on [a, b], allowing roots exactly at endpoints.

    On success the certificate carries a zero Sturm root count for the certified
    (possibly endpoint-shrunk) interval plus the sign at the witness.  On failure
    it localizes a root by bisection and reports the bracketing subinterval with
    the polynomial's signs at both ends.
    """
    a, b, witness = _frac(a), _frac(b), _frac(witness)
    if not a < b:
        raise ValueError(f"need a < b, got {a} and {b}")
    if not a <= witness <= b:
        raise ValueError("witness outside the interval")
    if p.is_zero():
        raise CertificateError("cannot certify a sign for the zero polynomial")
    if p.degree == 0:
        s = 1 if p.coeffs[0] > 0 else -1
        return SignCertificate(p, a, b, a, b, witness, s, 0, False, False, "pass", case_id)

    sf = p.square_free_part()
    chain = sturm_chain(sf)
    zero_lo = sf(a) == 0
    zero_hi = sf(b) == 0

    lo2 = _shrink_from_lower(sf, chain, a, b) if zero_lo else a
    hi2 = _shrink_from_upper(sf, chain, lo2, b) if zero_hi else b
    if not lo2 < hi2:
        raise CertificateError("endpoint shifts collapsed the interval")

    n_roots = count_roots(sf, lo2, hi2, chain)
    w = witness
    if not lo2 <= w <= hi2:
        w = (lo2 + hi2) / 2
    wv = p(w)

    if n_roots == 0 and wv != 0:
        sign = 1 if wv > 0 else -1
        return SignCertificate(p, a, b, lo2, hi2, w, sign, 0, zero_lo, zero_hi, "pass", case_id)

    bracket, root_hit = _locate_failure(sf, p, chain, lo2, hi2)
    sign = 0 if wv == 0 else (1 if wv > 0 else -1)
    return SignCertificate(p, a, b, lo2, hi2, w, sign, max(n_roots, 1), zero_lo, zero_hi,
                           "fail", case_id, bracket, root_hit)
