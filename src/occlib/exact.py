"""Exact univariate polynomial arithmetic over the rationals, Sturm chains,
and machine-checkable sign certificates on closed intervals.

A `Polynomial` is a positive rational content times a primitive integer
vector; arithmetic, evaluation and signs (homogeneous integer Horner) run on
the integers, and `gcd`, `square_free_part` and `sturm_chain` are primitive
pseudo-remainder sequences over Z (Collins 1967).  A `RationalFunction` only
cross-multiplies; it is reduced to lowest terms once, where a value leaves
the layer.  No floating point is ever consulted.  The certificate produced by
`certify_sign` records enough data (polynomial, interval, root count,
witness, endpoint adjustments) to be re-checked independently, and
serializes to JSON with rationals rendered as "num/den" strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

__all__ = ["Polynomial", "RationalFunction", "CertificateError", "SignCertificate",
           "sturm_chain", "count_roots", "certify_sign",
           "clear_denominators", "frac_str"]

Coeffable = Union[int, Fraction]


def _frac(x: Coeffable) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def clear_denominators(values: Sequence[Coeffable]) -> tuple[int, tuple[int, ...]]:
    """(L, (L*v, ...)) for L the least common denominator of the exact
    rationals (ints or Fractions) in values: every value put on one
    denominator, with no Fraction arithmetic."""
    scale = lcm(*{v.denominator for v in values})
    return scale, tuple([v.numerator * (scale // v.denominator) for v in values])


def frac_str(x: Fraction) -> str:
    """Render a rational as 'num/den', or plain 'num' for integers."""
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Polynomial:
    """Dense univariate polynomial over Q, lowest degree first: content * prim,
    content a positive Fraction and prim coprime integers with a nonzero last
    entry.  The zero polynomial has content 0, prim () and degree -1."""

    __slots__ = ("content", "prim")

    def __init__(self, coeffs: Iterable[Coeffable] = ()):
        scale, ints = clear_denominators([_frac(c) for c in coeffs])
        p = _scaled(Fraction(1, scale), list(ints))
        self.content, self.prim = p.content, p.prim

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def constant(c: Coeffable) -> "Polynomial":
        return _scaled(_frac(c), [1])

    @staticmethod
    def x() -> "Polynomial":
        return _scaled(Fraction(1), [0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.content * z for z in self.prim)

    @property
    def degree(self) -> int:
        return len(self.prim) - 1

    def is_zero(self) -> bool:
        return not self.prim

    def leading(self) -> Fraction:
        if not self.prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def __call__(self, x: Coeffable) -> Fraction:
        x = _frac(x)
        acc, bk = _horner(self.prim, x.numerator, x.denominator)
        return Fraction(self.content.numerator * acc, self.content.denominator * bk)

    def __add__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        other = _as_poly(other)
        # both contents as integer multiples u, v of 1/l
        c, d = self.content, other.content
        l = lcm(c.denominator, d.denominator)
        u, v = c.numerator * (l // c.denominator), d.numerator * (l // d.denominator)
        a, b = self.prim, other.prim
        if len(a) < len(b):
            a, b, u, v = b, a, v, u
        out = [u * z for z in a]
        for i, z in enumerate(b):
            out[i] += v * z
        return _scaled(Fraction(1, l), out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _exact(self.content, tuple(-z for z in self.prim))

    def __sub__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Coeffable) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other: "Polynomial | Coeffable") -> "Polynomial":
        other = _as_poly(other)
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO
        if len(b) == 1:   # a primitive constant is 1 or -1
            out = a if b[0] == 1 else tuple(-z for z in a)
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, s in enumerate(a):
                if s:
                    for j, t in enumerate(b):
                        out[i + j] += s * t
        # Gauss's lemma: a product of primitive vectors is primitive
        return _exact(self.content * other.content, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        for bit in bin(k)[2:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # lead^e * prim = q * other.prim + r over Z
        q, r, e = _pseudo_divmod(self.prim, other.prim)
        scale = self.content / other.prim[-1] ** e
        return _scaled(scale / other.content, q), _scaled(scale, r)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return _scaled(self.content, [i * z for i, z in enumerate(self.prim)][1:])

    def monic(self) -> "Polynomial":
        p = self.prim
        return _exact(Fraction(1, abs(p[-1])), p if p[-1] > 0 else tuple(-z for z in p)) if p else self

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor, by a primitive remainder sequence over Z."""
        a, b = self.prim, _as_poly(other).prim
        while b:
            a, b = b, _scaled(Fraction(1), _pseudo_divmod(a, b)[1]).prim
        return _scaled(Fraction(1), list(a)).monic()

    def square_free_part(self) -> "Polynomial":
        """Quotient by gcd(P, P'); same roots, all simple."""
        if self.is_zero():
            raise ValueError("zero polynomial has no square-free part")
        if self.degree == 0:
            return self
        return self // self.gcd(self.derivative())

    def coeff_strings(self) -> list[str]:
        return [frac_str(c) for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.prim == other.prim and self.content == other.content

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        parts = [frac_str(c) + ("" if i == 0 else "*x" if i == 1 else f"*x^{i}")
                 for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + (" + ".join(parts) or "0") + ")"


# integer-vector kernels: vectors are lists or tuples of ints, lowest degree first


def _exact(content: Fraction, prim: tuple) -> Polynomial:
    """The polynomial content * prim, both already normalised."""
    p = Polynomial.__new__(Polynomial)
    p.content, p.prim = content, prim
    return p


def _scaled(scale: Fraction, ints: list) -> Polynomial:
    """scale * sum ints[i] x^i for any rational scale; ints is consumed."""
    while ints and not ints[-1]:
        ints.pop()
    g = gcd(*ints)
    if not g or not scale:
        return _ZERO
    g = -g if scale < 0 else g
    return _exact(scale * g, tuple(z // g for z in ints) if g != 1 else tuple(ints))


def _horner(z: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """(b^d * P(a/b), b^d) for P = sum z[i] x^i of degree d, homogeneously."""
    acc, bk = (z[-1], 1) if z else (0, 1)
    for c in reversed(z[:-1]):
        bk *= b
        acc = acc * a + c * bk
    return acc, bk


def _sign(p: Polynomial, x: Fraction) -> int:
    """Sign of p(x): content and b^d are positive, so the integer Horner sum decides."""
    acc = _horner(p.prim, x.numerator, x.denominator)[0]
    return (acc > 0) - (acc < 0)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list, list, int]:
    """(q, r, e) with lead(b)^e * a = q * b + r and deg r < deg b, over Z."""
    lead, m = b[-1], len(b) - 1
    r, q = list(a), [0] * max(len(a) - m, 0)
    for k in range(len(q) - 1, -1, -1):
        top = r.pop()
        r, q = [lead * z for z in r], [lead * z for z in q]
        q[k] = top
        for j in range(m):
            r[k + j] -= top * b[j]
    return q, r, len(q)


def _as_poly(v: "Polynomial | Coeffable") -> Polynomial:
    return v if isinstance(v, Polynomial) else Polynomial.constant(v)


_ZERO = _exact(Fraction(0), ())
_ONE = _exact(Fraction(1), (1,))


class RationalFunction:
    """Quotient of two polynomials.  Arithmetic only cross-multiplies; the
    quotient is reduced to lowest terms with a monic denominator once, on the
    first read of num, den, sign_polynomial() or the hash."""

    __slots__ = ("_num", "_den", "_reduced")

    def __init__(self, num: Polynomial | Coeffable, den: Polynomial | Coeffable = 1):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self._num, self._den, self._reduced = num, den, False

    num = property(lambda self: self._reduce()[0], doc="Numerator in lowest terms.")
    den = property(lambda self: self._reduce()[1], doc="Monic denominator in lowest terms.")

    def _reduce(self) -> tuple[Polynomial, Polynomial]:
        if not self._reduced:
            num, den = self._num, self._den
            g = num.gcd(den)   # den.monic() when num is zero
            if g.degree > 0:
                num, den = num // g, den // g
            num, den = num * (1 / den.leading()), den.monic()
            self._num, self._den, self._reduced = num, den, True
        return self._num, self._den

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    @staticmethod
    def constant(c: Coeffable) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(c))

    def is_zero(self) -> bool:
        return self._num.is_zero()

    def __add__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        if self._den == other._den:
            return _rf(self._num + other._num, self._den)
        return _rf(self._num * other._den + other._num * self._den, self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _rf(-self._num, self._den)

    def __sub__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other: "Polynomial | Coeffable") -> "RationalFunction":
        return _as_rf(other) - self

    def __mul__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        return _rf(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Coeffable") -> "RationalFunction":
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _rf(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other: "Polynomial | Coeffable") -> "RationalFunction":
        return _as_rf(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return RationalFunction(self._den, self._num) ** (-k)
        return _rf(self._num ** k, self._den ** k)

    def __call__(self, x: Coeffable) -> Fraction:
        x = _frac(x)
        d = self._den(x) or self.den(x)   # a zero may cancel: reduce, then retry
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self._num(x) / d

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = _as_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num * other._den == other._num * self._den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction(num={self.num!r}, den={self.den!r})"

    def sign_polynomial(self) -> Polynomial:
        """num*den: shares the sign of the function wherever the function is defined."""
        return self.num * self.den


def _rf(num: Polynomial, den: Polynomial) -> RationalFunction:
    """num/den, unreduced; den is nonzero by construction."""
    f = RationalFunction.__new__(RationalFunction)
    f._num, f._den, f._reduced = num, den, False
    return f


def _as_rf(v: "RationalFunction | Polynomial | Coeffable") -> RationalFunction:
    return v if isinstance(v, RationalFunction) else _rf(_as_poly(v), _ONE)


# ---------------------------------------------------------------------------
# Sturm machinery
# ---------------------------------------------------------------------------


def sturm_chain(p: Polynomial) -> tuple[Polynomial, ...]:
    """Canonical Sturm chain of the square-free part of p.

    P0 is the square-free part, P1 its derivative, and each later entry is the
    negated polynomial remainder of the previous two.  The chain ends at a
    nonzero constant (or earlier, for constant input).  Each remainder is a
    primitive pseudo-remainder over Z whose positive rescaling factor is kept
    as its content, so the entries equal those of the remainders over Q.
    """
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p.square_free_part()]
    if chain[0].degree > 0:
        chain.append(chain[0].derivative())
    while chain[-1].degree > 0:
        nxt = -(chain[-2] % chain[-1])
        if nxt.is_zero():  # cannot happen for a square-free P0; guard against misuse
            break
        chain.append(nxt)
    return tuple(chain)


def _variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    """Sign variations of the chain at x, zero entries dropped.

    Dropping zeros makes V(x) right-continuous, so V(a) - V(b) counts the
    distinct roots in the half-open interval (a, b] even when an endpoint is
    itself a root.
    """
    signs = [s for s in (_sign(q, x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(p: Polynomial, a: Coeffable, b: Coeffable,
                chain: Optional[Sequence[Polynomial]] = None) -> int:
    """Exact number of distinct real roots of p in (a, b]."""
    a, b = _frac(a), _frac(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} and {b}")
    if p.is_zero():
        raise ValueError("root counting on the zero polynomial")
    chain = sturm_chain(p) if chain is None else chain
    return _variations(chain, a) - _variations(chain, b)


class CertificateError(ValueError):
    """Raised when a requested certificate cannot be formed exactly."""


class SignCertificate(NamedTuple):
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
            out["failure_bracket"] = {"interval": [frac_str(x1), frac_str(x2)], "signs": [s1, s2]}
        if self.root_hit is not None:
            out["root_hit"] = frac_str(self.root_hit)
        return out


_MAX_ENDPOINT_SHIFT = 64


def _shrink(sf: Polynomial, chain: Sequence[Polynomial], a: Fraction, b: Fraction,
            upper: bool) -> Fraction:
    """Smallest-k shift of the lower (or upper) endpoint by 2^-k past its root,
    skipping no roots: the discarded segment holds exactly that endpoint root,
    which the half-open count (a, cand] misses and (cand, b] includes.  The
    ladder starts at the first 2^-k below b - a and takes 65 steps."""
    width = b - a
    first = (width.denominator // width.numerator).bit_length()
    for k in range(first, first + _MAX_ENDPOINT_SHIFT + 1):
        cand = b - Fraction(1, 2 ** k) if upper else a + Fraction(1, 2 ** k)
        if a < cand < b and _sign(sf, cand):
            if (count_roots(sf, cand, b, chain) == 1 if upper
                    else count_roots(sf, a, cand, chain) == 0):
                return cand
    end = f"upper endpoint {b}" if upper else f"lower endpoint {a}"
    raise CertificateError(f"cannot shift {end} off a root within 2^-{k} of it")


def _locate_failure(sf: Polynomial, p: Polynomial, chain: Sequence[Polynomial],
                    lo: Fraction, hi: Fraction) -> tuple[tuple[Fraction, Fraction, int, int], Optional[Fraction]]:
    """Bisect down to a narrow subinterval around one root of sf in (lo, hi]."""
    root_hit: Optional[Fraction] = None
    for _ in range(128):
        mid = (lo + hi) / 2
        if not _sign(sf, mid):
            root_hit = mid
            delta = (hi - lo) / 2 ** 16
            x1, x2 = mid - delta, mid + delta
            while not _sign(sf, x1):
                x1 = (x1 + mid) / 2
            while not _sign(sf, x2):
                x2 = (mid + x2) / 2
            lo, hi = x1, x2
            break
        if count_roots(sf, lo, mid, chain) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < Fraction(1, 2 ** 24) and count_roots(sf, lo, hi, chain) == 1:
            break
    return (lo, hi, _sign(p, lo), _sign(p, hi)), root_hit


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

    chain = sturm_chain(p)
    sf = chain[0]
    zero_lo, zero_hi = not _sign(sf, a), not _sign(sf, b)

    lo2 = _shrink(sf, chain, a, b, upper=False) if zero_lo else a
    hi2 = _shrink(sf, chain, lo2, b, upper=True) if zero_hi else b
    if not lo2 < hi2:
        raise CertificateError("endpoint shifts collapsed the interval")

    n_roots = count_roots(sf, lo2, hi2, chain)
    w = witness if lo2 <= witness <= hi2 else (lo2 + hi2) / 2
    sign = _sign(p, w)

    if n_roots == 0 and sign:
        return SignCertificate(p, a, b, lo2, hi2, w, sign, 0, zero_lo, zero_hi, "pass", case_id)

    bracket, root_hit = _locate_failure(sf, p, chain, lo2, hi2)
    return SignCertificate(p, a, b, lo2, hi2, w, sign, max(n_roots, 1), zero_lo, zero_hi,
                           "fail", case_id, bracket, root_hit)
