"""Exact p-biased Fourier analysis on the cube of graphs on n labelled
vertices, and the shift-averaging tensor operators acting there.

Every transform runs one integer butterfly.  With p = a/b the analysis row
of an edge in S is r*(1, -1), r = sqrt(p(1-p)), so fhat(S) = r^|S| * ghat(S)
where ghat uses the integer rows (b-a, a) and (1, -1) over values put on one
common denominator; each output is an integer times a rational scale that
depends only on |S|.  At p = 1/2 this is the plain Walsh-Hadamard transform
with fhat(S) = WHT(S)/2^e.  Squared coefficients, and with them quadratic
forms, are rational for every p.  Values handed to and returned by the
transforms live in the quadratic extension Q[sqrt(p(1-p))] (QuadExt), built
only at that boundary; when sqrt(p(1-p)) is itself rational (p = 1/2 gives
1/2) elements fold to plain rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

from .graph import Graph

__all__ = [
    "QuadExt",
    "FunctionOnCube",
    "TensorOperator",
    "character",
    "walsh_matrix",
    "inverse_walsh_matrix",
    "apply_shift",
    "apply_shift_averaged",
    "quadratic_form",
    "walk_step",
    "walsh_squares",
]

F = Fraction

_MAX_COORDS = 15  # cube dimension bound: 2^15 exact values is the ceiling


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return F(rn, rd)
    return None


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(d) with rational a, b and fixed square-free-ish radicand d.

    Construction folds b into a when sqrt(d) is rational, so equality and
    is_rational behave the same whether a value was built folded or not.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __init__(self, a, b=0, d=0):
        a, b, d = F(a), F(b), F(d)
        if d < 0:
            raise ValueError("negative radicand")
        if b != 0:
            root = _rational_sqrt(d)
            if root is not None:
                a, b = a + b * root, F(0)
        if b == 0:
            d = F(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def sqrt(d) -> "QuadExt":
        return QuadExt(0, 1, d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"irrational value {self!r}")
        return self.a

    def _join(self, other: "QuadExt") -> Fraction:
        # a common radicand for a binary operation; zero marks "rational"
        if self.d and other.d and self.d != other.d:
            raise ValueError("mixed radicands")
        return self.d or other.d

    def __add__(self, other) -> "QuadExt":
        other = _as_quad(other)
        return QuadExt(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "QuadExt":
        return self + (-_as_quad(other))

    def __rsub__(self, other) -> "QuadExt":
        return _as_quad(other) - self

    def __mul__(self, other) -> "QuadExt":
        other = _as_quad(other)
        d = self._join(other)
        return QuadExt(self.a * other.a + self.b * other.b * d,
                       self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadExt":
        other = _as_quad(other)
        norm = other.a * other.a - other.b * other.b * other.d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        conj = QuadExt(other.a, -other.b, other.d)
        prod = self * conj
        return QuadExt(prod.a / norm, prod.b / norm, prod.d)

    def __rtruediv__(self, other) -> "QuadExt":
        return _as_quad(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_quad(other)
        if not isinstance(other, QuadExt):
            return NotImplemented
        if self.a != other.a or self.b != other.b:
            return False
        return self.b == 0 or self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"


def _as_quad(v) -> QuadExt:
    if isinstance(v, QuadExt):
        return v
    return QuadExt(F(v))


_ZERO, _ONE = QuadExt(0), QuadExt(1)


def walsh_matrix(p: Fraction) -> tuple[tuple[QuadExt, ...], ...]:
    """Per-coordinate analysis butterfly; rows = (e not in S, e in S),
    columns = (edge absent, edge present)."""
    p = F(p)
    root = QuadExt.sqrt(p * (1 - p))
    return ((QuadExt(1 - p), QuadExt(p)), (root, -root))


def inverse_walsh_matrix(p: Fraction) -> tuple[tuple[QuadExt, ...], ...]:
    p = F(p)
    root = QuadExt.sqrt(p * (1 - p))
    return ((QuadExt(1), root / (1 - p)), (QuadExt(1), -(root / p)))


def _ghat_matrix(p: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """walsh_matrix(p) with its second row divided by sqrt(p(1-p))."""
    return ((1 - p, p), (F(1), F(-1)))


def _butterfly(vals: Sequence[int], rows, coords: int) -> list[int]:
    """The integer kernel: on every coordinate i in coords, each pair
    (lo, hi) = (v[m], v[m | 2^i]) with bit i clear in m becomes
    (rows[0] . (lo, hi), rows[1] . (lo, hi))."""
    (r00, r01), (r10, r11) = rows
    vals = list(vals)
    size = len(vals)
    for i in range(size.bit_length() - 1):
        if not coords >> i & 1:
            continue
        h = 1 << i
        step = 2 * h
        # loop over whichever is fewer: offsets in a block or blocks
        if 2 * h * h <= size:
            halves = [(slice(j, size, step), slice(j + h, size, step)) for j in range(h)]
        else:
            halves = [(slice(k, k + h), slice(k + h, k + step)) for k in range(0, size, step)]
        for lo_at, hi_at in halves:
            lo, hi = vals[lo_at], vals[hi_at]
            vals[lo_at] = [r00 * x + r01 * y for x, y in zip(lo, hi)]
            vals[hi_at] = [r10 * x + r11 * y for x, y in zip(lo, hi)]
    return vals


def _integer_rows(matrix) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """Clear each row of a rational 2x2 matrix by its own denominator:
    (integer rows, (m0, m1)) with matrix[k] = rows[k] / m_k."""
    rows, scales = [], []
    for row in matrix:
        m = lcm(*(F(x).denominator for x in row))
        rows.append(tuple(int(F(x) * m) for x in row))
        scales.append(m)
    return tuple(rows), tuple(scales)


def _integer_parts(values: Sequence[QuadExt]) -> tuple[int, list[list[int]], Fraction]:
    """Values a + b*sqrt(rad) as integer vectors over one common denominator:
    (den, [a-part] or [a-part, b-part], rad), rad = 0 for rational values."""
    rads = {v.d for v in values if v.b}
    if len(rads) > 1:
        raise ValueError("mixed radicands")
    rad = rads.pop() if rads else F(0)
    comps = [[v.a for v in values]]
    if rad:
        comps.append([v.b for v in values])
    den = lcm(*{x.denominator for comp in comps for x in comp})
    return den, [[x.numerator * (den // x.denominator) for x in comp] for comp in comps], rad


def _apply_rational(values: Sequence[QuadExt], matrix, coords: int) -> list[QuadExt]:
    """A rational 2x2 matrix on every coordinate in coords, through the
    integer kernel on the rational and sqrt parts separately.  An output whose
    index has j of the c coordinates set carries the scale 1/(den m0^(c-j) m1^j)."""
    rows, (m0, m1) = _integer_rows(matrix)
    den, parts, rad = _integer_parts(values)
    outs = [_butterfly(part, rows, coords) for part in parts]
    c = coords.bit_count()
    scale = [F(1, den * m0 ** (c - j) * m1 ** j) for j in range(c + 1)]
    irr = outs[1] if rad else [0] * len(values)
    out = []
    for mask, (x, y) in enumerate(zip(outs[0], irr)):
        k = scale[(mask & coords).bit_count()]
        out.append(QuadExt(x * k, y * k, rad))
    return out


class FunctionOnCube:
    """A function on all 2^C(n,2) graphs on n labelled vertices, stored
    densely by edge mask with exact QuadExt values."""

    __slots__ = ("n", "p", "values", "_dim")

    def __init__(self, n: int, p: Fraction, values: Sequence):
        e = n * (n - 1) // 2
        if e > _MAX_COORDS:
            raise ValueError(f"cube dimension {e} exceeds {_MAX_COORDS}")
        p = F(p)
        if not 0 < p < 1:
            raise ValueError("need 0 < p < 1")
        vals = [_as_quad(v) for v in values]
        if len(vals) != 1 << e:
            raise ValueError(f"expected {1 << e} values, got {len(vals)}")
        self.n, self.p, self.values, self._dim = n, p, vals, e

    @staticmethod
    def indicator(n: int, p: Fraction, members: Iterable[int]) -> "FunctionOnCube":
        e = n * (n - 1) // 2
        vals = [_ZERO] * (1 << e)
        for mask in members:
            vals[mask] = _ONE
        return FunctionOnCube(n, p, vals)

    def measure_of_mask(self, mask: int) -> Fraction:
        k = mask.bit_count()
        return self.p ** k * (1 - self.p) ** (self._dim - k)

    def expectation(self) -> QuadExt:
        total = QuadExt(0)
        for mask, v in enumerate(self.values):
            total = total + v * self.measure_of_mask(mask)
        return total

    def inner(self, other: "FunctionOnCube") -> QuadExt:
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError("mismatched cubes")
        total = QuadExt(0)
        for mask, (u, v) in enumerate(zip(self.values, other.values)):
            total = total + u * v * self.measure_of_mask(mask)
        return total

    def _like(self, vals: list) -> "FunctionOnCube":
        out = FunctionOnCube.__new__(FunctionOnCube)
        out.n, out.p, out.values, out._dim = self.n, self.p, vals, self._dim
        return out

    def _root_powers(self) -> list[QuadExt]:
        """sqrt(p(1-p))^k for k = 0..dim."""
        root = QuadExt.sqrt(self.p * (1 - self.p))
        out = [QuadExt(1)]
        for _ in range(self._dim):
            out.append(out[-1] * root)
        return out

    def walsh(self) -> "FunctionOnCube":
        """Fourier coefficients indexed by the character's edge set:
        fhat(S) = sqrt(p(1-p))^|S| * ghat(S)."""
        full = (1 << self._dim) - 1
        ghat = _apply_rational(self.values, _ghat_matrix(self.p), full)
        rp = self._root_powers()
        return self._like([v * rp[mask.bit_count()] for mask, v in enumerate(ghat)])

    def inverse_walsh(self) -> "FunctionOnCube":
        """f(G) = sum_S fhat(S) sqrt(p(1-p))^|S| prod_{e in S} c(G_e), with
        c(absent) = 1/(1-p) and c(present) = -1/p."""
        full = (1 << self._dim) - 1
        rp = self._root_powers()
        scaled = [v * rp[mask.bit_count()] for mask, v in enumerate(self.values)]
        p = self.p
        return self._like(_apply_rational(scaled, ((F(1), 1 / (1 - p)), (F(1), -1 / p)), full))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionOnCube):
            return NotImplemented
        return (self.n, self.p) == (other.n, other.p) and self.values == other.values


def character(n: int, p: Fraction, s_mask: int) -> FunctionOnCube:
    """The biased character indexed by edge set S, as an explicit function."""
    p = F(p)
    root = QuadExt.sqrt(p * (1 - p))
    present = -(root / p)
    absent = root / (1 - p)
    e = n * (n - 1) // 2
    vals = []
    for mask in range(1 << e):
        v = QuadExt(1)
        s = s_mask
        while s:
            low = s & -s
            v = v * (present if mask & low else absent)
            s ^= low
        vals.append(v)
    return FunctionOnCube(n, p, vals)


def apply_shift(f: FunctionOnCube, b_mask: int) -> FunctionOnCube:
    """Uniform-measure shift: g(G) = f(G xor complement(B)).

    Only measure-preserving at p = 1/2, so that is required.
    """
    if f.p != F(1, 2):
        raise ValueError("shift operators act on the uniform cube")
    full = (1 << f._dim) - 1
    flip = full & ~b_mask
    vals = [f.values[mask ^ flip] for mask in range(1 << f._dim)]
    return FunctionOnCube(f.n, f.p, vals)


def apply_shift_averaged(f: FunctionOnCube, b_masks: Sequence[int]) -> FunctionOnCube:
    """Average of apply_shift over a collection of edge sets, exactly."""
    if not b_masks:
        raise ValueError("empty shift collection")
    acc = [QuadExt(0)] * len(f.values)
    for b in b_masks:
        shifted = apply_shift(f, b)
        acc = [x + y for x, y in zip(acc, shifted.values)]
    w = F(1, len(b_masks))
    return FunctionOnCube(f.n, f.p, [x * w for x in acc])


class TensorOperator:
    """Product operator acting on one edge coordinate at a time.

    On every edge outside B it applies M = [[(1-2p)/(1-p), p/(1-p)], [1, 0]]
    (rows and columns indexed absent, present); edges of B are left alone.
    The (present, present) entry is zero, which is the whole point: the matrix
    entry between two graphs vanishes exactly when they share an edge off B.
    Characters are eigenvectors with eigenvalue (-p/(1-p))^(|S| off B).
    """

    def __init__(self, n: int, p: Fraction, b_mask: int = 0):
        p = F(p)
        if not 0 < p <= F(1, 2):
            raise ValueError("row-stochastic only for 0 < p <= 1/2")
        self.n, self.p, self.b_mask = n, p, b_mask
        self.dim = n * (n - 1) // 2
        self.matrix = ((F(1 - 2 * p) / (1 - p), p / (1 - p)), (F(1), F(0)))
        assert self.matrix[1][1] == 0
        assert all(sum(row) == 1 for row in self.matrix)

    def _active(self) -> int:
        return ((1 << self.dim) - 1) & ~self.b_mask

    def apply(self, f: FunctionOnCube) -> FunctionOnCube:
        if (f.n, f.p) != (self.n, self.p):
            raise ValueError("mismatched cube")
        return f._like(_apply_rational(f.values, self.matrix, self._active()))

    def apply_transpose(self, f: FunctionOnCube) -> FunctionOnCube:
        m = self.matrix
        transposed = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
        return f._like(_apply_rational(f.values, transposed, self._active()))

    def entry(self, g_mask: int, h_mask: int) -> Fraction:
        """Matrix entry between two graphs: product of per-edge entries."""
        out = F(1)
        for i in range(self.dim):
            bit = 1 << i
            if self.b_mask & bit:
                if (g_mask & bit) != (h_mask & bit):
                    return F(0)
                continue
            out *= self.matrix[(g_mask >> i) & 1][(h_mask >> i) & 1]
            if out == 0:
                return F(0)
        return out

    def eigenvalue(self, s_mask: int) -> Fraction:
        k = (s_mask & self._active()).bit_count()
        return (-self.p / (1 - self.p)) ** k


def walsh_squares(f: FunctionOnCube) -> list[Fraction]:
    """fhat(S)^2 = (p(1-p))^|S| * ghat(S)^2 for every edge set S, exactly.

    Only the integer kernel runs, so f must be rational-valued.
    """
    den, parts, rad = _integer_parts(f.values)
    if rad:
        raise ValueError("walsh_squares needs a rational-valued function")
    rows, (m0, m1) = _integer_rows(_ghat_matrix(f.p))
    e = f._dim
    ints = _butterfly(parts[0], rows, (1 << e) - 1)
    # ghat(S) = ints[S] / (den m0^(e-k) m1^k) with k = |S|
    scales = [(f.p * (1 - f.p)) ** k / (den * m0 ** (e - k) * m1 ** k) ** 2
              for k in range(e + 1)]
    zero = F(0)
    out = []
    for mask, x in enumerate(ints):
        if x:
            k = scales[mask.bit_count()]
            out.append(F(x * x * k.numerator, k.denominator))
        else:
            out.append(zero)
    return out


def quadratic_form(f: FunctionOnCube, lambda_by_mask: dict,
                   squares: Optional[Sequence[Fraction]] = None) -> QuadExt:
    """Sum over characters of lambda(S) * fhat(S)^2, for rational-valued f;
    pass squares = walsh_squares(f) when it is already at hand."""
    if squares is None:
        squares = walsh_squares(f)
    return QuadExt(sum(lambda_by_mask[mask] * sq for mask, sq in enumerate(squares) if sq))


def walk_step(g: Graph, b_mask: int, p: Fraction, rng) -> Graph:
    """One step of the chain whose kernel is the tensor operator: edges off B
    are dropped when present and added with probability p/(1-p) when absent."""
    p = F(p)
    if not 0 < p <= F(1, 2):
        raise ValueError("need 0 < p <= 1/2")
    dim = g.n * (g.n - 1) // 2
    add_prob = p / (1 - p)
    mask = g.mask
    for i in range(dim):
        bit = 1 << i
        if b_mask & bit:
            continue
        if mask & bit:
            mask &= ~bit
        elif rng.random() < add_prob:
            mask |= bit
    return Graph(g.n, mask)
