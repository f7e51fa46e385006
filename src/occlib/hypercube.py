"""Exact p-biased Fourier analysis on the cube of graphs on n labelled
vertices, and the shift-averaging tensor operators acting there.

Every value is a Fraction.  Characters are taken in the rational basis
psi_S = chi_S / sqrt(p(1-p))^|S|, where chi_S is the orthonormal p-biased
character: psi_S(G) is the product over the edges e of S of 1/(1-p) when e
is absent from G and -1/p when it is present.  The coefficient
ghat(S) = <f, psi_S> is the orthonormal one divided by sqrt(p(1-p))^|S|, so
f = sum_S (p(1-p))^|S| ghat(S) psi_S, and the squared orthonormal
coefficients (p(1-p))^|S| ghat(S)^2, which are all a Hoffman bound reads,
are rational for every p.

Every transform runs one integer butterfly: with p = a/b the analysis rows
of an edge are (b-a, a)/b and (1, -1), applied to values put on one common
denominator, so each output is an integer times a rational scale that
depends only on |S|.  At p = 1/2, ghat(S) is 2^|S| times the plain
Walsh-Hadamard transform over 2^e.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "FunctionOnCube",
    "TensorOperator",
    "character",
    "walsh_matrix",
    "apply_shift",
    "apply_shift_averaged",
    "quadratic_form",
    "walsh_support",
]

F = Fraction

_MAX_COORDS = 15  # cube dimension bound: 2^15 exact values is the ceiling

_ZERO, _ONE = F(0), F(1)


def walsh_matrix(p: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Per-coordinate analysis butterfly; rows = (e not in S, e in S),
    columns = (edge absent, edge present)."""
    p = F(p)
    return ((1 - p, p), (_ONE, -_ONE))


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


def _integer_transform(values: Sequence[Fraction], matrix,
                       coords: int) -> tuple[list[int], list[int]]:
    """A rational 2x2 matrix on every coordinate in coords, through the
    integer kernel: (ints, dens) with output[mask] = ints[mask] / dens[j]
    where j = |mask & coords|."""
    rows, scales = [], []
    for row in matrix:
        m = lcm(*(x.denominator for x in row))
        rows.append(tuple(x.numerator * (m // x.denominator) for x in row))
        scales.append(m)
    m0, m1 = scales
    den = lcm(*{x.denominator for x in values})
    ints = [x.numerator * (den // x.denominator) for x in values]
    c = coords.bit_count()
    return _butterfly(ints, rows, coords), [den * m0 ** (c - j) * m1 ** j for j in range(c + 1)]


def _apply_rational(values: Sequence[Fraction], matrix, coords: int) -> list[Fraction]:
    """The outputs of _integer_transform as Fractions."""
    ints, dens = _integer_transform(values, matrix, coords)
    return [F(x, dens[(mask & coords).bit_count()]) for mask, x in enumerate(ints)]


class FunctionOnCube:
    """A function on all 2^C(n,2) graphs on n labelled vertices, stored
    densely by edge mask with exact Fraction values."""

    __slots__ = ("n", "p", "values", "_dim")

    def __init__(self, n: int, p: Fraction, values: Sequence):
        e = n * (n - 1) // 2
        if e > _MAX_COORDS:
            raise ValueError(f"cube dimension {e} exceeds {_MAX_COORDS}")
        p = F(p)
        if not 0 < p < 1:
            raise ValueError("need 0 < p < 1")
        vals = [v if type(v) is Fraction else F(v) for v in values]
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

    def _like(self, vals: list) -> "FunctionOnCube":
        out = FunctionOnCube.__new__(FunctionOnCube)
        out.n, out.p, out.values, out._dim = self.n, self.p, vals, self._dim
        return out


def character(n: int, p: Fraction, s_mask: int) -> FunctionOnCube:
    """The rational character psi_S indexed by edge set S, as an explicit
    function: (-1/p)^k (1/(1-p))^(|S|-k) on a graph sharing k edges with S."""
    p = F(p)
    size = s_mask.bit_count()
    by_shared = [(-1 / p) ** k / (1 - p) ** (size - k) for k in range(size + 1)]
    e = n * (n - 1) // 2
    return FunctionOnCube(n, p, [by_shared[(mask & s_mask).bit_count()]
                                 for mask in range(1 << e)])


def apply_shift(f: FunctionOnCube, b_mask: int) -> FunctionOnCube:
    """Uniform-measure shift: g(G) = f(G xor complement(B)).

    Only measure-preserving at p = 1/2, so that is required.
    """
    if f.p != F(1, 2):
        raise ValueError("shift operators act on the uniform cube")
    full = (1 << f._dim) - 1
    flip = full & ~b_mask
    return f._like([f.values[mask ^ flip] for mask in range(1 << f._dim)])


def apply_shift_averaged(f: FunctionOnCube, b_masks: Sequence[int]) -> FunctionOnCube:
    """Average of apply_shift over a collection of edge sets, exactly."""
    if not b_masks:
        raise ValueError("empty shift collection")
    shifted = [apply_shift(f, b).values for b in b_masks]
    return f._like([sum(col) / len(b_masks) for col in zip(*shifted)])


class TensorOperator:
    """Product operator acting on one edge coordinate at a time.

    On every edge outside B it applies M = [[1 - r, r], [1, 0]] with
    r = p/(1-p) (rows and columns indexed absent, present); edges of B are
    left alone.  The (present, present) entry is zero, which is the whole
    point: the matrix entry between two graphs vanishes exactly when they
    share an edge off B.  Characters are eigenvectors with eigenvalue
    (-r)^(|S| off B).
    """

    def __init__(self, n: int, p: Fraction, b_mask: int = 0):
        p = F(p)
        if not 0 < p <= F(1, 2):
            raise ValueError("row-stochastic only for 0 < p <= 1/2")
        self.n, self.p, self.b_mask = n, p, b_mask
        self.dim = n * (n - 1) // 2
        self.ratio = p / (1 - p)
        self.matrix = ((1 - self.ratio, self.ratio), (_ONE, _ZERO))

    def _active(self) -> int:
        return ((1 << self.dim) - 1) & ~self.b_mask

    def apply(self, f: FunctionOnCube) -> FunctionOnCube:
        if (f.n, f.p) != (self.n, self.p):
            raise ValueError("mismatched cube")
        return f._like(_apply_rational(f.values, self.matrix, self._active()))

    def entry(self, g_mask: int, h_mask: int) -> Fraction:
        """Matrix entry between two graphs: product of per-edge entries."""
        out = _ONE
        for i in range(self.dim):
            bit = 1 << i
            if self.b_mask & bit:
                if (g_mask & bit) != (h_mask & bit):
                    return _ZERO
                continue
            out *= self.matrix[(g_mask >> i) & 1][(h_mask >> i) & 1]
            if out == 0:
                return _ZERO
        return out

    def eigenvalue(self, s_mask: int) -> Fraction:
        return (-self.ratio) ** (s_mask & self._active()).bit_count()


def walsh_support(f: FunctionOnCube) -> list[tuple[int, Fraction]]:
    """(S, (p(1-p))^|S| * ghat(S)^2), the squared orthonormal coefficient,
    for every edge set S where it is nonzero, in increasing S, exactly."""
    e = f._dim
    ints, dens = _integer_transform(f.values, walsh_matrix(f.p), (1 << e) - 1)
    var = f.p * (1 - f.p)
    scales = [var ** k / dens[k] ** 2 for k in range(e + 1)]
    out = []
    for mask, x in enumerate(ints):
        if x:
            k = scales[mask.bit_count()]
            out.append((mask, F(x * x * k.numerator, k.denominator)))
    return out


def quadratic_form(f: FunctionOnCube, lambda_by_mask: dict,
                   support: Optional[Iterable[tuple[int, Fraction]]] = None) -> Fraction:
    """Sum over characters of lambda(S) times the squared orthonormal
    coefficient at S; pass support = walsh_support(f) when it is already at
    hand."""
    if support is None:
        support = walsh_support(f)
    return sum((lambda_by_mask[mask] * sq for mask, sq in support), _ZERO)
