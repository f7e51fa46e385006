"""Exact p-biased Fourier analysis on the cube of graphs on n labelled
vertices, and the tensor operators acting there.  At p = 1/2 the operator
T_B flips every edge off B, so it is a shift of the cube, and its average
over the colouring cuts B of K_n is the averaged shift of the cut lemmas.

Every value is exact.  A function on the cube is the list of its
2^C(n,2) values (ints or Fractions) in edge-mask order, and a family is its
packed indicator (below).  Characters are taken in the rational basis
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
depends only on |S|; TensorOperator.apply runs the same kernel on the rows
of its edge matrix.  At p = 1/2, ghat(S) is 2^|S| times the plain
Walsh-Hadamard transform over 2^e.

A family of graphs is transformed from its indicator, packed as one integer
with bit m set when the graph of edge mask m is a member.  When the
indicator depends only on the edges in J, ghat(S) vanishes unless S lies in
J, and on those S it is the transform of the 0/1 restriction to 2^|J|
points, so walsh_support runs the butterfly there and never on the whole
cube.  Which edges the indicator depends on is read off the packed integer
with a shift, an xor and a mask per edge (low_masks).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

__all__ = [
    "TensorOperator",
    "indicator_bits",
    "layer_masks",
    "low_masks",
    "quadratic_form",
    "walsh_support",
]

F = Fraction

_MAX_COORDS = 15  # at most 2^15 values per transform: the edges a family depends on

_ZERO, _ONE = F(0), F(1)


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


class TensorOperator:
    """Product operator acting on one edge coordinate at a time.

    On every edge outside B it applies M = [[1 - r, r], [1, 0]] with
    r = p/(1-p) (rows and columns indexed absent, present); edges of B are
    left alone.  The (present, present) entry is zero, which is the whole
    point: the matrix entry between two graphs vanishes exactly when they
    share an edge off B.  Characters are eigenvectors with eigenvalue
    (-r)^(|S| off B).  At p = 1/2, M swaps absent and present, so
    (T_B f)(G) = f(G xor E'), with E' the edges off B.
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

    def apply(self, values: Sequence) -> list[Fraction]:
        """T_B on a function given by its 2^dim exact values (ints or
        Fractions) in edge-mask order.  With p = a/b, the rows of M are
        (b - 2a, a) / (b - a) and (1, 0): the integer kernel runs on the values
        put on one denominator, and the output at mask is rescaled by the
        number of active edges absent from mask alone."""
        if len(values) != 1 << self.dim:
            raise ValueError(f"expected {1 << self.dim} values, got {len(values)}")
        a, b = self.p.numerator, self.p.denominator
        active = self._active()
        den = lcm(*{x.denominator for x in values})
        ints = _butterfly([x.numerator * (den // x.denominator) for x in values],
                          ((b - 2 * a, a), (1, 0)), active)
        c = active.bit_count()
        dens = [den * (b - a) ** (c - j) for j in range(c + 1)]
        return [F(x, dens[(mask & active).bit_count()]) for mask, x in enumerate(ints)]

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


def indicator_bits(dim: int, members: Iterable[int]) -> int:
    """The indicator of a set of edge masks on the cube of dimension dim, as
    one integer: bit m is set when m is a member."""
    size = 1 << dim
    bits = 0
    for m in members:
        if not 0 <= m < size:
            raise ValueError(f"mask {m} out of range for a cube of dimension {dim}")
        bits |= 1 << m
    return bits


@lru_cache(maxsize=16)
def low_masks(d: int) -> tuple[int, ...]:
    """Entry e, for e = 0..d, indicates the masks without coordinate e among
    the 2^d masks of the cube of dimension d; entry d indicates every mask.
    Each is built by doubling one block of 2^e ones."""
    out = []
    for e in range(d):
        bits, width = (1 << (1 << e)) - 1, 1 << (e + 1)
        while width < 1 << d:
            bits |= bits << width
            width <<= 1
        out.append(bits)
    return (*out, (1 << (1 << d)) - 1)


@lru_cache(maxsize=4)
def layer_masks(d: int) -> tuple[int, ...]:
    """Indicators of the masks with k coordinates set on the cube of dimension
    d, for k = 0..d, each built from the layers one dimension lower."""
    layers = [1]
    for i in range(d):
        layers = [lo | hi << (1 << i) for lo, hi in zip(layers + [0], [0] + layers)]
    return tuple(layers)


def walsh_support(n: int, p: Fraction, bits: int) -> list[tuple[int, Fraction]]:
    """(S, (p(1-p))^|S| * ghat(S)^2), the squared orthonormal coefficient,
    for every edge set S where it is nonzero, in increasing S, exactly, for
    the indicator of a family of edge masks of K_n, packed in bits (bit m set
    for member m; indicator_bits packs a list of masks).

    Edge i is relevant when flipping it takes some member out of the family:
    ((X >> 2^i) ^ X) & low_masks(dim)[i] is nonzero for the packed indicator X.
    The butterfly runs once, on the 0/1 restriction to the relevant edges J,
    read by bit tests; with p = a/b its output x at S makes the square
    x^2 (a(b-a))^|S| / b^(2|J|)."""
    p = F(p)
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    dim = n * (n - 1) // 2
    if bits < 0 or bits >> (1 << dim):
        raise ValueError(f"indicator out of range for n={n}")
    lows = low_masks(dim)
    relevant = [i for i in range(dim) if ((bits >> (1 << i)) ^ bits) & lows[i]]
    if len(relevant) > _MAX_COORDS:
        raise ValueError(f"family depends on {len(relevant)} edges, more than {_MAX_COORDS}")
    # points[y] sets the relevant edges picked by the bits of y, and no other
    points = [0]
    for i in relevant:
        points += [m | 1 << i for m in points]
    raw = bits.to_bytes((max(bits.bit_length(), points[-1] + 1) + 7) // 8, "little")
    a, b = p.numerator, p.denominator
    ints = _butterfly([raw[m >> 3] >> (m & 7) & 1 for m in points], ((b - a, a), (1, -1)),
                      len(points) - 1)
    den = b ** (2 * len(relevant))
    var = [(a * (b - a)) ** k for k in range(len(relevant) + 1)]
    return [(points[y], F(x * x * var[y.bit_count()], den)) for y, x in enumerate(ints) if x]


def quadratic_form(support: Iterable[tuple[int, Fraction]], eigenvalue: Mapping) -> Fraction:
    """Sum over the support, as walsh_support gives it, of the eigenvalue at
    S times the squared orthonormal coefficient at S, summed as integers over
    one common denominator."""
    terms = [(eigenvalue[mask], sq) for mask, sq in support]
    dens = [lam.denominator * sq.denominator for lam, sq in terms]
    den = lcm(*dens)
    return F(sum(lam.numerator * sq.numerator * (den // d) for (lam, sq), d in zip(terms, dens)),
             den)
