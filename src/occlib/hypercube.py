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

Every transform runs one integer butterfly, one constant-geometry pass per
coordinate that pairs the even and odd entries at every size: with p = a/b
the analysis rows of an edge are (b-a, a)/b and (1, -1), applied to values
put on one common denominator, so each output is an integer times a
rational scale that depends only on |S|; TensorOperator.apply runs the same
kernel on the rows of its edge matrix.  At p = 1/2, ghat(S) is 2^|S| times
the plain Walsh-Hadamard transform over 2^e.

A family of graphs is transformed from its indicator, packed as one integer
with bit m set when the graph of edge mask m is a member.  When the
indicator depends only on the edges in J, ghat(S) vanishes unless S lies in
J, and on those S it is the transform of the 0/1 restriction to 2^|J|
points, so walsh_support runs the butterfly there and never on the whole
cube.  Which edges the indicator depends on is read off the packed integer
with a shift, an xor and a mask per edge (low_masks).  Its squares stay
integers over one denominator, and quadratic_form weighs them by an
eigenvalue map: a Hoffman audit is these two calls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .exact import clear_denominators

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
    (rows[0] . (lo, hi), rows[1] . (lo, hi)).

    It runs in constant geometry (Pease): every pass pairs the even and odd
    entries and writes the even results before the odd ones, which rotates
    the index right by one bit.  So pass i meets coordinate i on the low bit,
    and after the last pass every index is back in place."""
    (r00, r01), (r10, r11) = rows
    vals = list(vals)
    for i in range(len(vals).bit_length() - 1):
        lo, hi = vals[0::2], vals[1::2]
        if coords >> i & 1:
            lo, hi = ([r00 * x + r01 * y for x, y in zip(lo, hi)],
                      [r10 * x + r11 * y for x, y in zip(lo, hi)])
        vals = lo + hi
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
        den, ints = clear_denominators(values)
        ints = _butterfly(ints, ((b - 2 * a, a), (1, 0)), active)
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


def walsh_support(n: int, p: Fraction, bits: int) -> tuple[int, list[tuple[int, int]]]:
    """The squared orthonormal coefficients (p(1-p))^|S| ghat(S)^2 of the
    indicator of a family of edge masks of K_n, packed in bits (bit m set for
    member m; indicator_bits packs a list of masks), exactly, as integers
    over one denominator: (den, [(S, x), ...]), the square at S being x/den,
    for every edge set S where it is nonzero, in increasing S.

    Edge i is relevant when flipping it takes some member out of the family:
    ((X >> 2^i) ^ X) & low_masks(dim)[i] is nonzero for the packed indicator X.
    The butterfly runs once, on the 0/1 restriction to the relevant edges J,
    read by bit tests; with p = a/b its output y at S gives
    x = y^2 (a(b-a))^|S| over den = b^(2|J|)."""
    p = F(p)
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    if not 1 <= n <= 7:
        # low_masks of K_8's cube alone are 29 integers of 2^28 bits
        raise ValueError(f"walsh_support needs 1 <= n <= 7, got n={n}")
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
    var = [(a * (b - a)) ** j for j in range(len(relevant) + 1)]
    return b ** (2 * len(relevant)), [(points[y], x * x * var[y.bit_count()])
                                      for y, x in enumerate(ints) if x]


def quadratic_form(support: tuple[int, Sequence[tuple[int, int]]],
                   eigenvalue: Mapping) -> Fraction:
    """Sum over the support (den, [(S, x), ...]), as walsh_support gives it,
    of the eigenvalue at S times the square x/den, summed as integers over
    one common denominator."""
    den, squares = support
    scale, lams = clear_denominators([eigenvalue[mask] for mask, _ in squares])
    return F(sum(lam * x for lam, (_, x) in zip(lams, squares)), scale * den)
