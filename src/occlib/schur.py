"""Sets of nonzero GF(2) vectors, their hyperplane cut statistics, and the
spectra that bound families free of odd linear dependencies.

Graphs embed here by sending an edge to the sum of its endpoint basis
vectors: odd cycles become odd-size zero-sum subsets (Schur triples in the
three-element case), vertex-coloring cuts become hyperplane cuts, forests
become linearly independent sets.  Everything the graph modules verify has
an analogue here, checked exhaustively over all subsets of the 15 nonzero
vectors of dimension four.  A vector set's cut statistics form the same
CutStats record as a graph's, so its eigenvalues are spectra.Spectrum values.
One evaluator, _cut_record, builds that record and types a 4-cut as a box
(the image of a 4-cycle) when its mask is in _boxes(n).  Graphs type their
4-cuts by a separate rule, so the lift claims compare two typings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cutstats import CutStats, cut_stats, reference_graphs, xor_span
from .graph import Graph, edge_pairs, enumerate_unlabeled
from .spectra import (
    GAP_COMBINED,
    GAP_UNIFORM,
    LAMBDA_MIN_UNIFORM,
    Spectrum,
    VerificationReport,
    eval_lambda1_skew,
    lambda_min_skew,
)

__all__ = [
    "VectorSet",
    "solvable_all_ones",
    "has_odd_dependency",
    "has_odd_dependency_search",
    "lift_graph",
    "verify_oldc_claims",
]

F = Fraction

_MAX_DIM = 5


def solvable_all_ones(vectors: Sequence[int], n: int) -> bool:
    """Is there w with <v, w> = 1 for every v?  Infeasibility of this system
    is witnessed exactly by an odd-size zero-sum subset, so the eliminator
    decides odd linear dependency from the dual side."""
    basis: list[int] = []  # rows (v << 1) | rhs, kept in echelon order
    for v in vectors:
        if not 0 < v < (1 << n):
            raise ValueError(f"vector {v} not a nonzero point of GF(2)^{n}")
        row = (v << 1) | 1
        for b in basis:
            if (row ^ b) >> 1 < row >> 1:
                row ^= b
        if row >> 1:
            basis.append(row)
            basis.sort(reverse=True)
        elif row & 1:
            return False
    return True


def has_odd_dependency(vs: "VectorSet") -> bool:
    """No hyperplane cuts the whole set exactly when an odd-size subset sums
    to zero."""
    return not solvable_all_ones(vs.vectors(), vs.n)


def has_odd_dependency_search(vs: "VectorSet") -> bool:
    """Direct witness search over subsets; exponential, for cross-checks."""
    vecs = vs.vectors()
    if len(vecs) > 20:
        raise ValueError("search decider limited to 20 vectors")
    for sub in range(1, 1 << len(vecs)):
        if sub.bit_count() & 1:
            acc = 0
            for i in range(len(vecs)):
                if sub >> i & 1:
                    acc ^= vecs[i]
            if acc == 0:
                return True
    return False


class VectorSet:
    """A set of nonzero vectors in GF(2)^n, packed as a bitmask with bit v
    set when vector v belongs to the set."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if not 1 <= n <= _MAX_DIM:
            raise ValueError(f"dimension must be 1..{_MAX_DIM}")
        if mask < 0 or mask >> (1 << n) or mask & 1:
            raise ValueError("mask must select nonzero vectors of the space")
        self.n, self.mask = n, mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorSet):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VectorSet(n={self.n}, mask={self.mask})"

    @staticmethod
    def from_vectors(n: int, vectors: Iterable[int]) -> "VectorSet":
        mask = 0
        for v in vectors:
            if not 0 < v < (1 << n):
                raise ValueError(f"vector {v} not a nonzero point of GF(2)^{n}")
            mask |= 1 << v
        return VectorSet(n, mask)

    def vectors(self) -> list[int]:
        return [v for v in range(1, 1 << self.n) if self.mask >> v & 1]

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def cut_stats(self) -> CutStats:
        """Hyperplane cut statistics; independent 4-sets take the place of
        4-edge forests and boxes that of 4-cycles."""
        pm = _parity_masks(self.n)
        return CutStats(*_cut_record(self.mask, pm, _boxes(self.n)), len(pm))

    def cut_distribution(self) -> tuple[Fraction, ...]:
        return self.cut_stats().distribution()


@lru_cache(maxsize=8)
def _parity_masks(n: int) -> tuple[int, ...]:
    """Entry w has bit v set when <v, w> is odd.  That parity is linear in w,
    so the table is the xor span of the masks of the coordinate functionals."""
    return xor_span([sum(1 << v for v in range(1, 1 << n) if v >> b & 1) for b in range(n)])


@lru_cache(maxsize=8)
def _boxes(n: int) -> frozenset[int]:
    """Masks of the boxes of GF(2)^n: four distinct nonzero vectors summing
    to zero, each box listed once as {a, b, c, a^b^c} with a < b < c < a^b^c."""
    top = 1 << n
    return frozenset(1 << a | 1 << b | 1 << c | 1 << (a ^ b ^ c)
                     for a in range(1, top) for b in range(a + 1, top)
                     for c in range(b + 1, top) if c < a ^ b ^ c)


def _cut_record(mask: int, pm: Sequence[int], boxes: frozenset[int]) -> tuple:
    """(counts, forest4, cycle4) of the subset mask, in one pass over the
    hyperplane masks pm.  Every vector of a cut has odd inner product with w,
    so no odd number of them sums to zero: four cut vectors form a box when
    their mask is in boxes and are independent otherwise."""
    counts = [0] * (mask.bit_count() + 1)
    indep = box = 0
    for w_mask in pm:
        cut = mask & w_mask
        k = cut.bit_count()
        counts[k] += 1
        if k == 4:
            if cut in boxes:
                box += 1
            else:
                indep += 1
    return tuple(counts), indep, box


def lift_graph(g: Graph) -> VectorSet:
    """Edge {i, j} becomes e_i + e_j; the cycle space turns into the space
    of dependencies, so cut laws and spectra transfer verbatim."""
    vecs = [(1 << i) | (1 << j) for k, (i, j) in enumerate(edge_pairs(g.n))
            if g.mask >> k & 1]
    return VectorSet.from_vectors(g.n, vecs)


# ---------------------------------------------------------------------------
# exhaustive verification in dimension four
# ---------------------------------------------------------------------------


def _dense_tables(n: int):
    """Per-mask xor-sum and rank over all subsets of the nonzero vectors of
    GF(2)^n, built by stripping the lowest vector.  The span of a subset is
    held as a 2^n-bit set, bit x set when x is in it; a vector outside the
    span doubles it by its coset, the span translated by xor with v, which
    swaps the halves of each block of 2^i bits for each bit i of v.  The rank
    is log2 of the span's size."""
    size = 1 << (1 << n)
    halves = [sum(1 << x for x in range(1 << n) if not x >> i & 1) for i in range(n)]
    xs = [0] * size
    span = [1] * size  # the span of the empty set is {0}
    for m in range(2, size, 2):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        xs[m] = xs[rest] ^ v
        s = span[rest]
        if not s >> v & 1:
            coset = s
            for i, lower in enumerate(halves):
                if v >> i & 1:
                    coset = (coset & lower) << (1 << i) | coset >> (1 << i) & lower
            s |= coset
        span[m] = s
    return xs, [s.bit_count().bit_length() - 1 for s in span]


def verify_oldc_claims(seed: int = 20260815) -> VerificationReport:
    """Exhaustive verification of the vector-set spectra in dimension four,
    plus decider cross-checks, graph-lift consistency, and the dimension-two
    family exhaust.  The 2^15 subsets have few distinct cut records; each
    record is evaluated once by the spectra, and each (structural type,
    record) pair that occurs is checked once."""
    rep = VerificationReport("oldc-claims")
    rng = random.Random(seed)
    pm, boxes = _parity_masks(4), _boxes(4)
    xs, rank = _dense_tables(4)

    pairs = set()  # (size, zero xor-sum, rank) of a subset, and its cut record
    q_identities = True
    m1_sizes = True
    m0_types = True
    for mask in range(2, 1 << 16, 2):
        record = _cut_record(mask, pm, boxes)
        size = mask.bit_count()
        r = rank[mask]
        pairs.add(((size, xs[mask] == 0, r), record))
        c = record[0]
        if c[0] << r != 16:
            q_identities = False
        essentials = 0
        rest = mask
        while rest:  # one rank lookup per member vector
            low = rest & -rest
            essentials += rank[mask ^ low] < r
            rest ^= low
        if c[1] != essentials * c[0]:
            q_identities = False
        if essentials == 1 and not (size == 1 or size >= 4):
            m1_sizes = False
        if essentials == 0 and 1 <= size <= 5:
            if not ((size == 3 and xs[mask] == 0)
                    or (size == 4 and xs[mask] == 0)
                    or (size == 5 and r == 4 and xs[mask] == 0)
                    or (size == 5 and r == 3)):
                m0_types = False

    s1, s2, sc = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()
    values = {}
    for _, record in pairs:
        if record not in values:
            stats = CutStats(*record, len(pm))
            values[record] = s1.value(stats), s2.value(stats), sc.value(stats)
    gap1 = LAMBDA_MIN_UNIFORM + GAP_UNIFORM
    min_ok = tight1 = tight_c = combined_gap_ok = l2_ok = gap_ok = True
    for (size, zero_sum, r), record in pairs:
        l1, l2, lc = values[record]
        is_tight_type = (size in (1, 2) or (size == 3 and zero_sum)
                         or (size == 4 and r == 4) or (size == 5 and r == 3))
        min_ok &= l1 >= (LAMBDA_MIN_UNIFORM if is_tight_type else gap1)
        tight1 &= (l1 == LAMBDA_MIN_UNIFORM) == is_tight_type
        # the gap is attained exactly by the punctured 3-spaces
        gap_ok &= (not is_tight_type and l1 == gap1) == (size == 7 and r == 3)
        l2_ok &= -1 <= l2 <= 1
        if size <= 3:
            l2_ok &= l2 == 0
        if size == 4 and r == 4:
            l2_ok &= l2 == F(1, 16)
        if size == 4 and zero_sum:
            l2_ok &= l2 == F(-1, 8)
        if size == 5 and r == 3:
            l2_ok &= l2 == F(1, 8)
        is_tight_comb = size in (1, 2) or (size == 3 and zero_sum)
        tight_c &= (lc == LAMBDA_MIN_UNIFORM) == is_tight_comb
        if not is_tight_comb:
            combined_gap_ok &= lc >= LAMBDA_MIN_UNIFORM + GAP_COMBINED

    rep.add("lambda1:min=-1/7", min_ok)
    rep.add("lambda1:tight-set-structural", tight1)
    seven_sets = sum(1 for m in range(2, 1 << 16, 2) if rank[m] == 3 and m.bit_count() == 7)
    rep.add("lambda1:gap-1/56-attained-by-punctured-3-spaces", gap_ok and seven_sets == 15)
    rep.add("lambda2:typed-values", l2_ok)
    rep.add("combined:tight-set-structural", tight_c)
    rep.add("combined:gap=1/952", combined_gap_ok)
    rep.add("cut-identities:q0-and-q1", q_identities)
    rep.add("structure:one-essential-sizes", m1_sizes)
    rep.add("structure:no-essential-small-types", m0_types)
    rep.add("structure:schur-triple-count=35",
            sum(1 for m in range(2, 1 << 16, 2)
                if xs[m] == 0 and m.bit_count() == 3) == 35)

    # the punctured 3-space: cuts are empty or boxes, nothing in between
    s7 = VectorSet.from_vectors(3, range(1, 8))
    d7 = s7.cut_distribution()
    rep.add("7set:distribution=1/8+7/8x^4",
            tuple(d7[k] for k in range(5)) == (F(1, 8), 0, 0, 0, F(7, 8)))
    rep.add("7set:lambda1=-1/8",
            s1.value(s7.cut_stats()) == LAMBDA_MIN_UNIFORM + GAP_UNIFORM)
    rep.add("7set:lambda2=7/8", s2.value(s7.cut_stats()) == F(7, 8))

    # decider agreement: all of dimension 3, a random slab of dimension 4
    ok = all(has_odd_dependency(VectorSet(3, m)) ==
             has_odd_dependency_search(VectorSet(3, m))
             for m in range(0, 256, 2))
    sample = [rng.randrange(0, 1 << 16) & ~1 for _ in range(400)]
    ok = ok and all(has_odd_dependency(VectorSet(4, m)) ==
                    has_odd_dependency_search(VectorSet(4, m)) for m in sample)
    rep.add("deciders:search-equals-solvability", ok)

    # graph lifts: cut law, spectra and cycle parity all transfer
    ok_dist = ok_l1 = ok_l2 = ok_odd = True
    graphs = [Graph(4, m) for m in range(1, 64)]
    graphs += [g for g in enumerate_unlabeled(5) if g.edge_count]
    for g in graphs:
        lifted = lift_graph(g)
        stats, lstats = cut_stats(g), lifted.cut_stats()
        ok_dist &= stats.distribution() == lstats.distribution()
        ok_l1 &= s1.value(stats) == s1.value(lstats)
        ok_l2 &= s2.value(stats) == s2.value(lstats)
        ok_odd &= g.has_odd_cycle() == has_odd_dependency(lifted)
    rep.add("lift:cut-distributions-match", ok_dist)
    rep.add("lift:lambda1-matches", ok_l1)
    rep.add("lift:lambda2-matches", ok_l2)
    rep.add("lift:odd-cycle-iff-odd-dependency", ok_odd)

    # dimension 2: 256 families of sets; agreeing means at most one member
    ok_agree = True
    best_measure = F(0)
    for fam_bits in range(256):
        members = [m << 1 for m in range(8) if fam_bits >> m & 1]
        agreeing = True
        for i, a in enumerate(members):
            for b in members[i:]:
                agreement = (~(a ^ b)) & 0b1110
                if not has_odd_dependency(VectorSet(2, agreement)):
                    agreeing = False
        if agreeing != (len(members) <= 1):
            ok_agree = False
        if agreeing and members:
            best_measure = max(best_measure, F(len(members), 8))
    rep.add("n2:agreeing-iff-at-most-one-member", ok_agree)
    rep.add("n2:max-agreeing-measure-1/8", best_measure == F(1, 8))

    # biased spot checks at p = 3/8
    p = F(3, 8)
    skew = Spectrum.skew1(p)
    box = VectorSet.from_vectors(3, [1, 2, 4, 7])
    rep.add("skew:box-matches-4-cycle",
            skew.value(box.cut_stats()) == eval_lambda1_skew(reference_graphs()["C4"], p))
    tights = [VectorSet.from_vectors(3, [1]),
              VectorSet.from_vectors(3, [1, 2]),
              VectorSet.from_vectors(3, [1, 2, 3])]
    rep.add("skew:tight-types-at-minimum",
            all(skew.value(t.cut_stats()) == lambda_min_skew(p)
                for t in tights))
    return rep
