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

The exhaustive scan visits no subset on its own.  Each per-subset quantity
(xor-sum, rank, cut counts, box count, essentials, the two odd-dependency
deciders) is a plane: one 2^15-bit integer, bit m standing for the subset
with mask 2m, which is the packing of a family on the cube of dimension 15,
so hypercube.low_masks and layer_masks select subsets by member and by
size.  Counts are bit-sliced over several planes.  The claims are ANDs and
popcounts of planes; the subsets fall into 45 groups of equal size, zero
sum, rank and counts, and each group's record is _cut_record of its least
member.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, xor
from typing import Iterable, NamedTuple, Sequence

from .cutstats import CutStats, cut_stats, reference_graphs, xor_span
from .graph import Graph, edge_pairs, enumerate_unlabeled
from .hypercube import layer_masks, low_masks
from .spectra import (
    GAP_COMBINED,
    GAP_UNIFORM,
    LAMBDA_MIN_UNIFORM,
    Spectrum,
    VerificationReport,
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


def _add_plane(counter: list[int], plane: int) -> None:
    """Add the 0/1 plane into the bit-sliced counter, whose entry i holds
    bit i of the count at every position, by ripple carry."""
    for i, bit in enumerate(counter):
        if not plane:
            return
        counter[i], plane = bit ^ plane, bit & plane
    if plane:
        counter.append(plane)


def _count_equals(counter: Sequence[int], k: int, full: int) -> int:
    """The plane of the positions of full where the bit-sliced counter reads k."""
    if k >> len(counter):
        return 0
    for i, bit in enumerate(counter):
        full = full & bit if k >> i & 1 else full ^ (full & bit)
    return full


def _closure_planes(labels: int, steps: Sequence[int]) -> list[int]:
    """Entry l: the subsets of the steps reaching label l, where a subset
    reaches the xor of the steps of any of its own subsets.  A subset that
    adds step t reaches l when its rest reaches l or l ^ t, so each step
    doubles the planes; label 0 is reached by the empty subset."""
    planes, width = [1] + [0] * (labels - 1), 1
    for t in steps:
        planes = [p | (p | planes[lab ^ t]) << width for lab, p in enumerate(planes)]
        width <<= 1
    return planes


class _Planes(NamedTuple):
    """Per-subset quantities of all subsets of the d = 2^n - 1 nonzero vectors
    of GF(2)^n, each packed as a 2^d-bit integer in which bit m stands for the
    subset with mask 2m: the packing of a family on the cube of dimension d,
    vector v being coordinate v - 1.  Counts are bit-sliced: entry i of a
    counter holds bit i of the count."""

    n: int
    boxes: frozenset[int]         # the box table the box counts were read from
    zero_sum: int                 # the members sum to zero
    rank: tuple[int, ...]         # entry r: the members have rank r
    cuts: tuple[list[int], ...]   # entry k: the number of hyperplanes cutting k members
    box_cuts: list[int]           # the number of hyperplanes whose cut is in boxes
    odd_zero_sum: int             # some odd number of members sums to zero
    held: int                     # some hyperplane cuts every member


def _scan_planes(n: int, boxes: frozenset[int]) -> _Planes:
    """The planes of every subset of the nonzero vectors of GF(2)^n.  The
    rank is read off the span, built by doubling over the vectors (u is in
    the span of S and v when u or u ^ v is in the span of S), never from the
    cut counts, which the q0 identity compares it with."""
    d = (1 << n) - 1
    lows, layers = low_masks(d), layer_masks(d)
    full = lows[d]
    member = [0] + [full ^ low for low in lows[:d]]  # entry v: v is a member

    def members(mask: int) -> list[int]:
        return [member[v] for v in range(1, d + 1) if mask >> v & 1]

    nonzero_sum = 0
    for b in range(n):  # bit b of the xor-sum: the parity of the members in the cut by e_b
        nonzero_sum |= reduce(xor, members(_parity_masks(n)[1 << b]))
    span_size: list[int] = []
    for plane in _closure_planes(1 << n, range(1, d + 1))[1:]:
        _add_plane(span_size, plane)
    # labels are (size parity, xor-sum): one vector more flips the parity
    odd_zero_sum = _closure_planes(2 << n, [1 << n | v for v in range(1, d + 1)])[1 << n]
    cuts: tuple[list[int], ...] = tuple([] for _ in range((1 << (n - 1)) + 1))
    box_cuts: list[int] = []
    held = 0
    box_planes = {box: reduce(and_, members(box)) for box in boxes}
    for w_mask in _parity_masks(n):
        cut_size: list[int] = []
        for plane in members(w_mask):
            _add_plane(cut_size, plane)
        for k, counter in enumerate(cuts):
            at_k = _count_equals(cut_size, k, full)
            _add_plane(counter, at_k)
            held |= at_k & layers[k]
        four = _count_equals(cut_size, 4, full)
        if four:
            inside = 0
            for box, plane in box_planes.items():
                if not box & ~w_mask:
                    inside |= plane
            _add_plane(box_cuts, four & inside)
    return _Planes(n, boxes, full & ~nonzero_sum,
                   tuple(_count_equals(span_size, (1 << r) - 1, full) for r in range(n + 1)),
                   cuts, box_cuts, odd_zero_sum, held)


def _essential_counts(planes: _Planes) -> list[int]:
    """Bit-sliced count of the members whose removal drops the rank.  The
    rank without v at mask 2m is the rank at m - 2^(v-1): the rank planes
    shifted by 2^(v-1) under the masks without v, the cube's shift law."""
    d = (1 << planes.n) - 1
    lows = low_masks(d)
    counter: list[int] = []
    for v in range(1, d + 1):
        low, step = lows[v - 1], 1 << (v - 1)
        kept = 0
        for plane in planes.rank:
            kept |= plane & (plane & low) << step
        _add_plane(counter, (lows[d] ^ low) & ~kept)
    return counter


def _record_groups(planes: _Planes) -> list[int]:
    """The nonempty subsets grouped by (size, zero sum, rank, cut counts, box
    count), one plane per group, by splitting every group on every plane.
    The size and the counts fix the cut record, so a group has one record."""
    d = (1 << planes.n) - 1
    groups = [low_masks(d)[d] ^ 1]
    for plane in (*layer_masks(d), planes.zero_sum, *planes.rank,
                  *(bit for counter in planes.cuts for bit in counter), *planes.box_cuts):
        split = []
        for g in groups:
            inside = g & plane
            split += (inside, g ^ inside)
        groups = [g for g in split if g]
    return groups


def _scan_claims(planes: _Planes) -> list[tuple[str, bool]]:
    """The claims of the exhaustive scan, evaluated from its planes.  Each
    (size, zero sum, rank) and cut record that occurs is checked once, the
    record being _cut_record of the group's least member."""
    n = planes.n
    d = (1 << n) - 1
    full, layers = low_masks(d)[d], layer_masks(d)
    rank, zero = planes.rank, planes.zero_sum
    essentials = _essential_counts(planes)
    q_identities = True
    for r, at_r in enumerate(rank):
        q_identities &= not at_r & ~_count_equals(planes.cuts[0], 1 << (n - r), full)
        for e in range(1 << len(essentials)):
            q_identities &= not (at_r & _count_equals(essentials, e, full)
                                 & ~_count_equals(planes.cuts[1], e << (n - r), full))
    m1_sizes = not _count_equals(essentials, 1, full) & (layers[2] | layers[3])
    allowed = zero & (layers[3] | layers[4] | layers[5] & rank[4]) | layers[5] & rank[3]
    m0_types = not (_count_equals(essentials, 0, full) & ~allowed
                    & (layers[1] | layers[2] | layers[3] | layers[4] | layers[5]))

    pm = _parity_masks(n)
    pairs = set()  # (size, zero xor-sum, rank) of a subset, and its cut record
    for group in _record_groups(planes):
        m = (group & -group).bit_length() - 1
        r = next(r for r, at_r in enumerate(rank) if at_r >> m & 1)
        pairs.add(((m.bit_count(), bool(zero >> m & 1), r),
                   _cut_record(m << 1, pm, planes.boxes)))

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

    return [
        ("lambda1:min=-1/7", min_ok),
        ("lambda1:tight-set-structural", tight1),
        ("lambda1:gap-1/56-attained-by-punctured-3-spaces",
         gap_ok and (rank[3] & layers[7]).bit_count() == 15),
        ("lambda2:typed-values", l2_ok),
        ("combined:tight-set-structural", tight_c),
        ("combined:gap=1/952", combined_gap_ok),
        ("cut-identities:q0-and-q1", q_identities),
        ("structure:one-essential-sizes", m1_sizes),
        ("structure:no-essential-small-types", m0_types),
        ("structure:schur-triple-count=35", (zero & layers[3]).bit_count() == 35),
    ]


def verify_oldc_claims(seed: int = 20260815) -> VerificationReport:
    """Exhaustive verification of the vector-set spectra in dimension four,
    plus decider cross-checks, graph-lift consistency, and the dimension-two
    family exhaust.  The 2^15 subsets are scanned as planes (_scan_planes);
    they have few distinct cut records, and each (structural type, record)
    pair that occurs is checked once.  Two of the 8 sets of dimension two
    agree on a set fixed by their difference, so the exhaust makes 8 decider
    calls, one per difference, and reads the verdicts of all 256 families
    from the 8x8 agreement table they fill."""
    rep = VerificationReport("oldc-claims")
    rng = random.Random(seed)
    planes = _scan_planes(4, _boxes(4))
    for claim_id, ok in _scan_claims(planes):
        rep.add(claim_id, ok)
    s1, s2 = Spectrum.uniform1(), Spectrum.uniform2()

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
    # and on every subset of dimension 4, primal against dual as planes
    ok = ok and planes.odd_zero_sum == low_masks(15)[15] & ~planes.held
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

    # dimension 2: the 256 families of the 8 sets.  Sets i and j agree on the
    # set ~(i ^ j) << 1 & 0b1110, so agree[d] decides every pair at difference
    # d; row i holds the sets j with agree[i ^ j], and a family is agreeing
    # when each member's row holds it, as in families._every_pair
    agree = [has_odd_dependency(VectorSet(2, ~d << 1 & 0b1110)) for d in range(8)]
    rows = [sum(1 << j for j in range(8) if agree[i ^ j]) for i in range(8)]
    agreeing = [fam for fam in range(256)
                if all(not fam & ~rows[i] for i in range(8) if fam >> i & 1)]
    rep.add("n2:agreeing-iff-at-most-one-member",
            agreeing == [fam for fam in range(256) if fam.bit_count() <= 1])
    rep.add("n2:max-agreeing-measure-1/8",
            max(F(fam.bit_count(), 8) for fam in agreeing) == F(1, 8))

    # biased spot checks at p = 3/8
    p = F(3, 8)
    skew = Spectrum.skew1(p)
    box = VectorSet.from_vectors(3, [1, 2, 4, 7])
    rep.add("skew:box-matches-4-cycle",
            skew.value(box.cut_stats()) == skew.value(reference_graphs()["C4"]))
    tights = [VectorSet.from_vectors(3, [1]),
              VectorSet.from_vectors(3, [1, 2]),
              VectorSet.from_vectors(3, [1, 2, 3])]
    rep.add("skew:tight-types-at-minimum",
            all(skew.value(t.cut_stats()) == lambda_min_skew(p)
                for t in tights))
    return rep
