"""Families of graphs on a fixed labelled vertex set: intersection and
agreement predicates, biased measures, shift compressions, and the exact
search certifying the extremal triangle-agreeing families on four vertices.

A family is a set of edge masks of K_n, stored as its indicator on the cube
{0,1}^E(K_n): one integer whose bit m is set when the graph of edge mask m is
a member.  A shift, an up-set test, a measure and a junta are then a few
big-integer operations per edge, with the masks of hypercube.low_masks and
hypercube.layer_masks, and no loop over members.  The two predicates of
interest are triangle-intersecting (every two members share a triangle, pairs
with repetition) and the weaker triangle-agreeing (the edges on which two
members agree contain a triangle); each is one AND per member, against the
union of the juntas of the masks that share (or agree on) a triangle with it.
Agreeing families are exactly the independent sets of a Cayley graph on the
2^C(n,2) masks whose generators are the complements of triangle-free graphs;
on four vertices that graph is small enough to enumerate every maximum
independent set exactly.

The compression campaign of verify_family_claims checks its seeded draws on
K4, whose cube has 64 masks, up to 1024 at a time in one packed integer:
family i is lane i, bits 64 i to 64 i + 63, a copy of its own indicator
(SIMD within a register).  Shifts and up-set tests need no change, since they
move bits only inside a lane; with the low mask of an edge placed only in the
lanes drawn with that edge, one shift compresses each family through its own
edge.  A SWAR popcount leaves each lane's member count in the lane, so sizes
and uniform measures are one comparison, and the 1/3-biased weights
sum_k 2^(6-k) |lane & layer_k| are compared lane by lane by a guard-bit
subtraction.  Both predicates read the one pair rule of the single-family
test: a lane passes when no member a meets the complement of a's partner
indicator, placed in the lanes that hold a.  The per-family predicates above
are what the lanes are tested against, and serve any n.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graph import Graph, _bit_positions, all_masks, edge_index
from .hypercube import indicator_bits, layer_masks, low_masks, quadratic_form, walsh_support
from .spectra import GAP_COMBINED, LAMBDA_MIN_UNIFORM, Spectrum, VerificationReport
from .spectra import combined_lambda_min, hoffman_bound

__all__ = [
    "Family",
    "is_triangle_intersecting",
    "is_triangle_agreeing",
    "junta",
    "umvirate",
    "triangle_masks",
    "compress",
    "monotonize",
    "is_upset",
    "agreement_generators",
    "agreement_cayley",
    "maximum_independent_sets",
    "hoffman_audit",
    "verify_family_claims",
]

F = Fraction


class Family:
    """A set of graphs on n labelled vertices, stored as its indicator bits:
    bit m is set when the graph with edge mask m is a member."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, masks: Iterable[int]):
        self.n = n
        self.bits = indicator_bits(n * (n - 1) // 2, masks)

    @classmethod
    def _packed(cls, n: int, bits: int) -> "Family":
        """A family from an indicator already known to lie on the cube of K_n."""
        fam = object.__new__(cls)
        fam.n, fam.bits = n, bits
        return fam

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, masks={list(self)})"

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def dim(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def masks(self) -> frozenset:
        """The members as a set of edge masks, decoded on demand."""
        return frozenset(self)

    def __contains__(self, mask: int) -> bool:
        return mask >= 0 and bool(self.bits >> mask & 1)

    def __iter__(self) -> Iterator[int]:
        """The member masks in increasing order."""
        digits = bin(self.bits)[:1:-1]
        m = digits.find("1")
        while m >= 0:
            yield m
            m = digits.find("1", m + 1)

    def measure(self, p: Fraction) -> Fraction:
        """mu_p: the members of each edge count k, counted on the layer mask
        of k, weighed by p^k (1-p)^(dim-k); at p = 1/2 every member weighs
        the same."""
        p = F(p)
        a, b = p.numerator, p.denominator
        if not 0 < a < b:
            raise ValueError("need 0 < p < 1")
        dim, bits = self.dim, self.bits
        if 2 * a == b:
            return F(bits.bit_count(), 1 << dim)
        weights = _member_weights(dim, a, b)
        hits = sum(w * (bits & layer).bit_count() for w, layer in zip(weights, layer_masks(dim)))
        return F(hits, b ** dim)


@lru_cache(maxsize=16)
def _member_weights(dim: int, a: int, b: int) -> tuple[int, ...]:
    """b^dim times the p-biased measure of one member with k edges, p = a/b,
    indexed by k: a^k (b-a)^(dim-k)."""
    return tuple(a ** k * (b - a) ** (dim - k) for k in range(dim + 1))


@lru_cache(maxsize=256)
def _partners(n: int, a: int, agreeing: bool) -> int:
    """The indicator of the masks b that intersect a in a triangle T or, when
    agreeing, agree with a on one: the union of the juntas b & T = a & T over
    the triangles T of K_n, only those inside a when intersecting."""
    bits = 0
    for t in triangle_masks(n):
        if agreeing or a & t == t:
            bits |= junta(n, t, a & t).bits
    return bits


def _every_pair(fam: Family, agreeing: bool) -> bool:
    """Whether every two members, with repetition, intersect (or agree) in a
    triangle: each member's partner indicator holds the whole family."""
    bits = fam.bits
    return all(not bits & ~_partners(fam.n, a, agreeing) for a in fam)


def is_triangle_intersecting(fam: Family) -> bool:
    return _every_pair(fam, agreeing=False)


def is_triangle_agreeing(fam: Family) -> bool:
    return _every_pair(fam, agreeing=True)


def junta(n: int, t_mask: int, s_mask: int) -> Family:
    """All graphs whose intersection with the edge set T equals S: S together
    with any set of the free edges, those of K_n outside T, by doubling the
    indicator once per free edge."""
    full = (1 << (n * (n - 1) // 2)) - 1
    if t_mask & ~full:
        raise ValueError(f"junta edges {t_mask} outside K_{n}")
    if s_mask & ~t_mask:
        raise ValueError("prescription must be a subset of the junta edges")
    bits = 1 << s_mask
    for i in range(full.bit_length()):
        if not t_mask >> i & 1:
            bits |= bits << (1 << i)
    return Family._packed(n, bits)


def umvirate(n: int, t_mask: int) -> Family:
    """All graphs containing every edge of T."""
    return junta(n, t_mask, t_mask)


@lru_cache(maxsize=8)
def triangle_masks(n: int) -> tuple[int, ...]:
    """The edge masks of the C(n, 3) triangles of K_n."""
    return tuple((1 << edge_index(a, b, n)) | (1 << edge_index(a, c, n))
                 | (1 << edge_index(b, c, n)) for a, b, c in combinations(range(n), 3))


def _shift_up(bits: int, e: int, low: int) -> int:
    """The compression through edge e of an indicator, low = low_masks(dim)[e]:
    the members without e whose slot above is free move up into it."""
    h = 1 << e
    mov = bits & low & ~(bits >> h)
    return (bits & ~mov) | mov << h


def compress(fam: Family, e_idx: int) -> Family:
    """Shift members up through edge e when the slot above is free.

    Size is preserved; both triangle predicates are preserved because every
    output member is a superset of the member it replaced.
    """
    if not 0 <= e_idx < fam.dim:
        raise ValueError("edge index out of range")
    return Family._packed(fam.n, _shift_up(fam.bits, e_idx, low_masks(fam.dim)[e_idx]))


def _monotone(bits: int, lows: Sequence[int]) -> int:
    """Compress through every edge e, lows[e] its low mask, once each: a
    family compressed through e stays so after a compression through any
    other edge, so one pass leaves an up-set."""
    for e, low in enumerate(lows):
        bits = _shift_up(bits, e, low)
    return bits


def _upset(bits: int, lows: Sequence[int]) -> bool:
    """Whether no member misses an edge e whose slot above is free."""
    return all(not ((bits & low) << (1 << e)) & ~bits for e, low in enumerate(lows))


def monotonize(fam: Family) -> Family:
    """Compress through every edge once: the up-set the compressions reach."""
    return Family._packed(fam.n, _monotone(fam.bits, low_masks(fam.dim)[:fam.dim]))


def is_upset(fam: Family) -> bool:
    return _upset(fam.bits, low_masks(fam.dim)[:fam.dim])


@lru_cache(maxsize=4)
def agreement_generators(n: int = 4) -> tuple[int, ...]:
    """Complements of the triangle-free graphs, read off the union of the
    umvirates of the triangles (the partners of K_n when intersecting): two
    masks are agreement-free neighbours exactly when their difference is one
    of these."""
    full = (1 << (n * (n - 1) // 2)) - 1
    has_triangle = _partners(n, full, False)
    return tuple(full ^ b for b in all_masks(n) if not has_triangle >> b & 1)


@lru_cache(maxsize=4)
def agreement_cayley(n: int = 4) -> tuple[int, ...]:
    """Adjacency bitsets of the Cayley graph on all masks of K_n."""
    gens = agreement_generators(n)
    size = 1 << (n * (n - 1) // 2)
    if size > 1 << 10:
        raise ValueError("Cayley adjacency kept dense; n too large")
    adj = []
    for v in range(size):
        bits = 0
        for s in gens:
            bits |= 1 << (v ^ s)
        adj.append(bits)
    return tuple(adj)


def maximum_independent_sets(adj: Sequence[int], seed: int | None = None) -> tuple[int, list[frozenset]]:
    """Every maximum independent set: the largest maximal cliques of the
    complement, each listed once by Bron-Kerbosch with Tomita pivoting on its
    bitsets (Bron and Kerbosch, CACM 1973; Tomita, Tanaka and Takahashi, TCS
    2006), in a fixed vertex order (degree-sorted, optionally shuffled by
    seed first).  Returns (alpha, all maximum sets as frozensets of original
    labels).
    """
    nverts = len(adj)
    order = sorted(range(nverts), key=lambda v: (-adj[v].bit_count(), v))
    if seed is not None:
        random.Random(seed).shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    full = (1 << nverts) - 1
    # free[i]: the vertices other than i that are not adjacent to it
    free = [full ^ sum(1 << pos[u] for u in _bit_positions(adj[v] | 1 << v)) for v in order]

    best_size = 0
    best: list[int] = []

    def expand(cur: int, cur_size: int, cand: int, done: int):
        # done: the vertices already branched on; a set one of them extends
        # is not maximal.  The pivot has the most candidates among its
        # non-neighbours, and those need not be branched on.
        nonlocal best_size, best
        if not cand | done:
            if cur_size > best_size:
                best_size, best = cur_size, []
            if cur_size == best_size:
                best.append(cur)
            return
        pivot = max(_bit_positions(cand | done), key=lambda u: (cand & free[u]).bit_count())
        for v in _bit_positions(cand & ~free[pivot]):
            expand(cur | 1 << v, cur_size + 1, cand & free[v], done & free[v])
            cand &= ~(1 << v)
            done |= 1 << v

    expand(0, 0, full, 0)
    out = [frozenset(order[i] for i in _bit_positions(bits)) for bits in best]
    return best_size, sorted(out, key=sorted)


@lru_cache(maxsize=4096)
def _combined_lambda(n: int, mask: int) -> Fraction:
    """Combined-spectrum eigenvalue of the edge set mask of K_n, read from its
    own cut law."""
    return Spectrum.combined().value(Graph(n, mask))


def hoffman_audit(fam: Family) -> dict:
    """Exact audit of the spectral bound for an agreeing family at p = 1/2.

    Checks that the averaged-shift quadratic form vanishes, that
    mu^2 - mu*nu + w*gamma*(1-nu) <= 0, and hence mu <= nu, where lambda_min
    is combined_lambda_min(n), nu is its Hoffman bound (1/8 at -1/7) and w is
    the Fourier mass of the nonconstant characters whose eigenvalue is not
    lambda_min.  Both read walsh_support's squares, integers over one
    denominator, and the eigenvalue on those edge sets only (8 for an
    umvirate).
    """
    den, squares = support = walsh_support(fam.n, F(1, 2), fam.bits)
    lam = {mask: _combined_lambda(fam.n, mask) for mask, _ in squares}
    qf = quadratic_form(support, lam)
    lam_min = combined_lambda_min(fam.n)
    w = F(sum(x for mask, x in squares if mask and lam[mask] != lam_min), den)
    mu = fam.measure(F(1, 2))
    nu = hoffman_bound(lam_min).nu
    lhs = mu * mu - mu * nu + w * GAP_COMBINED * (1 - nu)
    return {
        "mu": mu,
        "w": w,
        "nu": nu,
        "quadratic_form": qf,
        "inequality_lhs": lhs,
        "ok": qf == 0 and lhs <= 0 and mu <= nu,
    }


def _random_family(n: int, rng: random.Random) -> Family:
    """randint(1, 2^(dim-1)) members, each randint(0, 2^dim - 1), drawn
    straight into the indicator.  randint(lo, hi) is lo plus a getrandbits(k)
    draw, k the bit length of hi - lo + 1, repeated until it is at most
    hi - lo; the same loops here read the same random stream."""
    dim = n * (n - 1) // 2
    getrandbits = rng.getrandbits
    extra = getrandbits(dim)
    while extra >> (dim - 1):
        extra = getrandbits(dim)
    bits = 0
    for _ in range(extra + 1):
        m = getrandbits(dim + 1)
        while m >> dim:
            m = getrandbits(dim + 1)
        bits |= 1 << m
    return Family._packed(n, bits)


def _submasks(t: int):
    s = t
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & t


@lru_cache(maxsize=128)
def _junta_members(n: int, t_mask: int, s_mask: int) -> tuple[int, ...]:
    return tuple(junta(n, t_mask, s_mask))


def _random_agreeing_subfamily(n: int, rng: random.Random) -> Family:
    """Each member of a random junta on a random triangle kept with
    probability 0.7, or its least member when none is kept."""
    tri = triangle_masks(n)
    t = tri[rng.randrange(len(tri))]
    s = sum(1 << i for i in _bit_positions(t) if rng.random() < 0.5)
    base = _junta_members(n, t, s)
    draw = rng.random
    bits = 0
    for m in base:
        if draw() < 0.7:
            bits |= 1 << m
    return Family._packed(n, bits or 1 << base[0])


# The compression campaign runs on K4, whose cube has 64 masks: family i of a
# chunk of draws is lane i of one integer, bits 64 i to 64 i + 63, with bit
# 64 i + m set when mask m is a member.  x * ones, with ones holding bit 0 of
# every lane, copies a 64-bit x into every lane.  The shifts and up-set tests
# move bits by 2^e only from masks without edge e, so they never leave a lane;
# the other lane operations keep every carry and borrow inside its lane.
_LANE = 64
_LANE_FULL = (1 << _LANE) - 1
_CHUNK = 1024  # draws per packed integer, of 8 KiB whatever the campaign size


def _pack(lanes: Sequence[int]) -> int:
    """The integer with lanes[i] in lane i."""
    return int.from_bytes(b"".join(x.to_bytes(8, "little") for x in lanes), "little")


def _lane_ones(count: int) -> int:
    return ((1 << _LANE * count) - 1) // _LANE_FULL


def _lane_counts(x: int, ones: int) -> int:
    """Each lane's member count, in that lane: a SWAR popcount whose partial
    sums stay inside their fields, so no carry crosses a lane."""
    x -= x >> 1 & 0x5555555555555555 * ones
    pairs = 0x3333333333333333 * ones
    x = (x & pairs) + (x >> 2 & pairs)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F * ones
    x += x >> 8
    x += x >> 16
    x += x >> 32
    return x & 0x7F * ones


def _lane_weights(x: int, ones: int) -> int:
    """3^6 mu_{1/3} of each lane, in that lane: its members with k edges
    weigh 2^(6-k), as in Family.measure."""
    return sum(w * _lane_counts(x & layer * ones, ones)
               for w, layer in zip(_member_weights(6, 1, 3), layer_masks(6)))


def _lanes_at_most(x: int, y: int, ones: int) -> int:
    """Bit 63 of each lane where x <= y, for lane values below 2^63: the
    guard bit set in y survives the subtraction exactly there."""
    guard = ones << 63
    return ((y | guard) - x) & guard


def _nonzero_lanes(x: int, ones: int) -> int:
    """Bit 0 of each nonzero lane: the lane ORed down onto its bit 0."""
    for h in (32, 16, 8, 4, 2, 1):
        x |= x >> h
    return x & ones


def _lanes_clashing(x: int, ones: int, agreeing: bool) -> int:
    """Bit 0 of each lane where two members do not intersect (or agree) in a
    triangle: _every_pair's rule, with the complement of the partners of a
    placed in the lanes that hold a."""
    clash = 0
    for a in range(_LANE):
        clash |= (x >> a & ones) * (_LANE_FULL ^ _partners(4, a, agreeing))
    return _nonzero_lanes(clash & x, ones)


def _compress_lanes(x: int, edges: Sequence[int], ones: int) -> int:
    """Lane i compressed through edge edges[i]: the low mask of edge e is
    placed in the lanes drawn with e."""
    drawn = _pack([1 << e for e in edges])
    for e, low in enumerate(low_masks(6)[:6]):
        x = _shift_up(x, e, (drawn >> e & ones) * low)
    return x


def _campaign_chunk(fams: Sequence[int], edges: Sequence[int],
                    agreeing: Sequence[int]) -> tuple[bool, ...]:
    """The five compression claims on one chunk of draws, each family in its
    own lane: the random families with their edges, and the agreeing ones."""
    ones = _lane_ones(len(fams))
    lows = [low * ones for low in low_masks(6)[:6]]
    x, y = _pack(fams), _pack(agreeing)
    counts = _lane_counts(x, ones)
    shifted = _compress_lanes(x, edges, ones)
    # at p = 1/2 every member weighs 2^-6, so the measures agree when the counts do
    same_size = _lane_counts(shifted, ones) == counts
    biased = _lanes_at_most(_lane_weights(shifted, ones), _lane_weights(x, ones), ones) \
        == ones << 63
    mono_y = _monotone(y, lows)
    preserved = not _lanes_clashing(mono_y, ones, True) and \
        not _lanes_clashing(mono_y, ones, False) & ~_lanes_clashing(y, ones, False)
    mono = _monotone(x, lows)
    upset = _upset(mono_y, lows) and _upset(mono, lows) and _lane_counts(mono, ones) == counts
    return same_size, same_size, biased, preserved, upset


def _compression_campaign(rng: random.Random, size: int) -> list[bool]:
    """The compression claims over size draws of a random family of K4, an
    edge and an agreeing family, in that order, checked _CHUNK draws at a
    time."""
    ok = [True] * 5
    for start in range(0, size, _CHUNK):
        fams, edges, agreeing = [], [], []
        for _ in range(min(_CHUNK, size - start)):
            fams.append(_random_family(4, rng).bits)
            edges.append(rng.randrange(6))
            agreeing.append(_random_agreeing_subfamily(4, rng).bits)
        ok = [a and b for a, b in zip(ok, _campaign_chunk(fams, edges, agreeing))]
    return ok


def verify_family_claims(seed: int = 20260815, campaign_size: int = 1000) -> VerificationReport:
    """Full verification of the family-level claims on four vertices plus the
    bound-check audit on five."""
    rep = VerificationReport("families")
    rng = random.Random(seed)

    # the Cayley graph: 41 generators, vertex degrees all 41
    gens = agreement_generators(4)
    adj = agreement_cayley(4)
    rep.add("cayley:generator-count=41", len(gens) == 41)
    rep.add("cayley:41-regular", all(a.bit_count() == 41 for a in adj))
    # a and b != a are non-adjacent exactly when {a, b} is agreeing; the
    # partners are symmetric and hold a itself, so each row is their complement
    rep.add("cayley:independent-iff-agreeing",
            all(adj[a] == ~_partners(4, a, True) & ((1 << 64) - 1) for a in range(64)))

    alpha, sets = maximum_independent_sets(adj)
    rep.add("cayley:alpha=8", alpha == 8)
    rep.add("cayley:32-maximum-sets", len(sets) == 32)

    fams = [Family(4, s) for s in sets]
    expected = {junta(4, t, s) for t in triangle_masks(4) for s in _submasks(t)}
    rep.add("cayley:maximum-sets-are-juntas", set(fams) == expected)

    alpha2, sets2 = maximum_independent_sets(adj, seed=seed)
    rep.add("cayley:randomized-rerun-identical", alpha2 == alpha and set(sets2) == set(sets))

    rep.add("cayley:all-maximum-sets-agreeing", all(is_triangle_agreeing(f) for f in fams))
    intersecting = [f for f in fams if is_triangle_intersecting(f)]
    rep.add("cayley:exactly-4-intersecting-umvirates",
            len(intersecting) == 4 and
            set(intersecting) == {umvirate(4, t) for t in triangle_masks(4)})

    audits = [hoffman_audit(f) for f in fams]
    rep.add("hoffman:equality-on-maximum-sets",
            all(a["ok"] and a["mu"] == F(1, 8) and a["w"] == 0 for a in audits))

    # compression campaign
    claims = ("compress:size-preserved", "compress:uniform-measure-preserved",
              "compress:biased-measure-nonincreasing", "compress:predicates-preserved",
              "monotonize:upset-fixpoint")
    for claim, ok in zip(claims, _compression_campaign(rng, campaign_size)):
        rep.add(claim, ok)

    # Hoffman audits on random agreeing subfamilies
    ok_audit = True
    for _ in range(50):
        fam = _random_agreeing_subfamily(4, rng)
        a = hoffman_audit(fam)
        ok_audit &= a["ok"] and a["mu"] <= F(1, 8)
    rep.add("hoffman:subfamily-audits", ok_audit)

    # five vertices: bound check plus the extremal junta, no exhaustive search
    lam_min = combined_lambda_min(5)
    rep.add("n5:lambda-min=-1/7", lam_min == LAMBDA_MIN_UNIFORM)
    nu = hoffman_bound(lam_min).nu
    rep.add("n5:size-bound-128", nu * (1 << 10) == 128)
    t5 = triangle_masks(5)[0]
    big = umvirate(5, t5)
    rep.add("n5:junta-size-128", big.size == 128)
    rep.add("n5:junta-intersecting", is_triangle_intersecting(big))
    rep.add("n5:junta-measure-1/8", big.measure(F(1, 2)) == F(1, 8))
    a5 = hoffman_audit(big)
    rep.add("n5:junta-quadratic-form-zero", a5["quadratic_form"] == 0)
    rep.add("n5:junta-hoffman-tight", a5["ok"] and a5["mu"] == nu and a5["w"] == 0)
    prescribed = junta(5, t5, t5 & -t5)
    rep.add("n5:prescribed-junta-agreeing",
            prescribed.size == 128 and is_triangle_agreeing(prescribed)
            and not is_triangle_intersecting(prescribed))
    return rep
