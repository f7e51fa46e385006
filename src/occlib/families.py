"""Families of graphs on a fixed labelled vertex set: intersection and
agreement predicates, biased measures, shift compressions, and the exact
search certifying the extremal triangle-agreeing families on four vertices.

A family is a set of edge masks of K_n.  The two predicates of interest are
triangle-intersecting (every two members share a triangle, pairs with
repetition) and the weaker triangle-agreeing (the edges on which two members
agree contain a triangle).  Agreeing families are exactly the independent
sets of a Cayley graph on the 2^C(n,2) masks whose generators are the
complements of triangle-free graphs; on four vertices that graph is small
enough to enumerate every maximum independent set exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .cutstats import class_catalogue
from .graph import Graph, all_masks, canonical_key, edge_index
from .hypercube import quadratic_form, walsh_support
from .spectra import GAP_COMBINED, LAMBDA_MIN_UNIFORM, Spectrum, VerificationReport
from .spectra import combined_lambda_min, hoffman_bound

__all__ = [
    "Family",
    "triangle_table",
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


@dataclass(frozen=True)
class Family:
    """A set of graphs on n labelled vertices, stored as edge masks."""

    n: int
    masks: frozenset

    def __init__(self, n: int, masks: Iterable[int]):
        masks = frozenset(int(m) for m in masks)
        e = n * (n - 1) // 2
        for m in masks:
            if not 0 <= m < (1 << e):
                raise ValueError(f"mask {m} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _of_valid(cls, n: int, masks: frozenset) -> "Family":
        """A family of masks already known to lie in range for n."""
        fam = object.__new__(cls)
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "masks", masks)
        return fam

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def dim(self) -> int:
        return self.n * (self.n - 1) // 2

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def __iter__(self):
        return iter(sorted(self.masks))

    def measure(self, p: Fraction) -> Fraction:
        """mu_p, computed by grouping members by edge count."""
        p = F(p)
        if not 0 < p < 1:
            raise ValueError("need 0 < p < 1")
        weights = _member_weights(self.dim, p.numerator, p.denominator)
        return F(sum(weights[m.bit_count()] for m in self.masks), p.denominator ** self.dim)


@lru_cache(maxsize=16)
def _member_weights(dim: int, a: int, b: int) -> tuple[int, ...]:
    """b^dim times the p-biased measure of one member with k edges, p = a/b,
    indexed by k: a^k (b-a)^(dim-k)."""
    return tuple(a ** k * (b - a) ** (dim - k) for k in range(dim + 1))


@lru_cache(maxsize=8)
def triangle_table(n: int) -> tuple[bool, ...]:
    """mask -> does the graph contain a triangle, densely for all of K_n."""
    if not 3 <= n <= 6:
        raise ValueError("dense triangle tables supported for 3 <= n <= 6")
    return tuple(Graph(n, m).contains_triangle() for m in all_masks(n))


def is_triangle_intersecting(fam: Family) -> bool:
    table = triangle_table(fam.n)
    ms = sorted(fam.masks)
    return all(table[a & b] for i, a in enumerate(ms) for b in ms[i:])


def is_triangle_agreeing(fam: Family) -> bool:
    table = triangle_table(fam.n)
    full = (1 << fam.dim) - 1
    ms = sorted(fam.masks)
    return all(table[full & ~(a ^ b)] for i, a in enumerate(ms) for b in ms[i:])


def junta(n: int, t_mask: int, s_mask: int) -> Family:
    """All graphs whose intersection with the edge set T equals S: S together
    with any set of the free edges, those of K_n outside T."""
    full = (1 << (n * (n - 1) // 2)) - 1
    if t_mask & ~full:
        raise ValueError(f"junta edges {t_mask} outside K_{n}")
    if s_mask & ~t_mask:
        raise ValueError("prescription must be a subset of the junta edges")
    return Family._of_valid(n, frozenset(s_mask | f for f in _submasks(full & ~t_mask)))


def umvirate(n: int, t_mask: int) -> Family:
    """All graphs containing every edge of T."""
    return junta(n, t_mask, t_mask)


def triangle_masks(n: int) -> list[int]:
    out = []
    for a, b, c in combinations(range(n), 3):
        out.append((1 << edge_index(a, b, n)) | (1 << edge_index(a, c, n))
                   | (1 << edge_index(b, c, n)))
    return out


def compress(fam: Family, e_idx: int) -> Family:
    """Shift members up through edge e when the slot above is free.

    Size is preserved; both triangle predicates are preserved because every
    output member is a superset of the member it replaced.
    """
    bit = 1 << e_idx
    if e_idx < 0 or bit >= (1 << fam.dim):
        raise ValueError("edge index out of range")
    out = set()
    for m in fam.masks:
        if not m & bit and (m | bit) not in fam.masks:
            out.add(m | bit)
        else:
            out.add(m)
    return Family._of_valid(fam.n, frozenset(out))


def monotonize(fam: Family) -> Family:
    """Apply edge compressions until the family stabilizes."""
    while True:
        cur = fam
        for e in range(fam.dim):
            cur = compress(cur, e)
        if cur.masks == fam.masks:
            return cur
        fam = cur


def is_upset(fam: Family) -> bool:
    return all(m | (1 << e) in fam.masks for m in fam.masks for e in range(fam.dim))


@lru_cache(maxsize=4)
def agreement_generators(n: int = 4) -> tuple[int, ...]:
    """Complements of the triangle-free graphs: two masks are
    agreement-free neighbours exactly when their difference is one of these."""
    table = triangle_table(n)
    full = (1 << (n * (n - 1) // 2)) - 1
    return tuple(full ^ b for b in all_masks(n) if not table[b])


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


def _clique_cover_bound(cand: int, adj: Sequence[int]) -> int:
    cliques = 0
    rem = cand
    while rem:
        v = (rem & -rem).bit_length() - 1
        rem &= rem - 1
        pool = rem & adj[v]
        while pool:
            u = (pool & -pool).bit_length() - 1
            rem ^= 1 << u
            pool = pool & adj[u] & rem
        cliques += 1
    return cliques


def maximum_independent_sets(adj: Sequence[int], seed: int | None = None) -> tuple[int, list[frozenset]]:
    """Exact branch and bound enumerating every maximum independent set.

    Branches on the first candidate in a fixed vertex order (degree-sorted,
    optionally shuffled by seed first); prunes with a greedy clique cover.
    Returns (alpha, all maximum sets as frozensets of original labels).
    """
    nverts = len(adj)
    order = sorted(range(nverts), key=lambda v: (-adj[v].bit_count(), v))
    if seed is not None:
        random.Random(seed).shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    radj = [0] * nverts
    for v in range(nverts):
        bits = adj[v]
        while bits:
            u = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            radj[pos[v]] |= 1 << pos[u]

    best_size = 0
    best: list[int] = []

    def rec(cur: int, cur_size: int, cand: int):
        nonlocal best_size, best
        if not cand:
            if cur_size > best_size:
                best_size, best = cur_size, [cur]
            elif cur_size == best_size:
                best.append(cur)
            return
        if cur_size + _clique_cover_bound(cand, radj) < best_size:
            return
        v = (cand & -cand).bit_length() - 1
        rec(cur | (1 << v), cur_size + 1, cand & ~radj[v] & ~(1 << v))
        rec(cur, cur_size, cand & ~(1 << v))

    rec(0, 0, (1 << nverts) - 1)
    out = []
    for bits in best:
        members = set()
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            members.add(order[i])
        out.append(frozenset(members))
    return best_size, sorted(out, key=sorted)


@lru_cache(maxsize=4096)
def _combined_lambda(n: int, mask: int) -> Fraction:
    """Combined-spectrum eigenvalue of the edge set mask of K_n, read from its
    class in class_catalogue(n)."""
    entry = class_catalogue(n)[canonical_key(Graph(n, mask))]
    return Spectrum.combined().value(entry.stats)


def _weight_off(support: Iterable[tuple[int, Fraction]], eigenvalue: dict,
                lam_min: Fraction) -> Fraction:
    """Fourier mass of the nonconstant characters whose eigenvalue is not lam_min."""
    return F(sum(sq for mask, sq in support if mask and eigenvalue[mask] != lam_min))


def hoffman_audit(fam: Family) -> dict:
    """Exact audit of the spectral bound for an agreeing family at p = 1/2.

    Checks that the averaged-shift quadratic form vanishes, that
    mu^2 - mu*nu + w*gamma*(1-nu) <= 0, and hence mu <= nu = 1/8.  Both
    sums run over the nonzero squares only (8 for an umvirate), and the
    eigenvalue is read on those edge sets only.
    """
    support = walsh_support(fam.n, F(1, 2), fam.masks)
    lam = {mask: _combined_lambda(fam.n, mask) for mask, _ in support}
    qf = quadratic_form(support, lam)
    mu, w = fam.measure(F(1, 2)), _weight_off(support, lam, combined_lambda_min(fam.n))
    nu = hoffman_bound(LAMBDA_MIN_UNIFORM).nu
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
    size = rng.randint(1, 1 << (n * (n - 1) // 2 - 1))
    top = (1 << (n * (n - 1) // 2)) - 1
    return Family(n, {rng.randint(0, top) for _ in range(size)})


def _submasks(t: int):
    s = t
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & t


def _random_agreeing_subfamily(n: int, rng: random.Random) -> Family:
    tri = triangle_masks(n)
    t = tri[rng.randrange(len(tri))]
    s = 0
    bits = t
    while bits:
        low = bits & -bits
        bits ^= low
        if rng.random() < 0.5:
            s |= low
    base = sorted(junta(n, t, s).masks)
    keep = [m for m in base if rng.random() < 0.7]
    return Family(n, keep or base[:1])


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
    rep.add("cayley:independent-iff-agreeing",
            all((not adj[a] >> b & 1) == is_triangle_agreeing(Family(4, [a, b]))
                for a in range(64) for b in range(64) if a != b))

    alpha, sets = maximum_independent_sets(adj)
    rep.add("cayley:alpha=8", alpha == 8)
    rep.add("cayley:32-maximum-sets", len(sets) == 32)

    expected = {frozenset(junta(4, t, s).masks)
                for t in triangle_masks(4) for s in _submasks(t)}
    rep.add("cayley:maximum-sets-are-juntas", set(sets) == expected)

    alpha2, sets2 = maximum_independent_sets(adj, seed=seed)
    rep.add("cayley:randomized-rerun-identical", alpha2 == alpha and set(sets2) == set(sets))

    fams = [Family(4, s) for s in sets]
    rep.add("cayley:all-maximum-sets-agreeing", all(is_triangle_agreeing(f) for f in fams))
    intersecting = [f for f in fams if is_triangle_intersecting(f)]
    rep.add("cayley:exactly-4-intersecting-umvirates",
            len(intersecting) == 4 and
            {f.masks for f in intersecting} == {frozenset(umvirate(4, t).masks)
                                                for t in triangle_masks(4)})

    audits = [hoffman_audit(f) for f in fams]
    rep.add("hoffman:equality-on-maximum-sets",
            all(a["ok"] and a["mu"] == F(1, 8) and a["w"] == 0 for a in audits))

    # compression campaign
    ok_size = ok_measure_half = ok_measure_biased = ok_pred = ok_upset = True
    third = F(1, 3)
    for _ in range(campaign_size):
        fam = _random_family(4, rng)
        e = rng.randrange(6)
        shifted = compress(fam, e)
        ok_size &= shifted.size == fam.size
        ok_measure_half &= shifted.measure(F(1, 2)) == fam.measure(F(1, 2))
        ok_measure_biased &= shifted.measure(third) <= fam.measure(third)
        agreeing = _random_agreeing_subfamily(4, rng)
        shifted2 = monotonize(agreeing)
        ok_pred &= is_triangle_agreeing(shifted2)
        if is_triangle_intersecting(agreeing):
            ok_pred &= is_triangle_intersecting(shifted2)
        ok_upset &= is_upset(shifted2)
        mono = monotonize(fam)
        ok_upset &= is_upset(mono) and mono.size == fam.size
    rep.add("compress:size-preserved", ok_size)
    rep.add("compress:uniform-measure-preserved", ok_measure_half)
    rep.add("compress:biased-measure-nonincreasing", ok_measure_biased)
    rep.add("compress:predicates-preserved", ok_pred)
    rep.add("monotonize:upset-fixpoint", ok_upset)

    # Hoffman audits on random agreeing subfamilies
    ok_audit = True
    for _ in range(50):
        fam = _random_agreeing_subfamily(4, rng)
        a = hoffman_audit(fam)
        ok_audit &= a["ok"] and a["mu"] <= F(1, 8)
    rep.add("hoffman:subfamily-audits", ok_audit)

    # five vertices: bound check plus the extremal junta, no exhaustive search
    rep.add("n5:lambda-min=-1/7", combined_lambda_min(5) == LAMBDA_MIN_UNIFORM)
    nu = hoffman_bound(LAMBDA_MIN_UNIFORM).nu
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
