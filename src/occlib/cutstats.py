"""Cut statistics of graphs under uniformly random vertex bipartitions.

For a graph G and a uniform random vertex 2-coloring B, the cut is the set of
edges of G with differently colored endpoints.  q_k(G) is the probability the
cut has exactly k edges.  Of the cuts with 4 edges, a CutStats record also
counts those that are forests and those that are 4-cycles.  Colorings are
drawn on the non-isolated vertices, so isolated vertices never affect any
statistic.

Three exact routes compute the size distribution:
  - enumeration of all 2^(v-1) colorings (needs v <= 24), each cut the xor
    of the stars of the vertices on one side;
  - the bridge/block product formula
        Q_G(X) = (1/2 + X/2)^m * prod_blocks Q_block(X)
    where m counts bridge edges, with each block's law from the DP below;
  - a frontier DP over a greedy vertex elimination order, whose state is the
    colors of the frontier vertices and whose value is the count list by cut
    size; its 4-cuts that are 4-cycles come from listing the 4-cycles.
cut_stats takes enumeration or the DP, whichever does less work: 2^(v-1)
colorings against sum 2^|F| (e + 1) over the frontiers F of the order.  A
graph with 2^(v-1) <= 2v(e + 1), every class on at most 7 vertices among
them, is enumerated without computing an order, and a graph is refused only
when both routes need more than 2^23 states.  `occ verify lemmas` checks that
the block formula, and so the DP on each block, gives the enumerated law on
every catalogue class, beside the other cut lemmas.
Either route yields a CutStats record, the integer counts every spectrum is
evaluated from.  The class catalogue keeps one record per small class,
inherited down the tree of the orderly generation on packed byte lanes
(_inherited_stats) rather than enumerated class by class.
A cut law is such a record: its probabilities q_0, ..., q_|G| are the tuple
of Fractions that CutStats.distribution returns, one entry per edge count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .graph import (
    BlockDecomposition,
    Graph,
    _bit_positions,
    _component_masks,
    _cores,
    _vertex_stars,
    block_decomposition,
    edge_pairs,
    enumerate_unlabeled,
)

__all__ = [
    "CutStats",
    "ClassEntry",
    "cut_stats",
    "class_catalogue",
    "cut_distribution_bruteforce",
    "cut_distribution_blocks",
    "CUT_LEMMAS",
    "check_cut_lemmas",
    "builtin_table",
    "reference_graphs",
    "xor_span",
]

_MAX_BRUTE_V = 24
_MAX_STATES = 1 << _MAX_BRUTE_V - 1  # 2^23, the colorings of a 24-vertex graph


def xor_span(gens: list[int]) -> tuple[int, ...]:
    """The xor of every subset of gens, at the index whose bit i selects gens[i]."""
    out = [0]
    for g in gens:
        out += [m ^ g for m in out]
    return tuple(out)


@lru_cache(maxsize=32)
def _cut_mask_table(v: int) -> tuple[int, ...]:
    """Cut edge-masks of K_v for every coloring with vertex 0 on side 0, at
    the index whose bit u-1 puts vertex u on side 1.  The cut of a vertex set
    is the xor of its vertices' stars."""
    return xor_span(list(_vertex_stars(v)[1:]))


@lru_cache(maxsize=32)
def _edge_ends(v: int) -> tuple[int, ...]:
    """Vertex mask of the two endpoints of each edge of K_v."""
    return tuple(1 << i | 1 << j for i, j in edge_pairs(v))


class CutStats(NamedTuple):
    """Integer cut statistics of a graph (or of a GF(2) vector set).

    Of total equally likely cuts, counts[k] have exactly k edges, for k up to
    the edge count; forest4 of them are 4-edge forests and cycle4 are
    4-cycles (for vector sets: independent 4-sets and boxes).
    """

    counts: tuple[int, ...]
    forest4: int
    cycle4: int
    total: int

    @property
    def size(self) -> int:
        """Edge count of the graph the statistics describe."""
        return len(self.counts) - 1

    def distribution(self) -> tuple[Fraction, ...]:
        """The cut-size law q_0, ..., q_size; ValueError unless the counts are
        a law with q_0 > 0 (the monochromatic coloring always exists)."""
        if self.counts[0] <= 0 or min(self.counts) < 0 or sum(self.counts) != self.total:
            raise ValueError(f"not a cut-size law: {self.counts} out of {self.total}")
        return tuple(Fraction(c, self.total) for c in self.counts)


def cut_stats(g: Graph) -> CutStats:
    """The cut statistics of g by the exact route that does less work.

    Enumeration costs 2^(v-1), one per coloring; the frontier DP costs
    sum 2^|F| (e + 1) over the frontiers F of its elimination order.  A graph
    with 2^(v-1) <= 2v(e + 1), every class on at most 7 vertices among them,
    is enumerated without computing an order.  ValueError when both routes
    need more than 2^23 states: v > 24 and more than 2^23 frontier states.
    """
    v, e = g.v, g.edge_count
    colorings = 1 << v >> 1  # 2^(v-1), and 0 for the edgeless graph
    if colorings <= 2 * v * (e + 1):
        return _enumerated_stats(g)
    plan = _elimination_order(g)
    states = sum(1 << f.bit_count() for f in plan[2])
    if states <= _MAX_STATES and (states * (e + 1) < colorings or colorings > _MAX_STATES):
        return _frontier_stats(g, plan)
    if colorings > _MAX_STATES:
        raise ValueError(f"cut law of a graph on {v} vertices needs more than 2^23 states "
                         f"by either route: 2^{v - 1} colorings, {states} frontier states")
    return _enumerated_stats(g)


def _enumerated_stats(g: Graph) -> CutStats:
    """The cut statistics of g by enumeration, one coloring at a time.  With
    the least non-isolated vertex on side 0, the cut of each of the 2^(v-1)
    colorings is the xor of the stars in g of the vertices on side 1; it is
    counted by its size, and a 4-cut is typed by the vertices it touches.
    ValueError past v = 24 (2^23 colorings)."""
    touched = _bit_positions(g.touched_vertices())
    if len(touched) > _MAX_BRUTE_V:
        raise ValueError(f"enumerating the cuts needs v <= {_MAX_BRUTE_V}, got v = {len(touched)}")
    stars, ends = _vertex_stars(g.n), _edge_ends(g.n)
    cuts = xor_span([g.mask & stars[u] for u in touched[1:]])
    counts = [0] * (g.edge_count + 1)
    forest4 = cycle4 = 0
    for cut in cuts:
        k = cut.bit_count()
        counts[k] += 1
        if k == 4:
            # a cut is bipartite: 4 of its edges on 4 vertices form a 4-cycle,
            # 4 edges on 5 or more vertices a forest
            ends4 = 0
            while cut:
                low = cut & -cut
                ends4 |= ends[low.bit_length() - 1]
                cut ^= low
            if ends4.bit_count() == 4:
                cycle4 += 1
            else:
                forest4 += 1
    return CutStats(tuple(counts), forest4, cycle4, len(cuts))


def _elimination_order(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """(adj, order, frontiers): the neighbour mask of each vertex of g, a
    greedy order of its non-isolated vertices, and the frontier mask after
    each step, the processed vertices that still have an unprocessed
    neighbour.  Each step takes the vertex that leaves the smallest frontier,
    then the one with the fewest unprocessed neighbours, then the lowest;
    while the frontier is nonempty only its neighbours are tried, since any
    other vertex would only grow it."""
    adj = g.adjacency()
    order, frontiers = [], []
    front, left = 0, g.touched_vertices()
    while left:
        near = 0
        for w in _bit_positions(front):
            near |= adj[w]
        best = None
        for u in _bit_positions(near & left or left):
            rest = left & ~(1 << u)
            after = 0
            for w in _bit_positions(front | 1 << u):
                if adj[w] & rest:
                    after |= 1 << w
            key = (after.bit_count(), (adj[u] & rest).bit_count())
            if best is None or key < best[0]:
                best = (key, u, after)
        _, u, front = best
        left &= ~(1 << u)
        order.append(u)
        frontiers.append(front)
    return adj, order, frontiers


def _frontier_counts(plan: tuple[list[int], list[int], list[int]], e: int) -> tuple[list[int], int]:
    """(counts, total) of a graph with e > 0 edges by the frontier DP over its
    elimination order plan: counts[k], k = 0..e, of the total = 2^(v-1)
    colorings of the ordered vertices, the first on side 0, cut exactly k
    edges.

    A state is the set of frontier vertices on side 1.  Its value is the count
    list by cut size, packed into one integer at v bits per entry, as no count
    reaches 2^v: shifting the list by k places is a shift of the integer,
    and merging two lists is a sum.  Adding a vertex shifts each list by the
    edges it cuts to processed neighbours, all of them on the frontier;
    dropping vertices from the frontier merges the states that differ there.
    """
    adj, order, frontiers = plan
    width = len(order)
    states, done = {0: 1}, 0
    for u, keep in zip(order, frontiers):
        back, bit = adj[u] & done, 1 << u
        nb = back.bit_count()
        nxt: dict[int, int] = {}
        for ones, packed in states.items():
            k = (ones & back).bit_count()  # cut when u is on side 0
            key = ones & keep
            nxt[key] = nxt.get(key, 0) + (packed << width * k)
            if done:  # the first vertex stays on side 0
                key = (ones | bit) & keep
                nxt[key] = nxt.get(key, 0) + (packed << width * (nb - k))
        states, done = nxt, done | bit
    (packed,) = states.values()
    return [packed >> width * k & (1 << width) - 1 for k in range(e + 1)], 1 << width - 1


def _four_cycle_cuts(adj: list[int], todo: int) -> int:
    """The colorings, one vertex fixed, whose cut is a 4-cycle C = abcd of the
    graph on the vertices in todo.  The cut is E(C) when every component of
    G - E(C) is one color, a and c on one side and b and d on the other.  So
    with m components, t of them holding a vertex of C, C contributes
    2^(m - t) when the components of a and c are apart from those of b and d,
    and 0 otherwise.  Each 4-cycle is listed once, from its least vertex a."""
    total = 0
    for a in _bit_positions(todo):
        above = todo >> a + 1 << a + 1
        for c in _bit_positions(above):
            between = _bit_positions(adj[a] & adj[c] & above)
            for i, b in enumerate(between):
                for d in between[i + 1:]:
                    cut = list(adj)
                    for x in (a, c):
                        cut[x] &= ~(1 << b | 1 << d)
                    for x in (b, d):
                        cut[x] &= ~(1 << a | 1 << c)
                    parts = _component_masks(cut, todo)
                    ac = [p for p in parts if p >> a & 1 or p >> c & 1]
                    bd = [p for p in parts if p >> b & 1 or p >> d & 1]
                    if set(ac).isdisjoint(bd):
                        total += 1 << len(parts) - len(ac) - len(bd)
    return total


def _frontier_stats(g: Graph, plan: tuple[list[int], list[int], list[int]]) -> CutStats:
    """The cut statistics of g by the frontier DP over the elimination order
    plan of g, with the 4-cycle cuts counted from the 4-cycles of g."""
    counts, total = _frontier_counts(plan, g.edge_count)
    cycle4 = _four_cycle_cuts(plan[0], g.touched_vertices())
    four = counts[4] if g.edge_count >= 4 else 0
    return CutStats(tuple(counts), four - cycle4, cycle4, total)


def cut_distribution_bruteforce(g: Graph) -> tuple[Fraction, ...]:
    """Cut-size law by direct enumeration of all colorings, whatever route
    cut_stats would take."""
    return _enumerated_stats(g).distribution()


def _block_counts(dec: BlockDecomposition) -> tuple[list[int], int]:
    """The bridge/block product formula on integer counts: (counts, total)
    with q_k = counts[k] / total, the product of 1 + X out of 2 per bridge and
    of each block's counts out of its total.  The blocks' counts come from the
    frontier DP, so the formula does not repeat the enumeration it is checked
    against."""
    counts, total = [1], 1
    factors = [((1, 1), 2)] * dec.m + [_frontier_counts(_elimination_order(b), b.edge_count)
                                       for b in dec.blocks]
    for factor, size in factors:
        out = [0] * (len(counts) + len(factor) - 1)
        for i, a in enumerate(counts):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        counts, total = out, total * size
    return counts, total


def cut_distribution_blocks(g: Graph) -> tuple[Fraction, ...]:
    """Cut-size law via the bridge/block product formula."""
    counts, total = _block_counts(block_decomposition(g))
    return CutStats(tuple(counts), 0, 0, total).distribution()  # typed 4-cuts unread


class ClassEntry(NamedTuple):
    """One isomorphism class: its representative and cut statistics."""

    graph: Graph
    stats: CutStats


def class_catalogue(max_vertices: int) -> dict[tuple[int, int], ClassEntry]:
    """Every class with at most max_vertices non-isolated vertices, by key, in
    the order of enumerate_unlabeled; built once per process and size, by
    position or by keyword.  The representatives are canonical cores, so
    each key is (v, mask) as is, and their laws come from _inherited_stats,
    one preorder of the orderly generation per v."""
    return _class_catalogue(max_vertices)


@lru_cache(maxsize=None)
def _class_catalogue(max_vertices: int) -> dict[tuple[int, int], ClassEntry]:
    reps = enumerate_unlabeled(max_vertices)  # refuses a size past 7 before any law is built
    laws = {v: _inherited_stats(v, _cores(v)) for v in range(2, max_vertices + 1)}
    out = {}
    for g in reps:
        # a representative is a core on its n vertices, or the empty graph
        key = (g.n, g.mask) if g.mask else (0, 0)
        out[key] = ClassEntry(g, laws[g.n][g.mask] if g.mask else cut_stats(g))
    return out


def _drop_edge(lanes: list[int], edge: int, i: int, j: int) -> list[int]:
    """The lanes of _inherited_stats, size first and then the degree of each
    vertex, less the edge ij whose lane is edge."""
    out = list(lanes)
    for at in (0, 1 + i, 1 + j):
        out[at] -= edge
    return out


def _inherited_stats(v: int, masks: Iterable[int]) -> dict[int, CutStats]:
    """The cut statistics of each mask in masks: graphs on v >= 2 vertices
    without an isolated vertex, in the preorder of a tree under K_v whose
    children each lack one edge of their parent, as _cores lists them.  A
    mask's parent is then the last mask listed with one more edge; a mask
    that is not one edge short of it raises ValueError.

    A lane holds one byte per coloring of _cut_mask_table(v), in an integer
    of 2^(v-1) bytes.  The size lane counts the edges each coloring cuts,
    and the degree lane of vertex u the cut edges at u.  K_v's lanes are sums
    of edge lanes, a 1 where the coloring cuts the edge, and a child's lanes
    are its parent's less the lanes of the cleared edge: every byte stays in
    0..16 up to v = 8, so no borrow crosses a byte.  The law counts the bytes
    of each size; a 4-cut is a 4-cycle exactly when it touches 4 vertices,
    the degree lanes nonzero there.  Only the lanes of the last mask at each
    depth, the path to the current mask, are kept.
    """
    width = 1 << v - 1
    pairs = edge_pairs(v)
    table = _cut_mask_table(v)
    edges = [int.from_bytes(bytes(cut >> k & 1 for cut in table), "little")
             for k in range(len(pairs))]
    ones = int.from_bytes(b"\x01" * width, "little")
    low, high, fours = 0x7F * ones, ones << 7, ones << 2
    full = (1 << len(pairs)) - 1
    path: list[tuple[int, list[int]]] = []
    stats: dict[int, CutStats] = {}
    for mask in masks:
        depth = len(pairs) - mask.bit_count()
        if mask == full:
            lanes = [sum(edges)] + [sum(edges[k] for k, p in enumerate(pairs) if u in p)
                                    for u in range(v)]
        elif 0 < depth <= len(path) and not mask & ~path[depth - 1][0]:
            parent, lanes = path[depth - 1]
            b = (parent ^ mask).bit_length() - 1
            lanes = _drop_edge(lanes, edges[b], *pairs[b])
        else:
            raise ValueError(f"mask {mask} is not listed in preorder below K_{v}")
        del path[depth:]
        path.append((mask, lanes))
        size = lanes[0]
        data = size.to_bytes(width, "little")
        counts = tuple(map(data.count, range(mask.bit_count() + 1)))
        forest4 = cycle4 = 0
        if len(counts) > 4 and counts[4]:
            # a byte d <= 0x80 is nonzero exactly when d + 0x7f reaches 0x80;
            # the zero bytes of the xors are the 4-cuts on 4 vertices
            touched = sum((d + low & high) >> 7 for d in lanes[1:])
            cycle4 = (size ^ fours | touched ^ fours).to_bytes(width, "little").count(0)
            forest4 = counts[4] - cycle4
        stats[mask] = CutStats(counts, forest4, cycle4, width)
    return stats


# the lemma ids check_cut_lemmas reports, in the order of its checks
CUT_LEMMAS = ("blocks=enumeration", "q0=2^(c-v)", "q1=m*q0", "odd-degree:q_k<=1/2",
              "odd-k:q_k<=1/2", "q2<=3/4", "mean=|G|/2")


def check_cut_lemmas(g: Graph, stats: CutStats) -> list[str]:
    """The ids in CUT_LEMMAS of the facts that stats, the cut statistics of g,
    break: the block formula gives the enumerated law; q_0 = 2^(c - v) for c
    components on v non-isolated vertices; q_1 = m q_0 for m bridges; all
    q_k <= 1/2 when some vertex has odd degree; q_k <= 1/2 for odd k;
    q_2 <= 3/4; the mean cut size is |G|/2.  Read as integer counts out of
    stats.total, so a record that is no probability law is checked, not refused."""
    total = stats.total
    c = (*stats.counts, 0, 0)
    dec = block_decomposition(g)
    block_counts, block_total = _block_counts(dec)
    odd_degree = any((g.mask & star).bit_count() & 1 for star in _vertex_stars(g.n))
    oks = (
        [k * total for k in block_counts] == [k * block_total for k in stats.counts],
        c[0] << (g.v - g.component_count()) == total,
        c[1] == dec.m * c[0],
        not odd_degree or all(2 * k <= total for k in c),
        all(2 * k <= total for k in c[1::2]),
        4 * c[2] <= 3 * total,
        2 * sum(k * x for k, x in enumerate(c)) == g.edge_count * total,
    )
    return [lemma for lemma, ok in zip(CUT_LEMMAS, oks) if not ok]


@lru_cache(maxsize=1)
def reference_graphs() -> dict[str, Graph]:
    """The named small graphs the campaigns and the reference cut-size table
    refer to, built once; forest2 and matching4 are the 2- and 4-matchings,
    forest4 the 4-edge path."""
    return {
        "empty": Graph(1, 0),
        "edge": Graph.from_edges(2, [(0, 1)]),
        "path2": Graph.from_edges(3, [(0, 1), (1, 2)]),
        "path3": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        "forest2": Graph.from_edges(4, [(0, 1), (2, 3)]),
        "triangle": Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        "forest4": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        "K4minus": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        "C4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "C5": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "matching4": Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    }


def builtin_table() -> list[tuple[str, Graph]]:
    """The six standard small graphs of the reference cut-size table."""
    refs = reference_graphs()
    return [(name, refs[name])
            for name in ("empty", "edge", "path2", "triangle", "forest4", "K4minus")]
