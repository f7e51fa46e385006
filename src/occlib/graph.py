"""Graphs as edge bitmasks over the complete graph K_n.

Edges of K_n are ordered lexicographically as pairs (i, j) with i < j:
(0,1), (0,2), ..., (0,n-1), (1,2), ...  Bit k of a mask is the k-th edge in
that order.  The same order is the module-wide bit order used by the cube
transforms and the tensor operators.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "Graph",
    "BlockDecomposition",
    "Graph6Error",
    "edge_index",
    "edge_pairs",
    "canonical_form",
    "canonical_key",
    "block_decomposition",
    "enumerate_unlabeled",
    "parse_graph6",
    "write_graph6",
    "random_graph",
]

MAX_N = 64


@lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in the canonical lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def edge_index(i: int, j: int, n: int) -> int:
    """Position of edge (i, j) in the canonical order; arguments may be swapped."""
    if i == j:
        raise ValueError("self-loops are not edges")
    if i > j:
        i, j = j, i
    if not 0 <= i < j < n:
        raise ValueError(f"edge ({i},{j}) outside K_{n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


class Graph:
    """Simple graph on n labeled vertices, edge set stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"need 1 <= n <= {MAX_N}, got {n}")
        if mask < 0 or mask >> (n * (n - 1) // 2):
            raise ValueError("edge mask out of range for this n")
        self.n, self.mask = n, mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        m = 0
        for i, j in edges:
            m |= 1 << edge_index(i, j, n)
        return Graph(n, m)

    # edge-set views

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def edges(self) -> list[tuple[int, int]]:
        pairs = edge_pairs(self.n)
        return [pairs[k] for k in _bit_positions(self.mask)]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.mask >> edge_index(i, j, self.n) & 1)

    def touched_vertices(self) -> int:
        """Bitmask of non-isolated vertices."""
        m = self.mask
        t = 0
        for u, star in enumerate(_vertex_stars(self.n)):
            if m & star:
                t |= 1 << u
        return t

    @property
    def v(self) -> int:
        """Number of non-isolated vertices."""
        return self.touched_vertices().bit_count()

    # structure

    def adjacency(self) -> list[int]:
        """Neighbor bitmask per vertex."""
        adj = [0] * self.n
        pairs = edge_pairs(self.n)
        for k in _bit_positions(self.mask):
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    def component_count(self) -> int:
        """Connected components among non-isolated vertices."""
        return len(_component_masks(self.adjacency(), self.touched_vertices()))

    def is_bipartite(self) -> bool:
        """True when the graph carries no odd cycle: exactly when its
        bipartite double cover, u and u + n per vertex u, has twice as many
        components on the touched vertices."""
        adj, t = self.adjacency(), self.touched_vertices()
        cover = [a << self.n for a in adj] + adj
        return len(_component_masks(cover, t | t << self.n)) == 2 * len(_component_masks(adj, t))

    def has_odd_cycle(self) -> bool:
        return not self.is_bipartite()

    def contains_triangle(self) -> bool:
        adj = self.adjacency()
        for i, j in self.edges():
            if adj[i] & adj[j]:
                return True
        return False

    def is_forest(self) -> bool:
        return self.edge_count == self.v - self.component_count()

    def strip_isolated(self) -> "Graph":
        """Relabel down to the non-isolated vertices, preserving vertex order."""
        t = self.touched_vertices()
        if t == 0:
            return Graph(1, 0)
        if t == (1 << self.n) - 1:
            return self
        old = _bit_positions(t)
        newidx = {u: k for k, u in enumerate(old)}
        nn = len(old)
        m = 0
        for i, j in self.edges():
            m |= 1 << edge_index(newidx[i], newidx[j], nn)
        return Graph(nn, m)

    def permute(self, sigma: Sequence[int]) -> "Graph":
        """Relabel vertices: edge (i, j) becomes (sigma[i], sigma[j])."""
        if sorted(sigma) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        m = 0
        for i, j in self.edges():
            m |= 1 << edge_index(sigma[i], sigma[j], self.n)
        return Graph(self.n, m)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


@lru_cache(maxsize=None)
def _vertex_stars(n: int) -> tuple[int, ...]:
    """Edge mask of the star of each vertex of K_n."""
    stars = [0] * n
    for k, (i, j) in enumerate(edge_pairs(n)):
        stars[i] |= 1 << k
        stars[j] |= 1 << k
    return tuple(stars)


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _component_masks(adj: list[int], todo: int) -> list[int]:
    """The vertex masks of the components that hold the vertices in the mask
    todo, in the graph with neighbour masks adj."""
    parts = []
    while todo:
        part, grow = 0, todo & -todo
        while grow:
            part |= grow
            reach = 0
            for w in _bit_positions(grow):
                reach |= adj[w]
            grow = reach & ~part
        parts.append(part)
        todo &= ~part
    return parts


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


class BlockDecomposition(NamedTuple):
    """Bridges plus biconnected blocks; every edge appears in exactly one part."""

    bridges: tuple[tuple[int, int], ...]
    blocks: tuple[Graph, ...]

    @property
    def m(self) -> int:
        return len(self.bridges)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Split g into bridge edges and biconnected blocks (>= 3 edges each).

    One depth-first search over the adjacency bitsets (Hopcroft and Tarjan,
    1973), so the time is linear in the edges.  low[u] is the least
    discovery time that the subtree of u reaches by one back edge.  Each
    edge is stacked when the search first meets it; on the return from a
    child w of u with low[w] >= disc[u], u separates w's subtree from the
    rest, and the edges stacked since uw form one block, a bridge when uw is
    alone.
    """
    n, adj, stars = g.n, g.adjacency(), _vertex_stars(g.n)
    disc, low = [0] * n, [0] * n  # discovery times from 1; 0 is unvisited
    classes: list[int] = []
    edges: list[int] = []
    clock = 0
    for root in _bit_positions(g.touched_vertices()):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [[root, -1, adj[root]]]  # vertex, tree parent, neighbours left
        while stack:
            frame = stack[-1]
            u, parent, left = frame
            if left:
                w = (left & -left).bit_length() - 1
                frame[2] = left & left - 1
                if w == parent or disc[u] < disc[w]:
                    continue  # the tree edge up, or a back edge met from below
                edges.append(stars[u] & stars[w])
                if disc[w]:
                    low[u] = min(low[u], disc[w])
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append([w, u, adj[w]])
                continue
            stack.pop()
            if parent < 0:
                continue
            low[parent] = min(low[parent], low[u])
            if low[u] >= disc[parent]:
                tree, block = stars[parent] & stars[u], 0
                while not block & tree:
                    block |= edges.pop()
                classes.append(block)
    if sum(classes) != g.mask:
        raise AssertionError("block decomposition lost or duplicated edges")
    bridges = sorted(edge_pairs(n)[c.bit_length() - 1] for c in classes if c.bit_count() == 1)
    blocks = sorted((Graph(n, c) for c in classes if c.bit_count() > 1), key=lambda b: b.mask)
    return BlockDecomposition(tuple(bridges), tuple(blocks))


# ---------------------------------------------------------------------------
# canonical forms and enumeration
# ---------------------------------------------------------------------------

_CANON_MAX_N = 8


@lru_cache(maxsize=None)
def canonical_form(g: Graph) -> int:
    """Lexicographically minimal edge bitmask over all vertex relabelings.

    The scan of _automorphisms, run to build the least mask rather than to
    test one: the bits are fixed from the top, over all n! relabellings at
    once as n!-bit sets (_vertex_planes).  At bit (c, d) the hit
    relabellings are those that send some edge onto {c, d}.  If a tied
    relabelling misses, the tied ones shrink to those that miss and the bit
    is 0; else it is 1.  A relabelling sends exactly one vertex to d, so hit
    is the sum over vertices a of those that send a to d and a neighbour of
    a to c.
    """
    if g.n > _CANON_MAX_N:
        raise ValueError(f"canonical form needs n <= {_CANON_MAX_N}")
    n, adj = g.n, g.adjacency()
    vertex = _vertex_planes(n)
    tied, form = (1 << factorial(n)) - 1, 0
    for c in range(n - 2, -1, -1):
        # near[a]: the relabellings that send a neighbour of a to c (a sum
        # too: one vertex goes to c)
        near = [sum(vertex[b][c] for b in _bit_positions(adj[a])) for a in range(n)]
        for d in range(n - 1, c, -1):
            miss = tied & ~sum(vertex[a][d] & near[a] for a in range(n))
            if miss:
                tied = miss
            else:
                form |= 1 << edge_index(c, d, n)
    return form


@lru_cache(maxsize=None)
def _vertex_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """A[a][c]: an n!-bit integer whose bit r is set when the r-th
    permutation of range(n), in the order of itertools.permutations, sends
    vertex a to c.

    That order is lexicographic, so its r-th block of (n-1)! permutations
    sends 0 to r and the other vertices to the rest of range(n), in the
    same order one size down: the planes are built block by block from the
    planes on n-1 vertices.  Built on first use.
    """
    if n == 1:
        return ((1,),)
    sub = _vertex_planes(n - 1)
    size = factorial(n - 1)
    planes = [[0] * n for _ in range(n)]
    for r in range(n):
        planes[0][r] = ((1 << size) - 1) << size * r
        rest = [c for c in range(n) if c != r]
        for a in range(1, n):
            for k, c in enumerate(rest):
                planes[a][c] |= sub[a - 1][k] << size * r
    return tuple(map(tuple, planes))


@lru_cache(maxsize=None)
def _edge_planes(n: int) -> tuple[tuple[int, ...], ...]:
    """P[s][t]: the n!-bit set of the relabellings that send edge s to edge
    t, from the vertex planes: (a, b) goes to (c, d) when a goes to c and b
    to d, or a to d and b to c.  Built on first use."""
    vertex = _vertex_planes(n)
    pairs = edge_pairs(n)
    return tuple(tuple(vertex[a][c] & vertex[b][d] | vertex[a][d] & vertex[b][c] for c, d in pairs)
                 for a, b in pairs)


def _automorphisms(n: int, mask: int, empty: Sequence[int], moved: Sequence[int]) -> int:
    """The relabellings that fix the mask on n vertices when it is
    canonical, else 0.

    Relabellings are bits of n!-bit sets, as in _edge_planes, and
    empty[t] ^ moved[t] is the set of those that leave bit t of the
    relabelled mask empty: _cores passes the sets of a parent mask and the
    planes of the edge it clears.  The bits are scanned from the top,
    keeping the candidates whose relabelled mask ties with mask so far: at
    a 0 bit of mask only those that leave the bit empty tie, and at a 1 bit
    any candidate that leaves it empty undercuts mask.  What is left at the
    end ties everywhere; the identity, bit 0, always does, so once it is
    the only candidate no undercut can follow.
    """
    cand = (1 << factorial(n)) - 1
    for t in range(len(empty) - 1, -1, -1):
        if mask >> t & 1:
            if cand & (empty[t] ^ moved[t]):
                return 0
        else:
            cand &= empty[t] ^ moved[t]
            if cand == 1:
                return 1
    return cand


def canonical_key(g: Graph) -> tuple[int, int]:
    """Isomorphism-class key across vertex-set sizes: (v, canonical core mask)."""
    core = g.strip_isolated()
    return core.n if core.mask else 0, canonical_form(core)


@lru_cache(maxsize=None)
def enumerate_unlabeled(max_vertices: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs without isolated
    vertices on at most max_vertices vertices (the empty graph included),
    each with its canonical mask, sorted by (v, edge count, mask).  The
    classes on v vertices come from _cores(v), built once per process."""
    if not 1 <= max_vertices <= 7:
        raise ValueError("exhaustive enumeration supported for 1..7 vertices")
    reps = [Graph(1, 0)]
    for v in range(2, max_vertices + 1):
        reps += sorted((Graph(v, m) for m in _cores(v)), key=lambda g: (g.edge_count, g.mask))
    return tuple(reps)


@lru_cache(maxsize=None)
def _cores(n: int) -> tuple[int, ...]:
    """The canonical masks of the graphs on n >= 2 vertices without an
    isolated vertex.

    Orderly generation downward from K_n (Read, 1978; McKay, J. Algorithms
    1998): setting the lowest zero bit of a canonical mask gives another
    canonical mask, so every canonical mask but K_n's has exactly one
    canonical parent.  A canonical mask's children are therefore the
    canonical masks among it with one of the bits below its lowest zero bit
    cleared, and each class is met exactly once.  Adding an edge isolates no
    vertex, so the masks without an isolated vertex form a subtree under K_n,
    and a child that would isolate a vertex is not tested.

    The tree is walked depth-first, carrying along the path the relabellings
    that leave each bit empty (_automorphisms): none for K_n, and clearing
    bit b adds to those of bit t the relabellings that send b to t.  Each
    child is grown as soon as it passes, so the masks come in preorder: K_n
    first, each mask after its parent and each subtree contiguous: the
    parent of a mask is the last mask listed with one more edge.
    """
    planes = _edge_planes(n)
    stars = _vertex_stars(n)
    pairs = edge_pairs(n)
    found = []

    def grow(mask: int, empty: list[int]) -> None:
        found.append(mask)
        lowest_zero = (~mask & (mask + 1)).bit_length() - 1
        for b in range(lowest_zero):
            child = mask ^ 1 << b
            i, j = pairs[b]
            if (child & stars[i] and child & stars[j]
                    and _automorphisms(n, child, empty, planes[b])):
                grow(child, [x ^ p for x, p in zip(empty, planes[b])])

    grow((1 << len(pairs)) - 1, [0] * len(pairs))
    return tuple(found)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word (n <= 62, no header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Graph6Error("empty graph6 input", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) not supported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error("vertex-count byte out of range", 0)
    n = first - 63
    if n == 0:
        raise Graph6Error("graph6 word with zero vertices", 0)
    e = n * (n - 1) // 2
    need = (e + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise Graph6Error(f"expected {need} data bytes for n={n}, got {len(body)}", 1 + min(len(body), need))
    bits = []
    for pos, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise Graph6Error("data byte out of range", 1 + pos)
        bits.extend((val >> (5 - t)) & 1 for t in range(6))
    if any(bits[e:]):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    # graph6 lists the upper triangle column by column: (i, j) for j = 1..n-1, i < j
    m = 0
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                m |= 1 << edge_index(i, j, n)
            k += 1
    return Graph(n, m)


def write_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 word (n <= 62)."""
    if g.n > 62:
        raise ValueError("graph6 single-byte encoding needs n <= 62")
    n = g.n
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for t in range(6):
            val = (val << 1) | bits[k + t]
        chars.append(chr(val + 63))
    return "".join(chars)


def random_graph(n: int, edge_prob, rng) -> Graph:
    """Seeded G(n, p) sample; edge_prob is an exact rational in [0, 1]."""
    m = 0
    for k in range(len(edge_pairs(n))):
        if rng.random() < edge_prob:
            m |= 1 << k
    return Graph(n, m)


def all_masks(n: int) -> Iterator[int]:
    """Every edge bitmask of K_n in numeric order."""
    return iter(range(1 << len(edge_pairs(n))))
