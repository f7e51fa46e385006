"""Seeded inputs for the benchmark workloads.

The program under test receives only what this module writes.  Every graph
stays well below the v <= 24 refusal of the brute-force cut enumeration.
"""

from __future__ import annotations

import random

# The bigcuts file has a fixed size profile: one slot per (kind, vertices).
# Cut enumeration costs about 2^(v-1) per graph plus one mask table per
# distinct v, so fixing the vertex counts keeps the work of a pass nearly the
# same for every seed; the seed varies the shapes and the vertex labels.
BIGCUTS_SLOTS = (
    ("cycle", 13),
    ("cycle", 16),
    ("grid", 12),      # 3 x 4
    ("grid", 15),      # 3 x 5
    ("hamchords", 14),
    ("hamchords", 17),
    ("cactus", 15),
    ("cactus", 17),
)


def graph6(n: int, edges) -> str:
    """graph6 word of a simple graph on n <= 62 vertices."""
    if not 1 <= n <= 62:
        raise ValueError("graph6 single-byte form needs 1 <= n <= 62")
    present = {(min(i, j), max(i, j)) for i, j in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _grid(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _hamiltonian_with_chords(n: int, chords: int, rng: random.Random) -> list[tuple[int, int]]:
    """A Hamiltonian cycle plus random chords: 2-connected, so one block."""
    edges = _cycle(n)
    present = {frozenset(e) for e in edges}
    candidates = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if frozenset((i, j)) not in present]
    edges += rng.sample(candidates, chords)
    return edges


def _cactus(n: int, rng: random.Random) -> tuple[list[tuple[int, int]], list[int], int]:
    """Cycles of length 3..5 glued at cut vertices, with a bridge to fill up.

    Returns the edges, the cycle lengths and the number of bridges.
    """
    first = rng.randint(3, 5)
    edges = _cycle(first)
    cycles, bridges = [first], 0
    used = first
    while used < n:
        anchor = rng.randrange(used)
        room = n - used
        if room == 1:
            edges.append((anchor, used))
            bridges += 1
            used += 1
            continue
        length = rng.randint(3, min(5, room + 1))
        ring = [anchor] + list(range(used, used + length - 1))
        edges += [(ring[k], ring[(k + 1) % length]) for k in range(length)]
        cycles.append(length)
        used += length - 1
    return edges, cycles, bridges


def _slot_graph(kind: str, n: int, rng: random.Random):
    """(edges, blocks) of one slot; blocks is (cycle lengths, bridge count)
    when every block is a cycle or a bridge, which fixes the cut law, else None."""
    if kind == "cycle":
        return _cycle(n), ([n], 0)
    if kind == "grid":
        return _grid(3, n // 3), None
    if kind == "hamchords":
        return _hamiltonian_with_chords(n, n // 4, rng), None
    if kind == "cactus":
        edges, cycles, bridges = _cactus(n, rng)
        return edges, (cycles, bridges)
    raise ValueError(f"unknown slot kind {kind!r}")


def bigcuts_graphs(seed: int) -> list[dict]:
    """The bigcuts input: one relabelled graph per slot, in seeded order."""
    rng = random.Random(seed)
    graphs = []
    for kind, n in BIGCUTS_SLOTS:
        edges, blocks = _slot_graph(kind, n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[i], perm[j]) for i, j in edges]
        graphs.append({"kind": kind, "vertices": n, "edges": len(edges),
                       "graph6": graph6(n, edges), "blocks": blocks})
    rng.shuffle(graphs)
    return graphs
