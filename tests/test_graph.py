"""Tests for bitmask graphs, blocks, canonical forms, enumeration and graph6."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest

import occlib
from occlib.cutstats import class_catalogue
from occlib.graph import (
    BlockDecomposition,
    Graph,
    Graph6Error,
    block_decomposition,
    canonical_form,
    canonical_key,
    edge_index,
    edge_pairs,
    enumerate_unlabeled,
    parse_graph6,
    write_graph6,
    _automorphisms,
    _cores,
    _edge_planes,
    _vertex_planes,
)

TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def plane_automorphisms(g):
    """The plane test on g, split as _cores splits it: the relabellings that
    leave each bit empty in g plus its lowest absent edge b (those sending
    an absent edge there), and the planes of b."""
    n, mask = g.n, g.mask
    planes = _edge_planes(n)
    e = len(planes)
    if mask == (1 << e) - 1:
        return _automorphisms(n, mask, [0] * e, [0] * e)
    b = (~mask & (mask + 1)).bit_length() - 1
    empty = [0] * e
    for s in range(e):
        if not (mask | 1 << b) >> s & 1:
            empty = [x | p for x, p in zip(empty, planes[s])]
    return _automorphisms(n, mask, empty, planes[b])


@lru_cache(maxsize=None)
def brute_force_form(g):
    """Independent oracle for canonical forms: the least relabelled mask
    over all n! vertex permutations, with labels given from n-1 down.  The
    edges among the labels k..n-1 are the top bits of a mask, so a partial
    labelling whose top bits already exceed those of the least mask found
    is dropped: every completion of it is larger."""
    n, adj = g.n, g.adjacency()
    e = n * (n - 1) // 2
    label = [0] * n
    least = 1 << e  # above every mask

    def extend(k, free, mask):
        nonlocal least
        if k < 0:
            least = min(least, mask)
            return
        top = edge_index(k, k + 1, n) if k < n - 1 else e
        for u in range(n):
            if free >> u & 1:
                m = mask
                for w in range(n):
                    if adj[u] >> w & 1 and not free >> w & 1:
                        m |= 1 << edge_index(k, label[w], n)
                if m >> top <= least >> top:
                    label[u] = k
                    extend(k - 1, free ^ 1 << u, m)

    extend(n - 1, (1 << n) - 1, 0)
    return least


def test_brute_force_form_is_the_least_over_all_permutations():
    # the pruned oracle against a plain scan of all n! relabellings
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(30):
            g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
            plain = min(g.permute(sigma).mask for sigma in itertools.permutations(range(n)))
            assert brute_force_form(g) == plain, (n, g.mask)


class TestBasics:
    def test_edge_order_is_lexicographic(self):
        assert edge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert edge_index(2, 3, 4) == 5
        assert edge_index(3, 0, 4) == 2

    def test_mask_bounds_validated(self):
        with pytest.raises(ValueError):
            Graph(3, 8)
        with pytest.raises(ValueError):
            Graph(0, 0)

    def test_v_counts_non_isolated(self):
        g = Graph.from_edges(5, [(1, 3)])
        assert g.v == 2 and g.edge_count == 1
        assert Graph(5, 0).v == 0

    def test_strip_isolated_relabels_in_order(self):
        g = Graph.from_edges(6, [(1, 4), (4, 5)])
        s = g.strip_isolated()
        assert s.n == 3 and sorted(s.edges()) == [(0, 1), (1, 2)]


class TestPredicates:
    def odd_cycle_oracle(self, g):
        # exhaustive 2-coloring over non-isolated vertices
        verts = [v for v in range(g.n) if any(v in e for e in g.edges())]
        for bits in range(1 << len(verts)):
            side = {v: (bits >> k) & 1 for k, v in enumerate(verts)}
            if all(side[i] != side[j] for i, j in g.edges()):
                return False
        return bool(g.edges())

    def test_bipartite_against_coloring_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 6)
            g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
            assert g.has_odd_cycle() == self.odd_cycle_oracle(g)
        for mask in range(1 << 10):
            g = Graph(5, mask)
            assert g.has_odd_cycle() == self.odd_cycle_oracle(g), mask

    def test_triangle_detection(self):
        assert TRIANGLE.contains_triangle()
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not c4.contains_triangle()
        assert not c4.has_odd_cycle()
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert c5.has_odd_cycle() and not c5.contains_triangle()

    def test_forest_predicate(self):
        assert Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]).is_forest()
        assert not TRIANGLE.is_forest()


class TestBlocks:
    def bridge_oracle(self, g):
        # ij is a bridge exactly when j is unreachable from i once ij is
        # removed: a breadth-first search over the adjacency bitsets
        adj = g.adjacency()
        out = set()
        for i, j in g.edges():
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            seen = frontier = 1 << i
            while frontier and not seen >> j & 1:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reached & ~seen
                seen |= reached
            if not seen >> j & 1:
                out.add((i, j))
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
        return out

    def test_bridges_match_oracle_exhaustively_n6(self):
        # every labeled graph on 6 vertices
        for mask in range(1 << 15):
            g = Graph(6, mask)
            dec = block_decomposition(g)
            assert set(dec.bridges) == self.bridge_oracle(g), mask

    def test_edges_partitioned(self):
        rng = random.Random(11)
        for _ in range(200):
            g = Graph(7, rng.getrandbits(21))
            dec = block_decomposition(g)
            masks = [1 << edge_index(i, j, 7) for i, j in dec.bridges]
            masks += [b.mask for b in dec.blocks]
            total = 0
            for m in masks:
                assert total & m == 0
                total |= m
            assert total == g.mask

    def test_blocks_have_at_least_three_edges(self):
        rng = random.Random(13)
        for _ in range(200):
            g = Graph(7, rng.getrandbits(21))
            for b in block_decomposition(g).blocks:
                assert b.edge_count >= 3

    def test_known_decomposition(self):
        # two triangles joined by a path of two edges
        g = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                 (4, 5), (5, 6), (4, 6)])
        dec = block_decomposition(g)
        assert dec.m == 2 and len(dec.blocks) == 2
        assert set(dec.bridges) == {(2, 3), (3, 4)}
        # the bowtie: two triangles at a cut vertex are two blocks, not one
        # 2-edge-connected piece
        bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        dec = block_decomposition(bowtie)
        assert dec.m == 0 and len(dec.blocks) == 2

    def cycle_oracle(self, g):
        """The edge masks of the simple cycles of g, by brute force over
        vertex sequences: each cycle is listed from its least vertex, along
        simple paths that return to it."""
        cycles = set()

        def extend(path, mask):
            for w in range(path[0], g.n):
                if w in path[1:] or w == path[-1] or not g.has_edge(path[-1], w):
                    continue
                edge = 1 << edge_index(path[-1], w, g.n)
                if w == path[0]:
                    if len(path) >= 3:
                        cycles.add(mask | edge)
                else:
                    extend(path + [w], mask | edge)

        for s in range(g.n):
            extend([s], 0)
        return cycles

    def check_blocks_by_cycles(self, g):
        # two edges share a block iff they are equal or some simple cycle
        # holds both; a bridge shares its block with no other edge
        dec = block_decomposition(g)
        part = {edge_index(i, j, g.n): k for k, (i, j) in enumerate(dec.bridges)}
        for k, b in enumerate(dec.blocks):
            part.update((e, len(dec.bridges) + k) for e in range(b.mask.bit_length())
                        if b.mask >> e & 1)
        cycles = self.cycle_oracle(g)
        edges = [e for e in range(g.mask.bit_length()) if g.mask >> e & 1]
        assert sorted(part) == edges, g.mask
        for e, f in itertools.combinations(edges, 2):
            together = any(c >> e & c >> f & 1 for c in cycles)
            assert (part[e] == part[f]) == together, (g.n, g.mask, e, f)

    def test_blocks_match_cycle_oracle_on_every_k5_mask(self):
        for mask in range(1 << 10):
            self.check_blocks_by_cycles(Graph(5, mask))

    def test_blocks_match_cycle_oracle_on_sampled_k6_k7_masks(self):
        rng = random.Random(31)
        for n, count in ((6, 1000), (7, 200)):
            for _ in range(count):
                self.check_blocks_by_cycles(Graph(n, rng.getrandbits(len(edge_pairs(n)))))


class TestCanonical:
    def test_invariant_under_relabeling(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 7)
            g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
            sigma = list(range(n))
            rng.shuffle(sigma)
            assert canonical_form(g) == canonical_form(g.permute(sigma))

    def test_distinct_classes_distinct_forms(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert canonical_form(path) != canonical_form(TRIANGLE)

    def test_canonical_key_ignores_isolated_vertices(self):
        g = Graph.from_edges(6, [(2, 5), (4, 5), (2, 4)])
        assert canonical_key(g) == canonical_key(TRIANGLE)

    def test_matches_full_scan_on_every_k5_mask(self):
        for mask in range(1 << 10):
            g = Graph(5, mask)
            assert canonical_form(g) == brute_force_form(g), mask

    def test_matches_full_scan_on_sampled_k6_k7_masks(self):
        rng = random.Random(29)
        for n, count in ((6, 150), (7, 12), (8, 50)):
            for _ in range(count):
                g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
                assert canonical_form(g) == brute_force_form(g), (n, g.mask)

    def test_four_matching_key(self):
        matching = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert canonical_key(matching) == (8, 297024)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            canonical_form(Graph(9, 1))


class TestEnumeration:
    def test_three_vertex_classes(self):
        reps = enumerate_unlabeled(3)
        assert len(reps) == 4
        shapes = {(g.v, g.edge_count) for g in reps}
        assert shapes == {(0, 0), (2, 1), (3, 2), (3, 3)}

    def test_two_disjoint_edges_appear_at_four(self):
        reps4 = enumerate_unlabeled(4)
        assert any(g.v == 4 and g.edge_count == 2 for g in reps4)
        assert not any(g.v == 4 and g.edge_count == 2 for g in enumerate_unlabeled(3))

    def test_published_class_counts(self):
        # unlabeled graph counts on n nodes: 1, 2, 4, 11, 34, 156, 1044
        for n, total in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)]:
            assert len(enumerate_unlabeled(n)) == total

    def test_representatives_are_canonical_and_distinct(self):
        reps = enumerate_unlabeled(5)
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps)
        assert all(g.v == g.n or g.edge_count == 0 for g in reps)

    def test_labeled_graphs_all_covered_n4(self):
        reps = {canonical_key(g) for g in enumerate_unlabeled(4)}
        seen = {canonical_key(Graph(4, m)) for m in range(1 << 6)}
        assert seen == reps

    @staticmethod
    def augmentation_bfs(n):
        """Reference enumeration: grow every class by one edge at a time,
        deduplicating by canonical form, then sort the stripped cores."""
        e = len(edge_pairs(n))
        level = {0}
        seen = {0}
        for _ in range(e):
            nxt = set()
            for mask in level:
                free = ~mask & ((1 << e) - 1)
                while free:
                    bit = free & -free
                    free ^= bit
                    c = canonical_form(Graph(n, mask | bit))
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
            level = nxt
        reps = [Graph(n, m).strip_isolated() for m in seen]
        reps.sort(key=lambda g: (g.v, g.edge_count, canonical_form(g)))
        return tuple(reps)

    def test_orderly_generation_matches_augmentation_bfs(self):
        for n in range(1, 8):
            assert enumerate_unlabeled(n) == self.augmentation_bfs(n), n

    def test_catalogue_is_built_once_however_its_size_is_spelled(self):
        assert class_catalogue(7) is class_catalogue(max_vertices=7)

    def test_catalogue_keys_are_recomputed_canonical_keys(self):
        canonical_form.cache_clear()
        catalogue = class_catalogue(7)
        assert len(catalogue) == 1044
        for key, entry in catalogue.items():
            assert key == canonical_key(entry.graph), entry.graph

    @staticmethod
    def bounded_agrees(g):
        canonical = canonical_form(g) == g.mask
        return bool(plane_automorphisms(g)) == canonical

    def test_bounded_search_decides_canonicity_on_every_k5_mask(self):
        # the plane test that replaced the bounded search, on the same masks
        for mask in range(1 << 10):
            assert self.bounded_agrees(Graph(5, mask)), mask

    def test_bounded_search_decides_canonicity_on_sampled_k6_k7_masks(self):
        # each sampled mask and its canonical form, so both answers occur;
        # n = 8 is the largest canonical_form allows
        rng = random.Random(31)
        for n, count in ((6, 300), (7, 150), (8, 50)):
            for _ in range(count):
                g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
                for h in (g, Graph(n, canonical_form(g))):
                    assert self.bounded_agrees(h), (n, h.mask)

    @pytest.mark.parametrize("n, count", [(5, None), (6, 300), (7, 150), (8, 200)])
    def test_word_parallel_bounded_search_matches_brute_force(self, n, count):
        # the plane test against the oracle: every K5 mask, or count seeded
        # masks each with its least relabelling, so that both answers occur
        # in each sample
        if count is None:
            masks = range(1 << len(edge_pairs(n)))
        else:
            rng = random.Random(43 + n)
            sample = [Graph(n, rng.getrandbits(len(edge_pairs(n)))) for _ in range(count)]
            masks = [m for g in sample for m in (g.mask, brute_force_form(g))]
        answers = set()
        for mask in masks:
            g = Graph(n, mask)
            got = bool(plane_automorphisms(g))
            assert got == (brute_force_form(g) == mask), (n, mask)
            answers.add(got)
        assert answers == {False, True}

    @staticmethod
    def both_searches_match_brute_force(g):
        # the canonical form is the oracle's minimum; the plane test accepts
        # the mask exactly when it is that minimum, for the mask and for its
        # canonical form
        least = brute_force_form(g)
        for h in (g, Graph(g.n, least)):
            assert canonical_form(h) == least, h.mask
            assert bool(plane_automorphisms(h)) == (h.mask == least), h.mask

    def test_planes_match_permutations_on_every_entry_to_n6(self):
        for n in range(1, 7):
            perms = list(itertools.permutations(range(n)))
            assert _vertex_planes(n) == tuple(
                tuple(sum(1 << r for r, pi in enumerate(perms) if pi[a] == c) for c in range(n))
                for a in range(n))
            e = len(edge_pairs(n))
            want = [[0] * e for _ in range(e)]
            for r, pi in enumerate(perms):
                for s, (a, b) in enumerate(edge_pairs(n)):
                    want[s][edge_index(pi[a], pi[b], n)] |= 1 << r
            assert _edge_planes(n) == tuple(map(tuple, want)), n

    def test_planes_match_permutations_on_sampled_n7_entries(self):
        perms = list(itertools.permutations(range(7)))
        pairs = edge_pairs(7)
        planes = _edge_planes(7)
        rng = random.Random(47)
        for _ in range(25):
            s, t = rng.randrange(21), rng.randrange(21)
            (a, b), (c, d) = pairs[s], pairs[t]
            want = sum(1 << r for r, pi in enumerate(perms) if {pi[a], pi[b]} == {c, d})
            assert planes[s][t] == want, (s, t)

    @pytest.mark.parametrize("n, labelled", [(2, 1), (3, 4), (4, 41), (5, 768),
                                             (6, 27449), (7, 1887284)])
    def test_orbits_of_the_cores_cover_every_labelled_graph(self, n, labelled):
        # orbit-stabiliser: each class has n!/|Aut| labellings, so the cores
        # miss or repeat no class exactly when the orbits add up to the
        # labelled graphs on n vertices without an isolated vertex
        # (OEIS A006129)
        sizes = [plane_automorphisms(Graph(n, m)).bit_count() for m in _cores(n)]
        assert sum(factorial(n) // size for size in sizes) == labelled

    def test_plane_automorphism_counts_on_every_k5_mask(self):
        perms = list(itertools.permutations(range(5)))
        images = [[1 << edge_index(pi[a], pi[b], 5) for a, b in edge_pairs(5)] for pi in perms]

        def relabel(mask, image):
            return sum(bit for k, bit in enumerate(image) if mask >> k & 1)

        for mask in range(1 << 10):
            fixed = sum(relabel(mask, image) == mask for image in images)
            canonical = Graph(5, canonical_form(Graph(5, mask)))
            assert plane_automorphisms(canonical).bit_count() == fixed, mask

    def test_both_searches_match_brute_force_on_every_k5_mask(self):
        for mask in range(1 << 10):
            self.both_searches_match_brute_force(Graph(5, mask))

    def test_both_searches_match_brute_force_on_sampled_k6_masks(self):
        rng = random.Random(41)
        for _ in range(100):
            self.both_searches_match_brute_force(Graph(6, rng.getrandbits(15)))

    def test_seven_vertex_enumeration_within_budget(self):
        # a fresh interpreter, so no canonical form is cached
        src = Path(occlib.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import time\n"
                "from occlib.graph import enumerate_unlabeled\n"
                "start = time.perf_counter()\n"
                "assert len(enumerate_unlabeled(7)) == 1044\n"
                "print(time.perf_counter() - start)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) < 0.2

    def test_import_builds_no_plane_table(self):
        # the tables are built by the first catalogue, not at start-up
        src = Path(occlib.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import occlib.cli\n"
                "from occlib.graph import _edge_planes, _vertex_planes\n"
                "print(_edge_planes.cache_info().currsize, _vertex_planes.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]


class TestGraph6:
    def test_triangle_word(self):
        assert parse_graph6("Bw").mask == TRIANGLE.mask
        assert write_graph6(TRIANGLE) == "Bw"

    def test_empty_word(self):
        g = parse_graph6("B?")
        assert g.n == 3 and g.mask == 0

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = Graph(n, rng.getrandbits(len(edge_pairs(n))))
            assert parse_graph6(write_graph6(g)) == g

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<Bw") == TRIANGLE

    def test_bare_header_is_malformed(self):
        with pytest.raises(Graph6Error):
            parse_graph6(">>graph6<<")

    def test_malformed_reports_offset(self):
        with pytest.raises(Graph6Error) as e:
            parse_graph6("B")
        assert e.value.offset == 1
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(Graph6Error):
            parse_graph6("~??")
