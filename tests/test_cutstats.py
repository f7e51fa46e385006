"""Tests for cut-size laws, the block product formula and the cut lemmas."""

import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from occlib import cutstats
from occlib.cutstats import (
    CutStats,
    _cut_mask_table,
    _elimination_order,
    _enumerated_stats,
    _frontier_stats,
    builtin_table,
    check_cut_lemmas,
    class_catalogue,
    cut_distribution_blocks,
    cut_distribution_bruteforce,
    cut_stats,
)
from occlib.exact import Polynomial
from occlib.graph import Graph, _cores, canonical_form, enumerate_unlabeled, random_graph
from occlib.spectra import Spectrum, combined_lambda_min

TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
K4_MINUS = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
PATH4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


class TestDistributionType:
    def test_validation(self):
        for counts, total in [((2, 1), 4), ((0, 2), 2), ((3, -1), 2)]:
            with pytest.raises(ValueError):
                CutStats(counts, 0, 0, total).distribution()

    def test_laws_have_one_entry_per_edge_count(self):
        # so plain tuples compare as laws, with no trailing zeros to forgive
        for g in [Graph(1, 0), Graph(4, 0), TRIANGLE, C5, Graph.from_edges(5, [(0, 1), (3, 4)])]:
            assert len(cut_distribution_bruteforce(g)) == g.edge_count + 1, g
            assert len(cut_distribution_blocks(g)) == g.edge_count + 1, g

    def test_pgf_and_mean(self):
        pgf = Polynomial(cut_distribution_bruteforce(TRIANGLE))
        assert pgf(1) == 1
        assert pgf.derivative()(1) == F(3, 2)


class TestReferenceValues:
    def test_builtin_table_rows(self):
        expected = {
            "empty": (F(1),),
            "edge": (F(1, 2), F(1, 2)),
            "path2": (F(1, 4), F(1, 2), F(1, 4)),
            "triangle": (F(1, 4), F(0), F(3, 4), F(0)),
            "forest4": (F(1, 16), F(4, 16), F(6, 16), F(4, 16), F(1, 16)),
            "K4minus": (F(1, 8), F(0), F(1, 4), F(1, 2), F(1, 8), F(0)),
        }
        rows = {name: cut_distribution_bruteforce(g) for name, g in builtin_table()}
        assert rows == expected

    def test_cycle_values(self):
        assert cut_distribution_bruteforce(C4) == (F(1, 8), F(0), F(3, 4), F(0), F(1, 8))
        assert cut_distribution_bruteforce(C5) == (F(1, 16), F(0), F(5, 8), F(0), F(5, 16), F(0))

    def test_forest_distribution_is_binomial(self):
        # every k-edge forest cuts its edges independently
        for g, k in [(PATH4, 4), (Graph.from_edges(4, [(0, 1), (2, 3)]), 2)]:
            d = cut_distribution_bruteforce(g)
            assert d == tuple(F(_choose(k, i), 2 ** k) for i in range(k + 1))

    def test_isolated_vertices_do_not_matter(self):
        padded = Graph.from_edges(7, [(2, 4), (4, 6), (2, 6)])
        assert cut_distribution_bruteforce(padded) == cut_distribution_bruteforce(TRIANGLE)


def _choose(n, k):
    from math import comb
    return comb(n, k)


def _cut_masks_by_pairs(v):
    """Reference table: every pair of K_v tested against every coloring with
    vertex 0 on side 0, bit u of the coloring putting vertex u on side 1."""
    pairs = list(itertools.combinations(range(v), 2))
    out = []
    for s_high in range(1 << max(v - 1, 0)):
        s = s_high << 1
        out.append(sum(1 << k for k, (i, j) in enumerate(pairs) if (s >> i ^ s >> j) & 1))
    return tuple(out)


def test_cut_mask_table_matches_pairwise_definition():
    for v in range(13):
        assert _cut_mask_table(v) == _cut_masks_by_pairs(v), v


class TestBlockFormula:
    def test_matches_bruteforce_on_all_small_classes(self):
        for g in enumerate_unlabeled(6):
            assert cut_distribution_blocks(g) == cut_distribution_bruteforce(g), g

    def test_matches_on_random_sparse_graphs(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_graph(10, F(1, 5), rng)
            assert cut_distribution_blocks(g) == cut_distribution_bruteforce(g)

    def test_bridge_factor(self):
        # triangle plus pendant edge: Q = (1/2 + X/2) * Q_triangle
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        d = cut_distribution_blocks(g)
        assert d == (F(1, 8), F(1, 8), F(3, 8), F(3, 8), F(0))


class TestLemmas:
    def test_all_classes_up_to_six(self):
        for g in enumerate_unlabeled(6):
            assert check_cut_lemmas(g, cut_stats(g)) == [], g

    def test_random_graphs_up_to_ten(self):
        rng = random.Random(37)
        for _ in range(50):
            g = random_graph(10, rng.choice([F(1, 5), F(1, 3), F(1, 2)]), rng)
            assert check_cut_lemmas(g, cut_stats(g)) == [], g

    def test_bridgeless_graphs_have_zero_q1(self):
        for g in [TRIANGLE, C4, C5, K4_MINUS, Graph(5, (1 << 10) - 1)]:
            assert cut_distribution_bruteforce(g)[1] == 0

    def test_doctored_record_names_failing_lemmas(self):
        path2 = Graph.from_edges(3, [(0, 1), (1, 2)])
        for g, counts, failing in [
            (TRIANGLE, (0, 0, 4), "q0=2^(c-v) q2<=3/4"),  # q0 = 0, q2 = 1
            (path2, (2, 1, 1), "q0=2^(c-v) q1=m*q0"),    # q0 = 1/2, q1 = 1/4
            (C4, (1, 0, 7, 0, 0), "q2<=3/4"),             # q2 = 7/8
            (path2, (1, 3, 0), "q1=m*q0 odd-degree:q_k<=1/2 odd-k:q_k<=1/2"),  # q1 = 3/4
        ]:
            assert check_cut_lemmas(g, cut_stats(g)) == []
            # moved colorings break the block formula and, here, the mean
            want = ["blocks=enumeration", *failing.split(), "mean=|G|/2"]
            assert check_cut_lemmas(g, CutStats(counts, 0, 0, sum(counts))) == want


def _frontier(g):
    return _frontier_stats(g, _elimination_order(g))


def _cycle_edges(vertices):
    return [(u, vertices[(k + 1) % len(vertices)]) for k, u in enumerate(vertices)]


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _k2m_with_tails(m, tail):
    """K_{2,m}, hubs 0 and 1, with a path of tail edges hung from hub 0 and
    one from the first leaf: its 4-cycles are cuts, since dropping one leaves
    its two leaves as components of their own."""
    edges = [(h, leaf) for h in (0, 1) for leaf in range(2, m + 2)]
    n = m + 2
    for start in (0, 2):
        path = [start, *range(n, n + tail)]
        edges += list(zip(path, path[1:]))
        n += tail
    return Graph.from_edges(n, edges)


def _cactus(n, rng):
    """(graph, cycle lengths, bridges): cycles of length 3..5 glued at random
    cut vertices, and a bridge when one vertex is left."""
    edges, lengths, bridges, used = [], [], 0, 1
    while used < n:
        anchor = rng.randrange(used)
        if n - used == 1:
            edges.append((anchor, used))
            bridges += 1
            used += 1
            continue
        length = rng.randint(3, min(5, n - used + 1))
        edges += _cycle_edges([anchor, *range(used, used + length - 1)])
        lengths.append(length)
        used += length - 1
    return Graph.from_edges(n, edges), lengths, bridges


def _cycle_counts(length):
    """Cut counts of the cycle C_length out of 2^(length-1): an even number of
    its edges is cut, each even-size edge set by one coloring."""
    return [comb(length, k) if k % 2 == 0 else 0 for k in range(length + 1)]


class TestFrontierDP:
    """The frontier DP over an elimination order against enumeration, and
    past the v <= 24 cap of enumeration against closed forms."""

    def test_every_catalogue_class(self):
        # the catalogue's own laws, inherited down the generation tree, too
        for entry in class_catalogue(7).values():
            if entry.graph.mask:
                g = entry.graph
                assert entry.stats == _frontier(g) == _enumerated_stats(g), g

    def test_catalogue_classes_are_enumerated_without_an_order(self, monkeypatch):
        def refuse(g):
            raise AssertionError(f"elimination order computed for {g}")
        monkeypatch.setattr(cutstats, "_elimination_order", refuse)
        for entry in class_catalogue(7).values():
            assert cut_stats(entry.graph) == entry.stats

    def test_seeded_random_graphs(self):
        rng = random.Random(41)
        disconnected = padded = 0
        for n in range(8, 17):
            for p in (F(1, 8), F(1, 4), F(2, 5), F(3, 5)):
                g = random_graph(n, p, rng)
                if not g.mask:
                    continue
                disconnected += g.component_count() > 1
                padded += g.v < n
                assert _frontier(g) == _enumerated_stats(g), g
        assert disconnected and padded

    def test_graphs_with_four_cycle_cuts(self):
        cases = [_k2m_with_tails(3, 0), _k2m_with_tails(3, 2), _k2m_with_tails(4, 2),
                 _k2m_with_tails(4, 3), Graph.from_edges(12, _cycle_edges([3, 7, 1, 10]))]
        for g in cases:
            stats = _frontier(g)
            assert stats.cycle4 > 0 and stats == _enumerated_stats(g), g
        # the 3 x 4 grid: each 4-cycle leaves a or c joined to b or d, so none is a cut
        grid = _grid(3, 4)
        assert _frontier(grid) == _enumerated_stats(grid) == cut_stats(grid)
        assert cut_stats(grid).cycle4 == 0

    @pytest.mark.parametrize("length", [30, 60])
    def test_long_cycles(self, length):
        g = Graph.from_edges(length, _cycle_edges(list(range(length))))
        with pytest.raises(ValueError, match="v <= 24"):
            _enumerated_stats(g)
        counts = _cycle_counts(length)  # every 4 of its edges form a forest
        assert cut_stats(g) == CutStats(tuple(counts), counts[4], 0, 2 ** (length - 1))

    def test_cactus_is_the_product_of_its_blocks(self):
        g, lengths, bridges = _cactus(40, random.Random(7))
        counts, total = [1], 1
        for factor, size in [([1, 1], 2)] * bridges + [(_cycle_counts(k), 2 ** (k - 1))
                                                        for k in lengths]:
            counts = [sum(counts[i] * factor[k - i] for i in range(len(counts))
                          if 0 <= k - i < len(factor))
                      for k in range(len(counts) + len(factor) - 1)]
            total *= size
        stats = cut_stats(g)
        assert (stats.counts, stats.total) == (tuple(counts), total)
        # a 4-cycle block is cut alone by one coloring: the parts hung at a
        # and c on one side, those at b and d on the other
        assert 4 in lengths and stats.cycle4 == lengths.count(4)
        assert stats.forest4 == counts[4] - stats.cycle4

    def test_grid_six_by_ten(self):
        g = _grid(6, 10)
        q = cut_stats(g).distribution()
        assert sum(q) == 1
        assert sum(k * x for k, x in enumerate(q)) == F(g.edge_count, 2)
        assert Spectrum.uniform1().value(cut_stats(g)) >= F(-1, 7)


class TestInheritedLaws:
    """The catalogue's kernel, cut laws inherited down the preorder of the
    orderly generation on packed byte lanes, against enumeration."""

    @staticmethod
    def disagreements(v, masks):
        """The masks whose inherited law is missing or differs from the
        enumerated one, typed 4-cuts included."""
        laws = cutstats._inherited_stats(v, masks)
        return [m for m in masks if laws.get(m) != _enumerated_stats(Graph(v, m))]

    @pytest.mark.parametrize("v", range(2, 8))
    def test_every_core(self, v):
        cores = _cores(v)
        assert self.disagreements(v, cores) == []
        if v >= 5:  # a 4-edge forest needs 5 vertices
            laws = cutstats._inherited_stats(v, cores).values()
            assert any(law.cycle4 for law in laws) and any(law.forest4 for law in laws)

    @pytest.mark.parametrize("name, fault", [
        ("_drop_edge", lambda lanes, edge, i, j: [lanes[0] - edge, *lanes[1:]]),
    ], ids=["touched-update-dropped"])
    def test_fault_is_seen(self, monkeypatch, name, fault):
        monkeypatch.setattr(cutstats, name, fault)
        assert self.disagreements(7, _cores(7))

    def test_level_by_level_listing_is_refused(self):
        # the same cores, sorted by edge count: a mask's parent is no longer
        # the last mask listed one edge up, so its lanes would be wrong
        levels = sorted(_cores(7), key=lambda m: -m.bit_count())
        with pytest.raises(ValueError, match="preorder"):
            cutstats._inherited_stats(7, levels)
        with pytest.raises(ValueError, match="preorder"):
            cutstats._inherited_stats(7, _cores(7)[1:])  # no K7 above them

    def test_lane_budget_at_eight_vertices(self):
        # K8 and K4,4 have cuts of 16 edges, and a 4-cut of the 4-matching
        # touches all 8 vertices: each must fit its byte.  Setting the lowest
        # zero bit of a canonical core gives its parent in the orderly
        # generation, so each chain runs from K8 down to its core; the chains
        # sorted and joined without repeats list their masks in preorder.
        full = (1 << 28) - 1
        graphs = [Graph(8, full),
                  Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),
                  Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
                  Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                       (4, 5), (5, 6), (6, 7), (4, 7)]),
                  Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])]
        chains = []
        for g in graphs:
            chain = [canonical_form(g)]
            while chain[-1] != full:
                chain.append(chain[-1] | ~chain[-1] & chain[-1] + 1)
            chains.append(chain[::-1])
        masks = list(dict.fromkeys(m for chain in sorted(chains) for m in chain))
        assert self.disagreements(8, masks) == []
        laws = cutstats._inherited_stats(8, masks)
        assert laws[full].counts[16] and laws[canonical_form(graphs[1])].counts[16]
        matching = laws[canonical_form(graphs[2])]
        assert matching.forest4 == matching.counts[4] > 0

    def test_every_core_at_eight_vertices(self):
        # all 11302 cores on 8 vertices in one pass, none refused; a seeded
        # sample of their laws against enumeration
        cores = _cores(8)
        laws = cutstats._inherited_stats(8, cores)
        assert len(cores) == len(laws) == 11302
        sample = random.Random(8).sample(cores, 200)
        assert [m for m in sample if laws[m] != _enumerated_stats(Graph(8, m))] == []


def test_catalogue_refuses_eight_vertices_before_any_law(monkeypatch):
    # the size is checked first: no core of any size is listed for a refused
    # catalogue, and none through the combined minimum that reads it
    def no_cores(v):
        raise AssertionError(f"cores on {v} vertices listed for a refused size")
    monkeypatch.setattr(cutstats, "_cores", no_cores)
    for build in (class_catalogue, combined_lambda_min):
        with pytest.raises(ValueError, match="1..7 vertices"):
            build(8)
