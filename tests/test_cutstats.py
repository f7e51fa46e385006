"""Tests for cut-size laws, the block product formula and the cut lemmas."""

import itertools
import random
from fractions import Fraction as F

import pytest

from occlib.cutstats import (
    CutStats,
    _cut_mask_table,
    builtin_table,
    check_cut_lemmas,
    cut_distribution_blocks,
    cut_distribution_bruteforce,
    cut_stats,
)
from occlib.exact import Polynomial
from occlib.graph import Graph, enumerate_unlabeled, random_graph

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
