import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from occlib import schur
from occlib.cutstats import CutStats, cut_distribution_bruteforce
from occlib.graph import Graph, enumerate_unlabeled, random_graph
from occlib.hypercube import layer_masks
from occlib.schur import (
    VectorSet,
    _boxes,
    _cut_record,
    _essential_counts,
    _parity_masks,
    _record_groups,
    _scan_claims,
    _scan_planes,
    has_odd_dependency,
    has_odd_dependency_search,
    lift_graph,
    solvable_all_ones,
    verify_oldc_claims,
)
from occlib.spectra import (
    GAP_COMBINED,
    LAMBDA_MIN_UNIFORM,
    Spectrum,
    lambda_min_skew,
)

TRIPLE = VectorSet.from_vectors(3, [1, 2, 3])
BOX = VectorSet.from_vectors(3, [1, 2, 4, 7])
INDEP4 = VectorSet.from_vectors(4, [1, 2, 4, 8])
FIVE_RANK3 = VectorSet.from_vectors(3, [1, 2, 4, 3, 5])
S7 = VectorSet.from_vectors(3, range(1, 8))
S1, S2, SC = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()

even_masks4 = st.integers(min_value=0, max_value=(1 << 16) - 1).map(lambda m: m & ~1)


def gf2_rank(vectors) -> int:
    """Rank over GF(2) by elimination against a basis kept in descending order."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def echelon_rank(vectors, n: int) -> int:
    """Rank over GF(2) by row echelon form: for each bit from the top, one
    row holding it becomes the pivot and is cleared from the other rows."""
    rows, rank = list(vectors), 0
    for bit in reversed(range(n)):
        at = next((i for i, r in enumerate(rows) if r >> bit & 1), None)
        if at is not None:
            pivot = rows.pop(at)
            rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
            rank += 1
    return rank


def rank_typed_stats(vs: VectorSet) -> CutStats:
    """The cut statistics of vs from the inner-product definition of a cut,
    each 4-cut typed by its rank: 4 for an independent set, 3 for a box."""
    counts = [0] * (vs.size + 1)
    typed = {3: 0, 4: 0}
    for w in range(1 << vs.n):
        cut = [v for v in vs.vectors() if (v & w).bit_count() & 1]
        counts[len(cut)] += 1
        if len(cut) == 4:
            typed[gf2_rank(cut)] += 1
    return CutStats(tuple(counts), typed[4], typed[3], 1 << vs.n)


class TestRankAndDeciders:
    def test_rank_basics(self):
        assert gf2_rank([]) == 0
        assert gf2_rank([5, 5, 5]) == 1
        assert gf2_rank([1, 2, 3]) == 2
        assert gf2_rank([1, 2, 4, 8, 15]) == 4

    def test_lift_rank_counts_forest_edges(self):
        rng = __import__("random").Random(7)
        for _ in range(40):
            g = random_graph(5, F(1, 2), rng)
            lifted = lift_graph(g)
            assert gf2_rank(lifted.vectors()) == g.v - g.component_count()

    def test_solvability_hand_cases(self):
        assert solvable_all_ones([1, 2, 4], 3)
        assert not solvable_all_ones([1, 2, 3], 2)
        assert solvable_all_ones([], 3)
        with pytest.raises(ValueError):
            solvable_all_ones([8], 3)

    def test_schur_triple_is_odd_dependent(self):
        assert has_odd_dependency(TRIPLE)
        assert has_odd_dependency_search(TRIPLE)
        assert not has_odd_dependency(INDEP4)
        assert not has_odd_dependency(BOX)  # the dependency has even size

    @given(even_masks4)
    @settings(max_examples=150, deadline=None)
    def test_deciders_agree(self, mask):
        vs = VectorSet(4, mask)
        assert has_odd_dependency(vs) == has_odd_dependency_search(vs)

    def test_decider_exhaustive_dimension_four(self):
        # upward closure over all 2^15 subsets of the 15 nonzero vectors:
        # reach[m] has bit (parity << 4 | xor) set when some nonempty subset
        # of m has that size parity and that xor-sum
        size = 1 << 16
        reach = [0] * size
        for m in range(2, size, 2):
            low = m & -m
            step = 16 | (low.bit_length() - 1)  # one more vector: flip parity, xor v
            rest = reach[m ^ low]
            grown = 1 << step
            for pair in range(32):
                if rest >> pair & 1:
                    grown |= 1 << (pair ^ step)
            reach[m] = rest | grown
        odd_zero = 1 << 16  # odd size, xor-sum zero
        assert reach[VectorSet.from_vectors(4, [1, 2, 3]).mask] & odd_zero
        assert not reach[INDEP4.mask] & odd_zero
        assert all(has_odd_dependency(VectorSet(4, m)) == bool(reach[m] & odd_zero)
                   for m in range(0, size, 2))

    def test_search_decider_guard(self):
        with pytest.raises(ValueError):
            has_odd_dependency_search(VectorSet(5, (1 << 32) - 2))


class TestVectorSetBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorSet(6, 2)
        with pytest.raises(ValueError):
            VectorSet(3, 1)  # bit 0 is the zero vector
        with pytest.raises(ValueError):
            VectorSet(2, 1 << 4)
        with pytest.raises(ValueError):
            VectorSet.from_vectors(3, [0])
        with pytest.raises(ValueError):
            VectorSet.from_vectors(3, [8])

    def test_round_trip_and_counts(self):
        vs = VectorSet.from_vectors(4, [3, 5, 9])
        assert vs.vectors() == [3, 5, 9]
        assert vs.size == 3

    def test_parity_masks_match_inner_product_definition(self):
        for n in range(1, 6):
            want = tuple(sum(1 << v for v in range(1, 1 << n) if (v & w).bit_count() % 2)
                         for w in range(1 << n))
            assert _parity_masks(n) == want, n

    def test_reference_distributions(self):
        one = VectorSet.from_vectors(3, [6])
        assert one.cut_distribution() == (F(1, 2), F(1, 2))
        pair = VectorSet.from_vectors(3, [1, 2])
        assert pair.cut_distribution() == (F(1, 4), F(1, 2), F(1, 4))
        assert TRIPLE.cut_distribution() == (F(1, 4), 0, F(3, 4), 0)
        assert BOX.cut_distribution() == (F(1, 8), 0, F(3, 4), 0, F(1, 8))
        assert S7.cut_distribution() == (F(1, 8), 0, 0, 0, F(7, 8), 0, 0, 0)

    @given(even_masks4)
    @settings(max_examples=100, deadline=None)
    def test_cut_identities(self, mask):
        vs = VectorSet(4, mask)
        d = vs.cut_distribution()
        vecs = vs.vectors()
        r = gf2_rank(vecs)
        essentials = sum(gf2_rank([u for u in vecs if u != v]) < r for v in vecs)
        assert d[0] == F(1, 2 ** r)
        assert (*d, 0)[1] == essentials * d[0]  # the empty set's law has one entry

    def test_boxes_are_the_zero_sum_four_sets(self):
        for n in range(1, 5):
            want = {sum(1 << v for v in four)
                    for four in combinations(range(1, 1 << n), 4)
                    if four[0] ^ four[1] ^ four[2] ^ four[3] == 0}
            assert _boxes(n) == want, n
        assert len(_boxes(5)) == 1085
        assert BOX.mask in _boxes(3)
        assert VectorSet.from_vectors(4, [1, 2, 12, 15]).mask in _boxes(4)
        assert INDEP4.mask not in _boxes(4)

    @staticmethod
    def rank_at(planes, m: int) -> list[int]:
        """The ranks whose plane holds the subset of mask 2m (one, when right)."""
        return [r for r, plane in enumerate(planes.rank) if plane >> m & 1]

    def test_dense_ranks_match_echelon_elimination_in_dimension_four(self):
        planes = _scan_planes(4, _boxes(4))
        for m in range(1 << 15):
            assert self.rank_at(planes, m) == [echelon_rank(VectorSet(4, m << 1).vectors(), 4)], m

    def test_dense_tables_match_oracle(self):
        planes = _scan_planes(3, _boxes(3))
        for m in range(1 << 7):
            vecs = VectorSet(3, m << 1).vectors()
            acc = 0
            for v in vecs:
                acc ^= v
            assert (planes.zero_sum >> m & 1, self.rank_at(planes, m)) == (
                int(acc == 0), [gf2_rank(vecs)]), m


class TestScanPlanes:
    """The planes of the dimension-4 scan, decoded at each of the 2^15
    positions, against per-mask oracles; and claims that a wrong plane must
    turn false."""

    @staticmethod
    def decode(plane: int) -> str:
        """Character m is '1' when bit m of the plane is set."""
        return f"{plane:0{1 << 15}b}"[::-1]

    def counts(self, counter) -> list[int]:
        bits = [self.decode(plane) for plane in counter]
        return [sum(int(b[m]) << i for i, b in enumerate(bits)) for m in range(1 << 15)]

    def test_planes_match_per_mask_oracle(self):
        pm, boxes = _parity_masks(4), _boxes(4)
        planes = _scan_planes(4, boxes)
        layers = [self.decode(layer) for layer in layer_masks(15)]
        zero, odd, held = (self.decode(p) for p in (planes.zero_sum, planes.odd_zero_sum,
                                                    planes.held))
        cuts = [self.counts(c) for c in planes.cuts]
        box_cuts = self.counts(planes.box_cuts)
        essentials = self.counts(_essential_counts(planes))
        ranks = {m: echelon_rank(VectorSet(4, m).vectors(), 4) for m in range(0, 1 << 16, 2)}
        for m in range(1, 1 << 15):
            vs = VectorSet(4, m << 1)
            vecs = vs.vectors()
            acc = 0
            for v in vecs:
                acc ^= v
            r = ranks[vs.mask]
            counts, _, box = _cut_record(vs.mask, pm, boxes)
            assert [k for k, layer in enumerate(layers) if layer[m] == "1"] == [len(vecs)], m
            assert (zero[m] == "1") == (acc == 0), m
            assert essentials[m] == sum(ranks[vs.mask ^ 1 << v] < r for v in vecs), m
            padded = [*counts, *[0] * 9]  # a hyperplane cuts at most 8 vectors
            assert [c[m] for c in cuts] == padded[:9] and not any(padded[9:]), m
            assert box_cuts[m] == box, m
            assert (odd[m] == "1") == (held[m] == "0") == has_odd_dependency(vs), m

    def test_every_mask_has_its_groups_record(self):
        pm, boxes = _parity_masks(4), _boxes(4)
        groups = _record_groups(_scan_planes(4, boxes))
        assert len(groups) == 45
        covered = 0
        for group in groups:
            assert not group & covered
            covered |= group
            least = (group & -group).bit_length() - 1
            record = _cut_record(least << 1, pm, boxes)
            members = self.decode(group)
            assert all(_cut_record(m << 1, pm, boxes) == record
                       for m in range(1 << 15) if members[m] == "1"), least
        assert covered == (1 << (1 << 15)) - 2

    @staticmethod
    def failing(planes) -> set[str]:
        return {claim_id for claim_id, ok in _scan_claims(planes) if not ok}

    @pytest.mark.parametrize("m", [1, 3, 0b111, 0b1000000010110, (1 << 15) - 1])
    def test_flipped_cut_count_fails_q_identities(self, m):
        planes = _scan_planes(4, _boxes(4))
        ones = planes.cuts[1]
        cuts = list(planes.cuts)
        cuts[1] = [ones[0] ^ 1 << m, *ones[1:]]
        assert "cut-identities:q0-and-q1" in self.failing(planes._replace(cuts=tuple(cuts)))

    def test_missing_box_fails_a_spectral_claim(self):
        boxes = _boxes(4)
        for box in (min(boxes), max(boxes), VectorSet.from_vectors(4, [1, 2, 12, 15]).mask):
            failing = self.failing(_scan_planes(4, boxes - {box}))
            assert any(c.startswith(("lambda", "combined")) for c in failing), box

    def test_shifted_rank_fails_essential_structure(self):
        planes = _scan_planes(4, _boxes(4))
        full = (1 << (1 << 15)) - 1
        shifted = tuple(plane << 1 & full for plane in planes.rank)
        assert self.failing(planes._replace(rank=shifted)) & {
            "structure:one-essential-sizes", "structure:no-essential-small-types"}


class TestSpectra:
    def test_lambda1_frozen_values(self):
        assert S1.value(VectorSet.from_vectors(2, [3]).cut_stats()) == F(-1, 7)
        assert S1.value(TRIPLE.cut_stats()) == F(-1, 7)
        assert S1.value(INDEP4.cut_stats()) == F(-1, 7)
        assert S1.value(FIVE_RANK3.cut_stats()) == F(-1, 7)
        assert S1.value(BOX.cut_stats()) == F(1, 56)
        assert S1.value(S7.cut_stats()) == F(-1, 8)

    def test_lambda2_frozen_values(self):
        assert S2.value(TRIPLE.cut_stats()) == 0
        assert S2.value(INDEP4.cut_stats()) == F(1, 16)
        assert S2.value(BOX.cut_stats()) == F(-1, 8)
        assert S2.value(FIVE_RANK3.cut_stats()) == F(1, 8)
        assert S2.value(S7.cut_stats()) == F(7, 8)

    def test_combined_values(self):
        assert SC.value(TRIPLE.cut_stats()) == F(-1, 7)
        assert SC.value(INDEP4.cut_stats()) == F(-1, 7) + GAP_COMBINED
        assert SC.value(S7.cut_stats()) == F(-15, 136)

    @given(st.integers(min_value=0, max_value=1023))
    @settings(max_examples=60, deadline=None)
    def test_lift_matches_graph_spectra(self, gmask):
        g = Graph(5, gmask)
        if g.edge_count == 0:
            return
        lifted = lift_graph(g)
        assert cut_distribution_bruteforce(g) == lifted.cut_distribution()
        assert S1.value(g) == S1.value(lifted.cut_stats())
        assert S2.value(g) == S2.value(lifted.cut_stats())

    def test_lift_odd_cycles(self):
        for g in enumerate_unlabeled(5):
            if g.edge_count:
                assert g.has_odd_cycle() == has_odd_dependency(lift_graph(g))

    def test_skew_matches_graph_and_minimum(self):
        p = F(3, 8)
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert Spectrum.skew1(p).value(BOX.cut_stats()) == Spectrum.skew1(p).value(c4)
        for t in (VectorSet.from_vectors(3, [1]),
                  VectorSet.from_vectors(3, [1, 2]), TRIPLE):
            assert Spectrum.skew1(p).value(t.cut_stats()) == lambda_min_skew(p)

    def test_skew_at_half_is_uniform(self):
        for vs in (TRIPLE, BOX, S7, FIVE_RANK3):
            assert Spectrum.skew1(F(1, 2)).value(vs.cut_stats()) == S1.value(vs.cut_stats())

    def test_skew_domain(self):
        with pytest.raises(ValueError):
            Spectrum.skew1(F(3, 4)).value(BOX.cut_stats())


class TestCutStatsOracle:
    """VectorSet.cut_stats, which types each 4-cut by box membership,
    against cuts from the inner-product definition typed by rank."""

    @staticmethod
    def check(n, masks):
        for m in masks:
            vs = VectorSet(n, m)
            assert vs.cut_stats() == rank_typed_stats(vs), m

    def test_every_subset_in_dimension_three(self):
        self.check(3, range(0, 256, 2))

    def test_sampled_subsets_in_dimension_four(self):
        rng = random.Random(4)
        self.check(4, [rng.randrange(0, 1 << 16) & ~1 for _ in range(2000)])

    def test_lifts_of_graphs_on_k5(self):
        self.check(5, [lift_graph(Graph(5, m)).mask for m in range(1, 1 << 10)])


class TestCampaign:
    def test_exhaustive_report_is_green(self):
        rep = verify_oldc_claims()
        assert rep.ok
        assert len(rep.checks) == 22
        assert [c.claim_id for c in rep.checks[:3]] == [
            "lambda1:min=-1/7",
            "lambda1:tight-set-structural",
            "lambda1:gap-1/56-attained-by-punctured-3-spaces",
        ]

    @staticmethod
    def dimension_two_decider(monkeypatch, agreeing_mask=None):
        """Count the decider's calls in dimension 2; the agreement set
        agreeing_mask, when given, reads as having an odd dependency."""
        calls = []

        def decider(vs):
            if vs.n != 2:
                return has_odd_dependency(vs)
            calls.append(vs.mask)
            return vs.mask == agreeing_mask or has_odd_dependency(vs)
        monkeypatch.setattr(schur, "has_odd_dependency", decider)
        return calls

    def test_each_dimension_two_pair_is_decided_once(self, monkeypatch):
        calls = self.dimension_two_decider(monkeypatch)
        assert verify_oldc_claims().ok
        # the lift of K2 is the one set of dimension 2 decided outside the
        # exhaust, whose table takes one call per difference of two sets
        calls.remove(lift_graph(Graph(2, 1)).mask)
        assert len(calls) <= 8

    def test_one_agreeing_pair_of_distinct_sets_fails_the_exhaust(self, monkeypatch):
        # the sets {2} and {3}, for one, agree on {1} alone, which has no
        # odd dependency; read as agreeing, they make a family of two members
        # agreeing, of measure 2/8.  (The lift of K2 is {3}, so the lift
        # claims stay green.)
        assert not has_odd_dependency(VectorSet(2, 1 << 1))
        self.dimension_two_decider(monkeypatch, agreeing_mask=1 << 1)
        assert verify_oldc_claims().failing() == ["n2:agreeing-iff-at-most-one-member",
                                                  "n2:max-agreeing-measure-1/8"]

    def test_gap_tight_set_sits_above_minimum(self):
        assert S1.value(S7.cut_stats()) == LAMBDA_MIN_UNIFORM + F(1, 56)
        assert S1.value(S7.cut_stats()) > LAMBDA_MIN_UNIFORM
