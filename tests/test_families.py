import hashlib
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlib.families import (
    Family,
    agreement_cayley,
    agreement_generators,
    compress,
    hoffman_audit,
    is_triangle_agreeing,
    is_triangle_intersecting,
    is_upset,
    junta,
    maximum_independent_sets,
    monotonize,
    triangle_masks,
    umvirate,
    verify_family_claims,
)
from occlib import families
from occlib.cutstats import class_catalogue
from occlib.graph import Graph, all_masks, canonical_key
from occlib.hypercube import walsh_support
from occlib.spectra import Spectrum, combined_lambda_min

T012 = triangle_masks(4)[0]


# Member-set oracles: the frozenset implementations that the packed store
# replaced, kept to check it.

def oracle_compress(masks, e):
    bit = 1 << e
    return frozenset(m | bit if not m & bit and (m | bit) not in masks else m for m in masks)


def oracle_monotonize(dim, masks):
    while True:
        cur = masks
        for e in range(dim):
            cur = oracle_compress(cur, e)
        if cur == masks:
            return cur
        masks = cur


def oracle_is_upset(dim, masks):
    return all(m | (1 << e) in masks for m in masks for e in range(dim))


def oracle_measure(dim, masks, p):
    return sum((p ** m.bit_count() * (1 - p) ** (dim - m.bit_count()) for m in masks), F(0))


def oracle_intersecting(n, masks):
    ms = sorted(masks)
    return all(Graph(n, a & b).contains_triangle() for i, a in enumerate(ms) for b in ms[i:])


def oracle_agreeing(n, masks):
    full = (1 << (n * (n - 1) // 2)) - 1
    ms = sorted(masks)
    return all(Graph(n, full & ~(a ^ b)).contains_triangle()
               for i, a in enumerate(ms) for b in ms[i:])


@st.composite
def small_families(draw):
    """(n, masks) on K4 or K5: a random set of masks, or a random part of a
    junta on a triangle, which is always agreeing and often intersecting."""
    n = draw(st.sampled_from([4, 5]))
    dim = n * (n - 1) // 2
    if draw(st.booleans()):
        masks = draw(st.frozensets(st.integers(0, (1 << dim) - 1), max_size=40))
    else:
        t = draw(st.sampled_from(triangle_masks(n)))
        members = sorted(junta(n, t, t & draw(st.integers(0, (1 << dim) - 1))).masks)
        masks = frozenset(draw(st.lists(st.sampled_from(members), max_size=40)))
    return n, masks


def adjacency_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


class TestFamilyBasics:
    def test_construction_and_size(self):
        fam = Family(4, [0, 5, 5, 63])
        assert fam.size == 3
        assert 5 in fam and 6 not in fam
        assert list(fam) == [0, 5, 63]

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            Family(4, [64])

    def test_measure_frozen_values(self):
        u = umvirate(4, T012)
        assert u.size == 8
        assert u.measure(F(1, 2)) == F(1, 8)
        assert u.measure(F(1, 3)) == F(1, 27)
        with pytest.raises(ValueError):
            u.measure(F(1))

    def test_measure_matches_member_sum(self):
        # the cached per-edge-count weights against p^|m| (1-p)^(dim-|m|) per member
        rng = random.Random(3)
        for n in (3, 4, 5):
            dim = n * (n - 1) // 2
            for p in (F(1, 2), F(1, 3), F(2, 7), F(31, 125)):
                for _ in range(5):
                    fam = Family(n, {rng.randrange(1 << dim) for _ in range(rng.randint(0, 30))})
                    direct = sum((p ** bin(m).count("1") * (1 - p) ** (dim - bin(m).count("1"))
                                  for m in fam.masks), F(0))
                    assert fam.measure(p) == direct

    def test_measure_matches_expectation(self):
        rng = random.Random(2)
        for _ in range(10):
            fam = Family(4, {rng.randint(0, 63) for _ in range(rng.randint(1, 20))})
            p = F(rng.randint(1, 4), 5)
            # the empty Walsh coefficient is the expectation, so its square is mu^2
            den, squares = walsh_support(4, p, fam.bits)
            assert F(squares[0][1], den) == fam.measure(p) ** 2 and squares[0][0] == 0


class TestPredicates:
    def test_umvirate_is_intersecting(self):
        assert is_triangle_intersecting(umvirate(4, T012))
        assert is_triangle_agreeing(umvirate(4, T012))

    def test_prescribed_junta_agrees_without_intersecting(self):
        fam = junta(4, T012, T012 & -T012)
        assert fam.size == 8
        assert is_triangle_agreeing(fam)
        assert not is_triangle_intersecting(fam)

    def test_two_triangles_sharing_an_edge(self):
        tris = triangle_masks(4)
        assert not is_triangle_intersecting(Family(4, [tris[0], tris[1]]))
        assert not is_triangle_agreeing(Family(4, [tris[0], tris[1]]))
        grown = Family(4, [tris[0], tris[0] | 1 << 5])
        assert is_triangle_intersecting(grown)

    def test_singleton_needs_own_triangle(self):
        assert not is_triangle_intersecting(Family(4, [0b000011]))
        assert is_triangle_intersecting(Family(4, [T012]))
        # a graph always agrees with itself on everything
        assert is_triangle_agreeing(Family(4, [0b000011]))

    def test_junta_prescription_validated(self):
        with pytest.raises(ValueError):
            junta(4, T012, 1 << 5)
        for t in (T012 | 1 << 6, -1):  # junta edges outside K4
            with pytest.raises(ValueError):
                junta(4, t, 0)

    def test_junta_matches_filter_definition(self):
        cases = [(n, t, s) for n in (3, 4, 5) for t in triangle_masks(n)
                 for s in families._submasks(t)]
        t6 = triangle_masks(6)[7]  # twelve free edges to double over
        for n, t, s in cases + [(6, t6, 0), (6, t6, t6 & -t6), (6, t6, t6)]:
            want = Family(n, (m for m in all_masks(n) if m & t == s))
            assert junta(n, t, s) == want, (n, t, s)

    def test_triangle_union_against_graphs(self):
        # the generators are the complements of the masks outside the union
        # of the umvirates of the triangles
        free = {63 ^ g for g in agreement_generators(4)}
        for m in range(64):
            assert (m not in free) == Graph(4, m).contains_triangle()


    def test_partner_cache_stays_small_at_six_vertices(self):
        # 1024 members of a K6 umvirate ask for 1024 partner indicators of
        # 2^15 bits each, 4 MiB in all; the cache keeps a bounded number
        fam = Family(6, sorted(umvirate(6, triangle_masks(6)[0]))[:1024])
        families._partners.cache_clear()
        tracemalloc.start()
        try:
            assert is_triangle_intersecting(fam)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 << 20, f"{held / 2 ** 20:.1f} MiB held"


class TestCompression:
    def test_hand_example(self):
        fam = Family(4, [0])
        assert compress(fam, 0).masks == frozenset([1])
        both = Family(4, [0, 1])
        assert compress(both, 0).masks == frozenset([0, 1])

    def test_idempotent_and_size_preserving(self):
        rng = random.Random(4)
        for _ in range(50):
            fam = Family(4, {rng.randint(0, 63) for _ in range(rng.randint(1, 25))})
            e = rng.randrange(6)
            once = compress(fam, e)
            assert once.size == fam.size
            assert compress(once, e).masks == once.masks

    def test_measure_behaviour(self):
        rng = random.Random(6)
        for _ in range(30):
            fam = Family(4, {rng.randint(0, 63) for _ in range(rng.randint(1, 25))})
            shifted = compress(fam, rng.randrange(6))
            assert shifted.measure(F(1, 2)) == fam.measure(F(1, 2))
            assert shifted.measure(F(1, 4)) <= fam.measure(F(1, 4))

    def test_monotonize_gives_upset(self):
        fam = Family(4, [0, 1, 2, T012])
        mono = monotonize(fam)
        assert mono.size == fam.size
        assert is_upset(mono)
        assert not is_upset(fam)
        assert monotonize(umvirate(4, T012)).masks == umvirate(4, T012).masks

    def test_predicates_survive_monotonizing(self):
        rng = random.Random(8)
        for _ in range(30):
            t = triangle_masks(4)[rng.randrange(4)]
            members = [m for m in umvirate(4, t).masks if rng.random() < 0.6]
            fam = Family(4, members or [t])
            mono = monotonize(fam)
            assert is_triangle_intersecting(mono)

    def test_edge_index_validated(self):
        with pytest.raises(ValueError):
            compress(Family(4, [0]), 6)

    def test_compressed_family_equals_validated_family(self):
        rng = random.Random(9)
        for n in (4, 5):
            dim = n * (n - 1) // 2
            fam = Family(n, {rng.randrange(1 << dim) for _ in range(40)})
            shifted = compress(fam, rng.randrange(dim))
            assert shifted == Family(n, shifted.masks) and shifted.n == n
            # the store is the packed indicator; the member set is derived from it
            assert shifted.bits == sum(1 << m for m in shifted.masks)
            assert isinstance(shifted.bits, int) and not hasattr(shifted, "__dict__")


def monotone_fixpoint(bits, lows):
    """The compressions through every edge, repeated until a pass moves
    nothing: the loop that one pass of families._monotone replaced, kept as
    its oracle."""
    while True:
        cur = bits
        for e, low in enumerate(lows):
            cur = families._shift_up(cur, e, low)
        if cur == bits:
            return cur
        bits = cur


class TestOnePassMonotone:
    """A family compressed through edge e stays so after a compression
    through another edge, so one pass over the edges reaches the fixpoint."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_family_on_the_cube(self, d):
        lows = families.low_masks(d)[:d]
        for bits in range(1 << (1 << d)):
            one = families._monotone(bits, lows)
            assert one == monotone_fixpoint(bits, lows) and families._upset(one, lows), bits

    @pytest.mark.parametrize("d, count", [(6, 400), (10, 60)])
    def test_seeded_families(self, d, count):
        # dense families (an AND of 1 to 4 random draws) and sparse ones
        rng = random.Random(d)
        lows = families.low_masks(d)[:d]
        for i in range(count):
            if i % 2:
                bits = ~0
                for _ in range(rng.randint(1, 4)):
                    bits &= rng.getrandbits(1 << d)
            else:
                bits = sum({1 << rng.randrange(1 << d) for _ in range(rng.randint(1, 20))})
            one = families._monotone(bits, lows)
            assert one == monotone_fixpoint(bits, lows) and families._upset(one, lows)
            assert one.bit_count() == bits.bit_count()


class TestPackedAgainstOracles:
    """Every packed operation against the frozenset code it replaced."""

    @given(small_families())
    @settings(max_examples=150, deadline=None)
    def test_store_round_trip(self, fam_case):
        n, masks = fam_case
        fam = Family(n, masks)
        assert fam.masks == masks and list(fam) == sorted(masks)
        assert fam.size == len(masks)
        assert all(m in fam for m in masks)
        assert sum(m in fam for m in range(1 << fam.dim)) == len(masks)

    @given(small_families(), st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_compress_monotonize_upset(self, fam_case, e):
        n, masks = fam_case
        fam, dim = Family(n, masks), n * (n - 1) // 2
        e %= dim
        assert compress(fam, e).masks == oracle_compress(masks, e)
        mono = monotonize(fam)
        assert mono.masks == oracle_monotonize(dim, masks)
        assert is_upset(fam) == oracle_is_upset(dim, masks)
        assert is_upset(mono) and oracle_is_upset(dim, mono.masks)

    @given(small_families(), st.sampled_from([F(1, 2), F(1, 3), F(2, 7), F(31, 125)]))
    @settings(max_examples=150, deadline=None)
    def test_measure(self, fam_case, p):
        n, masks = fam_case
        assert Family(n, masks).measure(p) == oracle_measure(n * (n - 1) // 2, masks, p)

    @given(small_families())
    @settings(max_examples=150, deadline=None)
    def test_predicates(self, fam_case):
        n, masks = fam_case
        fam = Family(n, masks)
        assert is_triangle_intersecting(fam) == oracle_intersecting(n, masks)
        assert is_triangle_agreeing(fam) == oracle_agreeing(n, masks)

    @pytest.mark.parametrize("n", [4, 5])
    def test_upset_fails_along_each_single_edge(self, n):
        # the complement of one edge is closed upwards along every other edge
        dim = n * (n - 1) // 2
        full = (1 << dim) - 1
        assert is_upset(Family(n, [full]))
        for e in range(dim):
            fam = Family(n, [full ^ 1 << e])
            assert not is_upset(fam) and not oracle_is_upset(dim, fam.masks)
            assert compress(fam, e).masks == oracle_compress(fam.masks, e) == {full}

    @pytest.mark.parametrize("seed", range(6))
    def test_predicates_on_k6_junta_parts(self, seed):
        # a part of a junta on a triangle of K6, at times with one random mask
        # added: every member's partner indicator has 2^15 bits
        rng = random.Random(seed)
        t = rng.choice(triangle_masks(6))
        s = t if seed % 3 == 0 else t & rng.randrange(1 << 15)
        members = list(junta(6, t, s))
        masks = set(rng.sample(members, rng.randint(1, 12)))
        if seed % 2:
            masks.add(rng.randrange(1 << 15))
        fam = Family(6, masks)
        assert is_triangle_intersecting(fam) == oracle_intersecting(6, masks)
        assert is_triangle_agreeing(fam) == oracle_agreeing(6, masks)

    def test_predicates_on_every_k4_pair(self):
        for a in range(64):
            for b in range(a, 64):
                fam = Family(4, [a, b])
                assert is_triangle_intersecting(fam) == oracle_intersecting(4, {a, b})
                assert is_triangle_agreeing(fam) == oracle_agreeing(4, {a, b})


class TestSearch:
    def test_oracle_small_graphs(self):
        # 5-cycle: five maximum sets of size 2
        c5 = adjacency_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        alpha, sets = maximum_independent_sets(c5)
        assert alpha == 2 and len(sets) == 5
        # path on four vertices
        p4 = adjacency_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        alpha, sets = maximum_independent_sets(p4)
        assert alpha == 2
        assert set(sets) == {frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})}
        # complete graph: every singleton
        k4 = adjacency_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        alpha, sets = maximum_independent_sets(k4)
        assert alpha == 1 and len(sets) == 4
        # empty graph: the whole vertex set
        alpha, sets = maximum_independent_sets([0] * 5)
        assert alpha == 5 and sets == [frozenset(range(5))]

    def test_cayley_structure(self):
        gens = agreement_generators(4)
        assert len(gens) == 41
        adj = agreement_cayley(4)
        assert all(a.bit_count() == 41 for a in adj)
        # adjacency matches the agreement predicate on a sample of pairs
        rng = random.Random(12)
        for _ in range(60):
            a, b = rng.randrange(64), rng.randrange(64)
            if a == b:
                continue
            agreeing = is_triangle_agreeing(Family(4, [a, b]))
            assert ((adj[a] >> b) & 1) == (not agreeing)

    def test_maximum_agreeing_families(self):
        alpha, sets = maximum_independent_sets(agreement_cayley(4))
        assert alpha == 8
        assert len(sets) == 32
        fams = [Family(4, s) for s in sets]
        assert all(is_triangle_agreeing(f) for f in fams)
        assert sum(is_triangle_intersecting(f) for f in fams) == 4

    def test_seeded_rerun_agrees(self):
        adj = agreement_cayley(4)
        a1, s1 = maximum_independent_sets(adj)
        a2, s2 = maximum_independent_sets(adj, seed=99)
        assert a1 == a2 and set(s1) == set(s2)

    @pytest.mark.parametrize("seed", [None, 7])
    def test_matches_brute_force_over_all_subsets(self, seed):
        # every subset S is tested for independence from S minus its least
        # vertex; the maximum sets, each once, in the sorted order
        rng = random.Random(41)
        for trial in range(80):
            n = rng.randint(0, 14)
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            adj = adjacency_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                           if rng.random() < p])
            independent = [True] * (1 << n)
            for s in range(1, 1 << n):
                low = s & -s
                independent[s] = independent[s ^ low] and not adj[low.bit_length() - 1] & s
            alpha = max(s.bit_count() for s in range(1 << n) if independent[s])
            best = [frozenset(v for v in range(n) if s >> v & 1) for s in range(1 << n)
                    if independent[s] and s.bit_count() == alpha]
            assert maximum_independent_sets(adj, seed=seed) == (alpha, sorted(best, key=sorted)), trial


class TestHoffmanAudit:
    def test_umvirate_tight(self):
        a = hoffman_audit(umvirate(4, T012))
        assert a["ok"] and a["mu"] == F(1, 8) and a["w"] == 0
        assert a["quadratic_form"] == 0 and a["inequality_lhs"] == 0

    def test_subfamily_has_slack(self):
        members = sorted(umvirate(4, T012).masks)[:5]
        a = hoffman_audit(Family(4, members))
        assert a["ok"] and a["mu"] == F(5, 64) and a["inequality_lhs"] < 0

    def test_audit_minimum_is_the_brute_force_minimum(self):
        spec = Spectrum.combined()
        for n in (3, 4, 5):
            assert combined_lambda_min(n) == min(spec.value(Graph(n, m)) for m in all_masks(n))

    def test_eigenvalue_equals_the_catalogue_class_value(self):
        # the audit reads each support set's own cut law; its class in the
        # catalogue, found by canonical key, must carry the same eigenvalue
        spec = Spectrum.combined()
        for n in (4, 5):
            catalogue = class_catalogue(n)
            for m in all_masks(n):
                entry = catalogue[canonical_key(Graph(n, m))]
                assert families._combined_lambda(n, m) == spec.value(entry.stats), (n, m)

    def test_bound_reads_the_computed_minimum(self, monkeypatch):
        # nu is the Hoffman bound of the same lambda_min that w is graded by
        monkeypatch.setattr(families, "combined_lambda_min", lambda n: F(-1, 5))
        assert hoffman_audit(umvirate(4, T012))["nu"] == F(1, 6)

    def test_non_agreeing_family_fails(self):
        a = hoffman_audit(Family(4, [0, 63]))
        assert a["quadratic_form"] != 0 and not a["ok"]

    def test_n5_umvirate_audits_within_budget(self):
        # the ten audits of bound-check --n 5, eigenvalue lookups included
        combined_lambda_min.cache_clear()
        families._combined_lambda.cache_clear()
        start = time.perf_counter()
        audits = [hoffman_audit(umvirate(5, t)) for t in triangle_masks(5)]
        elapsed = time.perf_counter() - start
        assert len(audits) == 10
        assert all(a["ok"] and a["quadratic_form"] == 0 and a["mu"] == F(1, 8)
                   for a in audits)
        assert elapsed < 2.0, f"ten n = 5 umvirate audits took {elapsed:.2f} s"

    def test_n6_umvirate_audits_within_budget(self):
        # the 20 audits of bound-check --n 6, catalogue warm
        combined_lambda_min(6)
        start = time.perf_counter()
        audits = [hoffman_audit(umvirate(6, t)) for t in triangle_masks(6)]
        elapsed = time.perf_counter() - start
        assert all(a["ok"] and a["quadratic_form"] == 0 and a["mu"] == F(1, 8)
                   for a in audits)
        assert elapsed < 0.1, f"twenty n = 6 umvirate audits took {elapsed:.3f} s"

    def test_n7_umvirate_audits_within_budget(self):
        # all 35 umvirates of K7 (2^18 members each) from the packed indicator;
        # the eigenvalue lookups and lambda_min over the 7-vertex catalogue
        # are timed too
        combined_lambda_min.cache_clear()
        families._combined_lambda.cache_clear()
        start = time.perf_counter()
        lam_min = combined_lambda_min(7)
        audits = [hoffman_audit(umvirate(7, t)) for t in triangle_masks(7)]
        elapsed = time.perf_counter() - start
        assert lam_min == F(-1, 7) and len(audits) == 35
        assert all(a["ok"] and a["quadratic_form"] == 0 and a["w"] == 0
                   and a["mu"] == a["nu"] == F(1, 8) for a in audits)
        assert elapsed < 1.0, f"35 n = 7 umvirate audits took {elapsed:.2f} s"

    def test_triangle_free_counts_up_to_six_vertices(self):
        # labelled triangle-free graphs on 4, 5, 6 vertices (OEIS A006785),
        # off the union of the umvirates of the triangles
        for n, free in ((4, 41), (5, 388), (6, 5789)):
            assert len(agreement_generators(n)) == free


class TestCampaign:
    def test_full_report(self):
        rep = verify_family_claims(campaign_size=150)
        assert rep.ok, rep.failing()
        assert len(rep.checks) == 24

    def test_seeded_families_unchanged(self):
        # the first 50 draws of the campaign at its default seed: random
        # family, edge, agreeing subfamily; the digest was taken from the
        # member-set store, so the packed store consumes the same random stream
        rng = random.Random(20260815)
        h = hashlib.sha256()
        for _ in range(50):
            fam = families._random_family(4, rng)
            e = rng.randrange(6)
            agreeing = families._random_agreeing_subfamily(4, rng)
            h.update(repr((sorted(fam.masks), e, sorted(agreeing.masks))).encode())
        assert h.hexdigest() == \
            "e09eb7c681f168e19e2c7f2de93aca192c07eb359e83718fb62e8284ffe5c8a9"

    def test_n5_bound_reads_the_computed_minimum(self, monkeypatch):
        # nu of the n = 5 bound is the Hoffman bound of the lambda_min that
        # the campaign computes, not of the constant it is compared with
        monkeypatch.setattr(families, "combined_lambda_min", lambda n: F(-1, 5))
        failing = verify_family_claims(campaign_size=40).failing()
        assert "n5:lambda-min=-1/7" in failing and "n5:size-bound-128" in failing

    def test_deterministic(self):
        a = verify_family_claims(campaign_size=40)
        b = verify_family_claims(campaign_size=40)
        assert [(c.claim_id, c.ok) for c in a.checks] == [(c.claim_id, c.ok) for c in b.checks]


def unpack(bits, count):
    return [bits >> 64 * i & (1 << 64) - 1 for i in range(count)]


def lane_flags(bits, count):
    return [bool(bits >> 64 * i & 1) for i in range(count)]


# a non-agreeing up-set: K4 less the edge 0 and K4 less the edge 5, which
# agree only on the 4-cycle left by the matching {0, 5}, and K4 itself
NOT_AGREEING_UPSET = Family(4, [63 ^ 1, 63 ^ 1 << 5, 63])


def stopped_one_pass_early(bits, lows):
    """The family before the last pass of monotone_fixpoint that changed it.  A
    family compressed through edge e stays so through any other edge, so one
    pass makes an up-set, and this is the family itself unless it is one."""
    before, cur = bits, bits
    while True:
        nxt = cur
        for e, low in enumerate(lows):
            nxt = families._shift_up(nxt, e, low)
        if nxt == cur:
            return before
        before, cur = cur, nxt


class TestLanes:
    """The compression campaign's packed lanes against the per-family code."""

    def mixed_families(self, count, seed):
        # random families (rarely agreeing), parts of triangle juntas (always
        # agreeing, intersecting at times), their up-closures, small random
        # sets, and the empty and full families
        rng = random.Random(seed)
        out = []
        for i in range(count):
            kind = i % 5
            if kind == 0:
                out.append(families._random_family(4, rng))
            elif kind == 1:
                out.append(families._random_agreeing_subfamily(4, rng))
            elif kind == 2:
                out.append(monotonize(families._random_agreeing_subfamily(4, rng)))
            elif kind == 3:
                out.append(Family(4, {rng.randrange(64) for _ in range(rng.randint(1, 3))}))
            else:
                out.append(Family(4, [] if i % 2 else range(64)))
        return out

    def test_lanes_match_per_family_predicates_and_measures(self):
        fams = self.mixed_families(2000, seed=27)
        count = len(fams)
        ones = families._lane_ones(count)
        x = families._pack([fam.bits for fam in fams])
        assert unpack(x, count) == [fam.bits for fam in fams]
        intersecting = [not v for v in lane_flags(families._lanes_clashing(x, ones, False), count)]
        agreeing = [not v for v in lane_flags(families._lanes_clashing(x, ones, True), count)]
        assert intersecting == [is_triangle_intersecting(fam) for fam in fams]
        assert agreeing == [is_triangle_agreeing(fam) for fam in fams]
        # independent of the partner indicators: a family is agreeing when it
        # is independent in the Cayley graph, no member m having m ^ s in it
        # for a generator s
        gens = agreement_generators(4)
        assert agreeing == [not any(m ^ s in fam for m in fam for s in gens) for fam in fams]
        assert unpack(families._lane_counts(x, ones), count) == [fam.size for fam in fams]
        assert unpack(families._lane_weights(x, ones), count) == \
            [fam.measure(F(1, 3)) * 3 ** 6 for fam in fams]
        # both outcomes of each predicate occur
        assert 0 < sum(intersecting) < sum(agreeing) < count

    def test_lane_shifts_match_per_family_shifts(self):
        fams = self.mixed_families(2000, seed=28)
        count = len(fams)
        rng = random.Random(28)
        edges = [rng.randrange(6) for _ in fams]
        ones = families._lane_ones(count)
        lows = [low * ones for low in families.low_masks(6)[:6]]
        x = families._pack([fam.bits for fam in fams])
        assert unpack(families._compress_lanes(x, edges, ones), count) == \
            [compress(fam, e).bits for fam, e in zip(fams, edges)]
        mono = families._monotone(x, lows)
        assert unpack(mono, count) == [monotonize(fam).bits for fam in fams]
        assert families._upset(mono, lows) and not families._upset(x, lows)

    def test_guard_compare_per_lane(self):
        rng = random.Random(29)
        xs = [rng.randrange(1 << rng.choice((3, 10, 62))) for _ in range(300)]
        ys = [x + rng.choice((-1, 0, 1)) if x else x for x in xs]
        ones = families._lane_ones(len(xs))
        got = families._lanes_at_most(families._pack(xs), families._pack(ys), ones)
        assert [bool(v >> 63) for v in unpack(got, len(xs))] == [x <= y for x, y in zip(xs, ys)]

    def corrupt_lane(self, monkeypatch, name, lane, replace, call=None):
        """Wrap the lane function families.<name> so that lane `lane` of its
        result (of its call-th call only, when call is given) becomes
        replace(lane of the input, lane of the result, edge drawn for the
        lane); returns the list of calls that changed the lane."""
        original, calls, changed = getattr(families, name), [], []
        full = (1 << 64) - 1

        def corrupted(bits, *args):
            out = original(bits, *args)
            calls.append(None)
            if call is not None and len(calls) != call + 1:
                return out
            edge = args[0][lane] if name == "_compress_lanes" else None
            old = out >> 64 * lane & full
            new = replace(bits >> 64 * lane & full, old, edge)
            changed.append(new != old)
            return out ^ (old ^ new) << 64 * lane
        monkeypatch.setattr(families, name, corrupted)
        return changed

    def corrupt_agreeing_draw(self, monkeypatch, call):
        # one non-agreeing family among the agreeing draws
        draw, calls = families._random_agreeing_subfamily, [0]

        def swapped(n, rng):
            fam = draw(n, rng)
            calls[0] += 1
            return NOT_AGREEING_UPSET if calls[0] == call + 1 else fam
        monkeypatch.setattr(families, "_random_agreeing_subfamily", swapped)

    @staticmethod
    def drop_member(before, after, edge):
        return after & after - 1

    @staticmethod
    def shift_down(before, after, edge):
        # the members with the edge move down into a free slot: the size
        # stays, and at p = 1/3 < 1/2 the measure rises
        low = families.low_masks(6)[edge]
        h = 1 << edge
        mov = before & ~low & ~((before & low) << h)
        return before & ~mov | mov >> h

    @staticmethod
    def stop_early(before, after, edge):
        return stopped_one_pass_early(before, families.low_masks(6)[:6])

    @staticmethod
    def full_graph_only(before, after, edge):
        # an up-set, smaller than the family
        return 1 << 63

    @staticmethod
    def prescribed_junta(before, after, edge):
        # agreeing, not intersecting, not an up-set
        return junta(4, T012, T012 & -T012).bits

    # seed 3, 200 draws: lane 11 is the first whose agreeing draw is
    # intersecting; no early lane of either kind of draw is an up-set
    @pytest.mark.parametrize("name, lane, replace, call, red", [
        ("_compress_lanes", 5, "drop_member", None,
         ["compress:size-preserved", "compress:uniform-measure-preserved"]),
        ("_compress_lanes", 5, "shift_down", None, ["compress:biased-measure-nonincreasing"]),
        ("_monotone", 4, "stop_early", 0, ["monotonize:upset-fixpoint"]),
        ("_monotone", 4, "stop_early", 1, ["monotonize:upset-fixpoint"]),
        ("_monotone", 4, "full_graph_only", 1, ["monotonize:upset-fixpoint"]),
        ("_monotone", 11, "prescribed_junta", 0,
         ["compress:predicates-preserved", "monotonize:upset-fixpoint"]),
    ], ids=["member-dropped", "member-moved-down", "agreeing-monotonized-one-pass-early",
            "random-monotonized-one-pass-early", "members-lost", "intersecting-lost"])
    def test_one_corrupted_lane_turns_its_claim_red(self, monkeypatch, name, lane, replace,
                                                    call, red):
        assert verify_family_claims(seed=3, campaign_size=200).ok
        changed = self.corrupt_lane(monkeypatch, name, lane, getattr(self, replace), call)
        assert verify_family_claims(seed=3, campaign_size=200).failing() == red
        assert changed == [True]

    def test_non_agreeing_draw_turns_its_claim_red(self, monkeypatch):
        self.corrupt_agreeing_draw(monkeypatch, 7)
        assert verify_family_claims(seed=3, campaign_size=200).failing() == \
            ["compress:predicates-preserved"]

    @pytest.mark.parametrize("size", [1, 5, 7, 8, 30])
    def test_chunks_read_every_draw_once(self, monkeypatch, size):
        # with chunks of 7 draws: the same random stream as one draw at a
        # time, and a fault in the last draw of the last chunk is seen
        monkeypatch.setattr(families, "_CHUNK", 7)
        rng, ref = random.Random(size), random.Random(size)
        assert families._compression_campaign(rng, size) == [True] * 5
        for _ in range(size):
            families._random_family(4, ref)
            ref.randrange(6)
            families._random_agreeing_subfamily(4, ref)
        assert rng.getstate() == ref.getstate()
        self.corrupt_agreeing_draw(monkeypatch, size - 1)
        assert families._compression_campaign(random.Random(size), size) == \
            [True, True, True, False, True]

    @pytest.mark.parametrize("size", [1, families._CHUNK + 1])
    def test_chunk_edges_at_the_real_chunk_size(self, monkeypatch, size):
        rng = random.Random(size)
        assert families._compression_campaign(rng, size) == [True] * 5
        self.corrupt_lane(monkeypatch, "_compress_lanes", (size - 1) % families._CHUNK,
                          self.drop_member, call=(size - 1) // families._CHUNK)
        assert families._compression_campaign(random.Random(size), size) == \
            [False, False, True, True, True]

    def test_memory_stays_at_one_chunk(self):
        # every chunk is dropped before the next is drawn: a campaign of
        # three and a half chunks peaks where a campaign of one does
        peaks = []
        for size in (families._CHUNK, 3 * families._CHUNK + families._CHUNK // 2):
            families._compression_campaign(random.Random(1), size)  # warm the caches
            tracemalloc.start()
            try:
                families._compression_campaign(random.Random(1), size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, many = peaks
        assert many < 1.2 * one, f"{many} bytes against {one} for one chunk"


class TestSearchWork:
    @pytest.mark.parametrize("seed, bound", [(None, 1508), (1, 1460)])
    def test_search_calls_on_the_cayley_graph(self, monkeypatch, seed, bound):
        # the pivoted search reaches every maximal set once; branching again
        # on a vertex already done reaches non-maximal leaves too, with the
        # same output and about 1.6 times the calls.  The bound is the count
        # of the search as written: two _bit_positions calls per inner node,
        # 64 to build the bitsets and 32 to decode the maximum sets
        calls = [0]
        bit_positions = families._bit_positions

        def counting(mask):
            calls[0] += 1
            return bit_positions(mask)
        monkeypatch.setattr(families, "_bit_positions", counting)
        alpha, sets = maximum_independent_sets(agreement_cayley(4), seed=seed)
        assert (alpha, len(sets)) == (8, 32)
        assert calls[0] <= bound
