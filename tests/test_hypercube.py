import random
import tracemalloc
from fractions import Fraction as F

import pytest

from occlib import hypercube
from occlib.cutstats import cut_distribution_bruteforce
from occlib.families import Family, hoffman_audit, junta, triangle_masks, umvirate
from occlib.graph import Graph, all_masks, edge_pairs
from occlib.hypercube import (
    _MAX_COORDS,
    TensorOperator,
    _butterfly,
    indicator_bits,
    layer_masks,
    low_masks,
    quadratic_form,
    walsh_support,
)
from occlib.spectra import Spectrum

TRIANGLE_K4 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])


def coloring_cuts(n):
    """Edge masks of all 2^(n-1) bipartition cuts of K_n."""
    out = []
    for coloring in range(1 << (n - 1)):
        colors = [0] + [(coloring >> i) & 1 for i in range(n - 1)]
        mask = 0
        for idx, (i, j) in enumerate(edge_pairs(n)):
            if colors[i] != colors[j]:
                mask |= 1 << idx
        out.append(mask)
    return out


def walsh_matrix(p):
    """The analysis matrix of one edge: rows (edge not in S, edge in S),
    columns (edge absent, edge present)."""
    return ((1 - p, p), (F(1), F(-1)))


def synthesis_matrix(p):
    """The inverse of walsh_matrix(p): f = sum_S (p(1-p))^|S| ghat(S) psi_S."""
    return ((F(1), p), (F(1), p - 1))


def measure(p, dim, mask):
    """p-biased measure of the graph with this edge mask, on the cube of
    dimension dim."""
    return p ** mask.bit_count() * (1 - p) ** (dim - mask.bit_count())


def inner(p, f, g):
    """<f, g> under the p-biased measure, for two value lists on one cube."""
    dim = len(f).bit_length() - 1
    return sum(u * v * measure(p, dim, m) for m, (u, v) in enumerate(zip(f, g)))


def expectation(p, f):
    return inner(p, f, [1] * len(f))


def indicator(n, members):
    """The dense 0/1 indicator of a family, built point by point."""
    members = set(members)
    return [int(m in members) for m in all_masks(n)]


def psi(n, p, s_mask):
    """The rational character psi_S indexed by edge set S, as a value list:
    (-1/p)^k (1/(1-p))^(|S|-k) on a graph sharing k edges with S."""
    size = s_mask.bit_count()
    by_shared = [(-1 / p) ** k / (1 - p) ** (size - k) for k in range(size + 1)]
    return [by_shared[(m & s_mask).bit_count()] for m in all_masks(n)]


def combined_by_mask(n):
    """Combined-spectrum eigenvalue of every edge mask of K_n, by brute force."""
    spec = Spectrum.combined()
    return {m: spec.value(Graph(n, m)) for m in all_masks(n)}


class TestWalsh:
    @pytest.mark.parametrize("p", [F(1, 3), F(3, 8), F(1, 2)])
    def test_butterfly_matrices_invert(self, p):
        w, v = walsh_matrix(p), synthesis_matrix(p)
        for i in range(2):
            for j in range(2):
                s = v[i][0] * w[0][j] + v[i][1] * w[1][j]
                assert s == (1 if i == j else 0)

    def test_round_trip(self):
        rng = random.Random(3)
        p = F(1, 3)
        f = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(8)]
        assert reference_butterfly(walsh(p, f), synthesis_matrix(p), 7) == f

    def test_parseval(self):
        # <f, f> = sum_S (p(1-p))^|S| ghat(S)^2, and <f, f> = mu_p for 0/1 f
        p = F(2, 7)
        members = random_members(3, 5)
        f = indicator(3, members)
        assert sum(sq for _, sq in as_fractions(walsh_support(3, p, packed(3, members)))) \
            == inner(p, f, f)

    def test_characters_orthonormal(self):
        # psi_S = chi_S / sqrt(p(1-p))^|S|, so <psi_S, psi_S> = (p(1-p))^-|S|
        p = F(1, 3)
        psis = [psi(3, p, s) for s in range(8)]
        for r in range(8):
            for s in range(8):
                want = (p * (1 - p)) ** -s.bit_count() if r == s else 0
                assert inner(p, psis[r], psis[s]) == want

    def test_empty_coefficient_is_expectation(self):
        # ghat(empty) = E[f], and its square is the support's entry at 0
        p = F(3, 8)
        members = random_members(3, 7)
        f = indicator(3, members)
        assert walsh(p, f)[0] == expectation(p, f)
        assert dict(as_fractions(walsh_support(3, p, packed(3, members))))[0] \
            == expectation(p, f) ** 2

    def test_indicator_expectation_is_measure(self):
        # a principal filter above a triangle has measure p^3
        members = [m for m in range(64) if m & TRIANGLE_K4.mask == TRIANGLE_K4.mask]
        for p in (F(1, 3), F(1, 2)):
            assert expectation(p, indicator(4, members)) == p ** 3

    def test_guards(self):
        # the operator takes exactly 2^C(n,2) values, at a bias in (0, 1/2]
        op = TensorOperator(3, F(1, 3))
        for size in (0, 7, 9, 64):
            with pytest.raises(ValueError):
                op.apply([1] * size)
        for p in (F(0), F(3, 2)):
            with pytest.raises(ValueError):
                TensorOperator(3, p)


def reference_butterfly(values, matrix, coords):
    """The per-coordinate Fraction butterfly, kept here as an oracle for the
    integer kernel: matrix acts on (v[m], v[m | bit]) for every bit in coords."""
    vals = list(values)
    for i in range(len(vals).bit_length() - 1):
        if not coords >> i & 1:
            continue
        bit = 1 << i
        for mask in range(len(vals)):
            if mask & bit:
                continue
            lo, hi = vals[mask], vals[mask | bit]
            vals[mask] = matrix[0][0] * lo + matrix[0][1] * hi
            vals[mask | bit] = matrix[1][0] * lo + matrix[1][1] * hi
    return vals


def walsh(p, f):
    """ghat(S) = <f, psi_S> for every S, by the reference butterfly."""
    return reference_butterfly(f, walsh_matrix(p), len(f) - 1)


def packed(n, members):
    """The packed indicator of a list of edge masks of K_n."""
    return indicator_bits(n * (n - 1) // 2, members)


def random_members(n, seed):
    """A seeded family: each edge mask of K_n is a member with probability 1/2."""
    rng = random.Random(seed)
    return [m for m in all_masks(n) if rng.random() < 0.5]


def oracle_support(n, p, members):
    """The nonzero squared orthonormal coefficients of the dense 0/1
    indicator, by the reference butterfly."""
    ghat = walsh(p, indicator(n, members))
    squares = [(p * (1 - p)) ** m.bit_count() * v * v for m, v in enumerate(ghat)]
    return [(m, sq) for m, sq in enumerate(squares) if sq]


def as_fractions(support):
    """walsh_support's (den, [(S, x), ...]) as [(S, x/den), ...]."""
    den, squares = support
    return [(m, F(x, den)) for m, x in squares]


def audit_families(count, seed):
    """Seeded families of K4: random sets of masks (not agreeing), and random
    parts of triangle juntas (agreeing), alternately."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            t = triangle_masks(4)[rng.randrange(4)]
            members = [m for m in junta(4, t, t & rng.randrange(64)) if rng.random() < 0.7]
            out.append(members or [t])
        else:
            out.append([m for m in all_masks(4) if rng.random() < 0.3])
    return out


class TestHoffmanAuditValues:
    """hoffman_audit's values against a Fraction recomputation from
    oracle_support and the combined spectrum, on families where they are
    nonzero."""

    def test_audit_matches_fraction_recomputation(self):
        spec = Spectrum.combined()
        lam = {m: spec.value(Graph(4, m)) for m in all_masks(4)}
        lam_min = min(lam.values())
        nu, gamma = F(1, 8), F(1, 952)
        nonzero = {"quadratic_form": 0, "w": 0, "inequality_lhs": 0}
        for members in audit_families(50, seed=41):
            support = oracle_support(4, F(1, 2), members)
            mu = F(len(members), 64)
            w = sum((sq for m, sq in support if m and lam[m] != lam_min), F(0))
            want = {
                "quadratic_form": sum((lam[m] * sq for m, sq in support), F(0)),
                "w": w,
                "inequality_lhs": mu * mu - mu * nu + w * gamma * (1 - nu),
            }
            audit = hoffman_audit(Family(4, members))
            for key, value in want.items():
                assert audit[key] == value, (key, members)
                nonzero[key] += value != 0
        assert nonzero == {"quadratic_form": 25, "w": 48, "inequality_lhs": 48}


def random_function(n, seed):
    """Seeded random rational values, one per edge mask of K_n."""
    rng = random.Random(seed)
    return [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in all_masks(n)]


KERNEL_CASES = [(n, p, seed) for n in (3, 4) for p in (F(1, 2), F(1, 3), F(2, 5))
                for seed in (1, 2)]


class TestIntegerKernel:
    @pytest.mark.parametrize("d", range(11))
    def test_kernel_matches_reference_at_every_size(self, d):
        # seeded integer rows on 2^d seeded integers, on a seeded coordinate
        # subset and on every coordinate
        rng = random.Random(d)
        for _ in range(3):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
            vals = [rng.randint(-9, 9) for _ in range(1 << d)]
            for coords in (rng.getrandbits(d), (1 << d) - 1):
                assert _butterfly(vals, rows, coords) == reference_butterfly(vals, rows, coords)

    # all coordinates, and every other one, at the largest transform that
    # walsh_support runs
    @pytest.mark.parametrize("coords", [(1 << _MAX_COORDS) - 1, 0x5555])
    def test_kernel_matches_reference_at_the_size_limit(self, coords):
        rng = random.Random(15)
        vals = [rng.randint(0, 1) for _ in range(1 << _MAX_COORDS)]
        rows = ((3, 2), (1, -1))  # the analysis rows at p = 2/5
        assert _butterfly(vals, rows, coords) == reference_butterfly(vals, rows, coords)

    @pytest.mark.parametrize("n,p,seed", KERNEL_CASES)
    def test_transforms_match_reference(self, n, p, seed):
        # the integer kernel behind TensorOperator.apply, on rational values,
        # against the Fraction butterfly of the operator's edge matrix
        f = random_function(n, seed)
        full = len(f) - 1
        for b_mask in (0, 0b101):
            op = TensorOperator(n, p, b_mask)
            assert op.apply(f) == reference_butterfly(f, op.matrix, full & ~b_mask)

    @pytest.mark.parametrize("n,p,seed", KERNEL_CASES)
    def test_squares_parseval_and_quadratic_form(self, n, p, seed):
        members = random_members(n, seed)
        support = walsh_support(n, p, packed(n, members))
        assert as_fractions(support) == oracle_support(n, p, members)
        f = indicator(n, members)
        assert sum(sq for _, sq in as_fractions(support)) == inner(p, f, f)
        lam = combined_by_mask(n)
        want = sum((p * (1 - p)) ** m.bit_count() * v * v * lam[m]
                   for m, v in enumerate(walsh(p, f)))
        assert quadratic_form(support, lam) == want

    def test_half_is_plain_hadamard(self):
        # at p = 1/2, ghat(S) is 2^|S| times the integer Walsh-Hadamard
        # transform over 2^e, so the squared orthonormal coefficient is the
        # square of that transform over 2^e
        members = random_members(4, 11)
        ghat = walsh(F(1, 2), indicator(4, members))
        support = dict(as_fractions(walsh_support(4, F(1, 2), packed(4, members))))
        for s in range(64):
            wht = sum((-1) ** (s & m).bit_count() for m in members)
            assert ghat[s] == 2 ** s.bit_count() * F(wht, 64)
            assert support.get(s, 0) == F(wht, 64) ** 2

    @pytest.mark.parametrize("p", [F(1, 3), F(2, 5), F(1, 2)])
    # two bipartite sets that are not cuts, then the 8 colouring cuts of K4
    @pytest.mark.parametrize("b_mask", [0, 0b000101, 0b110000, *coloring_cuts(4)[1:]])
    def test_tensor_apply_matches_dense_matrix(self, p, b_mask):
        # the dense 64 x 64 matrix of T_B on K4, built from entry
        op = TensorOperator(4, p, b_mask)
        entries = [(g, h, op.entry(g, h)) for g in range(64) for h in range(64)]
        entries = [t for t in entries if t[2]]
        for f in (random_function(4, 5), psi(4, p, 0b011010), [1] * 64):
            dense = [F(0)] * 64
            for g, h, x in entries:
                dense[g] += x * f[h]
            assert op.apply(f) == dense


class TestWalshSupport:
    """walsh_support reads a family's packed indicator and transforms only the
    edges it depends on; the reference butterfly on the dense indicator is the
    oracle."""

    @pytest.mark.parametrize("n,p", [(3, F(1, 3)), (4, F(1, 2)), (4, F(1, 3)), (5, F(1, 2))])
    def test_umvirates_and_a_prescribed_junta(self, n, p):
        tri = triangle_masks(n)
        for fam in [junta(n, tri[0], tri[0] & -tri[0])] + [umvirate(n, t) for t in tri]:
            assert as_fractions(walsh_support(n, p, fam.bits)) == oracle_support(n, p, fam.masks)

    @pytest.mark.parametrize("p", [F(1, 2), F(2, 5)])
    def test_empty_full_and_dependent_on_every_edge(self, p):
        full = list(all_masks(4))
        assert as_fractions(walsh_support(4, p, 0)) == oracle_support(4, p, []) == []
        assert as_fractions(walsh_support(4, p, packed(4, full))) == oracle_support(4, p, full) \
            == [(0, F(1))]
        # a single graph moves under every edge flip
        support = as_fractions(walsh_support(4, p, 1 << 0b011010))
        assert support == oracle_support(4, p, [0b011010])
        assert support[-1][0] == 63

    @pytest.mark.parametrize("n,p", [(4, F(1, 2)), (4, F(2, 5)), (5, F(1, 3))])
    def test_packed_indicator_equals_member_list(self, n, p):
        # a seeded family and a junta, packed from their member lists
        tri = triangle_masks(n)
        for members in (random_members(n, 7), list(junta(n, tri[-1], tri[-1] & 3))):
            assert as_fractions(walsh_support(n, p, packed(n, members))) \
                == oracle_support(n, p, members)
        with pytest.raises(ValueError):
            walsh_support(4, p, 1 << 64)
        with pytest.raises(ValueError):
            walsh_support(4, p, -1)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 6])
    def test_cube_masks_match_definitions(self, d):
        masks = range(1 << d)
        lows = low_masks(d)
        assert len(lows) == d + 1
        for e, low in enumerate(lows):
            assert low == sum(1 << m for m in masks if not m >> e & 1)
        layers = layer_masks(d)
        assert len(layers) == d + 1
        for k, layer in enumerate(layers):
            assert layer == sum(1 << m for m in masks if m.bit_count() == k)

    def test_range_and_bias(self):
        with pytest.raises(ValueError):
            walsh_support(3, F(1, 3), 1 << 8)
        with pytest.raises(ValueError):
            walsh_support(3, F(1), 1 << 1)

    def test_refuses_eight_vertices_before_the_cube_masks(self, monkeypatch):
        # the masks of K8's cube are 29 integers of 2^28 bits: the size is
        # refused before they are asked for
        real = hypercube.low_masks

        def guarded(d):
            if d > 21:
                raise AssertionError(f"masks of the cube of dimension {d} asked for")
            return real(d)
        monkeypatch.setattr(hypercube, "low_masks", guarded)
        for n in (8, 0):
            with pytest.raises(ValueError, match="1 <= n <= 7"):
                walsh_support(n, F(1, 2), 1)
        assert walsh_support(7, F(1, 2), 0) == (1, [])

    def test_refuses_more_than_fifteen_relevant_edges(self):
        # Family(7, [0]) depends on all 21 edges of K7; the refusal comes
        # before any list over 2^21 points is built
        fam = Family(7, [0])
        low_masks(21)  # cached once per process: build it outside the measurement
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                walsh_support(7, F(1, 2), fam.bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def apply_shift(f, b_mask):
    """The uniform-measure shift, kept as an oracle: g(G) = f(G xor E'), with
    E' the edges off B."""
    flip = (len(f) - 1) & ~b_mask
    return [f[mask ^ flip] for mask in range(len(f))]


class TestShiftOperators:
    def test_shift_is_xor_with_complement(self):
        g = TensorOperator(3, F(1, 2), 0b011).apply(list(range(8)))
        assert g[0] == 0 ^ 0b100

    def test_tensor_operator_at_half_is_the_shift(self):
        # at p = 1/2, T_B flips every edge off B, for every colouring cut of K4
        f = random_function(4, 13)
        for b in coloring_cuts(4):
            assert TensorOperator(4, F(1, 2), b).apply(f) == apply_shift(f, b)

    def test_averaged_eigenvalues_from_cut_pgf(self):
        # averaging T_B over all bipartition cuts B of K4 multiplies the
        # coefficient at S by (-1)^|S| Q_S(-1)
        rng = random.Random(9)
        f = [rng.randint(-3, 3) for _ in range(64)]
        cuts = coloring_cuts(4)
        images = [TensorOperator(4, F(1, 2), b).apply(f) for b in cuts]
        av = [sum(col) / len(cuts) for col in zip(*images)]
        avh, fh = walsh(F(1, 2), av), walsh(F(1, 2), f)
        for s in range(64):
            g = Graph(4, s)
            lam = sum((-1) ** k * q for k, q in enumerate(cut_distribution_bruteforce(g)))
            if g.edge_count % 2:
                lam = -lam
            assert avh[s] == lam * fh[s]


class TestTensorOperator:
    def test_rows_are_stochastic_and_corner_zero(self):
        op = TensorOperator(3, F(1, 3))
        assert op.matrix[1][1] == 0
        assert all(sum(row) == 1 for row in op.matrix)
        with pytest.raises(ValueError):
            TensorOperator(3, F(2, 3))

    def test_characters_are_eigenvectors(self):
        p = F(1, 3)
        op = TensorOperator(3, p, b_mask=0b001)
        for s in range(8):
            chi = psi(3, p, s)
            assert op.apply(chi) == [op.eigenvalue(s) * x for x in chi]
        assert op.eigenvalue(0b110) == F(1, 4)   # two active edges
        assert op.eigenvalue(0b001) == 1         # frozen edge contributes nothing

    def test_entry_zero_iff_shared_edge_off_b(self):
        op = TensorOperator(3, F(2, 5), b_mask=0b001)
        for g in range(8):
            for h in range(8):
                shared_off_b = g & h & 0b110
                agree_on_b = (g & 0b001) == (h & 0b001)
                e = op.entry(g, h)
                if not agree_on_b or shared_off_b:
                    assert e == 0
                else:
                    assert e != 0

    def test_apply_matches_dense_matrix(self):
        p = F(1, 3)
        op = TensorOperator(3, p, b_mask=0b010)
        vals = [F(i + 1, 3) for i in range(8)]
        out = op.apply(vals)
        for g in range(8):
            assert out[g] == sum(op.entry(g, h) * vals[h] for h in range(8))

    def test_detailed_balance(self):
        # the chain is reversible for the p-biased measure
        p = F(1, 3)
        op = TensorOperator(3, p)
        for g in range(8):
            for h in range(8):
                assert measure(p, 3, g) * op.entry(g, h) == measure(p, 3, h) * op.entry(h, g)

    def test_umvirate_quadratic_form_vanishes(self):
        members = [m for m in range(64) if m & TRIANGLE_K4.mask == TRIANGLE_K4.mask]
        uh = walsh(F(1, 2), indicator(4, members))
        for s in range(64):
            if s & TRIANGLE_K4.mask == s:
                sign = 1 if Graph(4, s).edge_count % 2 == 0 else -1
                want = sign * F(2 ** s.bit_count(), 8)
            else:
                want = F(0)
            assert uh[s] == want
        assert quadratic_form(walsh_support(4, F(1, 2), packed(4, members)),
                              combined_by_mask(4)) == 0

    def test_quadratic_form_rational_at_biased_p(self):
        members = [m for m in range(8) if m & 0b001]
        f = indicator(3, members)
        lam = {m: TensorOperator(3, F(1, 3)).eigenvalue(m) for m in range(8)}
        q = quadratic_form(walsh_support(3, F(1, 3), packed(3, members)), lam)
        # independently: <f, Mf> under the measure
        op = TensorOperator(3, F(1, 3))
        assert q == inner(F(1, 3), f, op.apply(f))

