import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from occlib import spectra
from occlib.cli import main
from occlib.cutstats import class_catalogue, cut_stats
from occlib.exact import RationalFunction, clear_denominators, frac_str
from occlib.graph import Graph, canonical_key, edge_index, enumerate_unlabeled, write_graph6
from occlib.spectra import (
    COMBINE_WEIGHT,
    GAP_COMBINED,
    GAP_UNIFORM,
    LAMBDA_MIN_UNIFORM,
    TAU,
    Spectrum,
    case_constant,
    eval_lambda_smallp,
    hoffman_bound,
    lambda_min_skew,
    solve_coefficients,
    tight_combined_keys,
    tight_uniform_keys,
    verify_skew_cases,
    verify_smallp,
    verify_uniform_claims,
)


def _g(n, edges):
    return Graph.from_edges(n, edges)


EDGE = _g(2, [(0, 1)])
PATH2 = _g(3, [(0, 1), (1, 2)])
FOREST2 = _g(4, [(0, 1), (2, 3)])
TRIANGLE = _g(3, [(0, 1), (0, 2), (1, 2)])
C4 = _g(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = _g(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4MINUS = _g(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PATH4 = _g(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
MATCH4 = _g(8, [(0, 1), (2, 3), (4, 5), (6, 7)])

S1, S2, SC = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()


class TestUniformValues:
    def test_tight_classes_at_minimum(self):
        for g in (EDGE, PATH2, FOREST2, TRIANGLE, K4MINUS, PATH4, MATCH4):
            assert S1.value(g) == F(-1, 7)

    def test_frozen_offtight_values(self):
        assert S1.value(C4) == F(1, 56)
        assert S1.value(C5) == F(3, 112)
        assert S1.value(Graph(1, 0)) == 1

    def test_second_spectrum_values(self):
        assert S2.value(PATH4) == F(1, 16)
        assert S2.value(MATCH4) == F(1, 16)
        assert S2.value(K4MINUS) == F(1, 8)
        assert S2.value(C4) == F(-1, 8)
        assert S2.value(TRIANGLE) == 0
        assert S2.value(EDGE) == 0

    def test_combined_splits_forests_from_triangle(self):
        # the second spectrum pushes 4-edge forests and K4-minus strictly
        # above the minimum while leaving the true tight set alone
        assert SC.value(TRIANGLE) == F(-1, 7)
        assert SC.value(EDGE) == F(-1, 7)
        assert SC.value(PATH4) == F(-1, 7) + F(1, 952)
        assert SC.value(MATCH4) == F(-1, 7) + F(1, 952)
        assert SC.value(K4MINUS) == F(-1, 7) + F(1, 476)

    def test_combine_weight(self):
        assert COMBINE_WEIGHT == F(2, 119)
        assert F(1, 16) * COMBINE_WEIGHT == GAP_COMBINED

    def test_case_constants(self):
        assert case_constant(4) == LAMBDA_MIN_UNIFORM
        assert case_constant(5) == F(-41, 448)
        assert case_constant(6) == F(-23, 448)
        assert case_constant(7) == F(-13, 512)
        assert all(case_constant(m) >= case_constant(7) for m in range(7, 65))

    def test_isomorphism_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            g = Graph(6, rng.getrandbits(15))
            perm = list(range(6))
            rng.shuffle(perm)
            h = g.permute(perm)
            assert S1.value(g) == S1.value(h)
            assert S2.value(g) == S2.value(h)


class TestSkewValues:
    def test_coefficients_at_half_match_uniform(self):
        assert Spectrum.skew1(F(1, 2)).weights[1:4] == (F(-5, 7), F(-1, 7), F(3, 28))

    def test_coefficients_at_three_eighths(self):
        assert Spectrum.skew1(F(3, 8)).weights[1:4] == (F(-79, 97), F(1, 97), F(229, 388))

    def test_c2_changes_sign_near_golden_cut(self):
        # root of p^2 - 3p + 1 at (3 - sqrt5)/2 = 0.3819...
        assert Spectrum.skew1(F(19, 50)).weights[2] > 0
        assert Spectrum.skew1(F(2, 5)).weights[2] < 0

    def test_minimum_at_three_eighths(self):
        assert lambda_min_skew(F(3, 8)) == F(-27, 485)
        for g in (EDGE, PATH2, FOREST2, TRIANGLE):
            assert Spectrum.skew1(F(3, 8)).value(g) == F(-27, 485)

    def test_half_reduces_to_uniform(self):
        for g in (EDGE, TRIANGLE, C4, C5, K4MINUS, PATH4):
            assert Spectrum.skew1(F(1, 2)).value(g) == S1.value(g)
            assert Spectrum.skew2(F(1, 2)).value(g) == S2.value(g)

    def test_tight_only_on_small_classes_off_half(self):
        p = F(3, 8)
        lam_min = lambda_min_skew(p)
        tight = tight_combined_keys()
        for g in enumerate_unlabeled(6):
            lam = Spectrum.skew1(p).value(g)
            assert lam >= lam_min
            assert (lam == lam_min) == (canonical_key(g) in tight)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            Spectrum.skew1(F(5, 8)).value(EDGE)
        with pytest.raises(ValueError):
            Spectrum.skew1(F(0)).value(EDGE)
        with pytest.raises(ValueError):
            Spectrum.skew1(F(3, 2))

    @pytest.mark.parametrize("p", [F(0), F(-1), F(1), F(2)])
    def test_minimum_outside_the_open_unit_interval_is_refused(self, p):
        with pytest.raises(ValueError, match="0 < p < 1"):
            lambda_min_skew(p)


class TestSolveCoefficients:
    def test_half_pins_both_bounds_to_3_7(self):
        sol = solve_coefficients(F(1, 2))
        assert (sol.c1, sol.c2) == (F(-5, 7), F(-1, 7))
        assert sol.lower == sol.upper == F(3, 7)

    @given(st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, den):
        # any p in (0, 1/2] gives the same (c1, c2) as the closed form,
        # and the chosen c3 lands inside the forced window
        p = F(max(1, den // 3), den)
        if p > F(1, 2):
            p = F(1, 2)
        c1, c2, c3 = Spectrum.skew1(p).weights[1:4]
        sol = solve_coefficients(p)
        assert (sol.c1, sol.c2) == (c1, c2)
        assert sol.lower <= 4 * c3 <= sol.upper

    def test_lower_bound_closed_form(self):
        for p in (F(1, 4), F(3, 8), F(31, 125), F(1, 2)):
            want = (5 * p * p - 27 * p + 45 - F(16) / p) / (p * p + p + 1)
            assert solve_coefficients(p).lower == want

    def test_infeasible_above_half(self):
        sol = solve_coefficients(F(5, 8))
        assert sol.lower > sol.upper

    def test_triangle_consistency_is_checked(self):
        # the triangle equation holds identically, so no p can trip it;
        # the guard exists to catch regressions in the solve itself
        for den in range(3, 40):
            solve_coefficients(F(1, den))


class TestSymbolicClosedForms:
    """Each closed form in p is written once; at the symbol p it must give the
    rational function whose values are the Fraction results."""

    BIASES = (TAU, F(3, 8), F(1, 2))

    def test_skew_spectrum_on_small_classes(self):
        sym = spectra._skew1(RationalFunction.x())
        for e in class_catalogue(5).values():
            lam = sym.value(e.stats)
            for p in self.BIASES:
                assert lam(p) == Spectrum.skew1(p).value(e.stats), (write_graph6(e.graph), p)

    def test_pinned_bounds(self):
        x = RationalFunction.x()
        c1, c2, lower, upper = spectra._pinned(x)
        assert (c1, c2) == spectra._coefficients(x)[:2]
        for p in self.BIASES:
            sol = solve_coefficients(p)
            assert (c1(p), c2(p), lower(p), upper(p)) == (sol.c1, sol.c2, sol.lower, sol.upper)

    def test_small_bias_bracket(self):
        x = RationalFunction.x()
        for k in range(13):
            bracket, lam = spectra._smallp_bracket(k, x), spectra._lambda_smallp(k, x)
            for p in self.BIASES:
                assert bracket(p) == spectra._smallp_bracket(k, p)
                assert lam(p) == spectra._lambda_smallp(k, p)
            assert lam(TAU) == eval_lambda_smallp(k, TAU)

    def test_forest_bracket_at_half_is_case_constant(self):
        coeffs = (F(1),) + spectra._coefficients(RationalFunction.x())
        for m in range(13):
            assert spectra._d0(m, coeffs)(F(1, 2)) == case_constant(m)


class TestHoffman:
    def test_reference_values(self):
        rep = hoffman_bound(F(-1, 7), GAP_COMBINED)
        assert rep.nu == F(1, 8)
        assert rep.stability_coefficient == 136

    @given(st.fractions(min_value=F(1, 100), max_value=F(3, 4)))
    @settings(max_examples=50, deadline=None)
    def test_skew_minimum_gives_cube_measure(self, p):
        # valid while lambda_min stays above -1, i.e. p^3 < 1/2
        assert hoffman_bound(lambda_min_skew(p)).nu == p ** 3

    def test_domain(self):
        with pytest.raises(ValueError):
            hoffman_bound(F(0))
        with pytest.raises(ValueError):
            hoffman_bound(F(-1))
        with pytest.raises(ValueError):
            hoffman_bound(F(-1, 7), F(0))


class TestSmallBias:
    def test_sizes_through_three_sit_at_minimum(self):
        for p in (F(1, 10), F(1, 5), TAU):
            lam_min = lambda_min_skew(p)
            for k in (1, 2, 3):
                assert eval_lambda_smallp(k, p) == lam_min
            assert eval_lambda_smallp(0, p) == 1

    def test_frozen_value(self):
        assert eval_lambda_smallp(5, F(1, 8)) == F(-353, 1226911)

    def test_shape_at_sample(self):
        p = F(1, 5)
        assert eval_lambda_smallp(4, p) > 0
        assert eval_lambda_smallp(5, p) < 0
        assert abs(eval_lambda_smallp(7, p)) < abs(eval_lambda_smallp(5, p))
        assert all(eval_lambda_smallp(k, p) >= 0 for k in range(4, 40, 2))

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_lambda_smallp(5, F(1, 4))
        with pytest.raises(ValueError):
            eval_lambda_smallp(-1, F(1, 8))


class TestForwardDifferences:
    """_forward_differences, the one rule behind every claim over all sizes,
    against direct evaluation of seeded polynomials in the size."""

    @pytest.mark.parametrize("degree", [2, 3])
    def test_against_direct_evaluation(self, degree):
        rng = random.Random(degree)
        for _ in range(20):
            coeffs = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(degree)]
            coeffs.append(F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 9)))
            f = lambda k: sum(c * k ** i for i, c in enumerate(coeffs))
            k0 = rng.randint(0, 20)
            diffs = spectra._forward_differences(f, k0, degree)
            assert len(diffs) == degree + 2 and diffs[-1] == 0
            for j in range(31):
                assert f(k0 + j) == sum(comb(j, i) * d for i, d in enumerate(diffs))
            # one degree short, the top difference is degree! times the
            # leading coefficient, never 0
            top = spectra._forward_differences(f, k0, degree - 1)[-1]
            assert top == factorial(degree) * coeffs[-1]


class TestSpectrumAlgebra:
    def test_named_spectra_match_evaluators(self):
        # each named spectrum against its closed form in the cut law:
        # lambda1 = (-1)^|G| (q0 - 5/7 q1 - 1/7 q2 + 3/28 q3),
        # lambda2 = (-1)^|G| (Pr[4-forest cut] - Pr[4-cycle cut]),
        # combined = lambda1 + (16/17)(1/56) lambda2, and the first skew
        # spectrum (-p/(1-p))^|G| (q0 + c1 q1 + c2 q2 + c3 q3) at p = 3/8
        rng = random.Random(5)
        graphs = [Graph(6, rng.getrandbits(15)) for _ in range(15)]
        s1, s2, sc = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()
        sk = Spectrum.skew1(F(3, 8))
        skew_weights = (1, F(-79, 97), F(1, 97), F(229, 388))
        for g in graphs:
            st = cut_stats(g)
            q = [F(st.counts[k], st.total) if k <= st.size else 0 for k in range(4)]
            sign = (-1) ** st.size
            lam1 = sign * (q[0] - F(5, 7) * q[1] - F(1, 7) * q[2] + F(3, 28) * q[3])
            lam2 = sign * F(st.forest4 - st.cycle4, st.total)
            assert s1.value(g) == lam1
            assert s2.value(g) == lam2
            assert sc.value(g) == lam1 + F(16, 17) * F(1, 56) * lam2
            assert sk.value(g) == F(-3, 5) ** st.size * sum(w * x for w, x in zip(skew_weights, q))

    def test_integer_weights_match_rational_evaluation(self):
        assert clear_denominators((F(1), F(-5, 7), F(-1, 7), F(3, 28))) == (28, (28, -20, -4, 3))
        assert clear_denominators((F(2), F(-3))) == (1, (2, -3))
        # value at a rational bias against the Fraction formula, weight by weight
        for p in (F(1, 5), F(31, 125), F(1, 2)):
            spec = Spectrum.skew1(p).plus(Spectrum.skew2(p).scaled(F(3, 11)))
            assert len(spec.weights) == 6
            for e in class_catalogue(5).values():
                st = e.stats
                q = [st.counts[k] if k <= st.size else 0 for k in range(4)]
                hits = sum((w * c for w, c in zip(spec.weights, q + [st.forest4, st.cycle4])), F(0))
                assert spec.value(st) == (-p / (1 - p)) ** st.size * hits / st.total

    def test_uniform_spectra_are_the_skew_spectra_at_half(self):
        assert Spectrum.uniform1() == Spectrum.skew1(F(1, 2))
        assert Spectrum.uniform2() == Spectrum.skew2(F(1, 2))

    def test_linearity(self):
        rng = random.Random(7)
        s1, s2 = Spectrum.uniform1(), Spectrum.uniform2()
        combo = s1.scaled(F(2, 3)).plus(s2.scaled(F(-1, 5)))
        for _ in range(10):
            g = Graph(5, rng.getrandbits(10))
            want = F(2, 3) * s1.value(g) + F(-1, 5) * s2.value(g)
            assert combo.value(g) == want

    def test_mixed_bases_rejected(self):
        with pytest.raises(ValueError):
            Spectrum.uniform1().plus(Spectrum.skew1(F(3, 8)))


class TestCatalogue:
    @staticmethod
    def cut_masks(g):
        """The cut of every coloring of the non-isolated vertices of g with
        the least of them on side 0: the edges whose ends differ in color."""
        verts = [u for u in range(g.n) if g.touched_vertices() >> u & 1]
        sides = [sum(1 << u for t, u in enumerate(verts[1:]) if bits >> t & 1)
                 for bits in range(1 << max(len(verts) - 1, 0))]
        return [sum(1 << edge_index(i, j, g.n) for i, j in g.edges() if (side >> i ^ side >> j) & 1)
                for side in sides]

    @classmethod
    def direct(cls, g, weights, base):
        """(lambda1, lambda2) straight from the cuts of g: weights are the
        coefficients of q0..q3, base the sign base."""
        cuts = cls.cut_masks(g)
        total = len(cuts)
        q = [F(0)] * 4
        forest = cycle = F(0)
        for mask in cuts:
            k = mask.bit_count()
            if k < 4:
                q[k] += F(1, total)
            elif k == 4 and Graph(g.n, mask).is_forest():
                forest += F(1, total)
            elif k == 4:
                cycle += F(1, total)
        sign = base ** g.edge_count
        return sign * sum(w * qk for w, qk in zip(weights, q)), sign * (forest - cycle)

    def test_matches_direct_recomputation_up_to_six_vertices(self):
        entries = [e for e in class_catalogue(7).values() if e.graph.v <= 6]
        assert len(entries) == 156
        uniform = (1, F(-5, 7), F(-1, 7), F(3, 28))
        p = F(3, 8)
        skew = (1, F(-79, 97), F(1, 97), F(229, 388))
        s1, s2, sc = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()
        sk = Spectrum.skew1(p)
        for e in entries:
            l1, l2 = self.direct(e.graph, uniform, -1)
            assert s1.value(e.stats) == l1
            assert s2.value(e.stats) == l2
            assert sc.value(e.stats) == l1 + COMBINE_WEIGHT * l2
            assert sk.value(e.stats) == self.direct(e.graph, skew, -p / (1 - p))[0]

    def test_distinct_laws_cover_the_catalogue(self):
        laws = spectra._catalogue_laws(7)
        assert len(laws) == len(set(laws)) == 583
        assert set(laws) == {e.stats for e in class_catalogue(7).values()}

    def test_signs_match_fraction_comparisons(self):
        # the integer cross-multiplication of _signs against Fraction
        # arithmetic on every distinct law, at and off each bound
        laws = spectra._catalogue_laws(7)
        cases = [(S1, (LAMBDA_MIN_UNIFORM, LAMBDA_MIN_UNIFORM + GAP_UNIFORM)),
                 (SC, (LAMBDA_MIN_UNIFORM, LAMBDA_MIN_UNIFORM + GAP_COMBINED)),
                 (S2, (F(-1), F(0), F(1), F(1, 16)))]
        cases += [(Spectrum.skew1(p), (lambda_min_skew(p), F(0))) for p in (TAU, F(3, 8))]
        for spec, bounds in cases:
            signs = spectra._signs(spec, laws, bounds)
            seen = set()
            for law in laws:
                num, den = spec.integer_ratio(law)
                value = spec.value(law)
                assert den > 0 and F(num, den) == value
                want = tuple((value > b) - (value < b) for b in bounds)
                assert signs[law] == want, (spec, law)
                seen.update(want)
            assert 0 in seen and 1 in seen

    def test_keys_and_order_follow_the_enumeration(self):
        reps = enumerate_unlabeled(7)
        catalogue = class_catalogue(7)
        assert [e.graph for e in catalogue.values()] == list(reps)
        assert list(catalogue) == [canonical_key(g) for g in reps]


class TestCertificateRule:
    """spectra._certify: the claim of one sign certificate under its sign and
    endpoint rules (True: a root required, False: none allowed, None: either)."""

    X = RationalFunction.x()

    def claim(self, rf, lo=F(0), hi=F(1, 4), **rules):
        rep = spectra.VerificationReport("rule")
        spectra._certify(rep, "case", rf, lo, hi, F(1, 8), **rules)
        (cert,), (check,) = rep.certificates, rep.checks
        assert cert.case_id == "case" and check.claim_id == "certificate:case"
        return check

    @pytest.mark.parametrize("at_lo, ok", [(True, True), (False, False), (None, True)])
    def test_root_at_lower_endpoint(self, at_lo, ok):
        # x on [0, 1/4]: positive inside, zero at 0 only
        assert self.claim(self.X, at_lo=at_lo).ok is ok

    @pytest.mark.parametrize("at_hi, ok", [(True, True), (False, False), (None, True)])
    def test_root_at_upper_endpoint(self, at_hi, ok):
        # 1/4 - x on [0, 1/4]: positive inside, zero at 1/4 only
        assert self.claim(F(1, 4) - self.X, at_hi=at_hi).ok is ok

    def test_required_root_that_is_absent(self):
        # x + 1 has no root on [0, 1/4]: a required endpoint root fails the claim
        assert self.claim(self.X + 1).ok
        assert not self.claim(self.X + 1, at_lo=True).ok
        assert not self.claim(self.X + 1, at_hi=True).ok

    def test_witness_sign(self):
        assert self.claim(-self.X, sign=-1, at_lo=True).ok
        check = self.claim(self.X, sign=-1, at_lo=True)
        assert not check.ok and check.detail == ""

    def test_failing_certificate_carries_its_bracket(self):
        # 3x - 1 changes sign at 1/3, inside [0, 1/2]
        rep = spectra.VerificationReport("rule")
        spectra._certify(rep, "case", 3 * self.X - 1, F(0), F(1, 2), F(1, 8))
        (cert,), (check,) = rep.certificates, rep.checks
        assert cert.status == "fail" and not check.ok
        x1, x2, _, _ = cert.failure_bracket
        assert x1 < F(1, 3) < x2
        assert check.detail == f"sign change in [{frac_str(x1)}, {frac_str(x2)}]"


class TestCampaigns:
    def test_uniform_claims(self):
        rep = verify_uniform_claims()
        assert rep.ok, rep.failing()
        assert len(tight_uniform_keys()) == 13
        assert len(tight_combined_keys()) == 4

    def test_uniform_claims_name_the_classes_off_a_doctored_tight_set(self, monkeypatch):
        # with the 2-edge path (Bo) and the triangle (Bw) moved out of the
        # tight sets and C4 (C]) moved in, each class is graded off its law
        # and named, in catalogue order
        t1, tc = tight_uniform_keys(), tight_combined_keys()
        drop, add = {canonical_key(PATH2), canonical_key(TRIANGLE)}, {canonical_key(C4)}
        monkeypatch.setattr(spectra, "tight_uniform_keys", lambda: t1 - drop | add)
        monkeypatch.setattr(spectra, "tight_combined_keys", lambda: tc - drop | add)
        bad = {c.claim_id: c.detail for c in verify_uniform_claims().checks if not c.ok}
        assert bad == {"lambda1:min=-1/7:tight-set-exact": "Bo,Bw,C]",
                       "combined:min=-1/7:gap=1/952": "Bo,Bw,C]",
                       "lambda1:tight-set-size": "12 classes (edge, path, 2-forest, triangle, "
                                                 "K4minus, 8 four-forests)"}

    def test_skew_samples_grade_each_class_by_its_law(self, monkeypatch):
        # a tight set without the 2-forest fails each sampled tight-set
        # claim below 1/2, and the minimum claims still hold
        tc = tight_combined_keys()
        monkeypatch.setattr(spectra, "tight_combined_keys",
                            lambda: tc - {canonical_key(FOREST2)})
        rep = verify_skew_cases(TAU, F(1, 2))
        assert rep.failing() == ["sample:p=31/125:tight-set", "sample:p=3/8:tight-set"]

    def test_smallp_evaluates_each_size_once_per_bias(self, monkeypatch):
        calls = []
        real = spectra.eval_lambda_smallp
        monkeypatch.setattr(spectra, "eval_lambda_smallp",
                            lambda k, p: calls.append((k, p)) or real(k, p))
        assert verify_smallp().ok
        assert len(calls) == len(set(calls)) == 3 * 97

    def test_skew_cases_on_full_interval(self):
        rep = verify_skew_cases(TAU, F(1, 2))
        assert rep.ok, rep.failing()
        assert len(rep.certificates) == 51
        assert all(c.passed for c in rep.certificates)
        touching = {c.case_id for c in rep.certificates if c.zero_at_upper}
        assert touching == {
            "coef:4c3>=forest4-lower",
            "coef:4c3<=K4minus-upper",
            "odd:m=0,K4minus",
            "even:forest4",
        }

    def test_skew_cases_fail_below_tau(self):
        rep = verify_skew_cases(F(6, 25), F(31, 125))
        assert not rep.ok
        assert rep.failing() == ["certificate:odd:3-forest"]
        cert = next(c for c in rep.certificates if c.case_id == "odd:3-forest")
        assert cert.status == "fail"
        x1, x2, s1, s2 = cert.failure_bracket
        assert F(6, 25) <= x1 < x2 <= F(31, 125)
        assert (s1, s2) == (-1, 1)
        # the bracket genuinely straddles a sign change of the case polynomial
        assert cert.polynomial(x1) < 0 < cert.polynomial(x2)

    def test_skew_interval_validation(self):
        with pytest.raises(ValueError):
            verify_skew_cases(F(1, 2), F(1, 4))
        with pytest.raises(ValueError):
            verify_skew_cases(F(1, 4), F(5, 8))

    def test_smallp_claims(self):
        rep = verify_smallp()
        assert rep.ok, rep.failing()
        assert len(rep.certificates) == 9

    def test_smallp_bracket_with_a_changed_pair_term_fails(self, monkeypatch):
        # C(k, 2)/8 in place of C(k, 2)/(1 + p + p^2): the bracket at k = 4
        # is -9/4 at p = 0
        monkeypatch.setattr(spectra, "_smallp_bracket",
                            lambda k, p: 1 - k * (1 + p) / (1 + p + p * p) + F(comb(k, 2), 8))
        assert "certificate:smallp:even-bracket-k>=4:diff0" in verify_smallp().failing()

    def test_smallp_cubic_bracket_fails_the_degree_claims(self, monkeypatch, capsys):
        # an extra -C(k, 3)/10^6 keeps every even bracket and odd decay up to
        # k = 100 positive on [0, 31/125], which is all that one certificate
        # per size up to 100 shows; only the degree claims see the cubic term
        real = spectra._smallp_bracket
        monkeypatch.setattr(spectra, "_smallp_bracket",
                            lambda k, p: real(k, p) - F(comb(k, 3), 10 ** 6))
        bracket, x = spectra._smallp_bracket, RationalFunction.x()
        ratio2 = (x / (1 - x)) ** 2
        per_size = spectra.VerificationReport("per-size")
        for k in range(4, 101, 2):
            spectra._certify(per_size, f"even-{k}", bracket(k, x), F(0), TAU, F(1, 8))
        for k in range(5, 98, 2):
            decay = bracket(k, x) - ratio2 * bracket(k + 2, x)
            spectra._certify(per_size, f"odd-{k}", decay, F(0), TAU, F(1, 8), at_lo=None)
        assert per_size.ok and len(per_size.certificates) == 96
        # the k = 5 closed form and the gap identities built on it see the
        # cubic term too; of the other claims, only the degree claims do
        failing = [c for c in verify_smallp().failing() if "identity" not in c]
        assert failing == ["smallp:even-bracket-k>=4:diff3=0", "smallp:odd-decay-k>=5:diff3=0"]
        # a failed claim, not a usage error
        assert main(["verify", "smallp"]) == 1
        assert "FAIL smallp:even-bracket-k>=4:diff3=0" in capsys.readouterr().out

    def test_reports_serialize(self):
        rep = verify_skew_cases(F(3, 8), F(1, 2))
        d = rep.to_json_dict()
        assert d["name"] == "skew-cases"
        assert d["ok"] is True
        assert len(d["checks"]) == len(rep.checks)
        assert len(d["certificates"]) == 51
        assert all(cert["witness"] == "3/8" for cert in d["certificates"])
        assert {cert["status"] for cert in d["certificates"]} == {"pass"}

    def test_gap_off_tight_set(self):
        # the first-spectrum gap 1/56 is a bound, not attained at 6 vertices;
        # the combined gap 1/952 is attained exactly by the 4-edge forests
        off1 = [S1.value(g) for g in enumerate_unlabeled(6)
                if canonical_key(g) not in tight_uniform_keys()]
        assert min(off1) >= LAMBDA_MIN_UNIFORM + GAP_UNIFORM
        assert min(off1) == F(-3, 32)
        offc = [SC.value(g) for g in enumerate_unlabeled(6)
                if canonical_key(g) not in tight_combined_keys()]
        assert min(offc) == LAMBDA_MIN_UNIFORM + GAP_COMBINED

    def test_cut_lemma_claims_fail_with_the_failing_graphs(self, monkeypatch):
        assert spectra.verify_cut_lemmas().ok
        # a checker that rejects q2 on the triangle, and tensor operators that
        # return their input, each turn exactly their own claim red
        monkeypatch.setattr(spectra, "check_cut_lemmas",
                            lambda g, stats: ["q2<=3/4"] if write_graph6(g) == "Bw" else [])
        monkeypatch.setattr(spectra.TensorOperator, "apply", lambda op, f: f)
        bad = {c.claim_id: c.detail for c in spectra.verify_cut_lemmas().checks if not c.ok}
        assert bad == {"cut-lemma:q2<=3/4": "Bw",
                       "shift-average:K4:psi_S-eigenvalue=(-1)^|S|Q_S(-1)": "1,2,3,4,5"}

    def test_shift_average_claim_fails_on_a_wrong_cut_law(self, monkeypatch):
        # the operators are right, but the triangle S = 11 of K4 gets the law
        # of a 2-edge path, whose signed mean is 0, not -1
        real = spectra.cut_stats
        monkeypatch.setattr(spectra, "cut_stats",
                            lambda g: real(Graph(g.n, g.mask ^ 1) if g.mask == 11 else g))
        bad = {c.claim_id: c.detail for c in spectra.verify_cut_lemmas().checks if not c.ok}
        assert bad == {"shift-average:K4:psi_S-eigenvalue=(-1)^|S|Q_S(-1)": "11"}
