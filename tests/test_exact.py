"""Tests for exact polynomial arithmetic, Sturm counting and sign certificates."""

import json
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlib.exact import (
    CertificateError,
    Polynomial,
    RationalFunction,
    SignCertificate,
    certify_sign,
    count_roots,
    frac_str,
    sturm_chain,
)

P = Polynomial


def fr(n, d=1):
    return F(n, d)


def from_roots(roots):
    """Monic polynomial with the given rational roots (with multiplicity)."""
    p = P.one()
    for r in roots:
        p = p * P((-F(r), 1))
    return p


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
small_polys = st.builds(P, st.lists(rationals, min_size=0, max_size=6))


class TestPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert P([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert P([0, 0]).is_zero()
        assert P.zero().degree == -1

    def test_eval_horner(self):
        p = P([F(1, 3), -2, 1])  # x^2 - 2x + 1/3
        assert p(F(1, 2)) == F(1, 4) - 1 + F(1, 3)

    def test_eval_cleared_numerator_example(self):
        # numerator of 1 - p^2(6-4p+p^2)/(1-p)^4 vanishes at p = 1/4
        one_minus = P([1, -1])
        num = one_minus ** 4 - P([0, 0, 6, -4, 1])
        assert num(F(1, 4)) == 0
        assert num(0) == 1

    def test_divmod_identity(self):
        a = P([3, 0, F(1, 2), 4])
        b = P([1, 2])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd_and_square_free(self):
        p = from_roots([F(1, 3), F(1, 3), F(2, 5)])
        sf = p.square_free_part()
        assert sf.monic() == from_roots([F(1, 3), F(2, 5)])

    def test_from_roots_evaluates_to_zero(self):
        p = from_roots([F(1, 7), -3])
        assert p(F(1, 7)) == 0 and p(-3) == 0 and p(0) != 0

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a

    @given(small_polys, small_polys, rationals)
    @settings(max_examples=150, deadline=None)
    def test_eval_is_ring_homomorphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @given(small_polys, small_polys)
    @settings(max_examples=150, deadline=None)
    def test_divmod_property(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


class TestRationalFunction:
    def test_reduction_to_lowest_terms(self):
        x = P.x()
        rf = RationalFunction((x - 1) * (x + 2), (x - 1) * (x + 3))
        assert rf.num == x + 2
        assert rf.den == x + 3

    def test_simplification_collapses_derivative_example(self):
        # d/dp [1 - p^2(6-4p+p^2)/(1-p)^4] simplifies to -12p/(1-p)^5
        p = RationalFunction.x()
        one = RationalFunction.constant(1)
        g = one - p ** 2 * (6 - 4 * p + p ** 2) / (one - p) ** 4
        num, den = g.num, g.den
        dnum = num.derivative() * den - num * den.derivative()
        gprime = RationalFunction(dnum, den * den)
        assert gprime == RationalFunction(P([0, -12]), (P([1, -1])) ** 5)

    def test_arithmetic_against_pointwise(self):
        x = RationalFunction.x()
        f = (x ** 2 - 1) / (x + 3)
        g = 1 / (x - F(1, 2))
        h = f * g - x
        for t in [F(1, 3), F(7, 5), F(-2, 9)]:
            assert h(t) == f(t) * g(t) - t

    def test_pole_raises(self):
        x = RationalFunction.x()
        with pytest.raises(ZeroDivisionError):
            (1 / (x - 2))(2)


class TestSturm:
    def test_chain_example_x2_minus_2(self):
        chain = sturm_chain(P([-2, 0, 1]))
        assert chain == (P([-2, 0, 1]), P([0, 2]), P([2]))

    def test_chain_linear(self):
        assert sturm_chain(P([F(-1, 2), 1])) == (P([F(-1, 2), 1]), P([1]))

    def test_count_examples(self):
        p = P([-2, 0, 1])
        assert count_roots(p, 1, 2) == 1
        assert count_roots(p, -2, 2) == 2
        q = from_roots([F(1, 3), F(2, 5)])
        assert count_roots(q, 0, 1) == 2

    def test_chain_length_bounded_by_degree(self):
        rng = random.Random(7)
        for _ in range(50):
            deg = rng.randint(1, 8)
            p = P([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)] + [1])
            chain = sturm_chain(p)
            assert len(chain) <= p.degree + 1

    def test_planted_roots_thousand_cases(self):
        # oracle: plant known rational roots, count how many land in (a, b]
        rng = random.Random(20260815)
        for trial in range(1000):
            k = rng.randint(0, 5)
            roots = set()
            while len(roots) < k:
                roots.add(F(rng.randint(-30, 30), rng.randint(1, 10)))
            roots = sorted(roots)
            p = from_roots(roots)
            if rng.random() < 0.3:
                p = p * P([1, 0, 1])  # irreducible factor adds no real roots
            if rng.random() < 0.3:
                p = p * F(rng.choice([-3, -1, 2, 5]), 7)
            a = F(rng.randint(-35, 30), rng.choice([1, 2, 3, 7]))
            b = a + F(rng.randint(1, 40), rng.choice([1, 3, 5]))
            expected = sum(1 for r in roots if a < r <= b)
            assert count_roots(p, a, b) == expected, (trial, roots, a, b)

    def test_multiplicities_do_not_inflate_count(self):
        p = from_roots([F(1, 2), F(1, 2), F(1, 2), 3])
        assert count_roots(p, 0, 4) == 2

    def test_split_additivity_including_root_splits(self):
        rng = random.Random(99)
        for _ in range(200):
            roots = sorted({F(rng.randint(-10, 10), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
            p = from_roots(roots)
            a, c = F(-12), F(12)
            b = rng.choice(roots) if rng.random() < 0.5 else F(rng.randint(-11, 11), 2)
            if not a < b < c:
                continue
            assert count_roots(p, a, b) + count_roots(p, b, c) == count_roots(p, a, c)


class TestCertificates:
    def test_positive_certificate(self):
        c = certify_sign(P([F(-1, 2), 1]), 0, F(1, 4), F(1, 8))
        assert c.passed and c.witness_sign == -1 and c.root_count == 0

    def test_failure_names_sign_change(self):
        c = certify_sign(P([F(-3, 8), 1]), F(1, 4), F(1, 2), F(3, 8))
        assert not c.passed
        assert c.root_hit == F(3, 8)
        x1, x2, s1, s2 = c.failure_bracket
        assert x1 < F(3, 8) < x2 and {s1, s2} == {-1, 1}
        d = c.to_json_dict()
        assert d["root_hit"] == "3/8"
        signs = d["failure_bracket"]["signs"]
        assert len(signs) == 2 and signs[0] != signs[1]

    def test_endpoint_root_upper_is_shrunk_and_reported(self):
        c = certify_sign(P([F(-1, 2), 1]), F(1, 4), F(1, 2), F(5, 16))
        assert c.passed and c.zero_at_upper and not c.zero_at_lower
        assert c.certified_hi < F(1, 2)
        assert c.witness_sign == -1

    def test_endpoint_root_lower_is_shrunk_and_reported(self):
        # -12p on [0, 1/4]: root exactly at the lower endpoint
        c = certify_sign(P([0, -12]), 0, F(1, 4), F(1, 8))
        assert c.passed and c.zero_at_lower and c.witness_sign == -1
        assert c.certified_lo > 0

    def test_shrink_does_not_skip_interior_roots(self):
        # root at the endpoint 1/2 and another at 15/32; a naive large shift
        # from 1/2 would jump past 15/32
        p = from_roots([F(1, 2), F(15, 32)])
        c = certify_sign(p, F(1, 4), F(1, 2), F(1, 3))
        assert not c.passed

    def test_narrow_interval_shifts_its_upper_endpoint(self):
        # every shift 2^-k with k <= 70 is wider than the interval: the ladder
        # starts at the first one inside it
        p = from_roots([F(1, 2)])
        c = certify_sign(p, F(1, 2) - F(1, 2 ** 70), F(1, 2), F(1, 2) - F(1, 2 ** 71))
        assert c.passed and c.zero_at_upper
        assert c.certified_hi == F(1, 2) - F(1, 2 ** 71)

    def test_second_root_next_to_the_endpoint_raises(self):
        # the root 1/2 - 2^-70 lies within 2^-64 (b - a) of the endpoint root
        # 1/2, so each of the 65 shifts keeps both roots on its right
        p = from_roots([F(1, 2), F(1, 2) - F(1, 2 ** 70)])
        with pytest.raises(CertificateError):
            certify_sign(p, 0, F(1, 2), F(1, 4))

    def test_even_multiplicity_failure_still_reports_bracket(self):
        p = from_roots([F(1, 3), F(1, 3)])
        c = certify_sign(p, 0, 1, F(2, 3))
        assert not c.passed
        x1, x2, _, _ = c.failure_bracket
        assert x1 < F(1, 3) < x2

    def test_json_round_trip_of_fields(self):
        c = certify_sign(P([F(-1, 2), 1]), F(1, 4), F(1, 2), F(5, 16), case_id="demo")
        blob = json.loads(json.dumps(c.to_json_dict()))
        assert blob["case_id"] == "demo"
        assert blob["status"] == "pass"
        assert [F(s) for s in blob["polynomial"]] == [F(-1, 2), F(1)]
        assert F(blob["interval"][1]) == F(1, 2)

    def test_constant_polynomial_certificate(self):
        # a constant takes the general path: chain (p,), no endpoint zero,
        # the whole interval certified with the constant's sign and no root
        for c, sign in ((F(3, 7), 1), (F(-3), -1)):
            p = P([c])
            assert sturm_chain(p) == (p,)
            assert certify_sign(p, 0, 1, F(1, 2), "const") == SignCertificate(
                p, F(0), F(1), F(0), F(1), F(1, 2), sign, 0, False, False, "pass", "const")
            assert count_roots(p, -5, 5) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(CertificateError):
            certify_sign(P.zero(), 0, 1, F(1, 2))


# plain-Fraction reference: the Euclidean algorithms the integer layer replaces


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_divmod(a, b):
    rem, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = q[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(q), _trim(rem)


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _ref_derivative(a):
    return tuple(i * c for i, c in enumerate(a) if i)


def _ref_square_free(a):
    return _ref_divmod(a, _ref_gcd(a, _ref_derivative(a)))[0]


def _ref_sturm(a):
    chain = [_ref_square_free(a)]
    if len(chain[0]) > 1:
        chain.append(_ref_derivative(chain[0]))
    while len(chain[-1]) > 1:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return chain


def _ref_count(a, lo, hi):
    chain = _ref_sturm(a)

    def variations(x):
        vals = [sum(c * x ** i for i, c in enumerate(q)) for q in chain]
        signs = [v > 0 for v in vals if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


def _planted(rng):
    """(coefficients, distinct roots) of a scaled product of (x - r)^m, m in 1..3,
    sometimes times x^2 + 1, which adds no real root."""
    roots = sorted({F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
    p = P.one()
    for r in roots:
        p = p * P([-r, 1]) ** rng.randint(1, 3)
    if rng.random() < 0.3:
        p = p * P([1, 0, 1])
    return p * F(rng.choice([-5, -2, 1, 3, 7]), rng.choice([1, 2, 9])), roots


class TestIntegerRepresentation:
    def test_scaled_and_unnormalised_inputs_agree(self):
        forms = [
            P([F(1, 3), F(-2, 3), 1]),
            P([F(2, 6), F(-4, 6), F(3, 3), 0, 0]),
            P([1, -2, 3]) * F(1, 3),
            P([-3, 6, -9]) * F(-1, 9),
            P([F(1, 3)]) - P([0, F(2, 3)]) + P([0, 0, 1]),
        ]
        for p in forms:
            assert p.coeffs == (F(1, 3), F(-2, 3), F(1))
            assert p == forms[0] and hash(p) == hash(forms[0])
            assert p.content == F(1, 3) and p.prim == (1, -2, 3)
        assert repr(forms[3]) == "Polynomial(1/3 + -2/3*x + 1*x^2)"

    def test_content_positive_and_primitive_coprime(self):
        rng = random.Random(11)
        for _ in range(200):
            cs = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 6))]
            p = P(cs)
            assert p.coeffs == _trim(cs)
            if p.is_zero():
                assert p.prim == () and p.content == 0 and p == 0
                continue
            assert p.content > 0 and p.prim[-1] != 0
            assert math.gcd(*p.prim) == 1
            assert (-p).coeffs == tuple(-c for c in _trim(cs)) and (-p).content == p.content

    def test_evaluation_matches_fraction_horner(self):
        rng = random.Random(12)
        for _ in range(100):
            cs = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 7))]
            x = F(rng.randint(-20, 20), rng.randint(1, 9))
            assert P(cs)(x) == sum(c * x ** i for i, c in enumerate(cs))

    def test_division_gcd_square_free_and_chain_match_fraction_reference(self):
        rng = random.Random(20261018)
        for trial in range(150):
            p, _ = _planted(rng)
            q, _ = _planted(rng)
            assert p.gcd(q).coeffs == _ref_gcd(p.coeffs, q.coeffs), trial
            assert tuple(c.coeffs for c in divmod(p, q)) == _ref_divmod(p.coeffs, q.coeffs), trial
            assert p.square_free_part().coeffs == _ref_square_free(p.coeffs), trial
            assert [c.coeffs for c in sturm_chain(p)] == _ref_sturm(p.coeffs), trial

    def test_count_roots_with_planted_multiplicities_and_endpoint_roots(self):
        rng = random.Random(4242)
        for trial in range(300):
            p, roots = _planted(rng)
            if rng.random() < 0.5:
                a = rng.choice(roots)
                b = rng.choice([r for r in roots if r > a] or [a + F(rng.randint(1, 9), 4)])
            else:
                a = F(rng.randint(-14, 10), rng.choice([1, 3, 5]))
                b = a + F(rng.randint(1, 30), rng.choice([1, 2, 7]))
            expected = sum(1 for r in roots if a < r <= b)
            assert count_roots(p, a, b) == expected == _ref_count(p.coeffs, a, b), (trial, roots, a, b)


class TestLazyRationalFunction:
    def test_lowest_terms_after_operation_chains(self):
        rng = random.Random(77)
        x = RationalFunction.x()
        points = (F(7, 101), F(-13, 103), F(211, 107))
        atoms = [lambda: x, lambda: RationalFunction.constant(F(rng.randint(-5, 5), rng.randint(1, 4))),
                 lambda: x - F(rng.randint(-4, 4), rng.randint(1, 3)),
                 lambda: 1 / (x + F(rng.randint(-4, 4), rng.randint(1, 3)))]
        for trial in range(80):
            f = rng.choice(atoms)()
            vals = [f(t) for t in points]
            for _ in range(rng.randint(2, 6)):
                op = rng.choice("+-*/^")
                if op == "^":
                    k = rng.randint(-2, 3)
                    if k < 0 and (f.is_zero() or 0 in vals):
                        continue
                    f, vals = f ** k, [v ** k for v in vals]
                    continue
                g = rng.choice(atoms)()
                gv = [g(t) for t in points]
                if op == "/" and (g.is_zero() or 0 in gv):
                    continue
                apply = {"+": operator.add, "-": operator.sub,
                         "*": operator.mul, "/": operator.truediv}[op]
                f, vals = apply(f, g), [apply(u, v) for u, v in zip(vals, gv)]
            num, den = f.num, f.den
            assert den.leading() == 1, trial
            assert len(_ref_gcd(num.coeffs, den.coeffs)) == 1 or num.is_zero(), trial
            if num.is_zero():
                assert den == 1
            assert [f(t) for t in points] == vals, trial
            assert f.sign_polynomial() == num * den

    def test_equal_functions_built_differently_compare_and_hash_equal(self):
        x = RationalFunction.x()
        forms = [
            x + 1,
            (x ** 2 - 1) / (x - 1),
            (2 * x + 2) / 2,
            1 / (1 / (x + 1)),
            (x + 1) ** 3 / (x ** 2 + 2 * x + 1),
            RationalFunction(P([3, 3]) * P([0, 1]), P([0, 3])),
        ]
        for f in forms:
            assert f == forms[0] and hash(f) == hash(forms[0])
            assert f.num == P([1, 1]) and f.den == P.one()
        assert (x ** 2 - 1) / (x - 1) - x == 1
        assert (x - 1) / (x - 1) == RationalFunction.constant(1)
        assert x / (x + 1) != (x + 1) / x

    def test_removable_zero_of_unreduced_denominator_evaluates(self):
        x = RationalFunction.x()
        f = (x ** 2 - 1) / (x - 1)
        assert f(1) == 2
        with pytest.raises(ZeroDivisionError):
            ((x + 2) / ((x - 1) * (x + 2)))(1)


def test_frac_str_round_trip():
    for v in [F(31, 125), F(-41, 448), F(5), F(0)]:
        assert F(frac_str(v)) == v
