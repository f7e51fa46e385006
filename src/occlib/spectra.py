"""Eigenvalue spectra of cut-averaged operators, exact bound solving and the
certificate campaigns that verify them.

Every spectrum here assigns a rational eigenvalue to a graph from its cut
statistics alone:

    lambda(G) = s^|G| * (w_0 q_0 + w_1 q_1 + w_2 q_2 + w_3 q_3 + w_4 forest4 + w_5 cycle4)

with sign base s = -p/(1-p); the uniform setting is p = 1/2, where s = -1.
The verification campaigns check the claimed minima and spectral gaps three
independent ways: exhaustively over all isomorphism classes with at most 7
non-isolated vertices, by exact identities between rational functions of p,
and by Sturm sign certificates for every case of the size-based analysis,
each derived polynomial recorded in its certificate.  One rule turns a
certificate into its claim, in `_certify`: the certificate passed, its
witness sign is the expected one, and each endpoint root is required,
forbidden or allowed as the case states.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import mul
from typing import NamedTuple

from .exact import (
    RationalFunction,
    SignCertificate,
    certify_sign,
    clear_denominators,
    frac_str,
)
from .cutstats import (
    CUT_LEMMAS,
    CutStats,
    _cut_mask_table,
    check_cut_lemmas,
    class_catalogue,
    cut_stats,
    reference_graphs,
)
from .graph import (
    Graph,
    canonical_key,
    write_graph6,
)
from .hypercube import TensorOperator

__all__ = [
    "TAU",
    "LAMBDA_MIN_UNIFORM",
    "GAP_UNIFORM",
    "COMBINE_WEIGHT",
    "GAP_COMBINED",
    "Spectrum",
    "CheckResult",
    "VerificationReport",
    "SolvedCoefficients",
    "BoundReport",
    "lambda_min_skew",
    "eval_lambda_smallp",
    "case_constant",
    "solve_coefficients",
    "hoffman_bound",
    "tight_uniform_keys",
    "tight_combined_keys",
    "combined_lambda_min",
    "verify_uniform_claims",
    "verify_skew_cases",
    "verify_smallp",
    "verify_cut_lemmas",
]

F = Fraction

TAU = F(31, 125)
LAMBDA_MIN_UNIFORM = F(-1, 7)
GAP_UNIFORM = F(1, 56)
COMBINE_WEIGHT = F(16, 17) * F(1, 56)
GAP_COMBINED = F(1, 952)


# closed forms in p: plain field arithmetic, so one definition gives exact
# values at a Fraction bias (validated by the public entry points) and, at the
# symbol RationalFunction.x(), the rational functions the certificates use


def _ratio(p):
    """p/(1-p): the p-biased sign base is -p/(1-p)."""
    return p / (1 - p)


def _threshold(p):
    """T = p^3/(1-p^3) = -lambda_min, for which the Hoffman bound gives mu <= p^3."""
    return p ** 3 / (1 - p ** 3)


def _coefficients(p) -> tuple:
    """(c1, c2, c3) of the p-biased first spectrum."""
    den = p * p + p + 1
    c1 = (p * p - p - 1) / den
    c2 = (p * p - 3 * p + 1) / den
    c3 = (5 * p * p - 27 * p + 45 - 28 / p + 6 / (p * p)) / (4 * den)
    return c1, c2, c3


# coefficients of (q_0, q_1, q_2, q_3) in the uniform first spectrum:
# (1, -5/7, -1/7, 3/28)
UNIFORM_COEFFS = (F(1), *_coefficients(F(1, 2)))


def _pinned(p) -> tuple:
    """(c1, c2, lower, upper) of solve_coefficients: pinning the edge, the
    2-edge path and the triangle at -T, and bounding 4 c3 + c4 by the 4-edge
    forest (lower) and K4 minus an edge (upper)."""
    t, r = _threshold(p), _ratio(p)
    c1 = 2 * t / r - 1
    c2 = -4 * t / r ** 2 - 1 - 2 * c1
    # triangle: -(r^3)(1/4 + 3/4 c2) must equal -t
    if -(r ** 3) * (F(1, 4) + F(3, 4) * c2) != -t:
        raise AssertionError("triangle equation inconsistent with edge and path")
    lower = -16 * t / r ** 4 - 1 - 4 * c1 - 6 * c2
    upper = 8 * t / r ** 5 - 1 - 2 * c2
    return c1, c2, lower, upper


def _d0(m: int, coeffs):
    """2^-m sum_k coeffs[k] C(m, k): the first-spectrum bracket of m bridges,
    whose cut size is Binomial(m, 1/2); coeffs weigh q0..q3."""
    return sum(c * comb(m, k) for k, c in enumerate(coeffs)) / 2 ** m


def _smallp_bracket(k: int, p):
    """The small-bias eigenvalue of a graph with k edges over its sign base."""
    den = 1 + p + p * p
    return 1 - k * (1 + p) / den + comb(k, 2) / den


def _lambda_smallp(k: int, p):
    """Small-bias eigenvalue of a graph with k edges."""
    return (-_ratio(p)) ** k * _smallp_bracket(k, p)


def lambda_min_skew(p: Fraction) -> Fraction:
    """-p^3/(1-p^3), the value of the p-biased spectrum on its tight classes."""
    p = F(p)
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    return -_threshold(p)


def eval_lambda_smallp(size: int, p: Fraction) -> Fraction:
    """Small-bias eigenvalue by edge count only:
    (-p/(1-p))^k [1 - k(1+p)/(1+p+p^2) + C(k,2)/(1+p+p^2)]."""
    p = F(p)
    if not 0 < p <= TAU:
        raise ValueError("small-bias spectrum defined for 0 < p <= 31/125")
    if size < 0:
        raise ValueError("negative edge count")
    return _lambda_smallp(size, p)


def case_constant(m: int) -> Fraction:
    """r(m) = 2^-m (1 - 5/7 m - 1/7 C(m,2) + 3/28 C(m,3))."""
    if m < 0:
        raise ValueError("negative bridge count")
    return _d0(m, UNIFORM_COEFFS)


def _forward_differences(f, k0: int, degree: int) -> list:
    """[D^0 f(k0), ..., D^(degree+1) f(k0)], D f(k) = f(k+1) - f(k), for f of
    an integer size k.  When f is a polynomial in k of degree at most
    degree + 1, the last is 0 exactly when its degree is at most degree, and
    then f(k0 + j) = sum_i C(j, i) D^i f(k0): positive for every j >= 0 when
    D^0 .. D^degree at k0 are."""
    row, out = [f(k0 + i) for i in range(degree + 2)], []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _skew_bias(p: Fraction) -> Fraction:
    p = F(p)
    if not 0 < p <= F(1, 2):
        raise ValueError("skew spectrum defined for 0 < p <= 1/2")
    return p


class Spectrum:
    """A linear functional of cut statistics with the sign base -p/(1-p).

    weights weigh the six counts of a CutStats record, in this order: q0, q1,
    q2, q3 (cuts of 0 to 3 edges), forest4 and cycle4 (4-edge cuts that are
    forests and 4-cycles; for vector sets, independent 4-sets and boxes).  The
    uniform spectra are the ones at p = 1/2, whose sign base is -1.  At
    p = RationalFunction.x() the weights and values are rational functions of
    p.  This is the one evaluator: every eigenvalue of a graph or a vector set
    is a Spectrum applied to its CutStats.
    """

    def __init__(self, p: Fraction, weights: tuple):
        self.p, self.weights = p, weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.p == other.p and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.p, self.weights))

    def __repr__(self) -> str:
        return f"Spectrum(p={self.p!r}, weights={self.weights!r})"

    def value(self, x: Graph | CutStats) -> Fraction:
        """Eigenvalue of a graph, or of whatever the given statistics describe."""
        stats = x if isinstance(x, CutStats) else cut_stats(x)
        if isinstance(self.p, F):
            return F(*self.integer_ratio(stats))
        # weights and base are rational functions of the symbol p
        return (-_ratio(self.p)) ** stats.size * _weigh(self.weights, stats) / stats.total

    def integer_ratio(self, stats: CutStats) -> tuple[int, int]:
        """(num, den), den > 0, unreduced, with value(stats) = num/den, at a
        rational bias: the weights are cleared to integers at one scale, once
        per spectrum, and the sign base of p = a/b is -a/(b-a)."""
        scale, weights = self._integer_weights
        a, b, size = self.p.numerator, self.p.denominator, stats.size
        return (-a) ** size * _weigh(weights, stats), (b - a) ** size * scale * stats.total

    @cached_property
    def _integer_weights(self) -> tuple:
        return clear_denominators(self.weights)

    def scaled(self, factor: Fraction) -> "Spectrum":
        return Spectrum(self.p, tuple(factor * w for w in self.weights))

    def plus(self, other: "Spectrum") -> "Spectrum":
        if self.p != other.p:
            raise ValueError("sign bases differ")
        return Spectrum(self.p, tuple(a + b for a, b in zip(self.weights, other.weights)))

    @staticmethod
    @lru_cache(maxsize=1)
    def uniform1() -> "Spectrum":
        return Spectrum.skew1(F(1, 2))

    @staticmethod
    @lru_cache(maxsize=1)
    def uniform2() -> "Spectrum":
        return Spectrum.skew2(F(1, 2))

    @staticmethod
    @lru_cache(maxsize=1)
    def combined() -> "Spectrum":
        return Spectrum.uniform1().plus(Spectrum.uniform2().scaled(COMBINE_WEIGHT))

    @staticmethod
    def skew1(p: Fraction) -> "Spectrum":
        return _skew1(_skew_bias(p))

    @staticmethod
    def skew2(p: Fraction) -> "Spectrum":
        """Pr[4-forest cut] - Pr[4-cycle cut], with the sign base of p."""
        return Spectrum(_skew_bias(p), (F(0), F(0), F(0), F(0), F(1), F(-1)))


def _skew1(p) -> Spectrum:
    return Spectrum(p, (F(1), *_coefficients(p), F(0), F(0)))


def _weigh(weights: tuple, stats: CutStats):
    """The weights applied to the counts of a record: q0..q3 (the q_k past
    its size are 0), then forest4 and cycle4."""
    return (sum(map(mul, weights[:4], stats.counts))
            + weights[4] * stats.forest4 + weights[5] * stats.cycle4)


@lru_cache(maxsize=8)
def _catalogue_laws(n: int) -> tuple[CutStats, ...]:
    """The distinct cut laws of class_catalogue(n), in catalogue order: the
    1044 classes on at most 7 vertices have 583."""
    return tuple(dict.fromkeys(e.stats for e in class_catalogue(n).values()))


def _signs(spec: Spectrum, laws, bounds: tuple) -> dict[CutStats, tuple[int, ...]]:
    """For each law, the sign (-1, 0 or 1) of its spec value minus each of
    the bounds, compared in integers: no Fraction is built."""
    pairs = [(b.numerator, b.denominator) for b in bounds]
    out = {}
    for law in laws:
        num, den = spec.integer_ratio(law)
        diffs = [num * bd - bn * den for bn, bd in pairs]
        out[law] = tuple((d > 0) - (d < 0) for d in diffs)
    return out


class SolvedCoefficients(NamedTuple):
    """Coefficients forced by pinning the tight graphs at -p^3/(1-p^3)."""

    p: Fraction
    c1: Fraction
    c2: Fraction
    lower: Fraction  # constraint from the 4-edge forest: 4 c3 + c4 >= lower
    upper: Fraction  # constraint from K4 minus an edge: 4 c3 + c4 <= upper


def solve_coefficients(p: Fraction) -> SolvedCoefficients:
    """Solve the tightness equations for (c1, c2) and bound 4 c3 + c4.

    The single edge and the 2-edge path pin c1 and c2; the triangle equation
    must then hold automatically and is asserted.  The 4-edge forest and K4
    minus an edge leave one degree of freedom 4 c3 + c4, bounded on both sides.
    """
    p = F(p)
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    return SolvedCoefficients(p, *_pinned(p))


class BoundReport(NamedTuple):
    """Hoffman-style measure bound nu = -lambda_min/(1 - lambda_min)."""

    lambda_min: Fraction
    nu: Fraction
    gamma: Fraction | None = None
    stability_coefficient: Fraction | None = None

    def to_json_dict(self) -> dict:
        out = {"lambda_min": frac_str(self.lambda_min), "nu": frac_str(self.nu)}
        if self.gamma is not None:
            out["gamma"] = frac_str(self.gamma)
            out["stability_coefficient"] = frac_str(self.stability_coefficient)
        return out


def hoffman_bound(lambda_min: Fraction, gamma: Fraction | None = None) -> BoundReport:
    lambda_min = F(lambda_min)
    if not -1 < lambda_min < 0:
        raise ValueError("need -1 < lambda_min < 0")
    nu = -lambda_min / (1 - lambda_min)
    stab = None
    if gamma is not None:
        gamma = F(gamma)
        if gamma <= 0:
            raise ValueError("need gamma > 0")
        stab = nu / ((1 - nu) * gamma)
    return BoundReport(lambda_min, nu, gamma, stab)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    claim_id: str
    ok: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"claim_id": self.claim_id, "ok": self.ok, "detail": self.detail}


class VerificationReport:
    """The checks of one campaign, in order, and the sign certificates they rest on."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[CheckResult] = []
        self.certificates: list[SignCertificate] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (self.name, self.checks, self.certificates) == \
            (other.name, other.checks, other.certificates)

    __hash__ = None  # mutable: checks are added as the campaign runs

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing(self) -> list[str]:
        return [c.claim_id for c in self.checks if not c.ok]

    def add(self, claim_id: str, ok: bool, detail: str = ""):
        self.checks.append(CheckResult(claim_id, bool(ok), detail))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
            "certificates": [c.to_json_dict() for c in self.certificates],
        }


@lru_cache(maxsize=1)
def _four_forest_keys() -> frozenset:
    """All 8 isomorphism classes of 4-edge forests; the 4-matching spans
    8 vertices and sits outside the 7-vertex enumeration."""
    keys = {key for key, e in class_catalogue(7).items()
            if e.stats.size == 4 and e.graph.is_forest()}
    keys.add(canonical_key(reference_graphs()["matching4"]))
    return frozenset(keys)


@lru_cache(maxsize=1)
def tight_uniform_keys() -> frozenset:
    """Isomorphism keys of the graphs attaining -1/7 in the first spectrum."""
    refs = reference_graphs()
    keys = {canonical_key(refs[n]) for n in ("edge", "path2", "forest2", "triangle", "K4minus")}
    return frozenset(keys | _four_forest_keys())


@lru_cache(maxsize=1)
def tight_combined_keys() -> frozenset:
    """Isomorphism keys of the graphs attaining -1/7 in the combined spectrum."""
    refs = reference_graphs()
    return frozenset(canonical_key(refs[n]) for n in ("edge", "path2", "forest2", "triangle"))


@lru_cache(maxsize=8)
def combined_lambda_min(n: int) -> Fraction:
    """Least combined-spectrum eigenvalue of a graph on n labelled vertices,
    taken once per n over the distinct laws of class_catalogue(n), where
    every such graph has its class."""
    return min(map(Spectrum.combined().value, _catalogue_laws(n)))


# ---------------------------------------------------------------------------
# uniform campaign
# ---------------------------------------------------------------------------


def verify_uniform_claims() -> VerificationReport:
    """Exhaustive verification of the uniform spectra over all isomorphism
    classes with at most 7 non-isolated vertices."""
    rep = VerificationReport("uniform-claims")
    catalogue = class_catalogue(7)
    refs = reference_graphs()
    t1 = tight_uniform_keys()
    tc = tight_combined_keys()
    ffk = _four_forest_keys()
    k4m_key = canonical_key(refs["K4minus"])

    s1, s2, sc = Spectrum.uniform1(), Spectrum.uniform2(), Spectrum.combined()
    # each distinct law is evaluated once, against bounds computed once
    laws = _catalogue_laws(7)
    signs1 = _signs(s1, laws, (LAMBDA_MIN_UNIFORM, LAMBDA_MIN_UNIFORM + GAP_UNIFORM))
    signsc = _signs(sc, laws, (LAMBDA_MIN_UNIFORM, LAMBDA_MIN_UNIFORM + GAP_COMBINED))
    signs2 = _signs(s2, laws, (F(-1), F(0), F(1)))
    bad1, badc = [], []
    for key, e in catalogue.items():
        at, above = signs1[e.stats]
        if not (at == 0 if key in t1 else above >= 0):
            bad1.append(write_graph6(e.graph))
        at, above = signsc[e.stats]
        if not (at == 0 if key in tc else above >= 0):
            badc.append(write_graph6(e.graph))
    # second spectrum: vanishes below 4 edges, bounded by 1
    ok_small = all(signs2[law][1] == 0 for law in laws if law.size < 4)
    ok_bound = all(lo >= 0 and hi <= 0 for lo, _, hi in signs2.values())
    l2_by_key = {key: s2.value(catalogue[key].stats) for key in (*ffk, k4m_key) if key in catalogue}
    rep.add("lambda1:min=-1/7:tight-set-exact", not bad1, ",".join(bad1[:5]))
    rep.add("combined:min=-1/7:gap=1/952", not badc, ",".join(badc[:5]))
    rep.add("lambda1:tight-set-size", len(t1) == 13,
            f"{len(t1)} classes (edge, path, 2-forest, triangle, K4minus, 8 four-forests)")

    # empty graph sits at +1 in both spectra
    rep.add("lambda1:empty=1", s1.value(refs["empty"]) == 1)
    rep.add("combined:empty=1", sc.value(refs["empty"]) == 1)

    rep.add("lambda2:zero-below-4-edges", ok_small)
    rep.add("lambda2:absolute-bound-1", ok_bound)
    rep.add("lambda2:four-forests=1/16",
            all(l2_by_key[k] == F(1, 16) for k in ffk if k in l2_by_key)
            and s2.value(refs["matching4"]) == F(1, 16))
    rep.add("lambda2:K4minus=1/8", l2_by_key[k4m_key] == F(1, 8))
    rep.add("lambda1:four-matching=-1/7",
            s1.value(refs["matching4"]) == LAMBDA_MIN_UNIFORM)
    rep.add("combined:four-matching=-1/7+1/952",
            sc.value(refs["matching4"]) == LAMBDA_MIN_UNIFORM + GAP_COMBINED)

    # combined values on the near-tight classes
    lc_ff = sc.value(next(e.stats for key, e in catalogue.items() if key in ffk))
    rep.add("combined:four-forest=-1/7+1/952", lc_ff == LAMBDA_MIN_UNIFORM + GAP_COMBINED)
    rep.add("combined:K4minus=-1/7+1/476",
            sc.value(refs["K4minus"]) == LAMBDA_MIN_UNIFORM + F(1, 476))

    # case constants of the size-based analysis
    rep.add("case-constants:r(5)=-41/448", case_constant(5) == F(-41, 448))
    rep.add("case-constants:r(6)=-23/448", case_constant(6) == F(-23, 448))
    rep.add("case-constants:r(7)=-13/512", case_constant(7) == F(-13, 512))

    # the numerator N(m) = 2^m r(m) = sum_k w_k C(m, k) is cubic in m; its
    # differences at 7 past the first, 15/28, 17/28, 3/28 and then 0, make
    # N(m+1) - N(m) positive for every m >= 7
    _, *rises, top = _forward_differences(lambda m: 2 ** m * case_constant(m), 7, 3)
    rep.add("case-constants:numerator-increasing-m>=7", all(d > 0 for d in rises) and top == 0)
    r7 = case_constant(7)
    rep.add("case-constants:r(m)>=r(7)-to-64", all(case_constant(m) >= r7 for m in range(7, 65)))

    # displayed exceptional values
    q2 = lambda g: catalogue[canonical_key(g)].stats.distribution()[2]
    rep.add("exceptional:f(triangle)=1/7", -s1.value(refs["triangle"]) == F(1, 7))
    rep.add("exceptional:f(K4minus)=1/7", -s1.value(refs["K4minus"]) == F(1, 7))
    rep.add("exceptional:q2(triangle)=3/4", q2(refs["triangle"]) == F(3, 4))
    rep.add("exceptional:q2(C4)=3/4", q2(refs["C4"]) == F(3, 4))
    rep.add("exceptional:q2(C5)=5/8", q2(refs["C5"]) == F(5, 8))
    rep.add("exceptional:q2(K4minus)=1/4", q2(refs["K4minus"]) == F(1, 4))

    # structure facts the size-based analysis relies on, at desk scale
    # bridge counts from the cut law, q1 = m q0 (cut-lemma:q1=m*q0); catalogue
    # keys are canonical keys
    bridges = {key: e.stats.counts[1] // e.stats.counts[0] if e.stats.size else 0
               for key, e in catalogue.items()}
    bridgeless_small = {key for key, e in catalogue.items()
                        if 0 < e.stats.size <= 5 and bridges[key] == 0}
    expected_bridgeless = {canonical_key(refs[n]) for n in ("triangle", "C4", "C5", "K4minus")}
    rep.add("structure:bridgeless-with-<=5-edges", bridgeless_small == expected_bridgeless)
    exempt = (canonical_key(refs["triangle"]), k4m_key)
    rep.add("structure:odd-bridgeless-q0<=1/16",
            all(16 * e.stats.counts[0] <= e.stats.total for key, e in catalogue.items()
                if e.stats.size % 2 and bridges[key] == 0 and key not in exempt))
    rep.add("structure:one-bridge-size-gap",
            all(e.stats.size == 1 or e.stats.size >= 4
                for key, e in catalogue.items() if bridges[key] == 1))
    return rep


# ---------------------------------------------------------------------------
# skew campaign: rational-function case analysis with Sturm certificates
# ---------------------------------------------------------------------------


def _skew_cases(spec: Spectrum, t: RationalFunction) -> list[tuple[str, RationalFunction, bool]]:
    """(case id, rational function required positive on [p_lo, p_hi],
    whether a zero exactly at p = 1/2 is the expected equality), from the
    first skew spectrum and T at the symbol p."""
    coeffs = spec.weights[:4]
    _, c1, c2, c3 = coeffs
    ratio = _ratio(spec.p)
    ratio2, ratio5, ratio7 = ratio ** 2, ratio ** 5, ratio ** 7
    _, _, lower, upper = _pinned(spec.p)
    refs = reference_graphs()
    c2_term = F(3, 4) * c2
    c3_term = c3 * F(1, 2)
    bridge_term = (1 + c1) * F(1, 4)

    cases: list[tuple[str, RationalFunction, bool]] = [
        ("coef:c3>0", c3, False),
        ("coef:c1<0", -c1, False),
        ("coef:1+c1>0", 1 + c1, False),
        ("coef:1+2c1<0", -(1 + 2 * c1), False),
        ("coef:c2+2c3>0", c2 + 2 * c3, False),
        ("coef:c1+7c3>0", c1 + 7 * c3, False),
        ("coef:d0(10)>0", _d0(10, coeffs), False),
        ("coef:4c3>=forest4-lower", 4 * c3 - lower, True),
        ("coef:4c3<=K4minus-upper", upper - 4 * c3, True),
        ("odd:3-forest", spec.value(refs["path3"]) + t, False),
        ("odd:m>=2,size>=5,c2-term", t - ratio5 * (c2_term + c3_term), False),
        ("odd:m>=2,size>=5,no-c2", t - ratio5 * c3_term, False),
        ("odd:m=1,size>=5,c2-term", t - ratio5 * (bridge_term + c2_term + c3_term), False),
        ("odd:m=1,size>=5,no-c2", t - ratio5 * (bridge_term + c3_term), False),
        ("odd:m=0,C5", spec.value(refs["C5"]) + t, False),
        ("odd:m=0,K4minus", spec.value(refs["K4minus"]) + t, True),
        ("odd:m=0,size>=7,c2-term", t - ratio7 * (F(1, 16) + c2_term + c3_term), False),
        ("odd:m=0,size>=7,no-c2", t - ratio7 * (F(1, 16) + c3_term), False),
        ("even:forest4", ratio ** 4 * _d0(4, coeffs) + t, True),
        ("even:forest6", ratio ** 6 * _d0(6, coeffs) + t, False),
        ("even:forest8", ratio ** 8 * _d0(8, coeffs) + t, False),
    ]
    for m in range(10):
        d0_term = ratio2 * _d0(m, coeffs) * F(1, 4)
        d2_term = ratio2 * (c2 + m * c3) / 2 ** m * F(3, 4)
        cases.append((f"even:m={m},d0-term", d0_term + t, False))
        cases.append((f"even:m={m},d2-term", d2_term + t, False))
        cases.append((f"even:m={m},both-terms", d0_term + d2_term + t, False))
    return cases


def _certify(rep: VerificationReport, case_id: str, rf: RationalFunction, lo: Fraction,
             hi: Fraction, witness: Fraction, sign: int = 1, at_lo: bool | None = False,
             at_hi: bool | None = False) -> None:
    """Certify the sign of rf on [lo, hi] and add the claim certificate:<case_id>.

    The claim holds when the certificate passes with witness sign `sign` and
    each endpoint root matches its rule: True requires a root there, False
    allows none, None allows either.  A failing claim carries the bracket
    the certificate localized."""
    cert = certify_sign(rf.sign_polynomial(), lo, hi, witness, case_id)
    rep.certificates.append(cert)
    ok = (cert.passed and cert.witness_sign == sign
          and at_lo in (None, cert.zero_at_lower) and at_hi in (None, cert.zero_at_upper))
    detail = ""
    if not ok and cert.failure_bracket is not None:
        x1, x2, _, _ = cert.failure_bracket
        detail = f"sign change in [{frac_str(x1)}, {frac_str(x2)}]"
    rep.add(f"certificate:{case_id}", ok, detail)


def verify_skew_cases(p_lo: Fraction, p_hi: Fraction) -> VerificationReport:
    """Certificate campaign for the p-biased case analysis on [p_lo, p_hi].

    Emits one Sturm sign certificate per case of the size-based analysis (the
    max/min bounds split into one certificate per active branch), plus exact
    rational-function identities for the tight graphs.  All claims are strict
    except the 4-edge forest and K4-minus cases, which vanish exactly at
    p = 1/2 and are certified with an endpoint zero when p_hi = 1/2.
    """
    p_lo, p_hi = F(p_lo), F(p_hi)
    if not 0 < p_lo < p_hi <= F(1, 2):
        raise ValueError("need 0 < p_lo < p_hi <= 1/2")
    rep = VerificationReport("skew-cases")
    witness = F(3, 8) if p_lo <= F(3, 8) <= p_hi else (p_lo + p_hi) / 2

    # identities: the four tight classes sit exactly at -p^3/(1-p^3)
    spec = _skew1(RationalFunction.x())
    t = _threshold(spec.p)
    refs = reference_graphs()
    for name in ("edge", "path2", "forest2", "triangle"):
        rep.add(f"identity:lambda({name})=-p^3/(1-p^3)", spec.value(refs[name]) == -t)

    for case_id, rf, eq_half in _skew_cases(spec, t):
        _certify(rep, case_id, rf, p_lo, p_hi, witness, at_hi=eq_half and p_hi == F(1, 2))

    # exhaustive spot checks at sampled biases: arithmetic over the catalogue
    samples = sorted({p_lo, p_hi, witness})
    catalogue = class_catalogue(7)
    laws = _catalogue_laws(7)
    tight_small = tight_combined_keys()          # edge, path2, 2-forest, triangle
    tight_half = tight_uniform_keys()            # adds 4-forests and K4minus at 1/2
    for p in samples:
        if p < TAU:
            continue  # below tau the 3-forest genuinely violates the bound
        expect = tight_half if p == F(1, 2) else tight_small
        signs = _signs(Spectrum.skew1(p), laws, (lambda_min_skew(p),))
        ok_min = all(sign >= 0 for sign, in signs.values())
        ok_tight = all((signs[e.stats][0] == 0) == (key in expect)
                       for key, e in catalogue.items())
        tag = frac_str(p)
        rep.add(f"sample:p={tag}:min", ok_min)
        rep.add(f"sample:p={tag}:tight-set", ok_tight)
    return rep


# ---------------------------------------------------------------------------
# small-bias campaign
# ---------------------------------------------------------------------------


def verify_smallp() -> VerificationReport:
    """Verify the small-bias spectrum facts on (0, 31/125]."""
    rep = VerificationReport("small-bias")
    p = RationalFunction.x()
    ratio, t = _ratio(p), _threshold(p)

    g_fn = 1 - p ** 2 * (6 - 4 * p + p ** 2) / (1 - p) ** 4
    rep.add("g(0)=1", g_fn(F(0)) == 1)
    rep.add("g(1/4)=0", g_fn(F(1, 4)) == 0)

    # derivative of g simplifies exactly; certify it negative on (0, 1/4]
    dnum = g_fn.num.derivative() * g_fn.den - g_fn.num * g_fn.den.derivative()
    gprime = RationalFunction(dnum, g_fn.den * g_fn.den)
    _certify(rep, "smallp:g-decreasing", gprime, F(0), F(1, 4), F(1, 8), sign=-1, at_lo=True)

    # g positive strictly below 1/4, zero exactly at 1/4
    _certify(rep, "smallp:g-positive", g_fn, F(0), F(1, 4), F(1, 8), at_lo=None, at_hi=True)

    # gap identity: -lambda_min - |lambda_5| = (-lambda_min) * g exactly
    lam5 = _lambda_smallp(5, p)
    rep.add("identity:gap=T*g", (t - (-lam5)) == t * g_fn)
    rep.add("identity:lambda5-bracket",
            _smallp_bracket(5, p) == (6 - 4 * p + p ** 2) / (1 + p + p * p))

    witness = F(1, 8)
    # lambda_5 < 0:  p^5 (6 - 4p + p^2) style numerator, zero only at p = 0
    _certify(rep, "smallp:lambda5<0", -lam5, F(0), TAU, witness, at_lo=True)

    # every size k >= k0 at once: the even bracket (eigenvalue nonnegative)
    # and the odd decay (magnitudes strictly decay two steps at a time) are
    # quadratic in k
    bracket = lambda k: _smallp_bracket(k, p)
    for case, k0, size_fn in (("even-bracket", 4, bracket),
                              ("odd-decay", 5, lambda k: bracket(k) - ratio ** 2 * bracket(k + 2))):
        *diffs, top = _forward_differences(size_fn, k0, 2)
        for j, d in enumerate(diffs):
            _certify(rep, f"smallp:{case}-k>={k0}:diff{j}", d, F(0), TAU, witness)
        rep.add(f"smallp:{case}-k>={k0}:diff3=0", top == 0)

    # sampled exact evaluations
    for ps in (F(1, 8), F(1, 5), TAU):
        tag = frac_str(ps)
        lam = {k: eval_lambda_smallp(k, ps) for k in range(4, 101)}
        rep.add(f"sample:p={tag}:lambda5<0", lam[5] < 0)
        rep.add(f"sample:p={tag}:even>=0", all(lam[k] >= 0 for k in range(4, 101, 2)))
        rep.add(f"sample:p={tag}:odd-decay",
                all(abs(lam[k + 2]) < abs(lam[k]) for k in range(5, 98, 2)))
        lam_min = lambda_min_skew(ps)
        gap = -lam_min - abs(lam[5])
        rep.add(f"sample:p={tag}:gap-positive", gap > 0)
        rep.add(f"sample:p={tag}:gap-identity", gap == -lam_min * g_fn(ps))
    return rep


# ---------------------------------------------------------------------------
# cut-lemma campaign
# ---------------------------------------------------------------------------


def verify_cut_lemmas() -> VerificationReport:
    """The cut-statistics lemmas on every nonempty class of the catalogue, one
    claim per lemma, and the law that ties the cube to the cut laws: on K4 at
    p = 1/2, averaging the tensor operators T_B over the 8 colouring cuts B,
    each of which flips every edge off B, multiplies psi_S by
    (-1)^|S| Q_S(-1), for all 64 characters.  It is checked per operator:
    T_B psi_S = (-1)^|S off B| psi_S for each B and S, and the mean of those
    signs over the 8 cuts is (-1)^|S| Q_S(-1), compared in integers."""
    rep = VerificationReport("cut-lemmas")
    failing = {lemma: [] for lemma in CUT_LEMMAS}
    for e in class_catalogue(7).values():
        if e.stats.size:
            for lemma in check_cut_lemmas(e.graph, e.stats):
                failing[lemma].append(write_graph6(e.graph))
    for lemma, bad in failing.items():
        rep.add(f"cut-lemma:{lemma}", not bad, ",".join(bad[:5]))

    bad = []
    cuts = _cut_mask_table(4)
    shifts = [TensorOperator(4, F(1, 2), b) for b in cuts]
    for s in range(64):
        # psi_S / 2^|S| at p = 1/2: the sign (-1)^|S & G| at the graph G
        psi = [(-1) ** (s & g).bit_count() for g in range(64)]
        images = {1: psi, -1: [-x for x in psi]}
        signs = [(-1) ** (s & ~b).bit_count() for b in cuts]
        eigen = all(op.apply(psi) == images[sign] for op, sign in zip(shifts, signs))
        stats = cut_stats(Graph(4, s))  # law / total = (-1)^|S| Q_S(-1)
        law = sum((-1) ** (stats.size + k) * c for k, c in enumerate(stats.counts))
        if not eigen or sum(signs) * stats.total != len(cuts) * law:
            bad.append(str(s))
    rep.add("shift-average:K4:psi_S-eigenvalue=(-1)^|S|Q_S(-1)", not bad, ",".join(bad[:5]))
    return rep
