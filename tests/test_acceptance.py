"""Acceptance gate: one test per contracted criterion, each printing a
single PASS/FAIL line.  Every comparison is exact; the stated runtime
budgets are asserted, not aspirational."""

import json
import random
import time
from fractions import Fraction as F

from occlib.cli import main as cli_main
from occlib.cutstats import cut_distribution_blocks, cut_distribution_bruteforce
from occlib.families import (
    Family,
    agreement_cayley,
    hoffman_audit,
    is_triangle_agreeing,
    is_triangle_intersecting,
    is_upset,
    junta,
    maximum_independent_sets,
    monotonize,
    triangle_masks,
    umvirate,
)
from occlib.graph import Graph, canonical_key, enumerate_unlabeled, random_graph
from occlib.hypercube import TensorOperator
from occlib.schur import lift_graph, verify_oldc_claims
from occlib.spectra import (
    GAP_COMBINED,
    GAP_UNIFORM,
    LAMBDA_MIN_UNIFORM,
    TAU,
    case_constant,
    eval_lambda1_uniform,
    eval_lambda_combined,
    hoffman_bound,
    lambda_min_skew,
    skew_coefficients,
    solve_coefficients,
    verify_skew_cases,
    verify_smallp,
)


def report(k, ok, detail):
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {k}: {detail}"


def submasks(t):
    s = t
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & t


PAPER_TABLE = {
    "empty": (F(1), 0, 0, 0, 0),
    "edge": (F(1, 2), F(1, 2), 0, 0, 0),
    "path2": (F(1, 4), F(1, 2), F(1, 4), 0, 0),
    "triangle": (F(1, 4), 0, F(3, 4), 0, 0),
    "forest4": (F(1, 16), F(4, 16), F(6, 16), F(4, 16), F(1, 16)),
    "K4minus": (F(1, 8), 0, F(1, 4), F(1, 2), F(1, 8)),
}


def test_criterion_01_builtin_table(capsys):
    started = time.perf_counter()
    rc = cli_main(["cutstat", "--builtin", "--format", "json"])
    out = capsys.readouterr().out
    rows = {r["name"]: r for r in json.loads(out)}
    ok = rc == 0 and set(rows) == set(PAPER_TABLE)
    cells = 0
    for name, expected in PAPER_TABLE.items():
        got = [F(x) for x in rows[name]["q"]]
        got += [F(0)] * (5 - len(got))
        for a, b in zip(got, expected):
            ok = ok and a == b
            cells += 1
    elapsed = time.perf_counter() - started
    ok = ok and cells == 30 and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"builtin cut table matches all {cells} entries "
                      f"({elapsed:.2f}s < 1s)")


def test_criterion_02_oracle_equivalence(capsys):
    started = time.perf_counter()
    ok = True
    classes = enumerate_unlabeled(7)
    for g in classes:
        ok = ok and cut_distribution_blocks(g) == cut_distribution_bruteforce(g)
    rng = random.Random(20260815)
    densities = [F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
    for i in range(500):
        g = random_graph(12, densities[i % len(densities)], rng)
        ok = ok and cut_distribution_blocks(g) == cut_distribution_bruteforce(g)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(2, ok, f"block = brute force on {len(classes)} classes "
                      f"+ 500 random 12-vertex graphs ({elapsed:.1f}s < 60s)")


def test_criterion_03_primary_spectrum(capsys):
    started = time.perf_counter()
    expected_tight = set()
    for g in enumerate_unlabeled(7):
        if g.edge_count in (1, 2):
            expected_tight.add(canonical_key(g))
        elif g.edge_count == 4 and g.is_forest():
            expected_tight.add(canonical_key(g))
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    k4m = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    expected_tight |= {canonical_key(tri), canonical_key(k4m)}
    ok = len(expected_tight) == 12
    found_tight = set()
    for g in enumerate_unlabeled(7):
        if g.edge_count == 0:
            continue
        lam = eval_lambda1_uniform(g)
        ok = ok and lam >= LAMBDA_MIN_UNIFORM
        if lam == LAMBDA_MIN_UNIFORM:
            found_tight.add(canonical_key(g))
        else:
            ok = ok and lam >= LAMBDA_MIN_UNIFORM + GAP_UNIFORM
    ok = ok and found_tight == expected_tight
    ok = ok and case_constant(5) == F(-41, 448)
    ok = ok and case_constant(6) == F(-23, 448)
    ok = ok and case_constant(7) == F(-13, 512)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(3, ok, "primary spectrum >= -1/7, tight on the 12 expected "
                      f"classes, gap 1/56, case constants exact "
                      f"({elapsed:.1f}s < 60s)")


def test_criterion_04_combined_spectrum(capsys):
    expected_tight = set()
    for g in enumerate_unlabeled(3):
        if g.edge_count >= 1:
            expected_tight.add(canonical_key(g))
    two_forest = Graph.from_edges(4, [(0, 1), (2, 3)])
    expected_tight.add(canonical_key(two_forest))
    ok = len(expected_tight) == 4
    found = set()
    for g in enumerate_unlabeled(7):
        if g.edge_count == 0:
            continue
        lam = eval_lambda_combined(g)
        if lam == LAMBDA_MIN_UNIFORM:
            found.add(canonical_key(g))
        else:
            ok = ok and lam >= LAMBDA_MIN_UNIFORM + GAP_COMBINED
    ok = ok and found == expected_tight
    forest4_val = eval_lambda_combined(Graph.from_edges(5, [(0, 1), (1, 2),
                                                            (2, 3), (3, 4)]))
    k4m = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    k4m_val = eval_lambda_combined(k4m)
    ok = ok and forest4_val == F(-1, 7) + F(1, 952)
    ok = ok and k4m_val == F(-1, 7) + F(1, 476)
    with capsys.disabled():
        report(4, ok, "combined spectrum tight exactly on K3 subgraphs + "
                      "2-forest, gap 1/952, 4-forest and K4- values exact")


def test_criterion_05_hoffman_machinery(capsys):
    ok = hoffman_bound(F(-1, 7)).nu == F(1, 8)
    for p in (F(1, 4), F(1, 3), F(3, 8), F(1, 2)):
        ok = ok and hoffman_bound(lambda_min_skew(p)).nu == p ** 3
    audit = hoffman_audit(umvirate(4, triangle_masks(4)[0]))
    ok = ok and audit["quadratic_form"] == 0 and audit["mu"] == F(1, 8)
    with capsys.disabled():
        report(5, ok, "nu(-1/7) = 1/8, nu(-p^3/(1-p^3)) = p^3 at four "
                      "biases, umvirate quadratic form 0 with mu = 1/8")


def test_criterion_06_extremal_search(capsys):
    started = time.perf_counter()
    alpha, sets = maximum_independent_sets(agreement_cayley(4))
    found = {frozenset(s) for s in sets}
    expected = {frozenset(junta(4, t, s).masks)
                for t in triangle_masks(4) for s in submasks(t)}
    elapsed = time.perf_counter() - started
    ok = alpha == 8 and len(found) == 32 and found == expected
    ok = ok and elapsed < 300.0
    with capsys.disabled():
        report(6, ok, f"alpha = 8 with the 32 triangle juntas as the exact "
                      f"maximum sets ({elapsed:.1f}s < 300s)")


def test_criterion_07_skew_certificates(capsys):
    rep_main = verify_skew_cases(TAU, F(1, 2))
    ok = rep_main.ok
    ok = ok and len(rep_main.certificates) == 51
    ok = ok and all(c.status == "pass" for c in rep_main.certificates)
    rep_low = verify_skew_cases(F(6, 25), TAU)
    ok = ok and rep_low.failing() == ["certificate:odd:3-forest"]
    broken = [c for c in rep_low.certificates if c.status == "fail"]
    ok = ok and len(broken) == 1 and broken[0].failure_bracket is not None
    x1, x2, s1, s2 = broken[0].failure_bracket
    ok = ok and F(6, 25) <= x1 < x2 <= TAU and s1 * s2 < 0
    ok = ok and skew_coefficients(F(1, 2)) == (F(-5, 7), F(-1, 7), F(3, 28))
    solved_half = solve_coefficients(F(1, 2))
    ok = ok and solved_half.lower == solved_half.upper == F(3, 7)
    solved_skew = solve_coefficients(F(3, 8))
    ok = ok and solved_skew.lower < solved_skew.upper
    with capsys.disabled():
        report(7, ok, "51/51 Sturm certificates pass on [31/125, 1/2]; "
                      "3-forest fails with a sign bracket inside "
                      "[6/25, 31/125]; coefficient pinch 3/7 at p = 1/2")


def test_criterion_08_small_bias_suite(capsys):
    rep = verify_smallp()
    ids = {c.claim_id: c.ok for c in rep.checks}
    ok = rep.ok
    for required in ("g(0)=1", "g(1/4)=0", "certificate:smallp:g-decreasing"):
        ok = ok and ids.get(required, False)
    for tag in ("1/8", "1/5", "31/125"):
        sampled = [v for k, v in ids.items() if k.startswith(f"sample:p={tag}")]
        ok = ok and sampled and all(sampled)
    brackets = [v for k, v in ids.items()
                if k.startswith("certificate:smallp:even-bracket-")
                or k.startswith("certificate:smallp:odd-decay-")]
    ok = ok and len(brackets) == 96 and all(brackets)
    with capsys.disabled():
        report(8, ok, "g pinned at 0 and 1/4 with monotonicity certificate; "
                      "size <= 100 bullets verified at three biases")


def test_criterion_09_tensor_exhaustive(capsys):
    p = F(1, 3)
    ratio = -p / (1 - p)
    # psi_S on a graph sharing k edges with S: (-1/p)^k (1/(1-p))^(|S|-k)
    chars = [[(-1 / p) ** (s & m).bit_count() / (1 - p) ** (s & ~m).bit_count()
              for m in range(8)] for s in range(8)]
    ok = True
    for b in range(8):
        if not Graph(3, b).is_bipartite():
            continue
        op = TensorOperator(3, p, b)
        off = 7 & ~b
        for g in range(8):
            for h in range(8):
                entry = op.entry(g, h)
                if g & h & off:
                    ok = ok and entry == 0
            lam = ratio ** (g & off).bit_count()
            ok = ok and op.eigenvalue(g) == lam
            ok = ok and op.apply(chars[g]) == [x * lam for x in chars[g]]
    with capsys.disabled():
        report(9, ok, "zero pattern and eigenvalue law exact for all "
                      "bipartite shifts and all 64 pairs on K3 at p = 1/3")


def test_criterion_10_schur_suite(capsys):
    started = time.perf_counter()
    rep = verify_oldc_claims()
    elapsed = time.perf_counter() - started
    ids = {c.claim_id: c.ok for c in rep.checks}
    ok = rep.ok and elapsed < 0.1
    for required in ("lambda1:tight-set-structural",
                     "7set:distribution=1/8+7/8x^4",
                     "n2:max-agreeing-measure-1/8"):
        ok = ok and ids.get(required, False)
    for mask in range(1, 1 << 10):
        g = Graph(5, mask)
        ok = ok and (cut_distribution_bruteforce(g) ==
                     lift_graph(g).cut_distribution())
    with capsys.disabled():
        report(10, ok, f"exhaustive dimension-4 campaign green ({elapsed:.3f}s < 0.1s); "
                       "7-set law 1/8 + (7/8)X^4; lift consistency on all "
                       "1023 5-vertex graphs; dimension-2 maximum 1/8")


def test_criterion_11_compression(capsys):
    rng = random.Random(20260815)
    tris = triangle_masks(4)
    ok = True
    for _ in range(1000):
        t = tris[rng.randrange(len(tris))]
        s = t & rng.randrange(64)
        base = sorted(junta(4, t, s).masks)
        members = [m for m in base if rng.random() < 0.7] or base[:1]
        t2 = tris[rng.randrange(len(tris))]
        extra = sorted(junta(4, t2, t2 & rng.randrange(64)).masks)
        candidate = Family(4, members + [m for m in extra if rng.random() < 0.4])
        fam = candidate if is_triangle_agreeing(candidate) else Family(4, members)
        assert is_triangle_agreeing(fam)
        mono = monotonize(fam)
        ok = ok and mono.size == fam.size
        ok = ok and is_upset(mono)
        ok = ok and is_triangle_intersecting(mono)
    with capsys.disabled():
        report(11, ok, "monotonization of 1000 seeded agreeing families "
                       "preserves cardinality and yields intersecting "
                       "up-sets")
