"""Benchmark of the occ command line: closed-loop campaign workloads.

    python3 perfbench/run.py --workload census|cube|bigcuts --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  Every occ command of a workload runs in
a fresh child process, one at a time, exactly as a user runs it, so lazily
built caches are paid on every command.  A pass runs the workload's commands
once; passes repeat until --seconds have elapsed.  Every output is checked,
and the last line of standard output is one JSON object with the result.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 reports the per-layer metrics: it alternates untraced passes with
passes whose commands run under perfbench/tracer.py.

Inputs, outputs of the children, traces and a results file go under
.perfbench_work/ in the checkout.  See perfbench/README.md for why each
workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

from inputs import bigcuts_graphs
from tracer import LAYERS

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
RUN_LIMIT_S = 170.0      # a run must end within 180 s; keep a margin
SETUP_SAMPLES = 2        # interpreter set-ups timed before each pass ...
SETUP_MIN = 9            # ... and at the end, until a run has at least this many
OVERRUN = 1.25           # a pass may end at most this share of --seconds in
ABSENT = -1              # value of a metric whose function no longer exists

# The one claim expected to fail: below tau = 31/125 the 3-forest case
# genuinely violates the skew bound, and its certificate must bracket the
# sign change inside the requested interval.
LOW_LO, LOW_HI = Fraction(6, 25), Fraction(31, 125)
LOW_FAILURE = "certificate:odd:3-forest"


class Command(NamedTuple):
    name: str                        # also names the cli.<name>_s metric
    argv: list[str]
    expect_rc: int
    check: Callable[[object], list[str]]


class Child(NamedTuple):
    wall: float
    rc: int
    stdout: bytes
    stderr: bytes
    rss_mb: float


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------


def campaign_check(seed: int | None = None, expect_fail: tuple[str, ...] = ()):
    def check(out) -> list[str]:
        rep = out.get("report") if isinstance(out, dict) else None
        if not isinstance(rep, dict) or not rep.get("checks"):
            return ["not a campaign report with claims"]
        problems = []
        failing = sorted(c["claim_id"] for c in rep["checks"] if not c["ok"])
        if failing != sorted(expect_fail):
            problems.append(f"failing claims {failing}, expected {sorted(expect_fail)}")
        if out["ok"] is not (not failing) or rep["ok"] is not (not failing):
            problems.append("ok flag disagrees with the claims")
        want = sorted(f.split(":", 1)[1] for f in expect_fail if f.startswith("certificate:"))
        bad = sorted(c["case_id"] for c in rep["certificates"] if c["status"] != "pass")
        if bad != want:
            problems.append(f"failing certificates {bad}, expected {want}")
        if seed is not None and out.get("seed") != seed:
            problems.append(f"seed {out.get('seed')} reported, {seed} given")
        return problems
    return check


def skew_low_check(out) -> list[str]:
    problems = campaign_check(expect_fail=(LOW_FAILURE,))(out)
    if problems:
        return problems
    case = LOW_FAILURE.split(":", 1)[1]
    cert = next(c for c in out["report"]["certificates"] if c["case_id"] == case)
    lo, hi = (Fraction(x) for x in cert["failure_bracket"]["interval"])
    s1, s2 = cert["failure_bracket"]["signs"]
    if not LOW_LO <= lo < hi <= LOW_HI:
        problems.append(f"failure bracket [{lo}, {hi}] outside [{LOW_LO}, {LOW_HI}]")
    if s1 * s2 > 0:
        problems.append("failure bracket shows no sign change")
    return problems


def bound_check_n5(out) -> list[str]:
    problems = []
    if (out["n"], out["lambda_min"], out["nu"], out["family_size_bound"]) != (5, "-1/7", "1/8", "128"):
        problems.append("n = 5 bound is not lambda_min = -1/7, nu = 1/8, 2^10 nu = 128")
    audits = out["umvirate_audits"]
    if len(audits) != comb(5, 3):
        problems.append(f"{len(audits)} umvirate audits, expected {comb(5, 3)}")
    if not all(a["ok"] and a["mu"] == a["nu"] == "1/8" and a["quadratic_form"] == "0"
               for a in audits):
        problems.append("an umvirate audit is not tight at mu = nu = 1/8")
    return problems


def max_independent(out) -> list[str]:
    sets = [tuple(s) for s in out["sets"]]
    if out["alpha"] != 8 or out["maximum_sets"] != 32:
        return [f"alpha {out['alpha']} with {out['maximum_sets']} maximum sets, expected 8 and 32"]
    if len(set(sets)) != 32 or any(len(s) != 8 for s in sets):
        return ["the listed maximum sets are not 32 distinct sets of size 8"]
    return []


def _block_law(cycles: list[int], bridges: int) -> list[Fraction]:
    """Cut-size law of a graph whose blocks are these cycles and bridges: the
    product of the cycle laws C(L, k) / 2^(L-1) over even k and of (1 + X)/2."""
    law = [Fraction(1)]
    factors = [[Fraction(comb(n, k) if k % 2 == 0 else 0, 2 ** (n - 1)) for k in range(n + 1)]
               for n in cycles] + [[Fraction(1, 2), Fraction(1, 2)]] * bridges
    for f in factors:
        out = [Fraction(0)] * (len(law) + len(f) - 1)
        for i, a in enumerate(law):
            for j, b in enumerate(f):
                out[i + j] += a * b
        law = out
    return law


def cutstat_check(graphs: list[dict]):
    def check(rows) -> list[str]:
        if not isinstance(rows, list) or len(rows) != len(graphs):
            return [f"expected {len(graphs)} rows"]
        problems = []
        for row, g in zip(rows, graphs):
            tag = g["graph6"]
            if (row["name"], row["graph6"], row["vertices"], row["edges"]) != (
                    tag, tag, g["vertices"], g["edges"]):
                problems.append(f"{tag}: row does not describe the input graph")
                continue
            q = [Fraction(x) for x in row["q"]]
            if sum(q) != 1:
                problems.append(f"{tag}: sum of q is not 1")
            if sum(k * p for k, p in enumerate(q)) != Fraction(g["edges"], 2):
                problems.append(f"{tag}: mean cut size is not e/2")
            if Fraction(row["lambda1"]) < Fraction(-1, 7):
                problems.append(f"{tag}: lambda1 below -1/7")
            if g["blocks"] is not None:
                law = _block_law(*g["blocks"])
                width = max(len(law), len(q))
                if law + [0] * (width - len(law)) != q + [0] * (width - len(q)):
                    problems.append(f"{tag}: cut law differs from the product over its blocks")
        return problems
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def census(seed: int) -> list[Command]:
    return [
        Command("verify_uniform", ["verify", "uniform"], 0, campaign_check()),
        Command("verify_skew", ["verify", "skew"], 0, campaign_check()),
        Command("verify_skew_low",
                ["verify", "skew", "--plo", str(LOW_LO), "--phi", str(LOW_HI)], 1, skew_low_check),
        Command("verify_smallp", ["verify", "smallp"], 0, campaign_check()),
        Command("verify_schur", ["verify", "schur", "--seed", str(seed)], 0, campaign_check(seed)),
    ]


def cube(seed: int) -> list[Command]:
    return [
        Command("verify_families", ["verify", "families", "--seed", str(seed)], 0,
                campaign_check(seed)),
        Command("bound_check_n5", ["families", "bound-check", "--n", "5"], 0, bound_check_n5),
        Command("max_independent", ["families", "max-independent", "--seed", str(seed)], 0,
                max_independent),
    ]


def bigcuts(seed: int) -> list[Command]:
    graphs = bigcuts_graphs(seed)
    path = WORK / f"bigcuts-{seed}.g6"
    path.write_text("".join(g["graph6"] + "\n" for g in graphs), encoding="ascii")
    return [Command("cutstat", ["cutstat", str(path.relative_to(ROOT))], 0,
                    cutstat_check(graphs))]


# workload -> (commands, layers that must register calls in a traced pass)
WORKLOADS = {
    "census": (census, ("graph", "cutstats", "spectra", "exact", "schur", "cli")),
    "cube": (cube, ("hypercube", "families", "cli")),
    "bigcuts": (bigcuts, ("cutstats", "graph", "spectra", "cli")),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env.pop("OCC_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, deadline: float) -> Child:
    """Run one child to its end; wall time is from spawn to exit, and max RSS
    is that child's own (wait4), not the cumulative RUSAGE_CHILDREN."""
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 usage.ru_maxrss / 1024)


def digest(out) -> str:
    """Digest of an output, ignoring its run time and any metrics block."""
    if isinstance(out, dict):
        out = {k: v for k, v in out.items() if k not in ("runtime_seconds", "metrics")}
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


class References:
    """What the first pass made with a seed produced, per program version:
    output digests by command, and the traced counters."""

    def __init__(self, workload: str, seed: int):
        tree = hashlib.sha256()
        for p in sorted(SRC.rglob("*.py")):
            tree.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
        self.path = WORK / "refs" / f"{workload}-{seed}-{tree.hexdigest()[:16]}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.added = False

    def same(self, key: str, value) -> bool:
        if key not in self.known:
            self.known[key] = value
            self.added = True
        return self.known[key] == value

    def save(self) -> None:
        if self.added:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, sort_keys=True))
            os.replace(tmp, self.path)


class Bench:
    """One run: invokes commands, checks their outputs and counts failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.refs = References(workload, seed)
        self.trace_dir = WORK / "trace" / f"{workload}-{seed}"
        self.attempted = self.failed = self.run_id = 0
        self.problems: list[str] = []

    def time_left(self, needed: float) -> bool:
        return time.monotonic() + needed < self.deadline

    def invoke(self, cmd: Command, traced: bool = False, extra_env: dict | None = None):
        """Run one occ command; return (child, trace summary or None)."""
        argv = cmd.argv + ["--format", "json"]
        env = child_env(extra_env)
        summary = None
        if traced:
            self.run_id += 1
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            summary = self.trace_dir / f"{cmd.name}.json"
            summary.unlink(missing_ok=True)
            env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
            argv = [PY, str(PERFBENCH / "tracer.py"), str(summary), str(self.run_id), "--", *argv]
        else:
            argv = [PY, "-m", "occlib.cli", *argv]
        child = spawn(argv, env, self.deadline)
        problems = self.judge(cmd, child)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.name}: " + "; ".join(problems))
        trace = json.loads(summary.read_text()) if summary and summary.exists() else None
        return child, trace

    def judge(self, cmd: Command, child: Child) -> list[str]:
        if child.rc != cmd.expect_rc:
            err = child.stderr.decode(errors="replace").strip()[-300:]
            return [f"exit code {child.rc}, expected {cmd.expect_rc}: {err}"]
        try:
            out = json.loads(child.stdout)
        except ValueError:
            return ["output is not JSON"]
        try:
            problems = cmd.check(out)
        except (KeyError, TypeError, ValueError, IndexError, StopIteration) as exc:
            problems = [f"malformed output: {exc!r}"]
        if not self.refs.same(cmd.name, digest(out)):
            problems.append("output differs from the first pass made with this seed")
        return problems

    def setup_sample(self) -> float:
        """Seconds from spawning the interpreter until occlib.cli is imported."""
        t0 = time.monotonic_ns()
        child = spawn([PY, "-c", "import time, occlib.cli; print(time.monotonic_ns())"],
                      child_env(), self.deadline)
        if child.rc != 0:
            raise SystemExit("perfbench: importing occlib.cli failed:\n"
                             + child.stderr.decode(errors="replace"))
        return (int(child.stdout) - t0) / 1e9

    def import_breakdown(self) -> tuple[float, float]:
        """(numpy, rest of occlib) import seconds, from -X importtime."""
        child = spawn([PY, "-X", "importtime", "-c", "import occlib.cli"], child_env(),
                      self.deadline)
        if child.rc != 0:
            raise SystemExit("perfbench: importing occlib.cli failed")
        occlib_us = numpy_us = 0
        for line in child.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            label = parts[2][1:]
            name = label.strip()
            if name.startswith("occlib") and label == name:   # top level
                occlib_us += int(parts[1])
            elif name == "numpy" and not numpy_us:
                numpy_us = int(parts[1])
        return numpy_us / 1e6, (occlib_us - numpy_us) / 1e6


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def another_pass(bench: Bench, start: float, seconds: int, last: float) -> bool:
    """Start another pass while --seconds are not used up, if one more pass
    (as long as the last) ends within OVERRUN * seconds and the run limit."""
    elapsed = time.monotonic() - start
    return (elapsed < seconds and elapsed + last <= OVERRUN * seconds
            and bench.time_left(2 * last))


def end_to_end(bench: Bench, cmds: list[Command], seconds: int) -> tuple[dict, dict]:
    setup, walls, rss, per_cmd = [], [], 0.0, {c.name: [] for c in cmds}
    start = time.monotonic()
    while True:
        setup += [bench.setup_sample() for _ in range(SETUP_SAMPLES)]
        wall = 0.0
        for cmd in cmds:
            child, _ = bench.invoke(cmd)
            wall += child.wall
            rss = max(rss, child.rss_mb)
            per_cmd[cmd.name].append(child.wall)
        walls.append(wall)
        if not another_pass(bench, start, seconds, wall):
            break
    setup += [bench.setup_sample() for _ in range(max(SETUP_SAMPLES, SETUP_MIN - len(setup)))]
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
              "peak_rss_mb": rss}
    detail = {"passes": len(walls), "pass_walls_s": walls, "setup_samples_s": setup,
              "command_walls_s": per_cmd}
    return values, detail


def per_layer(bench: Bench, cmds: list[Command], seconds: int, names: list[str],
              expected_layers: tuple[str, ...]) -> tuple[dict, dict]:
    plain, traced, imports, passes = [], [], [], []
    per_cmd = {c.name: [] for c in cmds}
    start = time.monotonic()
    while True:
        # each command runs untraced and then traced, back to back, so that
        # drift in the machine's speed hits both sides of the overhead
        imports.append(bench.import_breakdown())
        plain_wall = traced_wall = 0.0
        traces = {}
        for cmd in cmds:
            child, _ = bench.invoke(cmd)
            plain_wall += child.wall
            per_cmd[cmd.name].append(child.wall)
            child, traces[cmd.name] = bench.invoke(cmd, traced=True)
            traced_wall += child.wall
        plain.append(plain_wall)
        traced.append(traced_wall)
        passes.append((traced_wall, traces))
        if not another_pass(bench, start, seconds, plain_wall + traced_wall):
            break
    imports.append(bench.import_breakdown())

    pool_speedup = 0.0
    if bench.workload == "census":
        # OCC_WORKERS rather than --workers keeps the command line valid if
        # the pool is removed; serial and pooled runs go back to back.
        uniform = next(c for c in cmds if c.name == "verify_uniform")
        pooled, _ = bench.invoke(uniform, extra_env={"OCC_WORKERS": "2"})
        serial, _ = bench.invoke(uniform)
        pool_speedup = serial.wall / pooled.wall

    layers = [aggregate(traces) for _, traces in passes]
    if any(lay is None for lay in layers):
        raise SystemExit("perfbench: a traced command wrote no trace summary")
    counters = [lay["counts"] for lay in layers]
    if any(c != counters[0] for c in counters) or not bench.refs.same("counters", counters[0]):
        raise SystemExit("perfbench: traced counters differ between passes with the same seed")
    silent = [layer for layer in expected_layers if not layers[0]["layer_calls"].get(layer)]
    if silent:
        raise SystemExit(f"perfbench: layers {silent} registered no call on {bench.workload}")

    values = {}
    for name in names:
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            values[name] = statistics.median(lay["self_s"].get(layer, ABSENT) for lay in layers)
        elif name in counters[0]:
            values[name] = counters[0][name]
        elif layer == "cli" and rest.endswith("_s"):
            values[name] = statistics.median(per_cmd.get(rest[:-2]) or [0.0])
        elif name in layers[0]["times"]:
            values[name] = statistics.median(lay["times"][name] for lay in layers)
        elif name == "setup.numpy_import_s":
            values[name] = statistics.median(n for n, _ in imports)
        elif name == "setup.occlib_import_s":
            values[name] = statistics.median(o for _, o in imports)
        elif name == "trace.overhead_frac":
            values[name] = statistics.median(traced) / statistics.median(plain) - 1
        elif name == "trace.unattributed_frac":
            values[name] = statistics.median(1 - lay["attributed_s"] / wall
                                             for (wall, _), lay in zip(passes, layers))
        elif name == "parallel.pool2_speedup":
            values[name] = pool_speedup
        else:
            raise SystemExit(f"perfbench: no rule computes the per-layer metric {name!r}")
    detail = {"plain_pass_walls_s": plain, "traced_pass_walls_s": traced,
              "command_walls_s": per_cmd, "absent": layers[0]["absent"],
              "layer_self_s": layers[0]["self_s"], "trace_dir": str(bench.trace_dir)}
    return values, detail


def aggregate(traces: dict) -> dict | None:
    """Sum the tracer summaries of one pass into per-layer figures."""
    if any(t is None for t in traces.values()):
        return None
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    hits = misses = 0
    attributed = 0.0
    for t in traces.values():
        for n, c in t["calls"].items():
            calls[n] = calls.get(n, 0) + c
        for n, ns in t["incl_ns"].items():
            incl[n] = incl.get(n, 0.0) + ns / 1e9
        for layer, ns in t["self_ns"].items():
            self_s[layer] = self_s.get(layer, 0.0) + ns / 1e9
        for n, c in t["counters"].items():
            counters[n] = counters.get(n, 0) + c
        h, m = t.get("cache", {}).get("graph.canonical_form", (0, 0))
        hits, misses = hits + h, misses + m
        attributed += (sum(t["self_ns"].values()) + t["setup_ns"] + t["trace_ns"]) / 1e9

    def total(*names):
        present = [n for n in names if n in calls]
        return sum(calls[n] for n in present) if present else ABSENT

    def needs(value, *names):
        return value if any(n in calls for n in names) else ABSENT

    walsh = ("hypercube.FunctionOnCube.walsh", "hypercube.FunctionOnCube.inverse_walsh")
    evals = [n for n in calls if n.startswith("spectra.eval_lambda")] + ["spectra.Spectrum.value"]
    counts = {
        "graph.canonical_form.calls": total("graph.canonical_form"),
        "graph.canonical_form.hit_ratio": needs(hits / (hits + misses) if hits + misses else 0.0,
                                                "graph.canonical_form"),
        "cutstats.cut_profile.calls": total("cutstats.cut_profile"),
        "cutstats.colorings": needs(counters.get("cutstats.colorings", 0), "cutstats.cut_profile"),
        "spectra.evals": total(*evals),
        "exact.certificates": needs(counters.get("exact.certificates", 0), "exact.certify_sign"),
        "exact.certificates_failed": needs(counters.get("exact.certificates_failed", 0),
                                           "exact.certify_sign"),
        "exact.sturm_degree_sum": needs(counters.get("exact.sturm_degree_sum", 0),
                                        "exact.sturm_chain"),
        "hypercube.walsh.calls": total(*walsh),
        "hypercube.butterfly_updates": needs(counters.get("hypercube.butterfly_updates", 0),
                                             *walsh),
        "families.hoffman_audits": total("families.hoffman_audit"),
    }
    inclusive = {"graph.catalogue_s": "graph.enumerate_unlabeled",
                 "families.mis_s": "families.maximum_independent_sets"}
    times = {m: incl[n] if n in calls else ABSENT for m, n in inclusive.items()}
    sources = {"graph.canonical_form", "cutstats.cut_profile", "spectra.Spectrum.value",
               "exact.certify_sign", "exact.sturm_chain", "families.hoffman_audit", *walsh,
               *inclusive.values()}
    layer_calls: dict[str, int] = {}
    for n, c in calls.items():
        layer = n.split(".", 1)[0]
        layer_calls[layer] = layer_calls.get(layer, 0) + c
    absent_layers = set().union(*(t["layers_absent"] for t in traces.values()))
    for layer in LAYERS:
        self_s[layer] = ABSENT if layer in absent_layers else self_s.get(layer, 0.0)
    return {"counts": counts, "times": times, "self_s": self_s, "layer_calls": layer_calls,
            "attributed_s": attributed, "absent": sorted(n for n in sources if n not in calls)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # stopped from outside: unwind, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "occlib" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no occlib sources under {SRC} or no {spec_path.name}; "
              "run from the root of an occlib checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    build = subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], capture_output=True)
    if build.returncode != 0:
        print("perfbench: compiling the sources failed:\n" + build.stdout.decode(), file=sys.stderr)
        return 2

    make_cmds, expected_layers = WORKLOADS[args.workload]
    bench = Bench(args.workload, args.seed)
    cmds = make_cmds(args.seed)
    if args.trace:
        values, detail = per_layer(bench, cmds, args.seconds, [m["name"] for m in wanted],
                                   expected_layers)
    else:
        values, detail = end_to_end(bench, cmds, args.seconds)
    if bench.failed == 0:
        bench.refs.save()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    wrong_frac = bench.failed / bench.attempted
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": bench.attempted, "failed": bench.failed,
               "wrong_frac": wrong_frac, "problems": bench.problems, "metrics": metrics,
               "detail": detail}
    results_path = WORK / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"results {results_path.relative_to(ROOT)}")
    for problem in bench.problems:
        print(f"WRONG {problem}")
    for name in detail.get("absent", []):
        print(f"absent: {name} (metrics that need it read {ABSENT})")
    print(f"  wrong_frac = {wrong_frac} frac ({bench.failed} of {bench.attempted} invocations)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
