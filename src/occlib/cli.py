"""Command line front end: cut tables for graphs, the verification
campaigns, family searches, and the measure bound calculator.

Exit codes: 0 when every requested claim holds, 1 when a verification
campaign reports a failing claim, 2 for usage or input errors.  All rational
output is exact, rendered as num/den.  Each command builds its JSON payload,
CSV rows and text lines, and `_write` alone turns the one --format asks for
into output, to --out FILE or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .cutstats import builtin_table, cut_stats
from .exact import frac_str
from .families import (
    Family,
    agreement_cayley,
    hoffman_audit,
    is_triangle_intersecting,
    maximum_independent_sets,
    triangle_masks,
    umvirate,
    verify_family_claims,
)
from .graph import Graph, parse_graph6, write_graph6
from .schur import verify_oldc_claims
from .spectra import (
    TAU,
    Spectrum,
    combined_lambda_min,
    hoffman_bound,
    verify_cut_lemmas,
    verify_skew_cases,
    verify_smallp,
    verify_uniform_claims,
)

__all__ = ["build_parser", "main"]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _write(args, payload, csv_rows, text_lines) -> None:
    """Write a command's output in its --format to --out or stdout: the
    payload as indented JSON, the rows through a csv writer, or the text
    lines, each ended by a newline."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_campaign(args, argv, report, seed, started) -> int:
    payload = {
        "campaign": report.name,
        "command": "occ " + " ".join(argv),
        "version": __version__,
        "seed": seed,
        "ok": report.ok,
        "report": report.to_json_dict(),
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    rows = [["claim_id", "ok", "detail"]]
    lines = [f"campaign {report.name} (occlib {__version__})"]
    for check in report.checks:
        rows.append([check.claim_id, "pass" if check.ok else "fail", check.detail])
        suffix = f"  {check.detail}" if check.detail else ""
        lines.append(f"{'PASS' if check.ok else 'FAIL'} {check.claim_id}{suffix}")
    certs = report.certificates
    if certs:
        lines.append(f"certificates: {sum(c.passed for c in certs)}/{len(certs)} pass")
    lines.append(f"result: {'PASS' if report.ok else 'FAIL'} ({len(report.checks)} checks)")
    lines.append(f"runtime: {payload['runtime_seconds']}s")
    _write(args, payload, rows, lines)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# cutstat
# ---------------------------------------------------------------------------


def _cutstat_rows(args) -> list[dict]:
    if args.builtin:
        return [_cutstat_row(name, g) for name, g in builtin_table()]
    lines: list[str] = []
    if args.files:
        for path in args.files:
            with open(path, encoding="ascii") as fh:
                lines.extend(fh.read().split())
    else:
        lines.extend(sys.stdin.read().split())
    if not lines:
        # no input is an input error, not an empty table that looks like success
        raise ValueError("no graph6 input")
    return [_cutstat_row(token, parse_graph6(token)) for token in lines]


def _cutstat_row(name: str, g: Graph) -> dict:
    stats = cut_stats(g)
    return {
        "name": name,
        "graph6": write_graph6(g),
        "vertices": g.v,
        "edges": g.edge_count,
        "q": [frac_str(p) for p in stats.distribution()],
        "lambda1": frac_str(Spectrum.uniform1().value(stats)),
        "lambda2": frac_str(Spectrum.uniform2().value(stats)),
        "combined": frac_str(Spectrum.combined().value(stats)),
    }


def cmd_cutstat(args, argv) -> int:
    rows = _cutstat_rows(args)
    csv_rows = [["name", "graph6", "vertices", "edges", "q", "lambda1", "lambda2", "combined"]]
    csv_rows += [[r["name"], r["graph6"], r["vertices"], r["edges"], " ".join(r["q"]),
                  r["lambda1"], r["lambda2"], r["combined"]] for r in rows]
    lines = [f"{r['name']}  {r['graph6']}  v={r['vertices']} e={r['edges']}  "
             f"q=[{', '.join(r['q'])}]  l1={r['lambda1']} l2={r['lambda2']} lc={r['combined']}"
             for r in rows]
    _write(args, rows, csv_rows, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# The options of `occ verify` that each campaign reads, with the value each
# takes when it is not given.  Any other one given is a usage error: it would
# read as a claim verified under a setting the campaign never used.
VERIFY_READS = {"uniform": {}, "smallp": {}, "lemmas": {},
                "skew": {"plo": TAU, "phi": Fraction(1, 2)}, "schur": {"seed": 20260815},
                "families": {"seed": 20260815, "campaign_size": 1000}}


def cmd_verify(args, argv) -> int:
    started = time.perf_counter()
    if args.claims == "schur":
        report = verify_oldc_claims(seed=args.seed)
    elif args.claims == "families":
        report = verify_family_claims(seed=args.seed, campaign_size=args.campaign_size)
    elif args.claims == "skew":
        report = verify_skew_cases(args.plo, args.phi)
    else:
        report = {"uniform": verify_uniform_claims, "smallp": verify_smallp,
                  "lemmas": verify_cut_lemmas}[args.claims]()
    # the deterministic campaigns read no seed and report seed null
    return _finish_campaign(args, argv, report, args.seed, started)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def cmd_families(args, argv) -> int:
    if args.action == "max-independent":
        adj = agreement_cayley(4)
        alpha, sets = maximum_independent_sets(adj, seed=args.seed)
        fams = [Family(4, s) for s in sets]
        intersecting = sum(1 for f in fams if is_triangle_intersecting(f))
        payload = {
            "alpha": alpha,
            "maximum_sets": len(sets),
            "triangle_intersecting": intersecting,
            "sets": [sorted(s) for s in sets],
        }
        ok = True
    else:  # bound-check
        n = args.n
        lam_min = combined_lambda_min(n)
        bound = hoffman_bound(lam_min)
        audits = [hoffman_audit(umvirate(n, t)) for t in triangle_masks(n)]
        dim = n * (n - 1) // 2
        payload = {
            "n": n,
            "lambda_min": frac_str(lam_min),
            "nu": frac_str(bound.nu),
            "family_size_bound": str(2 ** dim * bound.nu),
            "umvirate_audits": [
                {k: (frac_str(v) if isinstance(v, Fraction) else v)
                 for k, v in audit.items()}
                for audit in audits
            ],
        }
        ok = all(a["ok"] and a["mu"] == a["nu"] == bound.nu for a in audits)
    rows = [[k, json.dumps(v) if isinstance(v, (list, dict)) else v]
            for k, v in payload.items()]
    lines = []
    for k, v in payload.items():
        if isinstance(v, list):
            lines.append(f"{k}:")
            lines.extend("  " + (" ".join(map(str, item)) if k == "sets" else json.dumps(item))
                         for item in v)
        else:
            lines.append(f"{k}: {v}")
    _write(args, payload, rows, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# hoffman
# ---------------------------------------------------------------------------


def cmd_hoffman(args, argv) -> int:
    payload = hoffman_bound(args.lambda_min, args.gap).to_json_dict()
    _write(args, payload, [list(payload), list(payload.values())],
           [f"{k}: {v}" for k, v in payload.items()])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occ",
        description="Exact verification of cut-statistic spectra and "
                    "intersecting-family bounds.",
    )
    parser.add_argument("--version", action="version",
                        version=f"occlib {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format")
    common.add_argument("--out", metavar="FILE",
                        help="write output to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cutstat", parents=[common],
                       help="exact cut-size distributions and eigenvalues")
    p.add_argument("--builtin", action="store_true",
                   help="print the table of named reference graphs")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="files of graph6 strings (default: stdin)")
    p.set_defaults(func=cmd_cutstat)

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification campaign")
    p.add_argument("claims",
                   choices=("uniform", "skew", "smallp", "schur", "families", "lemmas"))
    p.add_argument("--plo", type=parse_rational,
                   help="lower endpoint for the skew campaign (default 31/125)")
    p.add_argument("--phi", type=parse_rational,
                   help="upper endpoint for the skew campaign (default 1/2)")
    p.add_argument("--seed", type=int,
                   help="seed of the schur and families campaigns (default 20260815)")
    p.add_argument("--campaign-size", type=positive_int,
                   help="random-family sample size for the families campaign (default 1000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("families", parents=[common],
                       help="independent-set search and measure-bound audits")
    p.add_argument("action", choices=("max-independent", "bound-check"))
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle the branching order of max-independent")
    p.add_argument("--n", type=int, choices=(4, 5, 6, 7), default=4,
                   help="vertex count for bound-check; max-independent searches K4 only")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("hoffman", parents=[common],
                       help="measure bound nu = -lambda/(1 - lambda)")
    p.add_argument("--lambda-min", dest="lambda_min", type=parse_rational,
                   required=True, metavar="NUM/DEN")
    p.add_argument("--gap", type=parse_rational, default=None, metavar="NUM/DEN",
                   help="secondary gap for the stability coefficient")
    p.set_defaults(func=cmd_hoffman)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        reads = VERIFY_READS[args.claims]
        for opt in ("plo", "phi", "seed", "campaign_size"):
            if opt not in reads and getattr(args, opt) is not None:
                parser.error(f"verify {args.claims} does not read --{opt.replace('_', '-')}")
            if getattr(args, opt) is None:
                setattr(args, opt, reads.get(opt))
        if args.claims == "skew" and not 0 < args.plo < args.phi <= Fraction(1, 2):
            parser.error("the skew interval needs 0 < --plo < --phi <= 1/2")
    if args.command == "families" and args.action == "bound-check" and args.seed is not None:
        parser.error("families bound-check does not read --seed")
    if args.command == "cutstat" and args.builtin and args.files:
        parser.error("--builtin prints the built-in table and takes no FILE")
    if args.command == "families" and args.action == "max-independent" and args.n != 4:
        parser.error("max-independent searches the agreement graph of K4 only: --n must be 4")
    try:
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        # malformed graph6 is a ValueError, a missing file an OSError
        print(f"occ: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
