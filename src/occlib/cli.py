"""Command line front end: cut tables for graphs, the verification
campaigns, family searches, and the measure bound calculator.

Exit codes: 0 when every requested claim holds, 1 when a verification
campaign reports a failing claim, 2 for usage or input errors.  All rational
output is exact, rendered as num/den.  Each command builds its JSON payload,
CSV rows and text lines, and `_write` alone turns the one --format asks for
into output, to --out FILE or stdout.

Each verify campaign and each families action has its own sub-parser, which
declares the options its runner reads, with their defaults, and binds the
runner; argparse refuses any other option, so a setting never reads as
verified when the command ignored it.  Options follow the campaign or
action name.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
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
    # A larger value, or one a report derives from it, can pass CPython's
    # 4300-digit limit on printing an int after the campaign has run.  A text
    # that long, or an exponent of 5 digits (Fraction spends seconds on
    # 1e-10000000), is refused before Fraction parses it.
    too_large = argparse.ArgumentTypeError(f"numerator or denominator above 10^1000: {text!r}")
    if len(text) > 4300 or len(text.lower().partition("e")[2].lstrip("+-0")) > 4:
        raise too_large
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if max(abs(value.numerator), value.denominator) > 10 ** 1000:
        raise too_large
    return value


def campaign_size(text: str) -> int:
    # a draw costs about ten microseconds (10^6 draws take 12 s on a 2-core
    # VM) and 10^9 would run for hours: a larger size is refused before any work
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    if value > 10 ** 6:
        raise argparse.ArgumentTypeError(f"campaign size above 10^6: {text!r}")
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


def cmd_verify(args, argv) -> int:
    started = time.perf_counter()
    report = args.campaign(args)
    payload = {
        "campaign": report.name,
        "command": "occ " + " ".join(argv),
        "version": __version__,
        # the deterministic campaigns read no seed and report seed null
        "seed": vars(args).get("seed"),
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
# families
# ---------------------------------------------------------------------------


def _write_fields(args, payload) -> None:
    """Write a payload of named fields: one csv row per field, a list or dict
    as JSON, and one text line per field, with the items of a list below it,
    a list item as its entries and any other item as JSON."""
    rows = [[k, json.dumps(v) if isinstance(v, (list, dict)) else v]
            for k, v in payload.items()]
    lines = []
    for k, v in payload.items():
        if isinstance(v, list):
            lines.append(f"{k}:")
            lines.extend("  " + (" ".join(map(str, item)) if isinstance(item, list)
                                 else json.dumps(item)) for item in v)
        else:
            lines.append(f"{k}: {v}")
    _write(args, payload, rows, lines)


def cmd_max_independent(args, argv) -> int:
    alpha, sets = maximum_independent_sets(agreement_cayley(4), seed=args.seed)
    _write_fields(args, {
        "alpha": alpha,
        "maximum_sets": len(sets),
        "triangle_intersecting": sum(is_triangle_intersecting(Family(4, s)) for s in sets),
        "sets": [sorted(s) for s in sets],
    })
    return 0


def cmd_bound_check(args, argv) -> int:
    n = args.n
    bound = hoffman_bound(combined_lambda_min(n))
    audits = [hoffman_audit(umvirate(n, t)) for t in triangle_masks(n)]
    _write_fields(args, {
        "n": n,
        "lambda_min": frac_str(bound.lambda_min),
        "nu": frac_str(bound.nu),
        "family_size_bound": str(2 ** (n * (n - 1) // 2) * bound.nu),
        "umvirate_audits": [{k: (frac_str(v) if isinstance(v, Fraction) else v)
                             for k, v in audit.items()} for audit in audits],
    })
    return 0 if all(a["ok"] and a["mu"] == a["nu"] == bound.nu for a in audits) else 1


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


# argparse takes an argument starting with "-" for an option unless it looks
# like a negative number, which before Python 3.13 means an integer or a
# decimal: the parsers of rational options also let -1/7 be a value.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _refuse_unless(p: argparse.ArgumentParser, ok, message: str) -> None:
    """Have main refuse the arguments p parsed, in p's usage, unless ok."""
    p.set_defaults(check=lambda args: ok(args) or p.error(message))


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
    _refuse_unless(p, lambda a: not (a.builtin and a.files),
                   "--builtin prints the built-in table and takes no FILE")

    p = sub.add_parser("verify", help="run a verification campaign")
    campaigns = p.add_subparsers(dest="claims", required=True)

    def campaign(name, run):
        c = campaigns.add_parser(name, parents=[common])
        c.set_defaults(func=cmd_verify, campaign=run)
        return c

    campaign("uniform", lambda a: verify_uniform_claims())
    c = campaign("skew", lambda a: verify_skew_cases(a.plo, a.phi))
    c.add_argument("--plo", type=parse_rational, default=TAU, metavar="NUM/DEN",
                   help="lower endpoint (default %(default)s)")
    c.add_argument("--phi", type=parse_rational, default=Fraction(1, 2), metavar="NUM/DEN",
                   help="upper endpoint (default %(default)s)")
    c._negative_number_matcher = _NEGATIVE_NUMBER
    _refuse_unless(c, lambda a: 0 < a.plo < a.phi <= Fraction(1, 2),
                   "the skew interval needs 0 < --plo < --phi <= 1/2")
    campaign("smallp", lambda a: verify_smallp())
    c = campaign("schur", lambda a: verify_oldc_claims(seed=a.seed))
    c.add_argument("--seed", type=int, default=20260815, help="seed (default %(default)s)")
    c = campaign("families", lambda a: verify_family_claims(seed=a.seed,
                                                            campaign_size=a.campaign_size))
    c.add_argument("--seed", type=int, default=20260815, help="seed (default %(default)s)")
    c.add_argument("--campaign-size", type=campaign_size, default=1000,
                   help="random-family sample size, at most 10^6 (default %(default)s)")
    campaign("lemmas", lambda a: verify_cut_lemmas())

    p = sub.add_parser("families", help="independent-set search and measure-bound audits")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("max-independent", parents=[common])
    a.add_argument("--seed", type=int, help="shuffle the branching order")
    a.set_defaults(func=cmd_max_independent)
    a = actions.add_parser("bound-check", parents=[common])
    a.add_argument("--n", type=int, choices=(4, 5, 6, 7), default=4,
                   help="vertex count (default %(default)s)")
    a.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("hoffman", parents=[common],
                       help="measure bound nu = -lambda/(1 - lambda)")
    p.add_argument("--lambda-min", dest="lambda_min", type=parse_rational,
                   required=True, metavar="NUM/DEN")
    p.add_argument("--gap", type=parse_rational, default=None, metavar="NUM/DEN",
                   help="secondary gap for the stability coefficient")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.set_defaults(func=cmd_hoffman)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if "check" in args:
        args.check(args)
    try:
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        # malformed graph6 is a ValueError, a missing file an OSError
        print(f"occ: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
