import argparse
import ast
import csv
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import occlib
from occlib.cli import build_parser, main, parse_rational
from occlib.graph import Graph, write_graph6


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_rational_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "skew", "--plo", "bogus"])
        assert exc.value.code == 2

    def test_parse_rational(self):
        from fractions import Fraction
        assert parse_rational("31/125") == Fraction(31, 125)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational("1e-1000") == Fraction(1, 10 ** 1000)


class TestCutstat:
    def test_builtin_text(self, capsys):
        rc, out, _ = run(capsys, "cutstat", "--builtin")
        assert rc == 0
        assert "triangle" in out and "l1=-1/7" in out

    def test_stdin_csv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nC}\n"))
        rc, out, _ = run(capsys, "cutstat", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["q"] == "1/4 0 3/4 0"
        assert rows[0]["lambda1"] == "-1/7"
        assert rows[1]["name"] == "C}"
        assert rows[1]["combined"] == "-67/476"

    def test_file_json(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text("DhC\n")
        rc, out, _ = run(capsys, "cutstat", "--format", "json", str(src))
        assert rc == 0
        rows = json.loads(out)
        assert rows[0]["edges"] == 4
        assert rows[0]["lambda2"] == "1/16"

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "cutstat", "/no/such/file.g6")
        assert rc == 2
        assert "occ:" in err

    def test_bad_graph6(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("!!!\n"))
        rc, _, err = run(capsys, "cutstat")
        assert rc == 2
        assert "occ:" in err

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.txt"
        rc, out, _ = run(capsys, "cutstat", "--builtin", "--out", str(dest))
        assert rc == 0
        assert out == ""
        assert "triangle" in dest.read_text()


class TestVerify:
    def test_smallp_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "smallp")
        assert rc == 0
        assert "certificates: 9/9 pass" in out
        assert "result: PASS (30 checks)" in out

    def test_skew_below_threshold_fails(self, capsys):
        rc, out, _ = run(capsys, "verify", "skew", "--plo", "6/25",
                         "--phi", "31/125")
        assert rc == 1
        assert "FAIL certificate:odd:3-forest" in out
        assert "certificates: 50/51 pass" in out

    def test_schur_json(self, capsys):
        rc, out, _ = run(capsys, "verify", "schur", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["campaign"] == "oldc-claims"
        assert len(payload["report"]["checks"]) == 22

    def test_lemmas_within_budget(self):
        # a fresh process, so the class catalogue is built inside the budget
        env = dict(os.environ, PYTHONPATH=str(Path(occlib.__file__).resolve().parent.parent))
        start = time.perf_counter()
        rc = subprocess.run([sys.executable, "-m", "occlib.cli", "verify", "lemmas", "--format",
                             "json"], env=env, capture_output=True).returncode
        elapsed = time.perf_counter() - start
        assert rc == 0 and elapsed < 1.5, f"exit {rc} after {elapsed:.2f} s"


class TestReportDigests:
    """sha256 of the JSON reports of the campaigns with runtime_seconds
    removed, and of cutstat tables in every format: pins every claim,
    certificate polynomial and table row."""

    @pytest.mark.parametrize("argv, code, digest", [
        (("verify", "skew"), 0,
         "5a08e84a05b3035167fa8462c794865ebc5d720860fe2a6d33bb809f161bbf75"),
        (("verify", "skew", "--plo", "6/25", "--phi", "31/125"), 1,
         "b60a09001ae8c837668efb0c3070cdd680fdb1c0babc2d8bcdb0e02ff5128b67"),
        (("verify", "smallp"), 0,
         "bdf95ab68c27b26fd9d32e08335490d9cebecbdc1699a59d7d483cb8e0f9ef8b"),
        (("verify", "uniform"), 0,
         "e16f2f01fddbea2fbc3434b00a00092e49417dbe10a2fc1d260d266b6b6fa13f"),
        (("families", "bound-check", "--n", "5"), 0,
         "55986848ef335d6d84992947e315aa2d34f2e1574993d3f575adcdba511ded14"),
        (("families", "bound-check", "--n", "6"), 0,
         "240c8715e5562cc22eb6758663c298e9974df3b284ec6e4d429b3e2ef3f49e3b"),
        (("families", "bound-check", "--n", "4"), 0,
         "df190b9f9e72a7c2a904c150d1a2657c9d88dd82860e9ee1044b160e6136bedf"),
        (("families", "bound-check", "--n", "7"), 0,
         "92d637e738f4a99be8eecc2cdd767b1694fcb3372738b52018517df99b934c60"),
        (("families", "max-independent", "--seed", "1"), 0,
         "27f7eb9f5c438fe0539a7a0645044ae87c18b64bc3c518d8fe3b3fdac8c5d306"),
        (("verify", "families", "--seed", "1", "--campaign-size", "120"), 0,
         "de231925452e18093c4caca4c2f0a00c8e0e4d1c38a89346c2a667c7838c85fe"),
        (("verify", "schur"), 0,
         "57f64a9c28c3d9a8f0dadd76408c903b8f999a8c2a2dab85eda33846dd72858c"),
        (("verify", "lemmas"), 0,
         "669dd3fcc9be8c8e9e3f8bb6b5f25bf4c126f0522632d80d046d27bf683f8910"),
        # a list of rows, one per built-in graph, with no runtime field
        (("cutstat", "--builtin"), 0,
         "327e90d4d4c9ef7c483b5a43983c5a5318e33f423ab843e42dbb71f9e4eae139"),
    ], ids=["skew", "skew-below-tau", "smallp", "uniform", "bound-check-n5", "bound-check-n6",
            "bound-check-n4", "bound-check-n7", "max-independent",
            "families", "schur", "lemmas", "cutstat-builtin"])
    def test_json_report_digest(self, capsys, argv, code, digest):
        rc, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        if isinstance(payload, dict):
            payload.pop("runtime_seconds", None)
        assert rc == code
        assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("text", "23adb39b477dafb5fb8d57108893934a3b213448ae2f562886d36e24f9ebdc47"),
        ("csv", "5ae3489ed4a3f1ea494c4c201d3676bfb575d6986dcc235861a386de1932ce1c"),
    ], ids=["cutstat-builtin-text", "cutstat-builtin-csv"])
    def test_builtin_table_digest(self, capsys, fmt, digest):
        rc, out, _ = run(capsys, "cutstat", "--builtin", "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, code, fmt, digest", [
        (("verify", "smallp"), 0, "text",
         "6ba3560298274025661f6592e25e4c7aafafe1bd5c9a9b052afddce8099e3b94"),
        (("verify", "smallp"), 0, "csv",
         "b901ebfe71a31fb57acb0870f5f8f7c89994c9a70805397d08a4b735f4211d42"),
        (("verify", "skew", "--plo", "6/25", "--phi", "31/125"), 1, "text",
         "9d0dd915ecce4b9351c6bd4e0e2b91743f32d7d54842dc5bb814c6ca92b87c1b"),
        (("verify", "skew", "--plo", "6/25", "--phi", "31/125"), 1, "csv",
         "d1b5565a1efee055cf9e3dff9a667485a6b67d68d93fa04c6ba8db5f67029ada"),
        (("families", "bound-check", "--n", "5"), 0, "text",
         "324efe94dc131c604aa315b59ded1f0b3830ce34acbbea6cc1ec17a806f983db"),
        (("families", "bound-check", "--n", "5"), 0, "csv",
         "1193f34db9a561750970c751b4d4ae05f8048e49fe3195bbdf01bd3d1cca8b6e"),
        (("families", "max-independent", "--seed", "1"), 0, "text",
         "1f079341565b5a8fe5c389e1595bcc5108944246dec037f606b8803be982601c"),
        (("families", "max-independent", "--seed", "1"), 0, "csv",
         "febe642c59b950ee6678330fcb89d6c586db86abbe3bbbe52bf3e13dfc6899a0"),
        (("hoffman", "--lambda-min=-1/7", "--gap", "1/952"), 0, "text",
         "8893e9f49f5c08277c57b15d6b72d5c0728e6ff28186561853dedcb4261e224a"),
        (("hoffman", "--lambda-min=-1/7", "--gap", "1/952"), 0, "csv",
         "dbe467bd8f64cd06d3f946e51ecefe7b2515518db8726a8afe26649518aeef11"),
    ], ids=["smallp-text", "smallp-csv", "skew-below-tau-text", "skew-below-tau-csv",
            "bound-check-n5-text", "bound-check-n5-csv", "max-independent-text",
            "max-independent-csv", "hoffman-text", "hoffman-csv"])
    def test_text_and_csv_digest(self, capsys, argv, code, fmt, digest):
        # the text of a campaign ends in a runtime line, which is left out
        rc, out, _ = run(capsys, *argv, "--format", fmt)
        out = "".join(line for line in out.splitlines(keepends=True)
                      if not line.startswith("runtime: "))
        assert rc == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cutstat_file_json_digest(self, capsys, tmp_path):
        # a triangle among isolated vertices, C5, a triangle bridged to a
        # chorded 4-cycle, and the 3 x 4 grid
        src = tmp_path / "graphs.g6"
        src.write_text("EA@O\nDhc\nFxCWg\nKh`HGcG@GC_H\n")
        rc, out, _ = run(capsys, "cutstat", "--format", "json", str(src))
        assert rc == 0
        payload = json.dumps(json.loads(out), indent=2)
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "2663cc7b293efc9b759607c6a5ef1db5d2fbfcbba35671cb2ed85d20d01b1446")


class TestOutFile:
    """--out FILE receives exactly what stdout would, for each command that
    writes through the one writer; a campaign's runtime and command line are
    the only parts that may differ between the two runs."""

    @staticmethod
    def comparable(text, fmt):
        if fmt == "json" and text.startswith("{"):
            payload = json.loads(text)
            payload.pop("runtime_seconds", None)
            payload.pop("command", None)
            return payload
        return [line for line in text.splitlines(keepends=True)
                if not line.startswith("runtime: ")]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("verify", "skew", "--plo", "6/25", "--phi", "31/125"),
        ("cutstat", "--builtin"),
        ("families", "bound-check", "--n", "5"),
        ("hoffman", "--lambda-min=-1/7", "--gap", "1/952"),
    ], ids=["campaign", "cutstat", "families", "hoffman"])
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv, fmt):
        rc, out, _ = run(capsys, *argv, "--format", fmt)
        dest = tmp_path / "out"
        rc_file, out_file, err = run(capsys, *argv, "--format", fmt, "--out", str(dest))
        assert (rc_file, out_file, err) == (rc, "", "")
        written = dest.read_bytes().decode()
        assert self.comparable(written, fmt) == self.comparable(out, fmt)
        if argv[0] != "verify":
            assert written == out


class TestExitCodes:
    """A bad argument or input exits 2, never 1 (a falsified claim)."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_reversed_skew_interval(self, capsys):
        self.usage_error(capsys, "verify", "skew", "--plo", "1/2", "--phi", "1/4")

    def test_skew_interval_at_zero(self, capsys):
        self.usage_error(capsys, "verify", "skew", "--plo", "0")

    def test_negative_campaign_size(self, capsys):
        self.usage_error(capsys, "verify", "families", "--campaign-size", "-5")

    def test_non_integer_campaign_size(self, capsys):
        self.usage_error(capsys, "verify", "families", "--campaign-size", "abc")

    def test_oversized_campaign_is_refused_before_any_work(self, capsys):
        # 10^9 draws would run for hours; the limit is 10^6
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "families", "--campaign-size", "1000001"])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error:" in captured.err and "10^6" in captured.err

    def test_builtin_table_takes_no_file(self, capsys, tmp_path):
        # the FILE would be ignored, so the combination is refused
        graphs = tmp_path / "k3.g6"
        graphs.write_text("Bw\n", encoding="ascii")
        self.usage_error(capsys, "cutstat", "--builtin", str(graphs))

    def test_negative_plo_after_a_space_meets_the_interval_check(self, capsys):
        # -1/4 is read as the value of --plo, not as an unknown option
        with pytest.raises(SystemExit) as exc:
            main(["verify", "skew", "--plo", "-1/4"])
        assert exc.value.code == 2
        assert "the skew interval needs 0 < --plo < --phi <= 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, usage", [
        (("verify", "skew", "--plo", "1/2", "--phi", "1/4"), "usage: occ verify skew "),
        (("cutstat", "--builtin", "k3.g6"), "usage: occ cutstat "),
    ], ids=["skew-interval", "cutstat-builtin-file"])
    def test_refusal_shows_the_sub_command_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage)

    @pytest.mark.parametrize("n", ["5", "6", "7"])
    def test_max_independent_searches_k4_only(self, capsys, n):
        self.usage_error(capsys, "families", "max-independent", "--n", n)

    def test_bound_check_past_seven_vertices(self, capsys):
        self.usage_error(capsys, "families", "bound-check", "--n", "8")

    @pytest.mark.parametrize("argv", [
        ("verify", "uniform", "--plo", "6/25"),
        ("verify", "smallp", "--phi", "1/3"),
        ("verify", "families", "--plo", "1/4", "--phi", "1/3"),
        ("verify", "schur", "--campaign-size", "5"),
        ("verify", "lemmas", "--campaign-size", "5"),
        ("verify", "uniform", "--seed", "3"),
        ("verify", "skew", "--seed", "3"),
        ("verify", "smallp", "--seed", "3"),
        ("verify", "lemmas", "--seed", "3"),
        ("families", "bound-check", "--seed", "3"),
        ("families", "max-independent", "--n", "4"),
    ], ids=lambda argv: "-".join(argv))
    def test_option_the_command_does_not_read(self, capsys, argv):
        # an ignored setting would read as a claim verified under it
        self.usage_error(capsys, *argv)

    def test_each_command_declares_the_options_it_reads(self):
        # the README's table of the options each command reads
        def leaves(parser, path):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield path, {o for a in parser._actions for o in a.option_strings}
            for sub in subs:
                for name, child in sub.choices.items():
                    yield from leaves(child, f"{path} {name}".strip())

        common = {"-h", "--help", "--format", "--out"}
        assert {path: opts - common for path, opts in leaves(build_parser(), "")} == {
            "cutstat": {"--builtin"},
            "verify uniform": set(), "verify smallp": set(), "verify lemmas": set(),
            "verify skew": {"--plo", "--phi"},
            "verify schur": {"--seed"},
            "verify families": {"--seed", "--campaign-size"},
            "families max-independent": {"--seed"},
            "families bound-check": {"--n"},
            "hoffman": {"--lambda-min", "--gap"},
        }

    def test_skew_interval_narrower_than_2_to_the_minus_64(self, capsys):
        # 0 < plo < phi = 1/2 holds; each certificate with a root at 1/2 is
        # shifted off it by 2^-67, the first power of 2 below the width 10^-20
        rc, out, err = run(capsys, "verify", "skew", "--plo", "0.49999999999999999999",
                           "--format", "json")
        assert rc == 0 and err == ""
        shifted = [Fraction(c["certified_interval"][1])
                   for c in json.loads(out)["report"]["certificates"] if c["zero_at_upper"]]
        assert shifted and set(shifted) == {Fraction(1, 2) - Fraction(1, 2 ** 67)}

    @pytest.mark.parametrize("argv", [
        ("verify", "skew", "--plo", "1e-5000"),
        ("verify", "skew", "--plo", "1e-4299"),
        ("verify", "skew", "--plo", "1e-10000000"),
        ("hoffman", "--lambda-min=-1e-5000"),
        ("hoffman", "--lambda-min=-1/" + "1" * 5000),
    ], ids=["skew-plo", "skew-plo-4299", "skew-plo-long-exponent", "hoffman",
            "hoffman-long-denominator"])
    def test_huge_rational_is_refused_before_any_work(self, capsys, argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error:" in captured.err and "10^1000" in captured.err

    @pytest.mark.parametrize("word, message", [
        ("?", "zero vertices"),
        ("B\x7f", "data byte out of range"),
        ("Bx", "nonzero padding bits"),
    ])
    def test_malformed_graph6_word(self, capsys, monkeypatch, word, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(word + "\n"))
        rc, out, err = run(capsys, "cutstat")
        assert rc == 2
        assert out == ""
        assert err.startswith("occ: ") and message in err

    def test_cycle_beyond_bruteforce_limit(self, capsys, monkeypatch):
        # past the v <= 24 cap of enumeration the frontier DP gives the law
        cycle = Graph.from_edges(26, [(i, (i + 1) % 26) for i in range(26)])
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(cycle) + "\n"))
        rc, out, err = run(capsys, "cutstat", "--format", "json")
        assert rc == 0 and err == ""
        (row,) = json.loads(out)
        law = [Fraction(comb(26, k) if k % 2 == 0 else 0, 2 ** 25) for k in range(27)]
        assert [Fraction(x) for x in row["q"]] == law

    def test_graph_too_wide_for_both_routes(self, capsys, monkeypatch):
        # K26: 2^25 colorings, and a frontier that grows to 25 vertices
        k26 = Graph(26, (1 << 325) - 1)
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(k26) + "\n"))
        start = time.perf_counter()
        rc, out, err = run(capsys, "cutstat")
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert err.startswith("occ: ") and err.count("\n") == 1 and "2^23 states" in err

    def test_directory_as_input(self, capsys, tmp_path):
        rc, _, err = run(capsys, "cutstat", str(tmp_path))
        assert rc == 2
        assert err.startswith("occ: ")

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        rc, out, err = run(capsys, "cutstat", str(empty))
        assert rc == 2
        assert out == ""
        assert err.startswith("occ: ") and err.count("\n") == 1

    def test_empty_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        rc, out, err = run(capsys, "cutstat")
        assert rc == 2
        assert out == ""
        assert err.startswith("occ: ") and err.count("\n") == 1

    def test_bare_graph6_header(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<\n"))
        rc, out, err = run(capsys, "cutstat")
        assert rc == 2
        assert out == ""
        assert err.startswith("occ: ") and err.count("\n") == 1


def test_cli_import_leaves_numpy_out():
    src = Path(occlib.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, occlib.cli; print('numpy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(occlib.__path__)))
def test_exports_resolve(name):
    mod = importlib.import_module(f"occlib.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("path", ["src/occlib/cli.py", "tests/test_acceptance.py"])
def test_imported_names_are_exported(path):
    # every name imported from an occlib module is in that module's __all__
    missing = []
    for node in ast.walk(ast.parse((Path(__file__).resolve().parent.parent / path).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level or node.module.startswith("occlib.")):
            mod = importlib.import_module(f"occlib.{node.module.removeprefix('occlib.')}")
            missing += [f"{mod.__name__}.{a.name}" for a in node.names
                        if a.name not in mod.__all__]
    assert missing == []


class TestFamiliesCommand:
    def test_max_independent(self, capsys):
        rc, out, _ = run(capsys, "families", "max-independent",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["alpha"] == 8
        assert payload["maximum_sets"] == 32
        assert payload["triangle_intersecting"] == 4
        assert all(len(s) == 8 for s in payload["sets"])

    def test_max_independent_seeded_rerun(self, capsys):
        _, out1, _ = run(capsys, "families", "max-independent",
                         "--seed", "9", "--format", "json")
        _, out2, _ = run(capsys, "families", "max-independent",
                         "--seed", "9", "--format", "json")
        assert out1 == out2

    def test_bound_check_k4(self, capsys):
        rc, out, _ = run(capsys, "families", "bound-check", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["lambda_min"] == "-1/7"
        assert payload["nu"] == "1/8"
        assert payload["family_size_bound"] == "8"
        assert len(payload["umvirate_audits"]) == 4
        assert all(a["ok"] for a in payload["umvirate_audits"])

    def test_bound_check_k5(self, capsys):
        rc, out, _ = run(capsys, "families", "bound-check", "--n", "5",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["family_size_bound"] == "128"
        assert len(payload["umvirate_audits"]) == 10
        assert all(a["mu"] == "1/8" for a in payload["umvirate_audits"])

    def test_bound_check_k6(self, capsys):
        # all 20 umvirates of K6, each transformed on its triangle's 3 edges
        start = time.perf_counter()
        rc, out, _ = run(capsys, "families", "bound-check", "--n", "6",
                         "--format", "json")
        elapsed = time.perf_counter() - start
        assert rc == 0
        payload = json.loads(out)
        assert payload["lambda_min"] == "-1/7"
        assert payload["family_size_bound"] == "4096"
        audits = payload["umvirate_audits"]
        assert len(audits) == 20
        assert all(a["ok"] and a["quadratic_form"] == "0" and a["w"] == "0"
                   and a["mu"] == a["nu"] == "1/8" for a in audits)
        assert elapsed < 2.0, f"bound-check --n 6 took {elapsed:.2f} s"

    def test_bound_check_k7(self, capsys):
        # the 35 umvirates of K7, each 2^18 members, audited from the packed
        # indicator without decoding a member
        rc, out, _ = run(capsys, "families", "bound-check", "--n", "7",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert (payload["lambda_min"], payload["nu"]) == ("-1/7", "1/8")
        assert payload["family_size_bound"] == str(2 ** 18)
        audits = payload["umvirate_audits"]
        assert len(audits) == 35
        assert all(a["ok"] and a["quadratic_form"] == "0" and a["w"] == "0"
                   and a["mu"] == a["nu"] == "1/8" for a in audits)


class TestHoffman:
    def test_stability_coefficient(self, capsys):
        rc, out, _ = run(capsys, "hoffman", "--lambda-min=-1/7",
                         "--gap", "1/952")
        assert rc == 0
        assert "nu: 1/8" in out
        assert "stability_coefficient: 136" in out

    def test_negative_lambda_after_a_space(self, capsys):
        # the only domain of --lambda-min is (-1, 0), so its value always
        # starts with "-"; the space form reads as the "=" form
        spaced = run(capsys, "hoffman", "--lambda-min", "-1/7", "--gap", "1/952")
        assert spaced == run(capsys, "hoffman", "--lambda-min=-1/7", "--gap", "1/952")
        assert spaced[0] == 0 and "stability_coefficient: 136" in spaced[1]

    def test_cube_bias(self, capsys):
        rc, out, _ = run(capsys, "hoffman", "--lambda-min=-27/485",
                         "--format", "json")
        assert rc == 0
        assert json.loads(out)["nu"] == "27/512"

    def test_domain_error(self, capsys):
        rc, _, err = run(capsys, "hoffman", "--lambda-min=-2")
        assert rc == 2
        assert "occ:" in err


class TestDeterminism:
    def test_json_identical_after_runtime_exclusion(self, capsys):
        _, out1, _ = run(capsys, "verify", "schur", "--format", "json")
        _, out2, _ = run(capsys, "verify", "schur", "--format", "json")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("runtime_seconds"), b.pop("runtime_seconds")
        assert json.dumps(a) == json.dumps(b)

    def test_csv_byte_identical(self, capsys):
        args = ("verify", "families", "--campaign-size", "120",
                "--format", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert all(r["ok"] == "pass" for r in rows)
