"""Command-line behaviour: formats, footers, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

import fano2
from fano2 import riemann_roch
from fano2.cli import build_parser, main

#: SHA-256 of ``enumerate --format json``: "same results" across
#: refactors means this exact byte stream.
ENUMERATE_JSON_SHA256 = (
    "71b10a8b503a80d79d6313b51521dbc7714151566b705fae32d3471e6a582731"
)

#: SHA-256 of the other stable outputs.  ``histogram --by codim`` is left
#: unpinned: certified models and shape recognition are meant to change
#: it.  ``verify-tables`` is pinned in full below.
OUTPUT_SHA256 = {
    "enumerate":
        "4f04316b7e39a1a55bdc8d2a0ecdd951c595a371a9940c381e92f1a87b24ccac",
    "enumerate --format csv":
        "7a0321f645c6b3ef969c20b17f19209b60faef6846a774e4e7674eb7f005d313",
    "histogram --by genus":
        "1e4eb0e7c404db2b3db0f778af67faf3191fe3815982c1febbcb0844db3af647",
    "k3-obstructions":
        "bc76627786a811f1266e928da3f1ee933984646e435c94763f81f5707e61eed8",
    "k3-obstructions --format json":
        "2713928a6e27dcdc4d441f4af986180dcc9b96205755f41e478b5d45c886e2c2",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_text_footer(self, capsys):
        code, out, _ = run(capsys, "enumerate")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1493
        assert lines[-1] == "1492 candidates, 1413 stable, 173 K3-obstructed"

    def test_stable_footer(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--stable")
        assert code == 0
        assert out.splitlines()[-1] == "1413 candidates"

    def test_csv_shape(self, capsys):
        code, out, err = run(capsys, "enumerate", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(StringIO(out)))
        assert rows[0][0] == "basket"
        assert len(rows) == 1493
        assert len({len(r) for r in rows}) == 1
        assert "1492 candidates" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1492
        first = data[0]
        assert list(first.keys()) == [
            "basket", "genus", "A3", "Ac2_over_12", "stable",
            "h0_A", "h0_2A", "k3_obstructed", "series",
        ]

    def test_json_output_pinned(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_JSON_SHA256

    @pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
    def test_output_pinned(self, capsys, command):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[command]

    def test_json_output_pinned_under_optimisation(self):
        # python -O strips asserts; the checks guarding the output are
        # explicit raises, and the bytes do not change.
        env = os.environ | {"PYTHONPATH": str(Path(fano2.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "fano2.cli", "enumerate",
             "--format", "json"],
            capture_output=True, env=env, check=True,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == ENUMERATE_JSON_SHA256

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate")
        _, second, _ = run(capsys, "enumerate")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(capsys, "enumerate", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[-1].startswith("1492 candidates")


class TestInspect:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            capsys, "inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2"
        )
        assert code == 0
        assert "A3:          1/165" in out
        assert "weights:     2,3,5,11,19" in out
        assert "1 - t^38" in out
        assert "hypersurface" in out

    def test_nonsingular_cubic(self, capsys):
        code, out, _ = run(capsys, "inspect", "--basket", "", "--genus", "3")
        assert code == 0
        assert "A3:          3" in out
        assert "(nonsingular)" in out

    def test_unstable_flagship_status(self, capsys):
        code, out, _ = run(capsys, "inspect", "--basket", "3/1", "--genus", "8")
        assert code == 0
        assert "A3:          25/3\nAc2/12:      8/9\nstatus:      unstable\n" in out
        code, out, _ = run(
            capsys, "inspect", "--basket", "3/1", "--genus", "8",
            "--format", "json",
        )
        payload = json.loads(out)
        assert (payload["A3"], payload["stable"], payload["status"]) == (
            "25/3", False, "unstable"
        )

    def test_past_the_cap_is_rejected(self, capsys):
        code, out, _ = run(capsys, "inspect", "--basket", "3/1", "--genus", "20")
        assert code == 0
        assert "A3:          61/3\nAc2/12:      8/9\nstatus:      rejected\n" in out
        code, out, _ = run(
            capsys, "inspect", "--basket", "3/1", "--genus", "20",
            "--format", "json",
        )
        payload = json.loads(out)
        assert (payload["A3"], payload["stable"], payload["status"]) == (
            "61/3", False, "rejected"
        )

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "inspect", "--basket", "5/4", "--genus", "0")
        assert code == 2
        assert "cannot parse basket" in err

    def test_genus_below_minus_two_exit_2(self, capsys):
        code, _, err = run(capsys, "inspect", "--basket", "3/1", "--genus", "-5")
        assert code == 2
        assert "genus below -2" in err

    def test_nonpositive_degree_exit_1(self, capsys):
        code, _, err = run(capsys, "inspect", "--basket", "", "--genus", "-2")
        assert code == 1
        assert "degree not positive" in err

    @pytest.mark.parametrize(
        "basket,genus,message",
        [
            ("", -2, "A^3 = -2 <= 0 for basket [] at genus -2"),
            ("3/1", -2, "A^3 = -5/3 <= 0 for basket [3/1] at genus -2"),
            ("2x5/2,7/3", -2,
             "A^3 = -3/35 <= 0 for basket [2x5/2,7/3] at genus -2"),
        ],
    )
    def test_nonpositive_degree_message(self, capsys, basket, genus, message):
        code, out, err = run(
            capsys, "inspect", "--basket", basket, "--genus", str(genus)
        )
        assert code == 1
        assert out == ""
        assert err == f"error: degree not positive: {message}\n"

    def test_nonzero_residual_exit_1(self, capsys, fresh_invariants, monkeypatch):
        # a residual of 8/72 = 1/9 on the D = 72 of 3/1
        constants = riemann_roch._type_constants
        monkeypatch.setattr(
            riemann_roch, "_type_constants",
            lambda s: constants(s)[:2] + (constants(s)[2] + 8,),
        )
        code, out, err = run(capsys, "inspect", "--basket", "3/1", "--genus", "0")
        assert code == 1
        assert out == ""
        assert err == (
            "error: inadmissible basket [3/1]: polarisation residual is "
            "nonzero\n"
        )

    def test_overweight_basket_exit_1(self, capsys):
        # load exactly 24 leaves A c2 = 0
        code, out, err = run(capsys, "inspect", "--basket", "9x3/1", "--genus", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: inadmissible basket [9x3/1]")
        assert len(err.splitlines()) == 1

    def test_small_cutoff_gives_the_default_model(self, capsys):
        cases = [
            ("9/1", "1", "3", "1, 3, 8, 17"),
            # the deepest numerator, of Gorenstein degree 177, read from a
            # series of three terms
            ("3/1,5/1,7/2,9/1", "-2", "2", "1, 0, 1"),
        ]
        for basket, genus, cutoff, series in cases:
            argv = ("inspect", "--basket", basket, "--genus", genus)
            code, out, err = run(capsys, *argv, "--cutoff", cutoff)
            assert code == 0
            assert err == ""
            _, default, _ = run(capsys, *argv)
            # only the series line, cut at the cutoff, differs
            assert [l for l in out.splitlines() if not l.startswith("series:")] == [
                l for l in default.splitlines() if not l.startswith("series:")
            ]
            assert f"series:      {series}, ...\n" in out

    def test_cutoff_does_not_reach_the_model(self, capsys):
        # at cutoff 16 the greedy used to run out of series and report
        # X38 in P(2,3,5,11,19) as a seeded codim-3 model
        code, out, _ = run(
            capsys, "inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2",
            "--cutoff", "16",
        )
        assert code == 0
        assert "weights:     2,3,5,11,19\n" in out
        assert "shape:       hypersurface (codim 1)\n" in out

    def test_numerator_is_exact_at_the_default_cutoff(self, capsys):
        # the Gorenstein degree sum(w) - 2 = 61 lies past the default cutoff
        argv = ("inspect", "--basket", "5x3/1,7/1", "--genus", "-2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "- 5t^51 - t^52 + t^61\n" in out
        assert "shape:       codim_ge4 (codim 8)\n" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert len(payload["numerator"]) - 1 == 61
        assert payload["codim_is_lower_bound"] is False
        _, at60, _ = run(capsys, *argv, "--cutoff", "60")
        _, at61, _ = run(capsys, *argv, "--cutoff", "61")
        assert at60 == at61

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "inspect", "--basket", "11/2", "--genus", "-1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [1, 2, 2, 2, 3, 5, 9, 11]
        assert payload["codim"] == 4
        assert payload["status"] == "stable"


class TestVerifyTables:
    def test_summary_line_and_exit(self, capsys):
        code, out, err = run(capsys, "verify-tables")
        # the two equal-degree-pair rows fail weight recovery by design
        assert out == (
            "Table1 8/8 Table2 26/26 Table3 2/2 Table4 33/35\n"
            "FAIL X in P(1,1,1,1,1,2,2,3): checks failed: weights (inferred"
            " weights (1, 1, 1, 1, 1, 2, 3) != tabulated"
            " (1, 1, 1, 1, 1, 2, 2, 3))\n"
            "FAIL X in P(1,1,1,2,2,2,3,3): checks failed: weights (inferred"
            " weights (1, 1, 1, 2, 2, 2, 3) != tabulated"
            " (1, 1, 1, 2, 2, 2, 3, 3))\n"
        )
        assert err == ""
        assert code == 1

    def test_tables_1_to_3_clean(self, capsys):
        for table, expected in ((1, "Table1 8/8"), (2, "Table2 26/26"), (3, "Table3 2/2")):
            code, out, _ = run(capsys, "verify-tables", "--table", str(table))
            assert code == 0
            assert out.splitlines()[0] == expected

    @pytest.mark.parametrize(
        "flags", [("--cutoff", "60"), ("--cutoff", "2"), ("--format", "text")]
    )
    def test_cutoff_and_format_are_not_options(self, capsys, flags):
        # every row is cut at degree 60, and the report is text only
        with pytest.raises(SystemExit) as exc:
            main(["verify-tables", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestHistogram:
    def test_genus_rows(self, capsys):
        code, out, _ = run(capsys, "histogram", "--by", "genus")
        assert code == 0
        row = next(l for l in out.splitlines() if l.strip().startswith("-1"))
        for token in ("470", "14", "1/35", "32/21"):
            assert token in row
        assert any("1492" in l and "79" in l for l in out.splitlines())
        assert "distinct series: 1492" in out

    def test_codim_table_shows_reference(self, capsys):
        code, out, _ = run(capsys, "histogram", "--by", "codim")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split()
        assert header == ["codim", "inferred", "reference"]
        row1 = next(l.split() for l in lines[1:] if l.split()[0] == "1")
        assert row1[2] == "8"  # reference codimension-1 count
        sums = next(l.split() for l in lines if l.split()[0] == "sum")
        assert sums[2] == "1319"

    @pytest.mark.parametrize("cutoff", ["2", "16"])
    def test_codim_table_does_not_depend_on_the_cutoff(self, capsys, cutoff):
        _, default, _ = run(capsys, "histogram", "--by", "codim")
        code, out, err = run(
            capsys, "histogram", "--by", "codim", "--cutoff", cutoff
        )
        assert code == 0
        assert err == ""
        assert out == default

    def test_genus_csv(self, capsys):
        code, out, _ = run(capsys, "histogram", "--by", "genus", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(StringIO(out)))
        assert rows[0] == ["genus", "total", "unstable", "min_A3", "max_A3"]
        assert ["-2", "337", "6", "1/165", "11/15"] in rows


class TestK3Obstructions:
    def test_footer_counts(self, capsys):
        code, out, _ = run(capsys, "k3-obstructions")
        assert code == 0
        assert out.splitlines()[-1] == "173 candidates, 11 unstable"

    def test_witness_listed(self, capsys):
        code, out, _ = run(capsys, "k3-obstructions")
        witness = [l for l in out.splitlines() if l.startswith("21/10")]
        assert len(witness) == 1
        assert "A3=19/21" in witness[0]


class TestUsage:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_cutoff_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--cutoff", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["enumerate"], ["inspect", "--basket", "3/1", "--genus", "0"],
         ["histogram"], ["k3-obstructions"]],
    )
    def test_small_cutoff_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cutoff", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("\nfano2: error: --cutoff must be >= 2\n")

    def test_one_parser_serves_every_call(self, capsys):
        # The parser is built once per process; answers, usage errors and
        # other commands in between leave it as a fresh process has it.
        assert build_parser() is build_parser()
        env = os.environ | {"PYTHONPATH": str(Path(fano2.__file__).parents[1])}

        def fresh(*argv):
            proc = subprocess.run([sys.executable, "-m", "fano2.cli", *argv],
                                  capture_output=True, text=True, env=env)
            return proc.returncode, proc.stdout, proc.stderr

        query = ("inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2",
                 "--format", "json")
        usage = ("inspect", "--basket", "3/1", "--genus", "0", "--cutoff", "1")
        first = run(capsys, *query)
        with pytest.raises(SystemExit) as exc:
            main(list(usage))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == fresh(*usage)
        assert run(capsys, "enumerate", "--stable")[0] == 0
        again = run(capsys, *query)
        assert again == first == fresh(*query)
