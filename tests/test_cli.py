"""Command-line behaviour: formats, footers, exit codes, determinism."""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from io import StringIO
from pathlib import Path

import pytest

import fano2
from fano2 import riemann_roch
from fano2.cli import build_parser, main, parse_args
from fano2.classify import Candidate
from fano2.graded_rings import (
    FIRST_PREFIX,
    corrected_inference,
    infer_generators,
)
from fano2.series import certificate_degree
from fano2.tables import load_table_entries

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

    def test_huge_multiplicity_exit_1_at_once(self, capsys):
        # the basket is refused from its point count, never built
        code, out, err = run(capsys, "inspect", "--basket",
                             f"{10**12}x3/1", "--genus", "0")
        assert (code, out) == (1, "")
        assert err == (
            f"error: inadmissible basket [{10**12}x3/1]: basket load "
            "8000000000000/3 reaches 24 (A c2 would be <= 0)\n")

    @pytest.mark.parametrize("basket, message", [
        ("1000001/1", "1000002000000/1000001"),
        ("10000001/1", "100000020000000/10000001"),
    ])
    def test_large_index_exit_1_at_once(self, capsys, basket, message):
        # the load is checked before the periodic terms, which cost O(r):
        # 10000001/1 used to take over a second to be refused
        code, out, err = run(capsys, "inspect", "--basket", basket,
                             "--genus", "0")
        assert (code, out) == (1, "")
        assert err == (
            f"error: inadmissible basket [{basket}]: basket load {message} "
            "reaches 24 (A c2 would be <= 0)\n")

    @pytest.mark.parametrize("basket, code", [
        ("9" * 5000 + "x3/1", 2),
        ("9" * 5000 + "/1", 2),
        ("3/" + "9" * 5000, 2),
        ("9" * 4300 + "x3/1", 1),
        ("9" * 4299 + "x3/1," + "9" * 4299 + "x5/2", 1),
        ("9" * 4300 + "x3/1," + "9" * 4300 + "x3/1", 1),
        ("1" * 2200 + "3/1", 1),
    ], ids=["mult5000", "r5000", "a5000", "mult4300", "two4299",
            "two4300same", "r2201"])
    def test_long_numbers_give_one_error_line(self, capsys, basket, code):
        # past the digits int() reads the basket does not parse; a load
        # past the digits str() writes is still written
        got, out, err = run(capsys, "inspect", "--basket", basket,
                            "--genus", "0")
        assert (got, out) == (code, "")
        assert err.count("\n") == 1
        assert err.startswith("error: cannot parse basket: basket entry "
                              if code == 2 else
                              "error: inadmissible basket [")
        assert err.endswith(" digits\n" if code == 2 else
                            " reaches 24 (A c2 would be <= 0)\n")

    def test_genus_is_checked_before_the_point_count(self, capsys):
        code, out, err = run(capsys, "inspect", "--basket", "10x3/1",
                             "--genus", "-3")
        assert (code, out) == (2, "")
        assert err.startswith("error: genus below -2 (got -3)")

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


class TestLazyModels:
    @pytest.mark.parametrize(
        "argv", [["histogram", "--by", "codim"], ["verify-tables"]])
    def test_codimension_readers_build_no_numerator(
        self, capsys, model_builds, argv
    ):
        run(capsys, *argv)
        assert model_builds == {}

    def test_inspect_builds_each_once(self, capsys, model_builds):
        code, _, _ = run(capsys, "inspect", "--basket", "3/1", "--genus", "2")
        assert code == 0
        assert model_builds == {"numerator_wrt_weights": 1, "classify_shape": 1}


class TestSeriesReads:
    """The series each command has candidates compute: (basket, genus,
    cutoff) per hilbert_series call, from unread candidates."""

    def test_codim_histogram_reads_only_greedy_prefixes(
        self, capsys, series_reads
    ):
        # A greedy pass stops at its first relation, so it computes the
        # series to FIRST_PREFIX and, while a prefix runs out, to twice
        # that prefix, until one holds the relation.  A model with no
        # weight 1 (h^0(A) = 0) then reads h^0(dA) at seed degrees past
        # those prefixes, no deeper than its deepest seed.  A K3-obstructed
        # candidate computes none.
        run(capsys, "histogram", "--by", "codim")
        assert len(series_reads) == 1504
        assert sum(h + 1 for *_, h in series_reads) == 14714
        depths = {}
        for basket, genus, h in series_reads:
            depths.setdefault((basket, genus), []).append(h)
        assert len(depths) == 1319
        checked = 0
        for (basket, genus), hs in depths.items():
            assert basket.singular_rank < 20
            _, numerator = infer_generators(
                riemann_roch.hilbert_series(basket, genus, 200))
            stop = next(d for d, k in enumerate(numerator) if k < 0)
            prefixes = [FIRST_PREFIX]
            while prefixes[-1] < stop:
                prefixes.append(2 * prefixes[-1])
            passes = len(prefixes)
            assert hs[:passes] == prefixes
            if hs[passes:]:
                model = corrected_inference(Candidate(basket, genus))
                assert 1 not in model.weights
                assert hs[passes - 1:] == sorted(set(hs[passes - 1:]))
                assert hs[-1] <= max(model.seeded)
                checked += 1
        assert checked == 100

    def test_k3_obstructions_reads_no_series(self, capsys, series_reads):
        run(capsys, "k3-obstructions")
        assert series_reads == []

    @pytest.mark.parametrize(
        "argv, depth",
        [(["--format", "json"], 60), (["--format", "json", "--cutoff", "16"], 16),
         (["--format", "csv"], 60), ([], 2), (["--stable"], 2)])
    def test_enumerate_reads_what_it_prints(
        self, capsys, series_reads, argv, depth
    ):
        # records read the series to the cutoff, text lines h0(A), h0(2A)
        run(capsys, "enumerate", *argv)
        assert {h for *_, h in series_reads} == {depth}
        assert len(series_reads) == (1413 if "--stable" in argv else 1492)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("basket, genus", [("3/1", 2)])
    def test_inspect_within_its_cutoff_reads_once(
        self, capsys, series_reads, fmt, basket, genus
    ):
        # half the Gorenstein degree (4) and the greedy prefix to 8 that
        # holds the first relation are within the cutoff
        code, _, _ = run(capsys, "inspect", "--basket", basket, "--genus",
                         str(genus), "--format", fmt)
        assert code == 0
        assert [h for *_, h in series_reads] == [60]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_inspect_reads_a_greedy_prefix_past_its_cutoff(
        self, capsys, series_reads, fmt
    ):
        # X38's first relation at 38 lies within the cutoff 60, but the
        # prefix holding it goes to 64, which the pass computes once;
        # half the Gorenstein degree (19) reads nothing more
        code, _, _ = run(capsys, "inspect", "--basket", "3/1,5/1,11/3",
                         "--genus", "-2", "--format", fmt)
        assert code == 0
        assert [h for *_, h in series_reads] == [60, 64]

    @pytest.mark.parametrize(
        "basket, genus, depths",
        [("3/1", 2, [2, 8]), ("3/1,5/1,11/3", -2, [2, 8, 16, 32, 64])])
    def test_inspect_past_its_cutoff_reads_the_prefixes(
        self, capsys, series_reads, basket, genus, depths
    ):
        # the record reads the series to the cutoff 2; past it the model
        # computes each greedy prefix exactly, 8 and for X38, whose first
        # relation lies at 38, 16, 32 and 64, and its numerator (to 4 and
        # 19) no more
        code, _, _ = run(capsys, "inspect", "--basket", basket, "--genus",
                         str(genus), "--cutoff", "2")
        assert code == 0
        assert [h for *_, h in series_reads] == depths

    def test_verify_tables_reads_each_row_to_its_proven_degree(
        self, capsys, series_reads
    ):
        # every row is compared through exactly its proven degree, and its
        # model reads within that, but for two rows whose first relation
        # (18 and 38) lies in a greedy prefix (to 32 and 64) past it
        code, _, _ = run(capsys, "verify-tables")
        assert code == 1
        past = {"X18 in P(1,2,3,5,9)": [32], "X38 in P(2,3,5,11,19)": [64]}
        proven = [certificate_degree(e.basket, e.weights)
                  for e in load_table_entries()]
        assert [h for *_, h in series_reads] == [
            h for e, d in zip(load_table_entries(), proven)
            for h in [d] + past.get(e.label, [])]
        assert Counter(d > 60 for d in proven) == {False: 61, True: 10}
        assert max(proven) == 73


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


def parsed(capsys, parse, argv):
    """Exit code, stdout, stderr and namespace items of one parse."""
    try:
        code, items = None, list(vars(parse(argv)).items())
    except SystemExit as exc:
        code, items = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, items


#: Every command with valid options; then help, usage errors and extras,
#: which the top-level parser answers; then tuples.
PARSE_ARGVS = [
    ["enumerate"],
    ["enumerate", "--stable", "--cutoff", "16", "--format", "csv",
     "--output", "out.csv"],
    ["inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2"],
    ["inspect", "--genus", "0", "--basket=", "--cutoff", "120",
     "--format", "json", "--output", "out.json"],
    ["verify-tables"],
    ["verify-tables", "--table", "3", "--output", "out.txt"],
    ["histogram"],
    ["histogram", "--by", "codim", "--stable", "--cutoff", "30",
     "--format", "csv"],
    ["k3-obstructions"],
    ["k3-obstructions", "--cutoff", "200", "--format", "json"],
    [],
    ["-h"],
    ["frobnicate"],
    ["inspect"],
    ["inspect", "--basket", "3/1"],
    ["inspect", "--basket", "3/1", "--genus", "x"],
    ["inspect", "--basket", "3/1", "--genus", "0", "--format", "csv"],
    ["inspect", "--basket", "3/1", "--genus", "0", "extra"],
    ["inspect", "-h"],
    ["verify-tables", "--cutoff", "60"],
    ["enumerate", "--cut", "3", "--stable"],
    ["inspect", "--basket", "3/1", "--genus", "0", "--cutoff=1"],
    ["histogram", "--by=codim", "--bogus"],
    ("inspect", "--basket", "3/1", "--genus", "0"),
    ("inspect", "--basket", "3/1", "--genus", "0", "extra"),
]


class TestUsage:
    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=repr)
    def test_parse_matches_the_top_level_parser(self, capsys, argv):
        assert parsed(capsys, parse_args, argv) == parsed(
            capsys, build_parser().parse_args, argv)

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        query = ("inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2",
                 "--format", "json")
        expected = run(capsys, *query)
        monkeypatch.setattr(sys, "argv", ["fano2", *query])
        assert parsed(capsys, parse_args, None) == parsed(
            capsys, build_parser().parse_args, None)
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected

    def test_a_command_is_parsed_by_its_own_parser(self, capsys, monkeypatch):
        # A query that names a command and that its parser accepts never
        # reaches the top-level parser.
        query = ("inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2",
                 "--format", "json")
        expected = run(capsys, *query)

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser read a command")

        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        assert run(capsys, *query) == expected
        assert expected[0] == 0 and json.loads(expected[1])["genus"] == -2

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
        # reported like every other option error of the command: its own
        # usage line, then the error under its own name
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cutoff", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fano2 {command[0]} [-h]")
        assert err.endswith(
            f"\nfano2 {command[0]}: error: argument --cutoff: must be >= 2\n")

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


#: Run with ``python -c PROBE [ARGV...]``: imports fano2.cli, runs
#: ``main(ARGV)`` when ARGV is given, and prints the modules this loaded.
IMPORT_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import fano2.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        fano2.cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
"""

#: What only ``verify-tables`` needs, the tables; and what only
#: ``--format csv`` needs.
NOT_AT_STARTUP = {"fano2.tables", "csv", "_csv"}

#: What no command loads: dataclasses is not used by fano2 at all, and the
#: fixture's checksum takes the built-in ``_sha256``, not OpenSSL's.
NEVER_LOADED = {"dataclasses", "hashlib", "_hashlib"}

#: Whether this interpreter has the built-in ``_sha256`` (CPython 3.12
#: renamed it ``_sha2``, and there the checksum falls back to hashlib).
HAS_SHA256 = importlib.util.find_spec("_sha256") is not None


#: Run with ``python -c CANDIDATE_PROBE ARGV...``: runs ``main(ARGV)``, then
#: prints how many candidates are still alive after a full collection.
CANDIDATE_PROBE = """
import contextlib, gc, io, sys
import fano2.cli
from fano2.classify import Candidate
with contextlib.redirect_stdout(io.StringIO()):
    fano2.cli.main(sys.argv[1:])
gc.collect()
print(sum(type(o) is Candidate for o in gc.get_objects()))
"""


class TestNothingRetained:
    @pytest.mark.parametrize(
        "argv", [("enumerate", "--format", "json"), ("histogram", "--by", "genus")],
        ids=" ".join,
    )
    def test_command_leaves_no_candidate_alive(self, argv):
        # candidates are enumerated afresh on every call, so a command in
        # a long-lived process keeps none once it returns
        env = os.environ | {"PYTHONPATH": str(Path(fano2.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-B", "-c", CANDIDATE_PROBE, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == "0\n"


class TestImportBudget:
    @staticmethod
    def loaded(*argv):
        env = os.environ | {"PYTHONPATH": str(Path(fano2.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        return set(proc.stdout.split())

    @pytest.mark.parametrize(
        "argv",
        [(), ("histogram", "--by", "codim"),
         ("inspect", "--basket", "3/1,5/1,11/3", "--genus", "-2")],
    )
    def test_commands_leave_out_the_tables(self, argv):
        loaded = self.loaded(*argv)
        assert "fano2.cli" in loaded
        assert not loaded & (NOT_AT_STARTUP | NEVER_LOADED)

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--format", "csv"), ("histogram", "--by", "genus"),
         ("k3-obstructions", "--format", "json")],
    )
    def test_no_command_loads_openssl(self, argv):
        loaded = self.loaded(*argv)
        assert "fano2.cli" in loaded
        assert not loaded & NEVER_LOADED

    def test_verify_tables_loads_the_tables(self):
        loaded = self.loaded("verify-tables")
        assert "fano2.tables" in loaded
        assert not loaded & (NEVER_LOADED if HAS_SHA256 else {"dataclasses"})


#: Run with ``python -B -c FRACTION_PROBE ARGV...``: imports fano2.cli, then
#: counts every Fraction built while ``main(ARGV)`` runs, and prints it.
FRACTION_PROBE = """
import contextlib, fractions, io, sys
import fano2.cli
built = 0
new = fractions.Fraction.__new__
def counted(cls, *args, **kwargs):
    global built
    built += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = fano2.cli.main(sys.argv[1:])
print(code, built)
"""


class TestIntegerRoute:
    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--format", "json"), ("histogram", "--by", "codim"),
         ("inspect", "--basket", "3/1,5/2", "--genus", "2", "--format",
          "json")],
        ids=" ".join,
    )
    def test_command_builds_no_fraction(self, argv):
        # Series, degrees, loads and statuses are all computed in
        # integers: a cold command builds no Fraction at all.  The
        # Fraction forms of riemann_roch are the test suite's oracle.
        env = os.environ | {"PYTHONPATH": str(Path(fano2.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-B", "-c", FRACTION_PROBE, *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == "0 0\n"
