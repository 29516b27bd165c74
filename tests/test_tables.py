"""The bundled reference tables: fixture integrity and verification."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import fano2
from fano2 import tables
from fano2.graded_rings import corrected_inference, pfaffian_numerator
from fano2.riemann_roch import hilbert_series
from fano2.series import RationalForm, certificate_degree, degree_from_form
from fano2.tables import (
    FixtureIntegrityError,
    entry_genus,
    load_table_entries,
    model_numerator,
    verify_all,
    verify_table_entry,
)

#: The two codimension-4 rows whose ambient hides a generator/relation
#: pair in equal degree; no inference from the Hilbert series alone can
#: see the second generator, so their weight-recovery check fails by
#: design (everything else about them verifies).
EQUAL_DEGREE_PAIR_ROWS = {
    "X in P(1,1,1,1,1,2,2,3)",
    "X in P(1,1,1,2,2,2,3,3)",
}

#: Run with ``python -B -c DIGEST_PROBE ROUTE TAMPERED``: with ROUTE
#: ``hashlib`` it hides the built-in ``_sha256`` before fano2 is imported,
#: so the checksum falls back to hashlib.  It runs ``verify-tables``, then
#: loads the fixture written to TAMPERED, and prints what it saw as JSON.
DIGEST_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "hashlib":
    sys.modules["_sha256"] = None
import fano2.cli
from fano2 import tables
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = fano2.cli.main(["verify-tables"])
try:
    tables.load_table_entries(sys.argv[2])
    refused = False
except tables.FixtureIntegrityError:
    refused = True
print(json.dumps({"module": tables.sha256.__module__,
                  "hashlib": "hashlib" in sys.modules, "code": code,
                  "out": out.getvalue(), "refused": refused}))
"""


@pytest.fixture(scope="module")
def entries():
    return load_table_entries()


@pytest.fixture(scope="module")
def reports(entries):
    return {r.entry.label: r for r in verify_all(entries)}


class TestFixture:
    def test_row_counts(self, entries):
        counts = {t: sum(1 for e in entries if e.table_id == t) for t in (1, 2, 3, 4)}
        assert counts == {1: 8, 2: 26, 3: 2, 4: 35}
        assert len(entries) == 71

    def test_checksum_guards_tampering(self, tmp_path):
        from fano2.tables import _fixture_bytes

        corrupted = tmp_path / "tables.json"
        corrupted.write_bytes(_fixture_bytes().replace(b"1/165", b"1/166"))
        with pytest.raises(FixtureIntegrityError):
            load_table_entries(corrupted)

    def test_checksum_digest_is_hashlibs(self):
        raw = tables._fixture_bytes()
        digest = tables.sha256(raw).hexdigest()
        assert digest == hashlib.sha256(raw).hexdigest()
        assert digest == tables.TABLES_SHA256

    def test_both_digest_routes_verify_alike(self, tmp_path):
        # the built-in _sha256 and the hashlib fallback give one report,
        # and both refuse a tampered fixture
        tampered = tmp_path / "tables.json"
        tampered.write_bytes(
            tables._fixture_bytes().replace(b"1/165", b"1/166"))
        env = os.environ | {
            "PYTHONPATH": str(Path(fano2.__file__).parents[1])}

        def probe(route):
            proc = subprocess.run(
                [sys.executable, "-B", "-c", DIGEST_PROBE, route,
                 str(tampered)],
                capture_output=True, text=True, env=env, check=True)
            return json.loads(proc.stdout)

        lean, fallback = probe("sha256"), probe("hashlib")
        assert (fallback["module"], fallback["hashlib"]) == ("_hashlib", True)
        if lean["module"] == "_sha256":
            assert not lean["hashlib"]
        for seen in (lean, fallback):
            assert seen["code"] == 1 and seen["refused"]
            assert seen["out"].splitlines()[0].endswith(" Table4 33/35")
        assert lean["out"] == fallback["out"]

    def test_normalised_high_weight_row(self, entries):
        # the index-9 point recorded with local weight 10 folds to 9/1
        row = next(e for e in entries if e.label == "X in P(1,2,3,5,6,7,8,9)")
        assert str(row.basket) == "2x3/1,9/1"

    def test_pfaffian_numerator_shape(self):
        assert pfaffian_numerator((2, 2, 2, 2, 2)) == (1, 0, -5, 5, 0, -1)
        assert pfaffian_numerator((3, 3, 4, 4, 4)) == (
            1, 0, 0, -2, -3, 3, 2, 0, 0, -1,
        )

    def test_genus_is_section_count_minus_two(self, entries):
        for e in entries:
            g = entry_genus(e)
            assert g >= -2
            # weight-1 generators are exactly the sections of A
            assert g + 2 == sum(1 for w in e.weights if w == 1)


class TestVerification:
    def test_tables_1_to_3_pass_everything(self, reports, entries):
        for e in entries:
            if e.table_id <= 3:
                assert reports[e.label].ok, (e.label, reports[e.label].failed_checks())

    def test_table_4_passes_outside_known_pair_rows(self, reports, entries):
        for e in entries:
            if e.table_id == 4 and e.label not in EQUAL_DEGREE_PAIR_ROWS:
                assert reports[e.label].ok, (e.label, reports[e.label].failed_checks())

    def test_equal_degree_pair_rows_fail_only_weight_recovery(self, reports):
        for label in EQUAL_DEGREE_PAIR_ROWS:
            report = reports[label]
            assert report.failed_checks() == ["weights"]

    def test_deepest_row_verifies_through_its_proven_degree(
        self, entries, series_reads
    ):
        # the row with the deepest proven degree reads its series exactly
        # that far, once, and its model reads within it
        deep = next(e for e in entries if e.label == "X in P(2,2,3,5,5,7,12,17)")
        proven = certificate_degree(deep.basket, deep.weights)
        assert proven == 73 == max(
            certificate_degree(e.basket, e.weights) for e in entries)
        assert verify_table_entry(deep).ok
        assert [h for *_, h in series_reads] == [73]

    def test_wrong_table_4_weights_fail_without_raising(self, entries):
        # Bumping the last weight breaks the row; a few bumped rows still
        # reproduce the series but then fail weight recovery.
        rows = [e for e in entries if e.table_id == 4]
        assert len(rows) == 35
        for e in rows:
            bad = e._replace(weights=e.weights[:-1] + (e.weights[-1] + 1,))
            assert not verify_table_entry(bad).ok, e.label

    def test_numerator_past_the_gorenstein_degree_fails(self, entries):
        # (1 - t^6)(1 - t^70) / P(1,1,1,2,3) agrees with the series up to
        # degree 60 but has degree 76 > 6 and pole order 3 at t = 1.
        entry = next(e for e in entries if e.label == "X6 in P(1,1,1,2,3)")
        bad = entry._replace(relation_degrees=(6, 70))
        report = verify_table_entry(bad)
        assert not report.checks["series"]
        assert not report.checks["degree"]
        assert not report.checks["palindromy"]

    def test_perturbed_degree_is_caught(self, entries):
        entry = next(e for e in entries if e.label == "X22 in P(1,2,3,7,11)")
        bad = entry._replace(a3=entry.a3 + 1)
        report = verify_table_entry(bad)
        assert not report.ok

    def test_perturbed_acz12_is_caught(self, entries):
        entry = next(e for e in entries if e.label == "X38 in P(2,3,5,11,19)")
        bad = entry._replace(acz12=entry.acz12 * 2)
        report = verify_table_entry(bad)
        assert not report.ok
        assert "acz12" in report.failed_checks()


class TestTablesAsOutput:
    def test_codim_1_and_2_models_are_tables_1_and_2(self, candidates, entries):
        # Both directions, as sets of (basket, genus, sorted weights) over
        # the 1319 candidates with no K3 obstruction: every table 1 or 2
        # row is a model of its codimension, and every model of codim 1
        # or 2 is a row.  Codim 3 and 4 have models that are not rows and
        # are not gated here.
        models = {}
        for c in candidates:
            if not c.k3_obstructed:
                m = corrected_inference(c)
                models.setdefault(m.codim, set()).add(
                    (c.basket, c.genus, m.weights))
        assert sum(map(len, models.values())) == 1319
        for codim in (1, 2):
            rows = {(e.basket, entry_genus(e), tuple(sorted(e.weights)))
                    for e in entries if e.table_id == codim}
            assert models[codim] == rows, codim
        assert (len(models[1]), len(models[2])) == (8, 26)


def degree_by_finite_differences(entry):
    """Independent estimate of A^3 from the expanded series alone.

    h^0(nA) is a cubic quasi-polynomial in n whose leading coefficient is
    A^3/6; a third forward difference evaluates to A^3 plus a mean-zero
    periodic part, so averaging over one full period of the basket is
    exact.  (Equivalently: 6 times the third-difference estimate of the
    leading coefficient.)
    """
    period = lcm(1, *(s.r for s in entry.basket))
    cutoff = period + 8
    series = hilbert_series(entry.basket, entry_genus(entry), cutoff)
    p = series
    window = [
        p[n + 3] - 3 * p[n + 2] + 3 * p[n + 1] - p[n] for n in range(1, period + 1)
    ]
    return Fraction(sum(window), period)


class TestDegreeCrossChecks:
    def test_finite_differences_agree_with_closed_form(self, entries):
        for e in entries:
            if e.table_id > 2:
                continue
            form = RationalForm(model_numerator(e), e.weights)
            assert degree_from_form(form) == e.a3
            assert degree_by_finite_differences(e) == e.a3
