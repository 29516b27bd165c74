"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))
from fano2 import cli  # noqa: E402
from fano2.classify import enumerate_candidates  # noqa: E402

ROOT = run.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, script=run.HERE / "run.py", cwd=ROOT):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_reply(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": "", "elapsed": 0.0,
            "rss_kb": 1, "peak_rss_kb": 1}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_families_smoke_prints_every_metric_with_its_unit(trace, kind):
    proc = bench("--workload", "families", "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.FAMILY_WARMUP + run.FAMILY_BLOCK
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    for name, unit in declared(kind).items():
        assert f"  {name} " in proc.stdout and proc.stdout.count(unit)


BATCH_COUNTS = {
    "enumerate": {
        "classify.candidates": 1492, "classify.k3_obstructed": 173,
        "basket.baskets": 1032, "riemann_roch.hilbert_series.calls": 1492,
        "riemann_roch.series_coeffs": 1492 * 61,
        "graded_rings.corrected_inference.calls": 0, "tables.rows_ok": 0,
    },
    "analyse": {
        "classify.candidates": 1492, "basket.baskets": 1032,
        "riemann_roch.hilbert_series.calls": 1492 + 71,
        "graded_rings.corrected_inference.calls": 1319 + 71,
        "tables.verify_table_entry.calls": 71, "tables.rows_ok": 69,
        "classify.write_json.calls": 0,
    },
}


@pytest.mark.parametrize("workload", sorted(BATCH_COUNTS))
def test_batch_trace_counts(workload):
    metrics = {k: v["value"] for k, v in result_of(bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", "1"))["metrics"].items()}
    for name, count in BATCH_COUNTS[workload].items():
        assert metrics[name] == count, name
    accounted = sum(metrics[f"{name}.self_s"] for name in tracing.WRAPPED)
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=0.01)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "families", "--seed", "1", "--seconds", "1",
                 "--trace", "0", script=tmp_path / "perfbench" / "run.py",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- checkers -------------------------------------------------------------

@pytest.fixture(scope="module")
def inspect_case():
    cand = enumerate_candidates(2)[700]
    reply = cli_reply(["inspect", "--basket", str(cand.basket), "--genus",
                       str(cand.genus), "--cutoff", "60", "--format", "json"])
    return cand, reply


def corrupt(reply: dict, **changes) -> dict:
    answer = json.loads(reply["stdout"])
    for key, fn in changes.items():
        answer[key] = fn(answer[key])
    return dict(reply, stdout=json.dumps(answer))


def test_inspect_answer_passes(inspect_case):
    cand, reply = inspect_case
    assert checks.check_inspect(reply, cand, 60, random.Random(0)) == ([], 1)


@pytest.mark.parametrize("degree", [0, 17, 60])
def test_flipped_series_coefficient_fails(inspect_case, degree):
    cand, reply = inspect_case

    def flip(series):
        series[degree] += 1
        return series

    problems, items = checks.check_inspect(
        corrupt(reply, series=flip), cand, 60, random.Random(0))
    assert problems and items == 0


@pytest.mark.parametrize("key, fn", [
    ("A3", lambda a3: "1/7"),
    ("stable", lambda stable: not stable),
    ("h0_A", lambda h: h + 1),
    ("numerator", lambda num: num[:-1]),
])
def test_wrong_field_fails(inspect_case, key, fn):
    cand, reply = inspect_case
    problems, _ = checks.check_inspect(
        corrupt(reply, **{key: fn}), cand, 60, random.Random(0))
    assert problems


def test_bad_exit_or_crash_fails(inspect_case):
    cand, reply = inspect_case
    for bad in (dict(reply, rc=1), dict(reply, rc=None, error="Traceback\nBoom")):
        assert checks.check_inspect(bad, cand, 60, random.Random(0))[0]


class FakeWorker:
    traced = False

    def __init__(self, reply):
        self.reply = reply

    def request(self, message):
        return self.reply


def test_session_counts_a_corrupted_answer_as_failed(inspect_case):
    cand, reply = inspect_case
    session = run.Session("families")
    bad = corrupt(reply, series=lambda s: s[:-1] + [s[-1] + 1])
    for answer in (reply, bad):
        session.op(FakeWorker(answer), ["inspect"], checks.check_inspect,
                   cand, 60, random.Random(0), unit=run.Unit())
    assert session.attempted == 2 and len(session.failures) == 1


def test_enumerate_gate():
    reply = cli_reply(["enumerate", "--format", "json"])
    assert checks.check_enumerate(reply) == ([], 1492)
    flipped = reply["stdout"].replace('"genus": -2', '"genus": -1', 1)
    assert checks.check_enumerate(dict(reply, stdout=flipped))[0]


def test_verify_tables_gate():
    reply = cli_reply(["verify-tables"])
    assert checks.check_verify_tables(reply) == ([], checks.TABLE_ROWS)
    assert checks.check_verify_tables(dict(reply, rc=0))[0]
    assert checks.check_verify_tables(
        dict(reply, stdout=reply["stdout"].replace("33/35", "35/35")))[0]


HISTOGRAM = "\n".join(
    [f"{'codim':>6} {'inferred':>9} {'reference':>10}"]
    + [f"{k:>6d} {v:>9d} {v:>10d}" for k, v in checks.REFERENCE_CODIM_COUNTS.items()]
    + [f"{'sum':>6} {1319:>9d} {1319:>10d}",
       "excluded (K3-obstructed): 173", ""])


def test_histogram_gate_checks_invariants_only():
    reply = {"rc": 0, "stdout": HISTOGRAM}
    assert checks.check_histogram(reply) == ([], checks.HISTOGRAM_MODELS)
    moved = HISTOGRAM.replace("     1         8 ", "     1         9 ").replace(
        "     2        26 ", "     2        25 ")
    assert checks.check_histogram(dict(reply, stdout=moved)) == ([], 1319)
    for bad in (HISTOGRAM.replace("        26\n", "        27\n"),
                HISTOGRAM.replace("173", "171"),
                HISTOGRAM.replace("     1         8 ", "     1         9 ")):
        assert checks.check_histogram(dict(reply, stdout=bad))[0]


# -- trace ----------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, 1],
             ["riemann_roch.hilbert_series", 1.0, 4.0, 0, 1],
             ["series.expand", 2.0, 3.0, 1, 1],
             ["cli.main", 20.0, 30.0, -1, 2]]
    totals = tracing.layer_totals(spans, {"1": {"basket.baskets": 5}}, {1})
    assert totals["cli.main.self_s"] == 7.0
    assert totals["cli.main.calls"] == 1
    assert totals["riemann_roch.hilbert_series.self_s"] == 2.0
    assert totals["riemann_roch.hilbert_series.total_s"] == 3.0
    assert totals["series.expand.self_s"] == 1.0
    assert totals["basket.baskets"] == 5


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", ("series.no_such_function",))
    with pytest.raises(tracing.TraceError, match="no_such_function"):
        tracing.Recorder().install()


def test_idle_layer_fails_loudly():
    with pytest.raises(tracing.TraceError, match="classify.write_json"):
        tracing.require_calls({"cli.main.calls": 1},
                              ("cli.main", "classify.write_json"), "enumerate")


def test_count_that_differs_between_units_fails_loudly():
    session = run.Session("enumerate")
    session.layers.update({f"{name}.calls": 2 for name in tracing.WRAPPED})
    for baskets in (1032, 1031):
        session.units[False].append(run.Unit(elapsed=1.0))
        session.units[True].append(run.Unit(elapsed=1.0, layers={
            **{f"{name}.calls": 1 for name in tracing.WRAPPED},
            "basket.baskets": baskets}))
    with pytest.raises(tracing.TraceError, match="basket.baskets"):
        run.per_layer(session)
