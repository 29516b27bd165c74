"""The names and return values the benchmark trace reads from fano2.

``perfbench/tracing.py`` wraps public functions by name and counts fields
of their return values; ``perfbench/worker.py`` reads the cache counters
of ``periodic_term``; ``perfbench/run.py`` fails a traced run in which a
workload never calls a layer of its ``EXPECTED_CALLS``, and picks the
``families`` queries from ``enumerate_candidates(2)``, whose fields
``perfbench/checks.py`` compares with each answer.  The modules are
loaded by path, or read as source, and left untouched, so an API change
that would break the trace fails here first.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fano2 import riemann_roch
from fano2.basket import enumerate_baskets, parse_basket
from fano2.classify import Candidate, enumerate_candidates
from fano2.graded_rings import corrected_inference
from fano2.tables import load_table_entries, verify_table_entry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

#: The command lines of one unit of each benchmark workload, in the order
#: the unit runs them; ``families`` runs one of its inspect queries.
WORKLOAD_ARGV = {
    "enumerate": [["enumerate", "--format", "json"]],
    "analyse": [["histogram", "--by", "codim"], ["verify-tables"]],
    "families": [["inspect", "--basket", "5x3/1,7/1", "--genus", "-2",
                  "--cutoff", "60", "--format", "json"]],
}

#: Runs the command lines given as JSON in argv[1] under a trace, each as
#: one request, and prints the recorder's dump.
TRACED_RUN = """
import contextlib, io, json, sys
import fano2.cli as cli
from tracing import Recorder

recorder = Recorder()
recorder.install()
for run_id, argv in enumerate(json.loads(sys.argv[1])):
    recorder.run_id = run_id
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print(json.dumps(recorder.dump()))
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_fano2_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_callable(tracing):
    for name in tracing.WRAPPED:
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"fano2.{module}"), attr, None)
        assert callable(target), name


def _sample_results():
    basket = parse_basket("5x3/1,7/1")
    return {
        "riemann_roch.hilbert_series":
            riemann_roch.hilbert_series(basket, -2, 60),
        "graded_rings.corrected_inference":
            corrected_inference(Candidate(basket, -2)),
        "classify.enumerate_candidates": enumerate_candidates(),
        "basket.enumerate_baskets": enumerate_baskets(),
        "tables.verify_table_entry": verify_table_entry(load_table_entries()[0]),
    }


def test_result_counters_accept_real_return_values(tracing):
    results = _sample_results()
    assert set(tracing.RESULT_COUNTS) == set(results)
    for name, count in tracing.RESULT_COUNTS.items():
        counters = count(results[name])
        assert counters, name
        assert all(isinstance(n, int) for n in counters.values()), name


def test_periodic_term_keeps_its_cache_counters():
    info = riemann_roch.periodic_term.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _expected_calls() -> dict:
    """``EXPECTED_CALLS`` of perfbench/run.py, read from its source: importing
    it would set ``sys.dont_write_bytecode`` in this process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "EXPECTED_CALLS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no EXPECTED_CALLS")


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ARGV))
def test_each_workload_calls_every_layer_its_trace_expects(tracing, workload):
    # one fresh process per workload, as the benchmark's workers are
    expected = _expected_calls()
    assert set(expected) == set(WORKLOAD_ARGV)
    argvs = WORKLOAD_ARGV[workload]
    src = Path(importlib.import_module("fano2").__file__).parents[1]
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(proc.stdout)
    totals = tracing.layer_totals(dump["spans"], dump["counts"],
                                  range(len(argvs)))
    tracing.require_calls(totals, expected[workload], workload)


def test_families_queries_read_the_candidate_list():
    # run_families seeds random.choice over enumerate_candidates(2), so the
    # list keeps its length and canonical order at that cutoff; and
    # check_inspect builds its expected answer from these fields
    cands = enumerate_candidates(2)
    assert len(cands) == 1492
    assert [(c.basket, c.genus) for c in cands] == [
        (c.basket, c.genus) for c in enumerate_candidates()]
    for c in cands:
        assert all(type(s.r) is int and type(s.a) is int for s in c.basket)
        assert type(c.genus) is int
        assert type(c.a3) is Fraction and c.a3 > 0
        assert type(c.series[1]) is int
        assert type(c.stable) is bool
