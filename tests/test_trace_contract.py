"""The names and return values the benchmark trace reads from fano2.

``perfbench/tracing.py`` wraps public functions by name and counts fields
of their return values; ``perfbench/worker.py`` reads the cache counters
of ``periodic_term``.  The module is loaded by path and left untouched, so
an API change that would break the trace fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fano2 import riemann_roch
from fano2.basket import enumerate_baskets, parse_basket
from fano2.classify import candidate, enumerate_candidates
from fano2.graded_rings import corrected_inference
from fano2.tables import load_table_entries, verify_table_entry

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
            corrected_inference(candidate(basket, -2)),
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
