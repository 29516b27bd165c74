from collections import Counter

import pytest

from fano2 import (
    classify,
    enumerate_candidates,
    graded_rings,
    riemann_roch,
    scaled_invariants,
)


@pytest.fixture(scope="session")
def candidates():
    """The full enumeration at the default cutoff, shared by the suite."""
    return enumerate_candidates()


@pytest.fixture
def fresh_invariants():
    """Empty the per-basket cache of scaled_invariants and the caches
    behind it and behind the series (the integer periodic tables per
    type, and the packed point tables, unit tables and lane biases per
    depth class) around a test that monkeypatches a constant they read,
    so that the patch is seen and none of its values outlive the test,
    or that counts the tables a run of reads keeps."""
    caches = (
        scaled_invariants,
        riemann_roch._periodic_table,
        riemann_roch._type_constants,
        riemann_roch._point_series,
        riemann_roch._unit_series,
        riemann_roch._bias,
    )
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def model_builds(monkeypatch):
    """Calls of the numerator and shape builders of graded models."""
    calls = Counter()
    for name in ("numerator_wrt_weights", "classify_shape"):
        def counted(*args, _name=name, _fn=getattr(graded_rings, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(graded_rings, name, counted)
    return calls


@pytest.fixture
def series_reads(monkeypatch):
    """The series candidates compute, as (basket, genus, cutoff) per call
    of hilbert_series."""
    reads = []

    def counted(basket, genus, cutoff, _fn=classify.hilbert_series):
        reads.append((basket, genus, cutoff))
        return _fn(basket, genus, cutoff)

    monkeypatch.setattr(classify, "hilbert_series", counted)
    return reads
