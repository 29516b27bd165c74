import pytest

from fano2 import enumerate_candidates, riemann_roch, scaled_invariants


@pytest.fixture(scope="session")
def candidates():
    """The full enumeration at the default cutoff, shared by the suite."""
    return enumerate_candidates()


@pytest.fixture
def fresh_invariants():
    """Empty the per-basket cache of scaled_invariants and the per-type
    caches behind it and behind the series around a test that
    monkeypatches a constant they read, so that the patch is seen and
    none of its values outlive the test."""
    caches = (
        scaled_invariants,
        riemann_roch._type_constants,
        riemann_roch._point_series,
    )
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
