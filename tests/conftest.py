import pytest

from fano2 import enumerate_candidates, scaled_invariants


@pytest.fixture(scope="session")
def candidates():
    """The full enumeration at the default cutoff, shared by the suite."""
    return enumerate_candidates()


@pytest.fixture
def fresh_invariants():
    """Empty the per-basket cache of scaled_invariants around a test that
    monkeypatches a Fraction constant behind it, so that the patch is
    seen and none of its values outlive the test."""
    scaled_invariants.cache_clear()
    yield
    scaled_invariants.cache_clear()
