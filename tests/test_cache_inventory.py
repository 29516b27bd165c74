"""Every module-level functools cache in fano2, each with its key universe.

A cache lives as long as the process, so each one must be keyed by a
universe that does not grow with the number of calls: the 58 singularity
types, the 1032 admissible baskets, or the power-of-two depth classes of
the Riemann-Roch tables, one per bit length of the cutoffs read.  A new
cache fails this test until it is named here with its bound.
"""

import importlib
import pkgutil

import fano2

INVENTORY = {
    # no arguments: one entry
    "cli._parsers",
    # (r, a) of the 58 types
    "graded_rings._required_residues",
    # baskets: only admissible ones are cached, so at most 1032
    "riemann_roch.acz12_from_basket",
    "riemann_roch.scaled_invariants",
    # types: 58
    "riemann_roch._periodic_table",
    "riemann_roch._type_constants",
    # types and residues n mod r: at most 940
    "riemann_roch.periodic_term",
    # depth classes: one per bit length of the cutoffs read
    "riemann_roch._unit_series",
    # types and depth classes
    "riemann_roch._point_series",
    # depth classes and lane widths: 64 bits unless a coefficient reaches
    # 2^63
    "riemann_roch._bias",
}


def module_caches() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(fano2.__path__):
        module = importlib.import_module(f"fano2.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                found.add(f"{info.name}.{name}")
    return found


def test_every_module_cache_is_in_the_inventory():
    assert module_caches() == INVENTORY
