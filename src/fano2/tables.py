"""The bundled reference tables of low-codimension families and their
verification against the Riemann-Roch machinery.

Table 1 holds hypersurfaces (one relation degree), table 2 codimension-2
complete intersections (two), table 3 the 5x5-Pfaffian families (five),
and table 4 proposed codimension-4 ambients (weights only; two rows also
carry an explicit Hilbert-numerator prefix).  The fixture ships inside
the package as reviewed data behind a pinned checksum, so a transcription
edit is distinguishable from a code regression.

For every entry, :func:`verify_table_entry` re-derives everything from
the basket alone and compares: the series against the closed form of the
row's numerator, the degree of that form, A c2 / 12, the ambient weights
recovered by generator inference, and the Gorenstein symmetry of the
numerator.  Each row's series is compared through the row's proven
degree (:func:`~fano2.series.certificate_degree`), through which
agreement makes the row's closed form the series itself.

The checksum takes ``sha256`` from CPython's built-in ``_sha256`` module
rather than :mod:`hashlib`, which loads OpenSSL: that library made
``verify-tables`` the largest process of any command, for a digest of
one 10 kB file.  Where the built-in module is missing, :mod:`hashlib`
gives the same digest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

try:  # as random.py takes _sha512: "hashlib is pretty heavy to load"
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .basket import Basket, parse_basket
from .classify import Candidate
from .graded_rings import FORMATS, corrected_inference
from .riemann_roch import acz12_from_basket, base_degree
from .series import (
    IntPoly,
    RationalForm,
    certificate_degree,
    codimension,
    degree_from_form,
    expand,
    gorenstein_degree,
    numerator_wrt_weights,
    palindromy_sign,
    poly_degree,
)

#: SHA-256 of data/tables.json; the loader refuses data that differs.
TABLES_SHA256 = "afba79c963ed860943c3d7bb1fcb947a8758bdff32b4a2d7296feaad2ac81b2a"

CHECKS = ("series", "degree", "acz12", "weights", "palindromy")


class FixtureIntegrityError(RuntimeError):
    """The table fixture does not match its pinned checksum."""


class TableEntry(NamedTuple):
    """One row of the reference tables.  ``relation_degrees`` are the
    degrees of the row's equations, read from the fixture's ``relations``
    (tables 1 and 2) or ``pfaffians`` (table 3) key."""

    table_id: int
    label: str
    weights: tuple[int, ...]
    basket: Basket
    a3: Fraction
    acz12: Fraction
    relation_degrees: tuple[int, ...] | None = None
    numerator_prefix: tuple[int, ...] | None = None
    numerator_top_degree: int | None = None


class CheckReport:
    """Pass/fail per check for one table entry."""

    def __init__(self, entry: TableEntry) -> None:
        self.entry = entry
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return all(self.checks.get(name, False) for name in CHECKS)

    def failed_checks(self) -> list[str]:
        return [name for name in CHECKS if not self.checks.get(name, False)]


def _fixture_bytes(path: Path | None = None) -> bytes:
    if path is not None:
        return Path(path).read_bytes()
    return (resources.files("fano2") / "data" / "tables.json").read_bytes()


def load_table_entries(path: Path | None = None) -> tuple[TableEntry, ...]:
    """Load and checksum-validate the fixture (or an explicit file)."""
    raw = _fixture_bytes(path)
    digest = sha256(raw).hexdigest()
    if digest != TABLES_SHA256:
        raise FixtureIntegrityError(
            f"tables.json checksum {digest} != pinned {TABLES_SHA256}"
        )
    entries = []
    for rec in json.loads(raw.decode()):
        degrees = rec.get("relations", rec.get("pfaffians"))
        entries.append(
            TableEntry(
                table_id=rec["table"],
                label=rec["label"],
                weights=tuple(rec["weights"]),
                basket=parse_basket(rec["basket"]),
                a3=Fraction(rec["A3"]),
                acz12=Fraction(rec["Ac2_over_12"]),
                relation_degrees=None if degrees is None else tuple(degrees),
                numerator_prefix=tuple(rec["numerator_prefix"]) if "numerator_prefix" in rec else None,
                numerator_top_degree=rec.get("numerator_top_degree"),
            )
        )
    return tuple(entries)


def model_numerator(entry: TableEntry) -> IntPoly | None:
    """The tabulated Hilbert numerator, when the table carries one: the
    formula of the row's codimension over its relation degrees."""
    if entry.relation_degrees is None:
        return None
    _, formula, _ = FORMATS[codimension(entry.weights)]
    return formula(entry.relation_degrees)


def entry_genus(entry: TableEntry) -> int:
    """Genus from the tabulated degree: A^3 = base_degree + genus + 2."""
    g = entry.a3 - base_degree(entry.basket) - 2
    if g.denominator != 1:
        raise ValueError(
            f"{entry.label}: tabulated degree {entry.a3} is not base + N"
        )
    return int(g)


def verify_table_entry(entry: TableEntry) -> CheckReport:
    """Re-derive the entry from its basket and compare, all exactly.

    The numerator is the tabulated one in tables 1-3 and, in table 4, the
    Gorenstein numerator read off the series over the row's weights.  It
    passes ``series`` when its degree is at most sum(weights) - 2 and its
    closed form expands to the series through the proven degree, which
    makes it the series itself (and it matches a tabulated prefix).
    ``degree`` and ``palindromy`` need the same, so a wrong row fails them
    rather than raising; ``palindromy`` asks for the Gorenstein symmetry
    about sum(weights) - 2 with sign (-1)^codim.
    """
    report = CheckReport(entry=entry)
    c = Candidate(entry.basket, entry_genus(entry))
    cut = certificate_degree(entry.basket, entry.weights)
    series = c.read(cut)

    numerator = model_numerator(entry)
    if numerator is None:
        numerator = numerator_wrt_weights(series, entry.weights)
    form = RationalForm(numerator, entry.weights)
    top = gorenstein_degree(entry.weights)
    reproduces = poly_degree(numerator) <= top and expand(form, cut) == series
    report.checks["series"] = reproduces
    if not reproduces:
        report.notes.append("series mismatch against the row's numerator")
    if entry.numerator_prefix is not None and (
        numerator[: len(entry.numerator_prefix)] != entry.numerator_prefix
        or poly_degree(numerator) != entry.numerator_top_degree
    ):
        report.checks["series"] = False
        report.notes.append("numerator prefix/top degree mismatch")

    report.checks["degree"] = reproduces and degree_from_form(form) == entry.a3
    sign = (-1) ** codimension(entry.weights)
    report.checks["palindromy"] = (
        reproduces and palindromy_sign(numerator, top) == sign)

    report.checks["acz12"] = acz12_from_basket(entry.basket) == entry.acz12

    model = corrected_inference(c)
    report.checks["weights"] = model.weights == tuple(sorted(entry.weights))
    if not report.checks["weights"]:
        report.notes.append(
            f"inferred weights {model.weights} != tabulated {entry.weights}"
        )
    return report


def verify_all(entries=None, table_id: int | None = None) -> list[CheckReport]:
    """Verify every entry (optionally one table); deterministic order."""
    if entries is None:
        entries = load_table_entries()
    if table_id is not None:
        entries = [e for e in entries if e.table_id == table_id]
    return [verify_table_entry(e) for e in entries]
