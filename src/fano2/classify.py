"""Exhaustive enumeration of candidate Hilbert series and their statistics.

A candidate is a pair (basket, genus) passing every numerical filter:
basket load < 24, polarisation residual 0, degree A^3 = base + genus + 2
strictly positive and at most (48/5)(Ac2/12), the genera of
:func:`~fano2.riemann_roch.genus_range`.  The genus range -2..9 is not
imposed anywhere; it emerges from the filters and is asserted by the
test suite.

A candidate computes its Hilbert series on read, to exactly the degree
asked when it holds less (:meth:`Candidate.read`).  So a caller that
prints three coefficients, a greedy pass whose first relation lies in its
first prefix, or a numerator read to half its Gorenstein degree builds no
more of the series than it reads.  The rule reads no cutoff: the cutoff
says only how far records print.  The JSON and CSV writers read each
candidate once, to its cutoff, and do not keep its series: the
candidates they write stay unread.

Candidates are written as JSON records and CSV rows with a fixed field
order; rationals are written as exact ``p/q`` strings, never floats.
Records are output only: they are never read back.  A candidate is its
identity (basket, genus, cutoff): ``Candidate(basket, genus, cutoff)``
derives everything else from it, and a copy or an unpickled candidate is
built by it again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence, TextIO

from .basket import Basket, enumerate_baskets
from .riemann_roch import (
    genus_range,
    hilbert_series,
    kawamata_status,
    scaled_degree,
    STABLE,
)
from .series import DEFAULT_CUTOFF, Series

#: A basket whose singular rank reaches this bound cannot carry a K3
#: elephant: that many exceptional (-2)-curves plus the polarisation class
#: would exceed the rank-20 Picard lattice of a K3 surface.
K3_RANK_BOUND = 20

#: Fixed column order for JSON records and CSV rows.
RECORD_FIELDS = (
    "basket",
    "genus",
    "A3",
    "Ac2_over_12",
    "stable",
    "h0_A",
    "h0_2A",
    "k3_obstructed",
    "series",
)


class ReadOnlyValue:
    """A read-only value that compares, hashes and prints by the fields
    its class names in ``_identity``, and by no other."""

    __slots__ = ()
    _identity: tuple[str, ...]

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(
            f"{type(self).__name__} field {name!r} is read-only")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._identity)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._identity)
        return f"{type(self).__name__}({fields})"


class Candidate(ReadOnlyValue):
    """The candidate of one (basket, genus) pair, A^3 = base + genus + 2.

    A candidate is its identity (basket, genus, cutoff); the constructor
    derives and checks every other field.  A cutoff below 2 raises
    ValueError, since records report h^0(2A).  An inadmissible basket or
    A^3 <= 0 raises :class:`BasketBoundError`,
    :class:`PolarisationResidualError` or :class:`NonpositiveDegreeError`
    through :func:`scaled_degree`, as :func:`hilbert_series` does, but no
    series is built.  The degree cap is not applied.

    ``status`` is the :func:`~fano2.riemann_roch.kawamata_status` of the
    degree: stable, unstable, or rejected past the degree cap, and
    ``stable`` is False for a rejected pair as for an unstable one.  A^3
    and Ac2/12 are kept as integers over the basket's common denominator
    ``scale`` (see :func:`~fano2.riemann_roch.scaled_invariants`); ``a3``
    and ``acz12`` build their Fractions on read, for output.

    The Hilbert series is computed on read: :meth:`read` returns it to
    any degree, computing exactly that degree when it holds less and
    keeping the deepest series computed so far; ``series`` is the series
    to ``cutoff``, the degree records report.  :func:`write_json` and
    :func:`write_csv` read each candidate once, to its cutoff, and do not
    keep its series.
    Nothing else reads the cutoff: the same reads compute the same series
    whatever cutoff the candidate was built with.
    A candidate is read-only.  It compares, hashes, pickles and prints by
    its identity alone, so a copy derives and checks its fields again.
    """

    _identity = ("basket", "genus", "cutoff")
    __slots__ = _identity + (
        "scale", "a3_scaled", "acz12_scaled", "status", "k3_obstructed",
        "_held",
    )

    def __init__(
        self, basket: Basket, genus: int, cutoff: int = DEFAULT_CUTOFF
    ) -> None:
        if cutoff < 2:
            raise ValueError(
                "candidate records report h0(2A); cutoff must be >= 2")
        d, acz12_d, a3_d = scaled_degree(basket, genus)
        put = object.__setattr__
        put(self, "basket", basket)
        put(self, "genus", genus)
        put(self, "cutoff", cutoff)
        put(self, "scale", d)
        put(self, "a3_scaled", a3_d)
        put(self, "acz12_scaled", acz12_d)
        put(self, "status", kawamata_status(a3_d, acz12_d))
        put(self, "k3_obstructed", basket.singular_rank >= K3_RANK_BOUND)
        put(self, "_held", ())  # set only by read

    def __reduce__(self):
        return Candidate, self._fields()

    def read(self, h: int) -> Series:
        """The series to degree h, sliced from the series held.

        Past the series held, one :func:`hilbert_series` call computes
        it to exactly degree h, which is then held; a read within it
        computes nothing.  How far ahead to read is the caller's choice:
        :func:`~fano2.graded_rings.corrected_inference` doubles its greedy
        prefixes itself.  The cutoff is not read.
        """
        held = self._held
        if h >= len(held):
            held = hilbert_series(self.basket, self.genus, h)
            object.__setattr__(self, "_held", held)
        return held[: h + 1]

    @property
    def series(self) -> Series:
        return self.read(self.cutoff)

    @property
    def a3(self) -> Fraction:
        return Fraction(self.a3_scaled, self.scale)

    @property
    def acz12(self) -> Fraction:
        return Fraction(self.acz12_scaled, self.scale)

    @property
    def stable(self) -> bool:
        return self.status == STABLE


def anticanonical_sections(c: Candidate) -> int:
    """h^0(-K) = h^0(2A), the coefficient of t^2; always >= 1."""
    return c.read(2)[2]


def enumerate_candidates(
    cutoff: int = DEFAULT_CUTOFF, stable_only: bool = False
) -> tuple[Candidate, ...]:
    """All candidates in canonical order: basket (lexicographic), then
    genus ascending.  Deterministic; each call builds fresh, unread
    candidates."""
    cands = (Candidate(basket, g, cutoff)
             for basket in enumerate_baskets() for g in genus_range(basket))
    return tuple(c for c in cands if not stable_only or c.stable)


def distinct_series_count(candidates: Iterable[Candidate]) -> int:
    """Number of distinct truncated series among the candidates.

    Candidates are (basket, genus) pairs; this counts the series
    themselves in case two pairs ever produce the same expansion (none do
    at the default cutoff, so both counts are reported equal)."""
    return len({c.series for c in candidates})


class GenusRow(NamedTuple):
    genus: int
    total: int
    unstable: int
    min_a3: Fraction
    max_a3: Fraction


def genus_histogram(candidates: Sequence[Candidate]) -> list[GenusRow]:
    """Per-genus totals, unstable counts and exact degree extremes."""
    by_genus: dict[int, list[Candidate]] = {}
    for c in candidates:
        by_genus.setdefault(c.genus, []).append(c)
    rows = []
    for g in sorted(by_genus):
        group = by_genus[g]
        rows.append(
            GenusRow(
                genus=g,
                total=len(group),
                unstable=sum(1 for c in group if not c.stable),
                min_a3=min(c.a3 for c in group),
                max_a3=max(c.a3 for c in group),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# serialisation


def ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms as ``str(Fraction(p, q))`` writes it, for q > 0,
    without building the Fraction."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def candidate_record(c: Candidate) -> dict:
    """JSON-ready dict with the fixed field order of RECORD_FIELDS."""
    series = c.series
    return {
        "basket": [[s.r, s.a] for s in c.basket],
        "genus": c.genus,
        "A3": ratio_text(c.a3_scaled, c.scale),
        "Ac2_over_12": ratio_text(c.acz12_scaled, c.scale),
        "stable": c.stable,
        "h0_A": series[1],
        "h0_2A": series[2],
        "k3_obstructed": c.k3_obstructed,
        "series": list(series),
    }


def write_json(candidates: Sequence[Candidate], fp: TextIO) -> None:
    """One JSON list of records: the text ``json.dumps`` writes for the
    list of :func:`candidate_record` dicts, which is the reference the
    records must match.  Each record is one ``%``-format of a template
    with one ``%d`` per series coefficient.  Its series is computed to
    the cutoff for the record and dropped, not held on the candidate, so
    no series is kept and no integer gets a string of its own."""
    templates: dict[int, str] = {}
    fp.write("[")
    for i, c in enumerate(candidates):
        series = hilbert_series(c.basket, c.genus, c.cutoff)
        template = templates.get(len(series))
        if template is None:
            template = templates[len(series)] = (
                '{"basket": %s, "genus": %d, "A3": "%s", "Ac2_over_12": "%s", '
                '"stable": %s, "h0_A": %d, "h0_2A": %d, "k3_obstructed": %s, '
                '"series": [' + ", ".join(["%d"] * len(series)) + "]}")
        fp.write((", " if i else "") + template % (
            str([[s.r, s.a] for s in c.basket]),
            c.genus,
            ratio_text(c.a3_scaled, c.scale),
            ratio_text(c.acz12_scaled, c.scale),
            "true" if c.stable else "false",
            series[1],
            series[2],
            "true" if c.k3_obstructed else "false",
            *series,
        ))
    fp.write("]\n")


def write_csv(candidates: Iterable[Candidate], fp: TextIO) -> None:
    """CSV with the JSON field order; basket in r/a text syntax, series as
    space-separated integers.  Each record is read from a fresh copy of
    its candidate, which is dropped with its series, so the candidates
    written stay unread, as :func:`write_json` leaves them."""
    import csv  # only this writer needs it

    writer = csv.DictWriter(fp, RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for c in candidates:
        rec = candidate_record(Candidate(c.basket, c.genus, c.cutoff))
        writer.writerow(rec | {
            "basket": str(c.basket),
            "series": " ".join(str(x) for x in rec["series"]),
        })
