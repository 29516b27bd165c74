"""Command-line front end.

Commands
--------
enumerate        write every candidate with a summary footer
inspect          full report for one (basket, genus) pair
verify-tables    check the bundled reference tables, exit 0 iff all pass;
                 every row is compared through its proven degree
histogram        per-genus statistics, or codimension estimates next to
                 the bundled reference counts
k3-obstructions  the candidates whose singular rank rules out a K3 elephant

``--cutoff`` sets the degree the series are cut at when they are printed,
serialised or counted as distinct, and nothing else.  A candidate
computes its series on read, to exactly the degree asked when it holds
less: the ``enumerate`` text lines read three coefficients,
``k3-obstructions`` text lines none, and records the series to the
cutoff.  Graded models (``inspect``, ``histogram --by codim``) read the
basket's series as deep as they need, and the degrees they read do not
depend on the cutoff, so they are the same at every cutoff.  A model
builds its numerator and shape on first read: ``inspect`` reads both,
while ``histogram --by codim`` reads only codimensions, so each of its
greedy passes computes the series only to the prefix that holds its
first relation.

The parsers are built once per process, on the first :func:`main` call,
so a long-lived caller pays for them once.  Each call is parsed by its
command's own parser, in one argparse pass.  The top-level parser answers
only argv that names no command, or that the command's parser does not
fully accept, so every help text, usage line and error message is
argparse's own.  Importing this module loads only what every command
needs: ``verify-tables`` alone loads :mod:`fano2.tables` and its
fixture, on its first call, and the fixture's checksum leaves out
:mod:`hashlib` and the OpenSSL it loads.

Exit codes: 0 success, 1 verification/domain failure, 2 usage or parse
error.  Output is deterministic for a fixed invocation; rationals are
printed exactly as p/q, never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Callable, Sequence
from functools import cache
from io import StringIO
from pathlib import Path

from .basket import BasketBoundError, BasketParseError, parse_basket
from .classify import (
    Candidate,
    candidate_record,
    distinct_series_count,
    enumerate_candidates,
    genus_histogram,
    ratio_text,
    write_csv,
    write_json,
)
from .graded_rings import REFERENCE_CODIM_COUNTS, corrected_inference
from .riemann_roch import (
    NonpositiveDegreeError,
    PolarisationResidualError,
)
from .series import DEFAULT_CUTOFF, RationalForm, poly_str


@cache
def _parsers() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The top-level parser and its map from command name to the command's
    parser, built on first use and then shared: parsing changes neither,
    so every later :func:`main` call reuses them."""
    parser = argparse.ArgumentParser(
        prog="fano2",
        description=(
            "Enumerate and analyse the candidate Hilbert series of "
            "Fano 3-folds polarised by -K = 2A."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, run):
        p.set_defaults(run=run)
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of stdout")

    def common(p, run, formats=("text", "json", "csv")):
        p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                       help="degree of the last series coefficient "
                       "reported (default %(default)s)")
        p.add_argument("--format", choices=formats, default="text")
        output(p, run)

    p = sub.add_parser("enumerate", help="list all candidates")
    p.add_argument("--stable", action="store_true",
                   help="restrict to the Bogomolov-Kawamata stable ones")
    common(p, cmd_enumerate)

    p = sub.add_parser("inspect", help="report on one (basket, genus) pair")
    p.add_argument("--basket", required=True, metavar="STR",
                   help='e.g. "3/1,5/1,11/3"; empty string for none')
    p.add_argument("--genus", required=True, type=int)
    common(p, cmd_inspect, formats=("text", "json"))

    p = sub.add_parser("verify-tables", help="check the bundled tables")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4), default=None)
    output(p, cmd_verify_tables)

    p = sub.add_parser("histogram", help="genus or codimension statistics")
    p.add_argument("--by", choices=("genus", "codim"), default="genus")
    p.add_argument("--stable", action="store_true")
    common(p, cmd_histogram, formats=("text", "csv"))

    p = sub.add_parser("k3-obstructions",
                       help="candidates that cannot carry a K3 elephant")
    common(p, cmd_k3_obstructions)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, shared by every call.  :func:`parse_args`
    consults it only for argv that names no command, or that the command's
    parser does not fully accept; it returns what this parser's
    ``parse_args`` would."""
    return _parsers()[0]


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_candidates(
    args: argparse.Namespace,
    cands: Sequence[Candidate],
    line: Callable[[Candidate], str],
    footer: str,
) -> None:
    """JSON or CSV records, or one text line per candidate and a footer."""
    buf = StringIO()
    if args.format == "json":
        write_json(cands, buf)
    elif args.format == "csv":
        write_csv(cands, buf)
    else:
        buf.writelines(line(c) + "\n" for c in cands)
        buf.write(footer + "\n")
    _emit(args, buf.getvalue())


def _candidate_line(c: Candidate) -> str:
    basket = str(c.basket) or "-"
    series = c.read(2)
    return (
        f"{basket:24s} g={c.genus:<3d} "
        f"A3={ratio_text(c.a3_scaled, c.scale):8s} "
        f"Ac2/12={ratio_text(c.acz12_scaled, c.scale):8s} "
        f"{'stable' if c.stable else 'unstable':8s} "
        f"h0(A)={series[1]:<3d} h0(2A)={series[2]:<4d} "
        f"K3-obstructed={'yes' if c.k3_obstructed else 'no'}"
    )


def _k3_line(c: Candidate) -> str:
    return (
        f"{str(c.basket):24s} g={c.genus:<3d} "
        f"A3={ratio_text(c.a3_scaled, c.scale):8s} "
        f"rank={c.basket.singular_rank:<3d} "
        f"{'stable' if c.stable else 'unstable'}"
    )


def cmd_enumerate(args: argparse.Namespace) -> int:
    cands = enumerate_candidates(args.cutoff, stable_only=args.stable)
    if args.stable:
        footer = f"{len(cands)} candidates"
    else:
        stable = sum(1 for c in cands if c.stable)
        k3 = sum(1 for c in cands if c.k3_obstructed)
        footer = f"{len(cands)} candidates, {stable} stable, {k3} K3-obstructed"
    _write_candidates(args, cands, _candidate_line, footer)
    if args.format != "text":
        # keep machine-readable streams clean; summary goes to stderr
        print(footer, file=sys.stderr)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    overweight = None
    try:
        basket = parse_basket(args.basket)
    except BasketParseError as exc:
        print(f"error: cannot parse basket: {exc}", file=sys.stderr)
        return 2
    except BasketBoundError as exc:  # too many points to build; the genus
        overweight = exc             # is checked first all the same
    if args.genus < -2:
        print(f"error: genus below -2 (got {args.genus}); "
              "no candidate has fewer than 0 sections of A", file=sys.stderr)
        return 2
    try:
        if overweight is not None:
            raise overweight
        c = Candidate(basket, args.genus, args.cutoff)
    except BasketBoundError as exc:
        print(f"error: inadmissible basket [{exc.basket}]: {exc}",
              file=sys.stderr)
        return 1
    except PolarisationResidualError:
        print(f"error: inadmissible basket [{basket}]: polarisation "
              "residual is nonzero", file=sys.stderr)
        return 1
    except NonpositiveDegreeError as exc:
        print(f"error: degree not positive: {exc}", file=sys.stderr)
        return 1

    # The record reads the series to the cutoff; the model reads past it
    # only when its first relation or its numerator lies deeper.
    record = candidate_record(c)
    model = corrected_inference(c)
    if args.format == "json":
        payload = record | {
            "status": c.status,
            "weights": list(model.weights),
            "numerator": list(model.numerator),
            "shape": model.shape,
            "codim": model.codim,
            "codim_is_lower_bound": model.codim_is_lower_bound,
        }
        _emit(args, json.dumps(payload) + "\n")
        return 0
    lines = [
        f"basket:      {basket or '(nonsingular)'}",
        f"genus:       {c.genus}",
        f"A3:          {record['A3']}",
        f"Ac2/12:      {record['Ac2_over_12']}",
        f"status:      {c.status}",
        f"singular rank: {basket.singular_rank}"
        + ("  (no K3 elephant)" if c.k3_obstructed else ""),
        f"series:      {', '.join(str(x) for x in record['series'][:13])}, ...",
        f"weights:     {','.join(str(w) for w in model.weights)}"
        + (f"  (seeded by polarisation: {model.seeded})" if model.seeded else ""),
        f"numerator:   {poly_str(model.numerator)}",
        f"closed form: {RationalForm(model.numerator, model.weights)}",
        f"shape:       {model.shape} (codim"
        + (" >= " if model.codim_is_lower_bound else " ")
        + f"{model.codim})",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify_tables(args: argparse.Namespace) -> int:
    from .tables import verify_all  # the tables load here only

    reports = verify_all(table_id=args.table)
    totals = Counter(r.entry.table_id for r in reports)
    passed = Counter(r.entry.table_id for r in reports if r.ok)
    failures = [r for r in reports if not r.ok]
    buf = [" ".join(f"Table{t} {passed[t]}/{totals[t]}" for t in sorted(totals))]
    for report in failures:
        buf.append(
            f"FAIL {report.entry.label}: checks failed: "
            f"{', '.join(report.failed_checks())}"
            + (f" ({'; '.join(report.notes)})" if report.notes else "")
        )
    _emit(args, "\n".join(buf) + "\n")
    return 0 if not failures else 1


def _table(fmt: str, header, widths, rows, total) -> list[str]:
    """The header and one line per row: comma-separated in CSV, and in
    text right-aligned to the widths, with the ``total`` row last."""
    if fmt == "csv":
        return [",".join(map(str, row)) for row in (header, *rows)]
    header = [h.replace("_", " ") for h in header]
    return [" ".join(f"{v!s:>{w}}" for v, w in zip(row, widths))
            for row in (header, *rows, total)]


def cmd_histogram(args: argparse.Namespace) -> int:
    cands = enumerate_candidates(args.cutoff, stable_only=args.stable)
    text = args.format == "text"  # the footer lines are text only
    if args.by == "genus":
        rows = genus_histogram(cands)
        lines = _table(
            args.format, ("genus", "total", "unstable", "min_A3", "max_A3"),
            (6, 6, 9, 10, 10), rows,
            ("sum", sum(r.total for r in rows), sum(r.unstable for r in rows)))
        if text:
            lines.append(f"distinct series: {distinct_series_count(cands)}")
    else:
        # K3-obstructed candidates have no K3 section to compare against,
        # so they are excluded, matching the reference's population.
        ours = Counter(corrected_inference(c).codim
                       for c in cands if not c.k3_obstructed)
        ref = REFERENCE_CODIM_COUNTS
        lines = _table(
            args.format, ("codim", "inferred", "reference"), (6, 9, 10),
            [(k, ours[k], ref.get(k, 0)) for k in sorted(set(ours) | set(ref))],
            ("sum", ours.total(), sum(ref.values())))
        if text:
            lines += [f"excluded (K3-obstructed): {len(cands) - ours.total()}",
                      "reference counts come from a K3-database comparison "
                      "and are a guide, not ground truth"]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_k3_obstructions(args: argparse.Namespace) -> int:
    cands = [c for c in enumerate_candidates(args.cutoff) if c.k3_obstructed]
    unstable = sum(1 for c in cands if not c.stable)
    _write_candidates(args, cands, _k3_line,
                      f"{len(cands)} candidates, {unstable} unstable")
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass when argv
    names a command and the command's parser accepts all the rest.  The
    top-level parser would only hand that rest over; every other argv goes
    to it, so help, usage and errors are argparse's own."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extras:
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if "cutoff" in args and args.cutoff < 2:
        _parsers()[1][args.command].error("argument --cutoff: must be >= 2")
    try:
        return args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
