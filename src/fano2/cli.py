"""Command-line front end.

Commands
--------
enumerate        write every candidate with a summary footer
inspect          full report for one (basket, genus) pair
verify-tables    check the bundled reference tables, exit 0 iff all pass;
                 every row is cut at degree 60
histogram        per-genus statistics, or codimension estimates next to
                 the bundled reference counts
k3-obstructions  the candidates whose singular rank rules out a K3 elephant

``--cutoff`` sets the degree the series are cut at when they are printed,
serialised or counted as distinct.  Graded models (``inspect``,
``histogram --by codim``) read the basket's series as deep as they need,
so they are the same at every cutoff.

The parser is built once per process, on the first :func:`main` call, so
a long-lived caller pays for it once.

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

from .basket import BasketParseError, parse_basket
from .classify import (
    Candidate,
    candidate,
    candidate_record,
    distinct_series_count,
    enumerate_candidates,
    genus_histogram,
    write_csv,
    write_json,
)
from .graded_rings import REFERENCE_CODIM_COUNTS, corrected_inference
from .riemann_roch import (
    BasketBoundError,
    NonpositiveDegreeError,
    PolarisationResidualError,
)
from .series import DEFAULT_CUTOFF, RationalForm, poly_str
from .tables import verify_all


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    does not change it, so every later :func:`main` call reuses it."""
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
                       "reported (default 60)")
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
    return parser


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
    return (
        f"{basket:24s} g={c.genus:<3d} A3={c.a3!s:8s} "
        f"Ac2/12={c.acz12!s:8s} {'stable' if c.stable else 'unstable':8s} "
        f"h0(A)={c.series[1]:<3d} h0(2A)={c.series[2]:<4d} "
        f"K3-obstructed={'yes' if c.k3_obstructed else 'no'}"
    )


def _k3_line(c: Candidate) -> str:
    return (
        f"{str(c.basket):24s} g={c.genus:<3d} A3={c.a3!s:8s} "
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
    try:
        basket = parse_basket(args.basket)
    except BasketParseError as exc:
        print(f"error: cannot parse basket: {exc}", file=sys.stderr)
        return 2
    if args.genus < -2:
        print(f"error: genus below -2 (got {args.genus}); "
              "no candidate has fewer than 0 sections of A", file=sys.stderr)
        return 2
    try:
        c = candidate(basket, args.genus, args.cutoff)
    except BasketBoundError as exc:
        print(f"error: inadmissible basket [{basket}]: {exc}", file=sys.stderr)
        return 1
    except PolarisationResidualError:
        print(f"error: inadmissible basket [{basket}]: polarisation "
              "residual is nonzero", file=sys.stderr)
        return 1
    except NonpositiveDegreeError as exc:
        print(f"error: degree not positive: {exc}", file=sys.stderr)
        return 1

    model = corrected_inference(c)
    if args.format == "json":
        payload = candidate_record(c) | {
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
        f"A3:          {c.a3}",
        f"Ac2/12:      {c.acz12}",
        f"status:      {c.status}",
        f"singular rank: {basket.singular_rank}"
        + ("  (no K3 elephant)" if c.k3_obstructed else ""),
        f"series:      {', '.join(str(x) for x in c.series[:13])}, ...",
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


def cmd_histogram(args: argparse.Namespace) -> int:
    cands = enumerate_candidates(args.cutoff, stable_only=args.stable)
    buf = StringIO()
    if args.by == "genus":
        rows = genus_histogram(cands)
        if args.format == "csv":
            buf.write("genus,total,unstable,min_A3,max_A3\n")
            for r in rows:
                buf.write(f"{r.genus},{r.total},{r.unstable},{r.min_a3},{r.max_a3}\n")
        else:
            buf.write(f"{'genus':>6} {'total':>6} {'unstable':>9} "
                      f"{'min A3':>10} {'max A3':>10}\n")
            for r in rows:
                buf.write(f"{r.genus:>6d} {r.total:>6d} {r.unstable:>9d} "
                          f"{r.min_a3!s:>10} {r.max_a3!s:>10}\n")
            total = sum(r.total for r in rows)
            unstable = sum(r.unstable for r in rows)
            buf.write(f"{'sum':>6} {total:>6d} {unstable:>9d}\n")
            buf.write(f"distinct series: {distinct_series_count(cands)}\n")
    else:
        # K3-obstructed candidates have no K3 section to compare against,
        # so they are excluded, matching the reference's population.
        models = [corrected_inference(c) for c in cands if not c.k3_obstructed]
        ours = Counter(m.codim for m in models)
        keys = sorted(set(ours) | set(REFERENCE_CODIM_COUNTS))
        if args.format == "csv":
            buf.write("codim,inferred,reference\n")
            for k in keys:
                buf.write(f"{k},{ours.get(k, 0)},{REFERENCE_CODIM_COUNTS.get(k, 0)}\n")
        else:
            buf.write(f"{'codim':>6} {'inferred':>9} {'reference':>10}\n")
            for k in keys:
                buf.write(f"{k:>6d} {ours.get(k, 0):>9d} "
                          f"{REFERENCE_CODIM_COUNTS.get(k, 0):>10d}\n")
            buf.write(
                f"{'sum':>6} {sum(ours.values()):>9d} "
                f"{sum(REFERENCE_CODIM_COUNTS.values()):>10d}\n"
            )
            buf.write(
                f"excluded (K3-obstructed): "
                f"{sum(1 for c in cands if c.k3_obstructed)}\n"
                "reference counts come from a K3-database comparison and "
                "are a guide, not ground truth\n"
            )
    _emit(args, buf.getvalue())
    return 0


def cmd_k3_obstructions(args: argparse.Namespace) -> int:
    cands = [c for c in enumerate_candidates(args.cutoff) if c.k3_obstructed]
    unstable = sum(1 for c in cands if not c.stable)
    _write_candidates(args, cands, _k3_line,
                      f"{len(cands)} candidates, {unstable} unstable")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "cutoff" in args and args.cutoff < 2:
        parser.error("--cutoff must be >= 2")
    try:
        return args.run(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
