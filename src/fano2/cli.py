"""Command-line front end.

Commands
--------
enumerate        write every candidate with a summary footer
inspect          full report for one (basket, genus) pair
verify-tables    check the bundled reference tables, exit 0 iff all pass
histogram        per-genus statistics, or codimension estimates next to
                 the bundled reference counts
k3-obstructions  the candidates whose singular rank rules out a K3 elephant

Exit codes: 0 success, 1 verification/domain failure, 2 usage or parse
error.  Output is deterministic for a fixed invocation; rationals are
printed exactly as p/q, never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from pathlib import Path

from .basket import BasketParseError, parse_basket
from .classify import (
    Candidate,
    K3_RANK_BOUND,
    candidate_record,
    distinct_series_count,
    enumerate_candidates,
    genus_histogram,
    write_csv,
    write_json,
)
from .graded_rings import (
    REFERENCE_CODIM_COUNTS,
    CutoffExhaustedError,
    codim_histogram,
    corrected_inference,
)
from .riemann_roch import (
    BasketBoundError,
    NonpositiveDegreeError,
    PolarisationResidualError,
    STABLE,
    hilbert_series,
    kawamata_status,
    scaled_invariants,
)
from .series import DEFAULT_CUTOFF, RationalForm, poly_str
from .tables import load_table_entries, verify_table_entry

#: Floor on the cutoff when verifying tables (deep rows raise it further).
VERIFY_CUTOFF_FLOOR = 50


@dataclass
class RunConfig:
    command: str
    stable_only: bool = False
    cutoff: int = DEFAULT_CUTOFF
    format: str = "text"
    output_path: str | None = None
    table: int | None = None
    basket_text: str | None = None
    genus: int | None = None
    by: str = "genus"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano2",
        description=(
            "Enumerate and analyse the candidate Hilbert series of "
            "Fano 3-folds polarised by -K = 2A."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv")):
        p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                       help="series truncation degree (default 60)")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to PATH instead of stdout")

    p = sub.add_parser("enumerate", help="list all candidates")
    p.add_argument("--stable", action="store_true",
                   help="restrict to the Bogomolov-Kawamata stable ones")
    common(p)

    p = sub.add_parser("inspect", help="report on one (basket, genus) pair")
    p.add_argument("--basket", required=True, metavar="STR",
                   help='e.g. "3/1,5/1,11/3"; empty string for none')
    p.add_argument("--genus", required=True, type=int)
    common(p, formats=("text", "json"))

    p = sub.add_parser("verify-tables", help="check the bundled tables")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4), default=None)
    common(p, formats=("text",))

    p = sub.add_parser("histogram", help="genus or codimension statistics")
    p.add_argument("--by", choices=("genus", "codim"), default="genus")
    p.add_argument("--stable", action="store_true")
    common(p, formats=("text", "csv"))

    p = sub.add_parser("k3-obstructions",
                       help="candidates that cannot carry a K3 elephant")
    common(p)
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        stable_only=getattr(args, "stable", False),
        cutoff=args.cutoff,
        format=getattr(args, "format", "text"),
        output_path=args.output,
        table=getattr(args, "table", None),
        basket_text=getattr(args, "basket", None),
        genus=getattr(args, "genus", None),
        by=getattr(args, "by", "genus"),
    )


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _candidate_line(c: Candidate) -> str:
    basket = str(c.basket) or "-"
    return (
        f"{basket:24s} g={c.genus:<3d} A3={c.a3!s:8s} "
        f"Ac2/12={c.acz12!s:8s} {'stable' if c.stable else 'unstable':8s} "
        f"h0(A)={c.series[1]:<3d} h0(2A)={c.series[2]:<4d} "
        f"K3-obstructed={'yes' if c.k3_obstructed else 'no'}"
    )


def cmd_enumerate(config: RunConfig) -> int:
    cands = enumerate_candidates(config.cutoff, stable_only=config.stable_only)
    buf = StringIO()
    if config.format == "json":
        write_json(cands, buf)
    elif config.format == "csv":
        write_csv(cands, buf)
    else:
        for c in cands:
            buf.write(_candidate_line(c) + "\n")
        buf.write(_footer(cands, config.stable_only) + "\n")
    _emit(config, buf.getvalue())
    if config.format != "text":
        # keep machine-readable streams clean; summary goes to stderr
        print(_footer(cands, config.stable_only), file=sys.stderr)
    return 0


def _footer(cands, stable_only: bool) -> str:
    if stable_only:
        return f"{len(cands)} candidates"
    stable = sum(1 for c in cands if c.stable)
    k3 = sum(1 for c in cands if c.k3_obstructed)
    return f"{len(cands)} candidates, {stable} stable, {k3} K3-obstructed"


def cmd_inspect(config: RunConfig) -> int:
    try:
        basket = parse_basket(config.basket_text)
    except BasketParseError as exc:
        print(f"error: cannot parse basket: {exc}", file=sys.stderr)
        return 2
    if config.genus < -2:
        print(f"error: genus below -2 (got {config.genus}); "
              "no candidate has fewer than 0 sections of A", file=sys.stderr)
        return 2
    try:
        d, acz12_d, base_d = scaled_invariants(basket)
    except BasketBoundError as exc:
        print(f"error: inadmissible basket [{basket}]: {exc}", file=sys.stderr)
        return 1
    except PolarisationResidualError:
        print(f"error: inadmissible basket [{basket}]: polarisation "
              "residual is nonzero", file=sys.stderr)
        return 1
    try:
        series = hilbert_series(basket, config.genus, config.cutoff)
    except NonpositiveDegreeError as exc:
        print(f"error: degree not positive: {exc}", file=sys.stderr)
        return 1

    acz12 = Fraction(acz12_d, d)
    a3 = Fraction(base_d + (config.genus + 2) * d, d)
    status = kawamata_status(a3, acz12)
    model = corrected_inference(series, basket)
    form = RationalForm(model.numerator, model.weights)
    if config.format == "json":
        payload = candidate_record(
            Candidate(
                basket=basket,
                genus=config.genus,
                a3=a3,
                acz12=acz12,
                stable=status == STABLE,
                series=series,
                k3_obstructed=basket.singular_rank >= K3_RANK_BOUND,
            )
        )
        payload["status"] = status
        payload["weights"] = list(model.weights)
        payload["numerator"] = list(model.numerator)
        payload["shape"] = model.shape
        payload["codim"] = model.codim
        payload["codim_is_lower_bound"] = model.codim_is_lower_bound
        _emit(config, json.dumps(payload) + "\n")
        return 0
    lines = [
        f"basket:      {basket or '(nonsingular)'}",
        f"genus:       {config.genus}",
        f"A3:          {a3}",
        f"Ac2/12:      {acz12}",
        f"status:      {status}",
        f"singular rank: {basket.singular_rank}"
        + ("  (no K3 elephant)" if basket.singular_rank >= K3_RANK_BOUND else ""),
        f"series:      {', '.join(str(x) for x in series[:13])}, ...",
        f"weights:     {','.join(str(w) for w in model.weights)}"
        + (f"  (seeded by polarisation: {model.seeded})" if model.seeded else ""),
        f"numerator:   {poly_str(model.numerator)}"
        + ("" if model.numerator_complete else "  (truncated; raise --cutoff)"),
        f"closed form: {form}",
        f"shape:       {model.shape} (codim"
        + (" >= " if model.codim_is_lower_bound else " ")
        + f"{model.codim})",
    ]
    _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_verify_tables(config: RunConfig) -> int:
    entries = load_table_entries()
    if config.table is not None:
        entries = [e for e in entries if e.table_id == config.table]
    passed: dict[int, int] = {}
    totals: dict[int, int] = {}
    failures = []
    for entry in entries:
        report = verify_table_entry(entry, config.cutoff)
        totals[entry.table_id] = totals.get(entry.table_id, 0) + 1
        passed[entry.table_id] = passed.get(entry.table_id, 0) + report.ok
        if not report.ok:
            failures.append(report)
    line = " ".join(
        f"Table{t} {passed[t]}/{totals[t]}" for t in sorted(totals)
    )
    buf = [line]
    for report in failures:
        buf.append(
            f"FAIL {report.entry.label}: checks failed: "
            f"{', '.join(report.failed_checks())}"
            + (f" ({'; '.join(report.notes)})" if report.notes else "")
        )
    _emit(config, "\n".join(buf) + "\n")
    return 0 if not failures else 1


def cmd_histogram(config: RunConfig) -> int:
    cands = enumerate_candidates(config.cutoff, stable_only=config.stable_only)
    buf = StringIO()
    if config.by == "genus":
        rows = genus_histogram(cands)
        if config.format == "csv":
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
        models = [
            corrected_inference(c.series, c.basket)
            for c in cands
            if not c.k3_obstructed
        ]
        ours = codim_histogram(models)
        keys = sorted(set(ours) | set(REFERENCE_CODIM_COUNTS))
        if config.format == "csv":
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
    _emit(config, buf.getvalue())
    return 0


def cmd_k3_obstructions(config: RunConfig) -> int:
    cands = [c for c in enumerate_candidates(config.cutoff) if c.k3_obstructed]
    buf = StringIO()
    if config.format == "json":
        write_json(cands, buf)
    elif config.format == "csv":
        write_csv(cands, buf)
    else:
        for c in cands:
            buf.write(
                f"{str(c.basket):24s} g={c.genus:<3d} A3={c.a3!s:8s} "
                f"rank={c.basket.singular_rank:<3d} "
                f"{'stable' if c.stable else 'unstable'}\n"
            )
        unstable = sum(1 for c in cands if not c.stable)
        buf.write(f"{len(cands)} candidates, {unstable} unstable\n")
    _emit(config, buf.getvalue())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config(args)
    if config.cutoff < 2:
        parser.error("--cutoff must be >= 2")
    if config.command == "verify-tables" and config.cutoff < VERIFY_CUTOFF_FLOOR:
        parser.error(
            f"table verification needs --cutoff >= {VERIFY_CUTOFF_FLOOR} "
            "(deep numerators reach degree 45)"
        )
    try:
        if config.command == "enumerate":
            return cmd_enumerate(config)
        if config.command == "inspect":
            return cmd_inspect(config)
        if config.command == "verify-tables":
            return cmd_verify_tables(config)
        if config.command == "histogram":
            return cmd_histogram(config)
        if config.command == "k3-obstructions":
            return cmd_k3_obstructions(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CutoffExhaustedError as exc:
        print(f"error: {exc}; raise --cutoff", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {config.command}")


if __name__ == "__main__":
    sys.exit(main())
