#!/usr/bin/env python3
"""Benchmark of the fano2 command line, timed from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload enumerate|analyse|families \\
        --seed N --seconds S --trace 0|1

Workloads (one unit of work each; units repeat until S seconds are up):

enumerate  A fresh worker process runs ``enumerate --format json``: 1492
           candidates at cutoff 60.  Riemann-Roch dominates; graded-ring
           inference never runs.
analyse    A fresh worker runs ``histogram --by codim`` (1319 graded
           models), then another fresh worker runs ``verify-tables`` (71
           rows).  Inference dominates; no JSON is written.
families   One long-lived worker serves a single client in a closed loop:
           the next ``inspect --basket B --genus G --cutoff C --format
           json`` query is sent when the previous answer arrives.  (B, G)
           is drawn with the seed from the 1492 candidates, and C cycles
           through FAMILY_CUTOFFS, so the cost per query varies with the
           basket, not with luck in the cutoffs.  A unit is a block of
           FAMILY_BLOCK queries; caches are warmed first, but no work is
           shared between queries.

The seed only changes the families queries; the batch workloads have one
fixed input.  Fresh processes give the batch workloads cold caches, as a
command-line user has them.  A worker's setup (spawn until ``fano2.cli``
is imported and ready) is timed apart from its work, and the work is
timed inside the worker around ``cli.main`` alone.  Every answer is
checked by checks.py outside the timed region; a wrong answer or exit
code counts as failed.  Workers run one at a time.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced units alternate, and it holds the
per-layer metrics of the traced units (see tracing.py), per unit, with
the tracing overhead.  The lines before it repeat the metrics with their
units, plus the workload's own names for its throughput and latency.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # this process writes nothing to the tree

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Workers keep compiled bytecode here, inside the checkout, so their setup
#: is an import from cached bytecode, as for an installed package, whatever
#: the environment says about writing bytecode.
PYCACHE = HERE.parent / ".bench_build" / "pycache"
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k != "PYTHONDONTWRITEBYTECODE"} | {"PYTHONPYCACHEPREFIX": str(PYCACHE)}

#: Setup-only worker spawns before measuring, so setup_s has a median.
SETUP_SPAWNS = 10
FAMILY_CUTOFFS = (60, 120, 200)
#: A multiple of len(FAMILY_CUTOFFS), so every block has the same cutoffs.
FAMILY_BLOCK = 21
FAMILY_WARMUP = 30
#: Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170

WORKLOADS = ("enumerate", "analyse", "families")
#: What one unit's items are, per workload.
ITEM_NAMES = {"enumerate": "candidates", "analyse": "models",
              "families": "queries"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rss_mb", "MB"),
)

#: Layers each workload must call; zero calls on any of them is an error.
EXPECTED_CALLS = {
    "enumerate": (
        "cli.main", "classify.enumerate_candidates", "classify.write_json",
        "basket.enumerate_baskets", "riemann_roch.hilbert_series",
        "series.expand",
    ),
    "analyse": (
        "cli.main", "classify.enumerate_candidates", "basket.enumerate_baskets",
        "basket.parse_basket", "riemann_roch.hilbert_series", "series.expand",
        "series.series_times_weights", "series.numerator_wrt_weights",
        "graded_rings.corrected_inference", "graded_rings.polarization_gaps",
        "graded_rings.classify_shape", "tables.load_table_entries",
        "tables.verify_table_entry",
    ),
    "families": (
        "cli.main", "basket.parse_basket", "riemann_roch.hilbert_series",
        "series.series_times_weights", "graded_rings.corrected_inference",
        "graded_rings.polarization_gaps", "graded_rings.classify_shape",
    ),
}

#: Counters that must repeat exactly between units of a batch workload.
UNIT_COUNTS = (
    "riemann_roch.series_coeffs", "graded_rings.complete_models",
    "graded_rings.seeded_models", "graded_rings.unknown_shapes",
    "classify.candidates", "classify.k3_obstructed", "basket.baskets",
    "tables.rows_ok", "cli.output_bytes",
)

PER_LAYER = tuple(
    (f"{name}.{kind}", unit)
    for name in tracing.WRAPPED
    for kind, unit in (("self_s", "s"), ("calls", "count"))
) + (
    ("riemann_roch.series_coeffs", "count"),
    ("riemann_roch.us_per_coeff", "us"),
    ("riemann_roch.periodic_term.hit_ratio", "ratio"),
    ("graded_rings.rounds_per_model", "ratio"),
    ("graded_rings.complete_ratio", "ratio"),
    ("graded_rings.seeded_models", "count"),
    ("graded_rings.unknown_shapes", "count"),
    ("classify.candidates", "count"),
    ("classify.k3_obstructed", "count"),
    ("basket.baskets", "count"),
    ("tables.rows_ok", "count"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
)


class WorkerError(RuntimeError):
    """A worker died or broke the request protocol."""


class Worker:
    """A worker process (worker.py) that answers cli.main requests."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.cache_seen = (0, 0)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC),
             "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=WORKER_ENV)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self, graceful: bool) -> dict:
        """Stop the worker and wait for it; return its trace dump."""
        dump = {}
        try:
            if graceful:
                dump = self.request({"quit": True})
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10 if graceful else 0.1)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return dump


@dataclass
class Unit:
    """One unit of a workload's work, as measured."""

    elapsed: float = 0.0
    items: int = 0
    rss_kb: int = 0
    peak_rss_kb: int = 0
    latencies: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Session:
    """Workers, checks and measurements of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.units: dict[bool, list[Unit]] = {False: [], True: []}
        self.cache = [0, 0]
        #: Per-layer totals over every measured traced request.
        self.layers: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._measured_runs: set[int] = set()

    @contextlib.contextmanager
    def worker(self, traced: bool, unit: Unit | None = None):
        """A fresh worker.  When it is traced, its per-layer totals land in
        ``self.layers`` on close, and also in ``unit.layers`` if given."""
        start = time.perf_counter()
        worker = Worker(traced)
        try:
            if not worker.read().get("ready"):
                raise WorkerError("worker did not report ready")
            if not traced:
                self.setup_s.append(time.perf_counter() - start)
            yield worker
        except BaseException:
            worker.close(graceful=False)
            raise
        dump = worker.close(graceful=True)
        if traced:
            totals = tracing.layer_totals(
                dump["spans"], dump["counts"], self._measured_runs)
            for key, value in totals.items():
                self.layers[key] += value
                if unit is not None:
                    unit.layers[key] += value

    def op(self, worker: Worker, argv, check, *check_args,
           unit: Unit | None) -> None:
        """Run one request and check its answer; ``unit=None`` is warm-up."""
        self._next_id += 1
        reply = worker.request({"id": self._next_id, "argv": list(argv)})
        if worker.traced:
            hits, misses = reply["cache"]
            if unit is not None:
                self._measured_runs.add(self._next_id)
                self.cache[0] += hits - worker.cache_seen[0]
                self.cache[1] += misses - worker.cache_seen[1]
            worker.cache_seen = (hits, misses)
        self.attempted += 1
        problems, items = check(reply, *check_args)
        if problems:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        if unit is not None:
            unit.elapsed += reply["elapsed"]
            unit.items += items
            unit.rss_kb = max(unit.rss_kb, reply["rss_kb"])
            unit.peak_rss_kb = max(unit.peak_rss_kb, reply["peak_rss_kb"])
            unit.latencies.append(reply["elapsed"])


def enumerate_unit(session: Session, traced: bool) -> Unit:
    unit = Unit()
    with session.worker(traced, unit) as w:
        session.op(w, ["enumerate", "--format", "json"],
                   checks.check_enumerate, unit=unit)
    return unit


def analyse_unit(session: Session, traced: bool) -> Unit:
    unit = Unit()
    for argv, check in ((["histogram", "--by", "codim"], checks.check_histogram),
                        (["verify-tables"], checks.check_verify_tables)):
        with session.worker(traced, unit) as w:
            session.op(w, argv, check, unit=unit)
    return unit


def measure(session: Session, seconds: float, trace: bool, run_unit) -> None:
    """Run units for ``seconds``: untraced, or alternating with traced.

    A round (one unit, or an untraced and a traced one) starts only if a
    round of median length still fits, so runs do not overshoot; at least
    one round always runs.
    """
    start = time.perf_counter()
    rounds: list[float] = []
    while not rounds or start + seconds - time.perf_counter() >= statistics.median(rounds):
        begin = time.perf_counter()
        session.units[False].append(run_unit(False))
        if trace:
            session.units[True].append(run_unit(True))
        rounds.append(time.perf_counter() - begin)


def run_families(session: Session, seed: int, seconds: float, trace: bool
                 ) -> None:
    """Closed-loop inspect queries, after a warm-up on each worker."""
    sys.path.insert(0, str(SRC))
    from fano2.classify import enumerate_candidates

    candidates = enumerate_candidates(2)
    queries = random.Random(seed)
    cutoffs = itertools.cycle(FAMILY_CUTOFFS)
    check_rng = random.Random(f"{seed}:check")

    def query(worker: Worker, unit: Unit | None) -> None:
        cand = queries.choice(candidates)
        cutoff = next(cutoffs)
        argv = ["inspect", "--basket", str(cand.basket), "--genus",
                str(cand.genus), "--cutoff", str(cutoff), "--format", "json"]
        session.op(worker, argv, checks.check_inspect, cand, cutoff,
                   check_rng, unit=unit)

    with contextlib.ExitStack() as stack:
        workers = {False: stack.enter_context(session.worker(False))}
        if trace:
            workers[True] = stack.enter_context(session.worker(True))
        for worker in workers.values():
            for _ in range(FAMILY_WARMUP):
                query(worker, None)

        def block(traced: bool) -> Unit:
            unit = Unit()
            for _ in range(FAMILY_BLOCK):
                query(workers[traced], unit)
            return unit

        measure(session, seconds, trace, block)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(session: Session) -> tuple[dict, list[str]]:
    units = session.units[False]
    metrics = {
        "setup_s": statistics.median(session.setup_s),
        "wall_s": statistics.median(u.elapsed for u in units),
        "rss_mb": statistics.median(u.rss_kb for u in units) / 1024,
    }
    # Reported, not gated: the rate is wall_s over a fixed item count, and
    # the families peak is set by whichever heavy query the seed draws.
    items_per_s = statistics.median(u.items / u.elapsed for u in units)
    peak_rss_mb = max(u.peak_rss_kb for u in units) / 1024
    notes = [
        f"setup_s: median of {len(session.setup_s)} worker spawns",
        f"wall_s: median of {len(units)} units, from "
        f"{min(u.elapsed for u in units):.4g} to {max(u.elapsed for u in units):.4g} s",
        f"{ITEM_NAMES[session.workload]}_per_s {items_per_s:.6g} 1/s "
        "(median over units)",
        "rss_mb: median over units of the worker's resident size after its"
        " work",
        f"peak_rss_mb {peak_rss_mb:.6g} MB (highest worker peak in the run)",
    ]
    if session.workload == "families":
        latencies = [t * 1e3 for u in units for t in u.latencies]
        notes.append(f"query_p50_ms {statistics.median(latencies):.6g} ms "
                     f"({len(latencies)} queries)")
        if len(latencies) >= 1000:
            notes.append(f"query_p99_ms {percentile(latencies, 99):.6g} ms")
        else:
            notes.append("query_p99_ms needs 1000 queries; run longer")
    return metrics, notes


def per_layer(session: Session) -> dict:
    """Per-layer metrics, per traced unit.  ``trace.wall_s`` is the mean
    traced unit, so the self times add up to it."""
    layers = session.layers
    traced = session.units[True]
    tracing.require_calls(layers, EXPECTED_CALLS[session.workload],
                          session.workload)
    if session.workload != "families":
        for key in UNIT_COUNTS + tuple(f"{name}.calls" for name in tracing.WRAPPED):
            values = {u.layers.get(key, 0) for u in traced}
            if len(values) > 1:
                raise tracing.TraceError(
                    f"{key} differs between units: {sorted(values)}")

    def total(key: str) -> float:
        return layers.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_wall = sum(u.elapsed for u in traced) / len(traced)
    derived = {
        "riemann_roch.us_per_coeff": 1e6 * ratio(
            total("riemann_roch.hilbert_series.total_s"),
            total("riemann_roch.series_coeffs")),
        "riemann_roch.periodic_term.hit_ratio": ratio(
            session.cache[0], sum(session.cache)),
        "graded_rings.rounds_per_model": ratio(
            total("graded_rings.polarization_gaps.calls"),
            total("graded_rings.corrected_inference.calls")),
        "graded_rings.complete_ratio": ratio(
            total("graded_rings.complete_models"),
            total("graded_rings.corrected_inference.calls")),
        "trace.wall_s": traced_wall,
        "trace.unaccounted_s": traced_wall - sum(
            total(f"{name}.self_s") for name in tracing.WRAPPED) / len(traced),
        "trace.overhead_s": statistics.median(u.elapsed for u in traced)
        - statistics.median(u.elapsed for u in session.units[False]),
    }
    # Everything not derived is a total over the traced units, per unit.
    return {name: derived[name] if name in derived else total(name) / len(traced)
            for name, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(workload)
    for _ in range(SETUP_SPAWNS):
        with session.worker(False):
            pass
    if workload == "families":
        run_families(session, seed, seconds, trace)
    else:
        run_unit = enumerate_unit if workload == "enumerate" else analyse_unit
        measure(session, seconds, trace,
                lambda traced: run_unit(session, traced))

    for failure in session.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        metrics, units = per_layer(session), dict(PER_LAYER)
        notes = [f"per-layer values are per unit, over "
                 f"{len(session.units[True])} traced units"]
    else:
        (metrics, notes), units = end_to_end(session), dict(END_TO_END)
    failed = len(session.failures)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for line in notes:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  failed_frac {failed / session.attempted:.6g} "
          f"({failed}/{session.attempted})")
    return {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fano2" / "cli.py").is_file():
        print(f"error: no fano2 sources at {SRC}", file=sys.stderr)
        return 2

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (tracing.TraceError, WorkerError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
