"""Correctness gates for every answer the benchmark times.

"Same results" follows the project roadmap: the ``enumerate --format json``
output is byte-identical (pinned by SHA-256), the ``verify-tables`` report
is identical (its two honest failures included, so its exit code is 1),
and ``histogram --by codim`` keeps its invariants.  The inferred codim
column is not pinned, because later work exists to change it.

``inspect`` answers are checked against oracles: the Riemann-Roch value
``plurigenus`` at sampled degrees, the closed form numerator / prod(1 -
t^w) at every degree, and the candidate list.  The closed form is expanded
here in integers, so that oracle shares no code with fano2's series
module.

Each check returns ``(problems, items)``: a list of what is wrong (empty
when the answer is correct) and the number of work items the answer holds.
"""

from __future__ import annotations

import hashlib
import json

ENUMERATE_JSON_SHA256 = (
    "71b10a8b503a80d79d6313b51521dbc7714151566b705fae32d3471e6a582731")

VERIFY_TABLES_EXIT = 1
VERIFY_TABLES_REPORT = (
    "Table1 8/8 Table2 26/26 Table3 2/2 Table4 33/35\n"
    "FAIL X in P(1,1,1,1,1,2,2,3): checks failed: weights (inferred weights"
    " (1, 1, 1, 1, 1, 2, 3) != tabulated (1, 1, 1, 1, 1, 2, 2, 3))\n"
    "FAIL X in P(1,1,1,2,2,2,3,3): checks failed: weights (inferred weights"
    " (1, 1, 1, 2, 2, 2, 3) != tabulated (1, 1, 1, 2, 2, 2, 3, 3))\n"
)
#: Graded models verify-tables builds: one per table row.
TABLE_ROWS = 71

#: The reference column of ``histogram --by codim``, codim -> count.
REFERENCE_CODIM_COUNTS = {
    1: 8, 2: 26, 3: 2, 4: 35, 5: 13, 6: 59, 7: 25, 8: 99, 9: 51,
    10: 163, 11: 93, 12: 227, 13: 126, 14: 255, 15: 48, 16: 78,
    17: 8, 18: 3,
}
HISTOGRAM_MODELS = 1319
K3_EXCLUDED = 173

#: Degrees of each inspect series compared with plurigenus, besides 0..2
#: and the cutoff.
PLURIGENUS_SAMPLES = 12


def expand(numerator, weights, cutoff: int) -> list[int]:
    """Coefficients 0..cutoff of numerator / prod_w (1 - t^w)."""
    c = list(numerator[: cutoff + 1]) + [0] * (cutoff + 1 - len(numerator))
    for w in weights:
        if w < 1:
            raise ValueError(f"weight {w} is not positive")
        for k in range(w, cutoff + 1):
            c[k] += c[k - w]
    return c


def _exit_problems(reply: dict, expected: int) -> list[str]:
    if reply.get("error"):
        return [f"crashed: {reply['error'].splitlines()[-1]}"]
    if reply["rc"] != expected:
        return [f"exit code {reply['rc']}, expected {expected}"]
    return []


def check_enumerate(reply: dict) -> tuple[list[str], int]:
    problems = _exit_problems(reply, 0)
    if problems:
        return problems, 0
    out = reply["stdout"]
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != ENUMERATE_JSON_SHA256:
        return [f"enumerate output SHA-256 {digest} is not the pinned one"], 0
    return [], len(json.loads(out))


def check_verify_tables(reply: dict) -> tuple[list[str], int]:
    problems = _exit_problems(reply, VERIFY_TABLES_EXIT)
    if not problems and reply["stdout"] != VERIFY_TABLES_REPORT:
        problems.append("verify-tables report differs from the pinned one")
    return problems, 0 if problems else TABLE_ROWS


def check_histogram(reply: dict) -> tuple[list[str], int]:
    problems = _exit_problems(reply, 0)
    if problems:
        return problems, 0
    inferred, reference, sums, excluded = {}, {}, None, None
    for line in reply["stdout"].splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0].isdigit():
            inferred[int(fields[0])] = int(fields[1])
            reference[int(fields[0])] = int(fields[2])
        elif len(fields) == 3 and fields[0] == "sum":
            sums = (int(fields[1]), int(fields[2]))
        elif line.startswith("excluded (K3-obstructed):"):
            excluded = int(fields[-1])
    if {k: v for k, v in reference.items() if v} != REFERENCE_CODIM_COUNTS:
        problems.append("reference column changed")
    if sums != (HISTOGRAM_MODELS, HISTOGRAM_MODELS):
        problems.append(f"sum row {sums}, expected {HISTOGRAM_MODELS} twice")
    if sum(inferred.values()) != HISTOGRAM_MODELS:
        problems.append(f"inferred column sums to {sum(inferred.values())}")
    if excluded != K3_EXCLUDED:
        problems.append(f"{excluded} excluded, expected {K3_EXCLUDED}")
    return problems, 0 if problems else HISTOGRAM_MODELS


def check_inspect(reply: dict, candidate, cutoff: int, rng
                  ) -> tuple[list[str], int]:
    """Check one ``inspect --format json`` answer for ``candidate``.

    ``candidate`` is a ``fano2.classify.Candidate`` from the candidate
    list; ``rng`` picks the degrees compared with ``plurigenus``.
    """
    from fano2.riemann_roch import plurigenus

    problems = _exit_problems(reply, 0)
    if problems:
        return problems, 0
    try:
        answer = json.loads(reply["stdout"])
        series = answer["series"]
        expected = {
            "basket": [[s.r, s.a] for s in candidate.basket],
            "genus": candidate.genus,
            "A3": str(candidate.a3),
            "h0_A": int(candidate.series[1]),
            "stable": candidate.stable,
        }
        for key, value in expected.items():
            if answer[key] != value:
                problems.append(f"{key} {answer[key]!r}, expected {value!r}")
        if len(series) != cutoff + 1:
            return problems + [f"{len(series)} coefficients for cutoff {cutoff}"], 0
        degrees = {0, 1, 2, cutoff}
        degrees.update(rng.sample(range(3, cutoff), PLURIGENUS_SAMPLES))
        for n in sorted(degrees):
            if plurigenus(candidate.basket, candidate.a3, n) != series[n]:
                problems.append(f"series differs from plurigenus at degree {n}")
        if expand(answer["numerator"], answer["weights"], cutoff) != series:
            problems.append("numerator / weights do not expand to the series")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed answer: {exc!r}")
    return problems, 0 if problems else 1
