"""One benchmark worker: imports fano2.cli and serves cli.main requests.

Usage: python3 worker.py SRC_DIR TRACE

The worker puts SRC_DIR first on sys.path, imports ``fano2.cli`` (and, when
TRACE is 1, wraps the layers with :class:`tracing.Recorder`), then prints
``{"ready": true}``.  Each later line on stdin is a JSON request:

* ``{"id": N, "argv": [...]}`` runs ``cli.main(argv)`` with stdout and
  stderr captured and replies with the exit code, the time of the call
  alone, both outputs, the resident set size after the call and its peak
  so far, and, when tracing, the hit and miss totals of
  ``riemann_roch.periodic_term``;
* ``{"quit": true}`` replies with the recorded spans and counters (empty
  when not tracing) and exits.

Replies are single JSON lines on stdout.  Nothing is shared between
workers, so every worker starts with cold caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _rss_kb() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def serve(src: str, trace: bool) -> None:
    sys.path.insert(0, src)
    import fano2.cli as cli

    recorder = None
    if trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        from fano2 import riemann_roch

        periodic_cache = riemann_roch.periodic_term.cache_info
    _send({"ready": True})

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            _send(recorder.dump() if recorder else {})
            return
        out, err = io.StringIO(), io.StringIO()
        reply: dict = {}
        if recorder:
            recorder.run_id = request["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(request["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead worker
            rc = None
            reply["error"] = traceback.format_exc()
        reply["elapsed"] = time.perf_counter() - start
        reply.update(
            rc=rc,
            stdout=out.getvalue(),
            stderr=err.getvalue(),
            rss_kb=_rss_kb(),
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if recorder:
            recorder.add("cli.output_bytes", len(reply["stdout"].encode()))
            info = periodic_cache()
            reply["cache"] = [info.hits, info.misses]
        _send(reply)


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] == "1")
