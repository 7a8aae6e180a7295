"""The repository benchmark: one command per workload and seed.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-apps --seed 1 \
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-apps``  — ``repro serve`` in its own process, churning
  sessions replaying the paper's six SHyRA application traces;
* ``batch-solve`` — ``BatchEngine`` solving a seeded MT-Switch mix
  with ``auto``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  Every answer is
checked against an oracle outside the timed sections.  The last line
of stdout is one JSON object: ``{"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}``.  Any error exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("serve-apps", "batch-solve")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


#: A run that has not finished by then is stuck: it fails, with every
#: thread's traceback on stderr, inside the 180 seconds a run may take.
WATCHDOG_S = 170


def _abort(code: int) -> None:
    """Stop the servers this run started, then exit at once (load
    threads may be mid-request; no result is printed)."""
    serveload = sys.modules.get("perfbench.serveload")
    if serveload is not None:
        serveload.stop_all()
    os._exit(code)


def _stuck() -> None:
    print(f"run still going after {WATCHDOG_S} s; tracebacks:",
          file=sys.stderr)
    faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    _abort(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    signal.signal(signal.SIGTERM, lambda *_: _abort(143))
    # forked workers (the batch engine's pool) keep the default action
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM,
                                             signal.SIG_DFL))
    watchdog = threading.Timer(WATCHDOG_S, _stuck)
    watchdog.daemon = True
    watchdog.start()

    from perfbench import selftest

    selftest.run_quick()
    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload == "batch-solve":
        from perfbench import batchload as load
    else:
        from perfbench import serveload as load
    runner = load.run_traced if args.trace else load.run_untraced
    values, attempted, failed = runner(
        args.workload, args.seed, args.seconds, ROOT)
    if args.trace:
        values["bench.failed_frac"] = failed / attempted
        # A layer this workload never runs did no work: its rows read 0.
        for m in declared:
            if not m["name"].startswith(load.LAYERS):
                values.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload measured no {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    watchdog.cancel()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
