"""One cold run of a bulk workload in a fresh interpreter.

Reads the workload's inputs as JSON on stdin, imports flagops, decodes the
inputs and prints ``READY <CLOCK_MONOTONIC>``, which ends set-up.  Then
it runs every item once, cold, and prints one JSON line with per-item
latencies and verdicts.

    python3 perfbench/worker.py --workload routes [--trace] [--setup-only] < inputs.json

With ``--trace`` the timing wrappers are installed after set-up, and the
result carries their span summary.  Timed runs never install the wrappers,
and report that none are present.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import speed


def run_pass(items, func, probe, tracer=None, item_name=None):
    """(latencies, verdicts, errors, speed probes) for one pass over ``items``.

    The speed is probed before the first item and after each one.
    """
    latencies, verdicts, errors, probes = [], [], [], [probe()]
    clock = time.perf_counter
    for item in items:
        sid = tracer.open(item_name) if tracer is not None else None
        t0 = clock()
        try:
            ok = bool(func(*item))
        except Exception:  # an item that raises counts as failed, the run goes on
            ok = False
            errors.append(traceback.format_exc(limit=3))
        latencies.append(clock() - t0)
        if sid is not None:
            tracer.close(sid)
        verdicts.append(ok)
        probes.append(probe())
    return latencies, verdicts, errors, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    inputs = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    import flagops  # noqa: F401 - the import is part of set-up

    import_s = time.perf_counter() - t0
    import workloads

    items = workloads.decode(args.workload, inputs)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    import tracing

    func = workloads.ITEM_FUNCS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    item_name = f"item.{args.workload}"
    cold, cold_ok, errors, cold_probes = run_pass(items, func, speed.in_process, tracer, item_name)
    wall_s = sum(cold)
    result = {"import_s": import_s, "wall_s": wall_s, "cold": cold, "cold_ok": cold_ok,
              "cold_probes": cold_probes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracing.summarize(tracer, wall_s, item_name)
    else:
        result["wrappers"] = tracing.installed_wrappers()
    result["errors"] = errors[:5]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
