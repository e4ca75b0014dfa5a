"""Traced stand-in for ``python -m flagops.cli``.

    python3 perfbench/cli_shim.py SUMMARY.json compute schubert --n 3 --word 2,1,0

Installs the timing wrappers, calls ``flagops.cli.main(argv)`` with the rest
of the arguments, writes the span summary to SUMMARY.json and exits with
main's return code.  The summary also carries the in-process time of main
and of the shim's own work, so the runner can separate process overhead.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import flagops.cli

    import_s = time.perf_counter() - t0
    import tracing

    t1 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    install_s = time.perf_counter() - t1
    t2 = time.perf_counter()
    sid = tracer.open("cli.request")
    try:
        code = flagops.cli.main(argv)
    finally:
        tracer.close(sid)
        main_s = time.perf_counter() - t2
        sys.stdout.flush()
    t3 = time.perf_counter()
    tracer.uninstall()
    summary = tracing.summarize(tracer, main_s, "cli.request")
    summary.update(import_s=import_s, main_s=main_s, code=code)
    summary["shim_s"] = install_s + time.perf_counter() - t3
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
