"""Write the reference digests of every request in the cli request pool.

    PYTHONPATH=src python3 perfbench/make_digests.py

Each request runs in-process through ``flagops.cli.main`` without a cache
directory; the digest covers its stdout with suite wall times blanked (see
``run.masked``).  Run it only on a commit whose output is trusted: the cli
workload fails any request whose output no longer matches.
"""

from __future__ import annotations

import contextlib
import io
import json

import run
import workloads


def main() -> None:
    import flagops.cli

    digests = {}
    for argv in sorted(
        (argv for slot in workloads.cli_pool().values() for argv in slot), key=workloads.request_key
    ) + [list(workloads.CLI_VERIFY)]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = flagops.cli.main(argv)
        if code != 0:
            raise SystemExit(f"request failed with exit code {code}: {argv}")
        digests[workloads.request_key(argv)] = run.digest(buf.getvalue())
    run.DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {run.DIGESTS}")


if __name__ == "__main__":
    main()
