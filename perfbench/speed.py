"""Speed probes for normalising timings on a shared host.

The host this benchmark was built on runs the same Python work up to 2.6x
slower for seconds to minutes at a time.  CPU time tracks wall time, so this is the speed of the CPU and its
caches, not scheduling.  The benchmark therefore probes the speed before
the first timed item of a pass and after each one, and divides each item's
time by the slowdown that the probes around it saw (``at_reference``).

Three probes, because the timings stress the machine differently:

* ``compute`` runs plain integer arithmetic.
* ``memory`` reads a 4 MiB table at pseudo-random offsets.
* ``spawn`` starts and stops a bare interpreter.  It scales timings that
  start processes (set-up, one-shot CLI requests), whose slowdown on this
  host follows neither in-process probe: dividing by the compute probe
  made their spread wider, not narrower.

In-process work is scaled by the geometric mean of the compute and the
memory slowdown (``in_process``).  Neither probe alone tracked every
workload: on recorded runs of the same code the compute probe left the
routes median spread by 20% and the memory probe left the tables tail
spread by 20%, while their mean kept both near 5-10%.  No probe tracks
everything: item classes differ in how much they slow under load, and
the spread that is left is what the benchmark's bounds allow for.

The in-process probes allocate next to nothing, so they do not trigger
the cyclic garbage collector and their cost does not depend on the
program's heap.  The memory probe's table adds 4 MiB to the resident size
of the process.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

WINDOW = 4  # probes either side of a timing that set its slowdown
TABLE_BYTES = 1 << 22

_table = bytearray()


def compute() -> float:
    """Seconds taken by a fixed integer loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    return time.perf_counter() - t0


def memory() -> float:
    """Seconds taken by a fixed number of reads at pseudo-random offsets."""
    global _table
    if not _table:
        _table = bytearray(range(256)) * (TABLE_BYTES // 256)
    table, j, acc = _table, 12345, 0
    t0 = time.perf_counter()
    for _ in range(3000):
        j = (j * 1103515245 + 12345) % TABLE_BYTES
        acc += table[j]
    return time.perf_counter() - t0


def spawn() -> float:
    """Seconds taken to start and stop a bare interpreter.

    The output is captured so that ``run`` returns when the child's pipes
    close; without pipes, a ``run`` with a timeout polls for the exit in
    steps of up to 50 ms, and the probe would read in those steps.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0


def in_process() -> list:
    """One compute and one memory probe, in seconds."""
    return [compute(), memory()]


REFERENCE_S = {"compute": 0.0006, "memory": 0.0005, "spawn": 0.05}  # one probe at reference speed


def slowdown(probes, kind: str) -> float:
    """Median probe time over the reference time of that kind of probe.

    The median, because a probe that a context switch or a page fault
    interrupts reads far too slow, and one such probe must not rescale
    the timings around it.  ``in_process`` probes are pairs, and their
    slowdown is the geometric mean of the compute and the memory one.
    """
    if kind == "in_process":
        return math.sqrt(slowdown([p[0] for p in probes], "compute")
                         * slowdown([p[1] for p in probes], "memory"))
    return statistics.median(probes) / REFERENCE_S[kind]


def at_reference(timings, probes, kind: str) -> list:
    """Each timing divided by the slowdown of the probes around it.

    ``probes`` has one more entry than ``timings``: probe i ran just before
    timing i, probe i + 1 just after it.  Timing i is scaled by the
    ``WINDOW`` probes on either side of it, which follows speed changes
    that last a few items without following the noise of single probes.
    """
    if len(probes) != len(timings) + 1:
        raise ValueError(f"{len(timings)} timings need {len(timings) + 1} probes, got {len(probes)}")
    return [
        t / slowdown(probes[max(0, i + 1 - WINDOW) : i + 1 + WINDOW], kind)
        for i, t in enumerate(timings)
    ]
