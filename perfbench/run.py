"""Cold-run layered benchmark of flagops.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 20 --trace 0

One runner process with one thread runs a closed loop with one client.  It
generates the workload's inputs from ``--seed``, then:

* bulk workloads (routes, chains, tables): starts a fresh worker interpreter
  per repetition (every flagops memo starts cold, as in a real invocation),
  at least ``MIN_REPS`` times and until ``--seconds`` is used up.  Each
  worker runs every item once; an item's latency is its median over the
  repetitions.
* cli: runs every request as its own ``python -m flagops.cli`` process,
  first against an empty ``--cache-dir`` (cold) and then again (warm).

Timings are reported at reference speed: every item's time is divided by
the slowdown that speed probes run between the items saw (``speed.py``
says why; processes are scaled by a bare interpreter's start-up, in-process
work by in-process probes).  The raw times are printed beside them and
kept in the stamp.

With ``--trace 0`` it prints the end-to-end metrics (see ``END_TO_END``);
with ``--trace 1`` it runs once untraced and once with timing wrappers and
prints the per-layer metrics (see ``layer_metrics``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when every item passes its verdict, 1 when one
fails, 2 when the program cannot be found or the run cannot be made.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "cli_digests.json"

SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s in every run
MIN_REPS = 3  # bulk repetitions in every run, so that their median drops one slow one
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("cold_p75_ms", "ms"),
    ("maxrss_mb", "MiB"),
)

MEMOS = (
    "afperm._grassmannian_table",
    "afperm.elements_of_length",
    "bruhat_ops._commutation_orbit",
    "bruhat_ops.mn_chain_terms",
    "nilcox.h_element",
    "nilcox.h_product",
    "nilcox.k_schur_h_coeffs",
    "partitions.partitions",
    "schubert._cap_row",
    "schubert._reduction_table",
    "schubert._staircase_monomials",
    "schubert.affine_schubert",
    "schubert.schubert_basis",
    "strongorder._bss_terms",
    "strongorder.ribbons",
    "symfunc._affine_schur_p_matrix",
    "symfunc._jacobi_trudi_h",
    "symfunc._m_matrix",
    "symfunc._to_m_row",
    "symfunc.h_to_p",
    "symfunc.k_schur_p",
    "symfunc.p_to_h",
)

_WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')


class RunError(Exception):
    """The run itself could not be made (as opposed to an item failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# bulk workloads


def run_worker(workload: str, payload: str, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    t_spawn = monotonic()
    proc = subprocess.run(
        cmd, input=payload, capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = {"setup_s": float(lines[0].split()[1]) - t_spawn}
    if not setup_only:
        out.update(json.loads(lines[-1]))
        out["total_s"] = monotonic() - t_spawn
    return out


def verdict_counts(rep: dict) -> tuple[int, int]:
    """(attempted, failed) of one worker repetition."""
    verdicts = rep["cold_ok"]
    failed = verdicts.count(False)
    if rep.get("wrappers"):  # a timed run must be untraced
        failed = len(verdicts)
    return len(verdicts), failed


def timed_setups(spawn) -> list:
    """``SETUP_SAMPLES`` (raw, at reference speed) set-up time pairs.

    ``spawn()`` starts one fresh interpreter and returns its raw set-up time;
    the runner times a bare interpreter just before and after.
    """
    out = []
    for _ in range(SETUP_SAMPLES):
        before = speed.spawn()
        raw = spawn()
        out.append((raw, speed.at_reference([raw], [before, speed.spawn()], "spawn")[0]))
    return out


def timing_metrics(setups, walls, items, cold) -> dict:
    """End-to-end timings; ``items`` and ``cold`` hold one list of latencies
    per repetition.

    Each percentile is taken within a repetition, and the median over the
    repetitions is reported, so that one repetition slowed by a burst of
    load on the host does not move it.
    """
    def ms(passes, q, min_beyond=0):
        return 1e3 * stats.median([stats.percentile(p, q, min_beyond) for p in passes])

    return {
        "setup_s": stats.median(setups),
        "wall_s": stats.median(walls),
        "item_p50_ms": ms(items, 50),
        "item_p90_ms": ms(items, 90, stats.MIN_BEYOND),
        "cold_p75_ms": ms(cold, 75, stats.MIN_BEYOND),
    }


def bulk_at_reference(rep: dict) -> list:
    """The item latencies of a worker, at reference speed."""
    return speed.at_reference(rep["cold"], rep["cold_probes"], "in_process")


def item_medians(passes) -> list:
    """Each item's median latency over passes of the same items.

    The passes run seconds apart, so a burst of load on the host that slows
    an item in one of them leaves its median alone.
    """
    return [stats.median(times) for times in zip(*passes)]


def run_bulk(workload: str, inputs: dict, seconds: float) -> dict:
    payload = json.dumps(inputs)
    setups = timed_setups(lambda: run_worker(workload, payload, setup_only=True)["setup_s"])
    reps = []
    t_begin = time.perf_counter()
    while True:
        reps.append(run_worker(workload, payload))
        elapsed = time.perf_counter() - t_begin
        if len(reps) >= MIN_REPS and elapsed + stats.median([r["total_s"] for r in reps]) / 2 > seconds:
            break
    maxrss = max(r["maxrss_kb"] for r in reps) / 1024  # with the memory probe's 4 MiB table
    counts = [verdict_counts(r) for r in reps]

    def metrics(setup_times, passes):
        items = item_medians(passes)
        return {**timing_metrics(setup_times, [sum(items)], [items], [items]), "maxrss_mb": maxrss}

    return {
        "metrics": metrics([ref for _, ref in setups], [bulk_at_reference(r) for r in reps]),
        "raw": metrics([raw for raw, _ in setups], [r["cold"] for r in reps]),
        "slowdown": {"cold": [speed.slowdown(r["cold_probes"], "in_process") for r in reps]},
        "attempted": sum(a for a, _ in counts),
        "failed": sum(f for _, f in counts),
        "samples": {"reps": len(reps), "items": len(reps[0]["cold"]), "setup": len(setups)},
        "errors": [e for r in reps for e in r["errors"]][:3],
    }


# ---------------------------------------------------------------------------
# cli workload


def masked(stdout: str) -> str:
    """CLI stdout with suite wall times blanked; everything else must repeat."""
    return _WALL_TIME.sub('"wall_time_s": null', stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(masked(stdout).encode()).hexdigest()[:32]


def run_request(argv, cache_dir, summary_path=None) -> dict:
    if summary_path is None:
        cmd = [sys.executable, "-m", "flagops.cli"]
    else:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), str(summary_path)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + list(argv) + ["--cache-dir", str(cache_dir)], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    latency = time.perf_counter() - t0
    out = {"latency_s": latency, "code": proc.returncode, "stdout": proc.stdout}
    if summary_path is not None and summary_path.exists():
        out["trace"] = json.loads(summary_path.read_text())
    return out


def run_cli_cycle(requests, workdir: Path, cycle: int, traced=False) -> dict:
    """One cold pass against an empty cache directory, then one warm pass.

    ``cold``/``warm`` hold request latencies, ``cold_runs``/``warm_runs`` the
    requests' exit codes and output.  The runner times a bare interpreter
    before the first request and after each one.
    """
    cache_dir = workdir / f"cache-{cycle}"
    out = {}
    for name in ("cold", "warm"):
        # every request is a fresh process whose latency is mostly start-up
        runs, probes = [], [speed.spawn()]
        for i, argv in enumerate(requests):
            summary = workdir / f"trace-{cycle}-{name}-{i}.json" if traced else None
            runs.append(run_request(argv, cache_dir, summary))
            probes.append(speed.spawn())
        out.update({name: [r["latency_s"] for r in runs], f"{name}_runs": runs,
                    f"{name}_probes": probes})
    return out


def cli_at_reference(cycle: dict) -> dict:
    """The cold and warm request latencies of a cli cycle, at reference speed."""
    return {key: speed.at_reference(cycle[key], cycle[f"{key}_probes"], "spawn")
            for key in ("cold", "warm")}


def cli_verdicts(requests, cycle, reference) -> list:
    """One verdict per request execution: exit 0, digest match, warm == cold."""
    out = []
    for argv, cold, warm in zip(requests, cycle["cold_runs"], cycle["warm_runs"]):
        want = reference.get(workloads.request_key(argv))
        cold_ok = cold["code"] == 0 and digest(cold["stdout"]) == want
        same = masked(warm["stdout"]) == masked(cold["stdout"])
        out += [cold_ok, warm["code"] == 0 and same and digest(warm["stdout"]) == want]
    return out


def bare_import() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import flagops.cli"], env=child_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)  # see speed.spawn
    return time.perf_counter() - t0


def cycle_wall(cycle) -> float:
    return sum(cycle["cold"]) + sum(cycle["warm"])


def run_cli(inputs: dict, seconds: float, workdir: Path) -> dict:
    requests = inputs["requests"]
    reference = json.loads(DIGESTS.read_text())
    setups = timed_setups(bare_import)
    cycles = []
    t_begin = time.perf_counter()
    while True:
        cycles.append(run_cli_cycle(requests, workdir, len(cycles)))
        elapsed = time.perf_counter() - t_begin
        if elapsed + stats.median([cycle_wall(c) for c in cycles]) / 2 > seconds:
            break
    refs = [cli_at_reference(c) for c in cycles]
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    verdicts = [v for c in cycles for v in cli_verdicts(requests, c, reference)]

    def metrics(setup_times, passes):  # wall and item_* cover both passes
        walls = [cycle_wall(p) for p in passes]
        items = [p["cold"] + p["warm"] for p in passes]
        cold = [p["cold"] for p in passes]
        return {**timing_metrics(setup_times, walls, items, cold), "maxrss_mb": maxrss}

    return {
        "metrics": metrics([ref for _, ref in setups], refs),
        "raw": metrics([raw for raw, _ in setups], cycles),
        "slowdown": {key: [speed.slowdown(c[f"{key}_probes"], "spawn") for c in cycles]
                     for key in ("cold", "warm")},
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "samples": {"cycles": len(cycles), "requests": len(requests),
                    "cold": len(requests) * len(cycles), "warm": len(requests) * len(cycles),
                    "setup": len(setups)},
        "errors": [],
    }


# ---------------------------------------------------------------------------
# traced runs


def merge_summaries(summaries) -> dict:
    """Sum per-process span summaries; maxima stay maxima."""
    out = {"wall_s": 0.0, "spans": 0, "calls": {}, "self_s": {}, "counters": {}, "incl_s": {},
           "items_self_s": 0.0, "span_self_s": 0.0, "cache_info": {}}
    for s in summaries:
        for key in ("wall_s", "spans", "items_self_s", "span_self_s"):
            out[key] += s[key]
        for key in ("calls", "self_s", "incl_s"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for name, v in s["counters"].items():
            prev = out["counters"].get(name, 0)
            out["counters"][name] = max(prev, v) if ".max_" in name else prev + v
        for name, ci in s["cache_info"].items():
            acc = out["cache_info"].setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += ci["hits"]
            acc["misses"] += ci["misses"]
            acc["currsize"] = max(acc["currsize"], ci["currsize"])
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


CALLS_AND_SELF = (
    "nilcox.multiply",
    "bruhat_ops.act_mn",
    "strongorder.bss_apply",
    "schubert.cap_apply",
    "schubert.structure_constants",
    "schubert.SchubertBasis.expand",
    "schubert.divided_difference",
    "linalg.rref",
    "symfunc.convert_basis",
    "cache.load",
    "cache.store",
)
SELF_ONLY = (
    "nilcox.h_product",
    "bruhat_ops.act_dunkl",
    "bruhat_ops.act_dunkl_power",
    "strongorder.ribbons",
    "schubert.schubert_basis",
    "schubert.affine_schubert",
    "linalg.invert",
    "symfunc.hall_inner",
    "symfunc.affine_schur_p",
    "symfunc.k_schur_p",
)


def layer_metrics(s: dict, extra: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from a merged span summary."""
    calls, self_s, counters, ci = s["calls"], s["self_s"], s["counters"], s["cache_info"]
    wall = s["wall_s"]

    def module_sum(table, *mods):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] in mods)

    def hit_ratio(name):
        c = ci.get(name, {"hits": 0, "misses": 0})
        return _ratio(c["hits"], c["hits"] + c["misses"])

    mc = "afperm.AffinePermutation.marked_covers"
    m = {
        "afperm.marked_covers.calls": (calls.get(mc, 0), "count"),
        "afperm.marked_covers.self_s": (self_s.get(mc, 0.0), "s"),
        "afperm.marked_covers.hit_ratio": (
            _ratio(counters.get(f"{mc}.hits", 0), calls.get(mc, 0)), "1"),
        "kernels.length.calls": (calls.get("kernels.length", 0), "count"),
        "kernels.cover_classes.calls": (calls.get("kernels.cover_classes", 0), "count"),
        "kernels.self_s": (module_sum(self_s, "kernels"), "s"),
        "import.flagops_s": (extra["import_s"], "s"),
        "bruhat_ops.mn_chain_terms.hit_ratio": (hit_ratio("bruhat_ops.mn_chain_terms"), "1"),
        "bruhat_ops.mn_chain_terms.kept": (counters.get("bruhat_ops.mn_chain_terms.kept", 0), "count"),
        "schubert.cap_apply.incl_share": (_ratio(s["incl_s"].get("schubert.cap_apply", 0), wall), "1"),
        "schubert.structure_constants.distinct_ratio": (
            _ratio(counters.get("schubert.structure_constants.distinct", 0),
                   calls.get("schubert.structure_constants", 0)), "1"),
        "schubert.schubert_basis.misses": (ci.get("schubert.schubert_basis", {}).get("misses", 0), "count"),
        "schubert.affine_schubert.misses": (ci.get("schubert.affine_schubert", {}).get("misses", 0), "count"),
        "linalg.rref.max_rows": (counters.get("linalg.rref.max_rows", 0), "count"),
        "linalg.rref.max_cols": (counters.get("linalg.rref.max_cols", 0), "count"),
        "cache.load.hits": (counters.get("cache.load.hits", 0), "count"),
        "cache.store.bytes": (counters.get("cache.store.bytes", 0), "B"),
        "cli.process_overhead_s": (extra.get("process_overhead_s", 0.0), "s"),
        "cli.warm_recomputes": (extra.get("warm_recomputes", 0), "count"),
        "layer.ring.calls": (module_sum(calls, "schubert", "linalg", "symfunc"), "count"),
        "layer.bruhat_strongorder.incl_share": (_ratio(s["incl_s"].get("bruhat_strongorder", 0), wall), "1"),
        "trace.overhead_s": (extra["overhead_s"], "s"),
        "trace.coverage": (_ratio(s["span_self_s"], wall), "1"),
        "trace.unattributed_share": (_ratio(s["items_self_s"], wall), "1"),
        "trace.spans": (s["spans"], "count"),
    }
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in MEMOS:
        m[f"memo.{name}.currsize"] = (ci.get(name, {}).get("currsize", 0), "count")
    return m


def isolation_checks(workload: str, m: dict) -> list:
    """(description, holds) for the layer isolation each workload promises."""
    v = {k: val for k, (val, _) in m.items()}
    if workload == "chains":
        return [("no calls into schubert, linalg, symfunc", v["layer.ring.calls"] == 0)]
    if workload == "routes":
        return [
            ("cap_apply and children >= 90% of traced wall", v["schubert.cap_apply.incl_share"] >= 0.9),
            ("bruhat_ops + strongorder < 5% of traced wall",
             v["layer.bruhat_strongorder.incl_share"] < 0.05),
        ]
    if workload == "cli":
        return [("warm schubert/structure requests all load from cache", v["cli.warm_recomputes"] == 0)]
    return []


def trace_bulk(workload: str, inputs: dict) -> dict:
    payload = json.dumps(inputs)
    plain = run_worker(workload, payload)
    traced = run_worker(workload, payload, trace=True)
    summary = traced["trace"]
    cold = [bulk_at_reference(r) for r in (plain, traced)]
    extra = {"import_s": traced["import_s"], "overhead_s": sum(cold[1]) - sum(cold[0])}
    counts = [verdict_counts(plain), verdict_counts(traced)]
    return {
        "metrics": layer_metrics(summary, extra),
        "attempted": sum(a for a, _ in counts),
        "failed": sum(f for _, f in counts),
        "samples": {"items": len(traced["cold"])},
        "errors": plain["errors"] + traced["errors"],
        "cache_info": summary["cache_info"],
    }


def trace_cli(inputs: dict, workdir: Path) -> dict:
    requests = inputs["requests"]
    reference = json.loads(DIGESTS.read_text())
    plain = run_cli_cycle(requests, workdir, 0)
    traced = run_cli_cycle(requests, workdir, 1, traced=True)
    executions = traced["cold_runs"] + traced["warm_runs"]
    if any("trace" not in r for r in executions):
        raise RunError("a traced cli request wrote no span summary")
    summary = merge_summaries([r["trace"] for r in executions])
    overheads = [r["latency_s"] - r["trace"]["main_s"] - r["trace"]["shim_s"] for r in executions]
    recomputes = 0
    for argv, r in zip(requests, traced["warm_runs"]):
        if argv[1] in ("schubert", "structure"):
            t = r["trace"]
            work = sum(t["calls"].get(f"schubert.{f}", 0) for f in ("structure_constants", "affine_schubert"))
            recomputes += work > 0 or t["counters"].get("cache.load.hits", 0) == 0
    extra = {
        "import_s": stats.median([r["trace"]["import_s"] for r in executions]),
        "overhead_s": cycle_wall(cli_at_reference(traced)) - cycle_wall(cli_at_reference(plain)),
        "process_overhead_s": stats.median(overheads),
        "warm_recomputes": recomputes,
    }
    verdicts = cli_verdicts(requests, plain, reference) + cli_verdicts(requests, traced, reference)
    return {
        "metrics": layer_metrics(summary, extra),
        "attempted": len(verdicts),
        "failed": verdicts.count(False),
        "samples": {"requests": len(requests)},
        "errors": [],
        "cache_info": summary["cache_info"],
    }


# ---------------------------------------------------------------------------
# stamp and entry point


def environment_stamp() -> dict:
    from flagops import kernels
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # benchmark checkouts are often plain file trees
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": kernels.BACKEND,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flagops" / "__init__.py").is_file():
        print(f"error: no flagops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)

    t0 = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed)
    gen_s = time.perf_counter() - t0
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload == "cli":
            run = trace_cli(inputs, workdir) if args.trace else run_cli(inputs, args.seconds, workdir)
        else:
            run = (trace_bulk(args.workload, inputs) if args.trace
                   else run_bulk(args.workload, inputs, args.seconds))
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = run["metrics"]
        print("cache_info " + json.dumps(run["cache_info"], sort_keys=True))
        for desc, holds in isolation_checks(args.workload, metrics):
            print(f"isolation {args.workload}: {desc}: {'PASS' if holds else 'FAIL'}")
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:>14.6g} {unit}")
    else:
        units = dict(END_TO_END)
        metrics = {name: (run["metrics"][name], units[name]) for name, _ in END_TO_END}
        print(f"{'metric':24s} {'at reference':>14s} {'raw':>14s} unit")
        for name, (value, unit) in metrics.items():
            print(f"{name:24s} {value:>14.6g} {run['raw'][name]:>14.6g} {unit}")
        for key, values in run["slowdown"].items():
            print(f"{'slowdown_' + key:24s} {stats.median(values):>14.6g} {'':>14s} 1")
    failed_frac = run["failed"] / run["attempted"]
    print(f"{'failed_frac':48s} {failed_frac:>14.6g} 1  ({run['failed']}/{run['attempted']})")
    for err in run["errors"]:
        print(f"item error: {err}", file=sys.stderr)
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "input_gen_s": gen_s, "samples": run["samples"],
             "raw": run.get("raw"), "slowdown": run.get("slowdown"), **environment_stamp()}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    correct = run["failed"] == 0
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
