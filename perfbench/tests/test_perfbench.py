"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentiles and their sample-count rule --------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 75) == 75
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.median([1, 2, 3, 10]) == 2.5


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(99, 90) == 9
    assert stats.beyond(40, 75) == 10
    assert stats.percentile(range(100), 90, stats.MIN_BEYOND) == 89
    with pytest.raises(ValueError, match="9 beyond"):
        stats.percentile(range(99), 90, stats.MIN_BEYOND)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_workload_sizes_meet_the_rule():
    # bulk: >= 100 items per repetition for p90; cli: 50 requests per pass for p75
    # and 100 executions for the pooled p90.
    for name in ("routes", "chains", "tables"):
        assert stats.beyond(len(workloads.generate(name, 0)["items"]), 90) >= stats.MIN_BEYOND
    requests = workloads.generate("cli", 0)["requests"]
    assert stats.beyond(len(requests), 75) >= stats.MIN_BEYOND
    assert stats.beyond(2 * len(requests), 90) >= stats.MIN_BEYOND


# -- timings at reference speed -----------------------------------------------


def test_each_timing_is_scaled_by_the_probes_around_it(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW", 1)
    ref = speed.REFERENCE_S["compute"]
    assert speed.slowdown([ref, 3 * ref], "compute") == pytest.approx(2.0)
    timings = speed.at_reference([3.0, 4.0], [ref, 2 * ref, 2 * ref], "compute")
    assert timings == pytest.approx([2.0, 2.0])
    # a wider window takes the median of more probes: timing 0 sees probes 0..2
    monkeypatch.setattr(speed, "WINDOW", 2)
    timings = speed.at_reference([5.0, 5.0, 5.0], [ref, 2 * ref, 3 * ref, 4 * ref], "compute")
    assert timings == pytest.approx([2.5, 2.0, 5 / 3])
    with pytest.raises(ValueError):
        speed.at_reference([1.0, 2.0], [ref, ref], "compute")


def test_in_process_slowdown_is_the_geometric_mean_of_both_probes():
    c, m = speed.REFERENCE_S["compute"], speed.REFERENCE_S["memory"]
    assert speed.slowdown([[4 * c, m]], "in_process") == pytest.approx(2.0)
    # each probe's median is taken on its own: one slow compute probe is outvoted
    probes = [[c, 18 * m], [2 * c, 18 * m], [100 * c, 18 * m]]
    assert speed.slowdown(probes, "in_process") == pytest.approx(6.0)


def test_item_latency_is_its_median_over_repetitions():
    assert run.item_medians([[1.0, 5.0], [2.0, 1.0], [9.0, 2.0]]) == [2.0, 2.0]


def test_percentiles_are_taken_per_repetition():
    walls, reps = [1.0], [list(range(1, 101)), [x + 1000 for x in range(1, 101)], list(range(1, 101))]
    m = run.timing_metrics([0.1, 0.3, 0.2], walls, reps, reps)
    assert m["setup_s"] == 0.2
    assert m["item_p50_ms"] == 50e3  # the slow repetition is outvoted
    assert m["item_p90_ms"] == 90e3


@pytest.mark.parametrize("kind", ("compute", "memory", "spawn"))
def test_probes_do_fixed_work(kind):
    assert 0 < getattr(speed, kind)() < 1.0
    assert all(0 < t < 1.0 for t in speed.in_process())


# -- self time on a hand-built span tree ------------------------------------

#   0 item [0, 10]
#   ├─ 1 a.f [1, 6]
#   │   ├─ 2 b.g [2, 3]
#   │   └─ 3 a.f [3, 5]   (recursion)
#   │       └─ 4 b.g [4, 4.5]
#   └─ 5 b.g [7, 9]
SPANS = [
    ("item", 0.0, 10.0, tracing.ROOT),
    ("a.f", 1.0, 6.0, 0),
    ("b.g", 2.0, 3.0, 1),
    ("a.f", 3.0, 5.0, 1),
    ("b.g", 4.0, 4.5, 3),
    ("b.g", 7.0, 9.0, 0),
]


def test_self_times_subtract_children():
    assert tracing.self_times(SPANS) == [3.0, 2.0, 1.0, 1.5, 0.5, 2.0]
    assert sum(tracing.self_times(SPANS)) == pytest.approx(10.0)  # covers the root exactly


def test_outermost_time_counts_recursion_once():
    assert tracing.outermost_time(SPANS, lambda n: n == "a.f") == 5.0
    assert tracing.outermost_time(SPANS, lambda n: n == "b.g") == 3.5  # no b.g is inside a b.g
    assert tracing.outermost_time(SPANS, lambda n: n.startswith(("a.", "b."))) == 7.0


def test_merge_summaries_sums_and_keeps_maxima():
    one = {"wall_s": 1.0, "spans": 2, "calls": {"x": 1}, "self_s": {"x": 0.5},
           "counters": {"linalg.rref.max_rows": 3, "cache.load.hits": 1}, "incl_s": {},
           "items_self_s": 0.1, "span_self_s": 1.0,
           "cache_info": {"m.f": {"hits": 1, "misses": 2, "currsize": 2}}}
    merged = run.merge_summaries([one, {**one, "counters": {"linalg.rref.max_rows": 5}}])
    assert merged["calls"] == {"x": 2}
    assert merged["counters"] == {"linalg.rref.max_rows": 5, "cache.load.hits": 1}
    assert merged["cache_info"]["m.f"] == {"hits": 2, "misses": 4, "currsize": 2}


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert json.dumps(workloads.generate(workload, 7)) == first
    assert json.dumps(workloads.generate(workload, 8)) != first


def test_cli_requests_are_distinct_and_have_reference_digests():
    reference = json.loads(run.DIGESTS.read_text())
    for seed in range(5):
        keys = [workloads.request_key(r) for r in workloads.generate("cli", seed)["requests"]]
        assert len(set(keys)) == len(keys)
        assert all(k in reference for k in keys)


def test_cli_fixed_slots_send_the_same_requests_for_every_seed():
    def fixed(seed):
        requests = workloads.generate("cli", seed)["requests"]
        return sorted(r for r in requests if (r[1], int(r[3])) in workloads.CLI_FIXED)

    assert len(fixed(0)) == 5
    assert fixed(1) == fixed(2) == fixed(0)


def test_masking_blanks_only_suite_wall_times():
    text = '{\n  "passed": true,\n  "wall_time_s": 0.759\n}\n'
    assert run.masked(text) == '{\n  "passed": true,\n  "wall_time_s": null\n}\n'
    assert run.digest(text) == run.digest(text.replace("0.759", "12.5"))
    assert run.masked('{"coeff": "0.759"}') == '{"coeff": "0.759"}'


# -- tracing ------------------------------------------------------------------


def test_tracer_wraps_from_import_bindings_and_uninstalls():
    from flagops import linalg, schubert

    assert tracing.installed_wrappers() == []
    tracing.lru_functions()["schubert.schubert_basis"].cache_clear()
    original = linalg.rref
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert schubert.rref is linalg.rref is not original
        assert "flagops.schubert.rref" in tracing.installed_wrappers()
        assert "flagops.afperm.AffinePermutation.marked_covers" in tracing.installed_wrappers()
        schubert.schubert_basis(3, 2)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert linalg.rref is original and schubert.rref is original
    summary = tracing.summarize(tracer, 1.0, "none")
    assert summary["calls"]["schubert.schubert_basis"] == 1
    assert summary["calls"]["linalg.rref"] >= 1
    assert summary["counters"]["linalg.rref.max_rows"] >= 1
    assert summary["cache_info"]["schubert.schubert_basis"]["currsize"] >= 1


def test_timed_worker_installs_no_wrappers():
    inputs = {"items": [[3, [0]], [3, [1, 0]]]}
    env = run.child_env()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "chains"],
        input=json.dumps(inputs), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["wrappers"] == []
    assert result["cold_ok"] == [True, True]
    assert len(result["cold_probes"]) == 3
    assert run.verdict_counts(result) == (2, 0)
    assert run.verdict_counts({**result, "wrappers": ["flagops.linalg.rref"]}) == (2, 2)


# -- the metric table matches BENCHMARK.json ---------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = run.merge_summaries([])
    layer = run.layer_metrics(empty, {"import_s": 0.0, "overhead_s": 0.0})
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
