"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import ROOT, use_checkout_sources

use_checkout_sources()

from perfbench import layers, layertrace, stats, workloads  # noqa: E402


# -- statistics ---------------------------------------------------------------
def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = [float(x) for x in range(1, 101)]  # 1..100
    assert stats.percentile(samples, 50) == (50.0, 50)
    assert stats.percentile(samples, 99) == (99.0, 1)
    assert stats.percentile(samples, 100) == (100.0, 0)
    # ties with the percentile value are not "beyond" it
    assert stats.percentile([1.0] * 5 + [2.0] * 5, 50) == (1.0, 5)
    assert stats.percentile([3.0] * 10, 90) == (3.0, 0)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert stats.percentile(list(range(1000)), 99)[1] == stats.MIN_BEYOND
    assert stats.percentile(list(range(999)), 99)[1] < stats.MIN_BEYOND
    # rma-sweep's twelve ops per pass put nothing beyond p99
    assert stats.percentile([1, 2, 3, 4, 5, 6] * 2, 99)[1] == 0


def test_iqr_share_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 30.0, 10.2, 9.8, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert stats.iqr_share([5.0] * 10) == 0.0


# -- self time -------------------------------------------------------------------
def test_self_time_is_span_minus_child_coverage():
    # root [0,10] -> a [1,4] -> a1 [2,3];  root -> b [5,6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    selfs, incl = layertrace.self_times(start, end, parent)
    assert list(incl) == [10.0, 3.0, 1.0, 1.0]
    assert list(selfs) == [6.0, 2.0, 1.0, 1.0]
    assert selfs.sum() == 10.0  # the self times partition the root span


def test_self_time_is_clipped_to_the_window():
    start, end, parent = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0], [-1, 0, 1, 0]
    selfs, incl = layertrace.self_times(start, end, parent, 2.5, 5.5)
    assert list(incl) == [3.0, 1.5, 0.5, 0.5]
    assert list(selfs) == [1.0, 1.0, 0.5, 0.5]


def test_layer_of_module_takes_the_longest_prefix():
    assert layertrace.layer_of("repro.sim.core") == "sim"
    assert layertrace.layer_of("repro.sim.trace") == "trace"
    assert layertrace.layer_of("repro.vphi.pool") == "vphi.pool"
    assert layertrace.layer_of("repro.vphi.setup") == "vphi.other"
    assert layertrace.layer_of("repro.system") == "other"
    assert layertrace.layer_of("perfbench.workloads") == "bench"


def test_timed_generator_is_transparent_and_spans_each_resume():
    tracer = layertrace.LayerTracer()
    tracer.recording = tracer.counting = True

    def inner():
        got = yield "a"
        try:
            yield got * 2
        except KeyError as err:
            return f"caught {err.args[0]}"

    def outer():
        return (yield from wrapped())

    wrapped = tracer.wrap("bench|inner", inner)
    gen = outer()
    assert next(gen) == "a"
    assert gen.send(21) == 42
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught k"
    assert len(tracer.start) == 3  # one span per resume
    assert tracer.per_name()["bench|inner"]["calls"] == 1
    assert tracer._stack == []


# -- workloads ---------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_passes_its_checks_and_repeats_exactly(name):
    wl = workloads.WORKLOADS[name](5, **workloads.SMALL[name])
    first, second = wl.run_pass(), wl.run_pass()
    assert first.problems == [] and second.problems == []
    assert first.outputs == second.outputs
    assert first.completed > 0 and first.failed == 0
    assert first.completed + first.refused + first.failed == first.attempted


def test_traced_pass_reproduces_the_untraced_outputs():
    wl = workloads.PingPong(5, round_trips=12)
    plain = wl.run_pass()
    tracer = layertrace.LayerTracer().install()
    try:
        window = workloads.TracedWindow(tracer)
        traced = wl.run_pass(window)
    finally:
        tracer.uninstall()
    assert traced.outputs == plain.outputs
    m = layers.per_layer_metrics(window.per_name, window.counts, window.delta,
                                 window.spans, traced.attempted)
    assert set(m) | {"bench.trace_overhead"} == {n for n, _, _ in layers.PER_LAYER}
    assert m["scif.op.send.calls"] == m["scif.op.recv.calls"] == 12
    assert m["virtio.kicks"] == m["kvm.vm_pauses"] == 24
    assert m["sim.events"] > 0 and m["sim.kernel_s"] > 0


def test_tenants_golden_check_reports_a_drift(tmp_path):
    golden = tmp_path / "a12.json"
    golden.write_text(json.dumps({
        "completed_by_policy": [["wfq", 3550]], "shed_by_policy": [["wfq", 24051]],
        "weighted_jain_by_policy": [["wfq", 0.97]], "gold_p99_by_policy": [["wfq", 0.004]],
    }))
    outputs = {"completed": 3550, "shed": 24051, "weighted_jain": 0.97, "gold_p99": 0.005}
    wl = workloads.Tenants(workloads.GOLDEN_SEED)
    assert wl.golden_problems(outputs, golden) == [
        "a12 golden wfq gold_p99: got 0.005, want 0.004"]
    assert workloads.Tenants(8).golden_problems(outputs, golden) == []


# -- declarations ------------------------------------------------------------------
def test_benchmark_json_declares_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_layer_map_places_every_per_layer_metric_once():
    spec = json.loads((ROOT / "perfbench/layer_map.json").read_text())
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    placed = [m for group in spec["layer_metrics"] for m in group["metrics"]]
    assert sorted(placed) == sorted(n for n, _, _ in layers.PER_LAYER)
    for group in spec["layer_metrics"]:
        assert set(group["on"]) | set(group["flat_on"]) <= set(workloads.WORKLOADS)
        assert set(group["moves"]) <= {n for n, _, _ in layers.END_TO_END}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pingpong", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (Path(tmp_path) / ".perfbench").exists()
