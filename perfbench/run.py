#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload rma-sweep --seed 1 --seconds 25 --trace 0

Runs one workload warm, in this single process, for ``--seconds``: a
reduced-size warm-up pass first, then full passes (fresh simulated
machine each) until the time is used.  Every pass checks its outputs and
must reproduce the first pass's simulated outputs exactly.  Workloads,
their inputs and checks are in ``workloads``; why each was chosen, where
its host time goes and what each layer metric should move are in
``layer_map.json``.

``--trace 0`` prints the end-to-end metrics (``layers.END_TO_END``).
Host metrics are medians over the passes, each pass's host seconds
scaled by the runner probe taken inside it (``workloads.RunnerProbe``),
so a shared runner's changing speed cancels; the raw medians are printed
beside them.  Simulated metrics come from the first pass and are exact.
``--trace 1`` runs untraced passes, then passes with every ``repro``
layer wrapped in host-time spans (``layertrace``), checks that the traced
passes' simulated outputs equal the untraced ones, and prints the
per-layer metrics (``layers.PER_LAYER``) with the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result
(per-pass figures, calibration residuals, runner fingerprint, self-time
shares) goes to ``.perfbench/`` in the checkout, with the spans of the
last traced pass.  The exit code is 1 when any output check fails, and 2
when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: paper figures the model was fitted to (calibration, not validation).
PAPER_SEND_1B_US = 382.0
PAPER_READ_PEAK_GBPS = 4.6


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no {src / 'repro'} to benchmark", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def measure(workload, seconds: float, probe, window_factory=None) -> list:
    """Full passes until ``seconds`` are used: at least one, and no pass
    started that the typical pass length says would overrun.

    Each pass gets a fresh window (``window_factory(probe)``, a plain
    :class:`Window` by default), which takes the runner-speed probes
    inside it; a pass's ``probe_s`` is their median.  A full garbage
    collection before each pass frees the previous pass's machine outside
    any timing.
    """
    from perfbench.workloads import Window

    passes, lengths = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + statistics.median(lengths) < deadline:
        gc.collect()
        t = perf_counter()
        window = (window_factory or Window)(probe)
        result = workload.run_pass(window)
        lengths.append(perf_counter() - t)
        result.probe_s = statistics.median(window.probes or [probe()])
        passes.append((result, window) if window_factory else result)
    return passes


def check_passes(workload, passes: list, reference: dict) -> list[str]:
    """Output-check failures over ``passes`` (empty when all passed)."""
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
        if p.outputs != reference:
            problems.append(f"pass {i}: simulated outputs differ from the first pass")
    golden = getattr(workload, "golden_problems", None)
    if golden is not None:
        problems += golden(passes[0].outputs, ROOT / "benchmarks/golden/a12.json")
    return problems


def end_to_end(passes: list) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, plus report notes."""
    from perfbench.stats import MIN_BEYOND, iqr_share, percentile
    from perfbench.workloads import RunnerProbe

    first = passes[0]
    med = statistics.median
    p50, _ = percentile(first.latencies, 50)
    p99, beyond = percentile(first.latencies, 99)
    notes = [f"sim latency: {len(first.latencies)} ops per pass, {beyond} beyond p99"]
    if beyond < MIN_BEYOND:
        notes.append(f"sim_p99_us has fewer than {MIN_BEYOND} samples beyond it: "
                     "it reads as the slowest op, not as a tail percentile")
    # host seconds on a runner where the probe takes NOMINAL_S
    wall = [p.wall_s * RunnerProbe.NOMINAL_S / p.probe_s for p in passes]
    notes.append(f"raw host medians: wall_s {med(p.wall_s for p in passes):.6g}, "
                 f"setup_s {med(p.setup_s for p in passes):.6g}, "
                 f"probe {med(p.probe_s for p in passes):.6g}")
    if len(passes) >= 2:
        notes.append(f"wall_s IQR/median over the passes: {iqr_share(wall):.3f}")
    values = {
        "wall_s": med(wall),
        "ops_per_s": med(p.completed / w for p, w in zip(passes, wall)),
        "payload_MBps": med(p.payload_bytes / 1e6 / w for p, w in zip(passes, wall)),
        "setup_s": med(p.setup_s * RunnerProbe.NOMINAL_S / p.probe_s for p in passes),
        # ru_maxrss is in KiB on Linux; the probe's two buffers are not the program's
        "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                        - 2 * RunnerProbe.NBYTES / 2**20),
        "sim_p50_us": p50 * 1e6,
        "sim_p99_us": p99 * 1e6,
        "sim_GBps": first.payload_bytes / first.sim_window_s / 1e9,
        "ok_ratio": first.completed / first.attempted,
    }
    return values, notes


def calibration(first) -> dict:
    """Residuals against the paper figures the cost model was fitted to."""
    out = {}
    if "send_1B_s" in first.extra:
        got = first.extra["send_1B_s"] * 1e6
        out["guest_1B_send_us"] = {"sim": got, "paper": PAPER_SEND_1B_US,
                                   "residual": got / PAPER_SEND_1B_US - 1}
    if "read_GBps_at_largest" in first.extra:
        got = first.extra["read_GBps_at_largest"]
        out["guest_read_GBps_at_largest_size"] = {"sim": got, "paper_peak": PAPER_READ_PEAK_GBPS,
                                          "residual": got / PAPER_READ_PEAK_GBPS - 1}
    return out


def fingerprint() -> dict:
    """The runner, recorded beside each result (never gated on)."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from test_throughput_gate import _heap_reference_rate, _memcpy_reference_rate

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "heapq_ref_per_s": _heap_reference_rate(),
        "memcpy_ref_Bps": _memcpy_reference_rate(),
    }


def traced_run(workload, seconds: float, probe) -> tuple[dict, dict, list[str]]:
    """Untraced passes, then traced ones: per-layer metrics, detail, problems."""
    from perfbench.layers import layer_self_times, per_layer_metrics
    from perfbench.layertrace import LayerTracer
    from perfbench.workloads import TracedWindow

    untraced = measure(workload, seconds / 3, probe)
    reference = untraced[0].outputs
    problems = check_passes(workload, untraced, reference)
    tracer = LayerTracer().install()
    try:
        traced = measure(workload, seconds * 2 / 3, probe,
                         lambda p: TracedWindow(tracer, p))
    finally:
        tracer.uninstall()
    per_pass = [per_layer_metrics(w.per_name, w.counts, w.delta, w.spans, r.attempted)
                for r, w in traced]
    # the output checks ran inside bench spans, untraced: leave them out
    last = traced[-1][1]
    selfs = layer_self_times(last.per_name)
    selfs["bench"] = selfs.get("bench", 0.0) - last.check_s
    total = sum(selfs.values())
    shares = {layer: s / total for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1])}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    results = [r for r, _ in traced]
    problems += [f"traced {msg}" for msg in check_passes(workload, results, reference)]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    overhead = (statistics.median(r.wall_s / r.probe_s for r in results)
                / statistics.median(r.wall_s / r.probe_s for r in untraced))
    metrics["bench.trace_overhead"] = overhead
    detail = {"untraced_passes": len(untraced), "traced_passes": len(results),
              "trace_overhead": overhead, "self_time_share": shares,
              "untraced": untraced, "traced": results}
    return metrics, detail, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rma-sweep", "pingpong", "tenants"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()

    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.workloads import SMALL, WORKLOADS, RunnerProbe

    cls = WORKLOADS[args.workload]
    probe = RunnerProbe()
    cls(args.seed, **SMALL[args.workload]).run_pass()  # warm-up
    workload = cls(args.seed)
    if args.trace:
        values, detail, problems = traced_run(workload, args.seconds, probe)
        declared, passes = PER_LAYER, detail["untraced"] + detail["traced"]
        notes = [f"tracing overhead: {detail['trace_overhead']:.2f}x "
                 f"({detail['untraced_passes']} untraced, "
                 f"{detail['traced_passes']} traced passes)",
                 "self-time share of the traced window: " + ", ".join(
                     f"{k} {v:.1%}" for k, v in detail["self_time_share"].items())]
    else:
        passes = measure(workload, args.seconds, probe)
        problems = check_passes(workload, passes, passes[0].outputs)
        values, notes = end_to_end(passes)
        declared, detail = END_TO_END, {"passes": passes}
    first = passes[0]
    if args.workload == "tenants":
        notes.append("generator lateness: 0 by construction (arrivals fire on "
                     "their exact simulated due time)")
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "calibration_residual": calibration(first),
                   "runner": fingerprint(), "problems": problems})
    correct = not problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {attempted} ops attempted, {failed} failed")
    for name, unit, _ in declared:
        print(f"  {name:<32} {values[name]:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for key, res in detail["calibration_residual"].items():
        print(f"  calibration residual {key}: {res['residual']:+.2%} "
              "(against the figure the model was fitted to; no held-out validation)")
    print("  runner: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in detail["runner"].items()))
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, default=_jsonable, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _jsonable(obj):
    """PassResults and numpy scalars in the detail file."""
    if hasattr(obj, "__dataclass_fields__"):
        return {k: v for k, v in vars(obj).items() if k not in ("outputs", "latencies")}
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


if __name__ == "__main__":
    sys.exit(main())
