"""Observability overhead gate: spans must be free in simulated time.

The request-lifecycle span machinery (one span + ~12 phase marks per
forwarded op) is pure bookkeeping: it reads the clock, it never advances
it.  The gate is twofold:

* **simulated time** — the Fig 4 series is *byte-identical* with spans
  on and off.  Not approximately equal: the same floats, so the golden
  digests cannot drift when tracing defaults change.
* **wall-clock** — stamping spans may slow the simulator only modestly
  (< 2x on the Fig 4 workload; in practice a few percent).
"""

import time

from conftest import fresh_machine, print_table
from repro.analysis import check_span_invariants
from repro.workloads import ClientContext, sendrecv_latency

SIZES = [1, 64, 256, 1024, 4096, 16384, 65536]


def run_fig4_guest(record_spans: bool):
    machine = fresh_machine()
    vm = machine.create_vm("vm0")
    vm.tracer.record_spans = record_spans
    t0 = time.perf_counter()
    series = sendrecv_latency(machine, ClientContext.guest(vm), SIZES)
    wall = time.perf_counter() - t0
    return series, wall, vm


def run_trace_overhead():
    spans_on, wall_on, vm_on = run_fig4_guest(True)
    spans_off, wall_off, vm_off = run_fig4_guest(False)
    return spans_on, wall_on, vm_on, spans_off, wall_off, vm_off


def test_trace_overhead(run_once):
    spans_on, wall_on, vm_on, spans_off, wall_off, vm_off = run_once(
        run_trace_overhead
    )

    rows = [
        ["spans recorded", str(len(vm_on.tracer.spans)),
         str(len(vm_off.tracer.spans))],
        ["wall-clock", f"{wall_on * 1e3:.1f} ms", f"{wall_off * 1e3:.1f} ms"],
    ]
    print_table("Tracing overhead (Fig 4 guest workload)",
                ["metric", "spans on", "spans off"], rows)

    # --- simulated time: byte-identical series, not approximately ---
    assert spans_on == spans_off, (
        "span bookkeeping changed simulated time — it must never yield"
    )
    # --- the machinery actually ran on one side and not the other ---
    assert len(vm_on.tracer.spans) > 0
    assert len(vm_off.tracer.spans) == 0 and not vm_off.tracer.active_spans
    assert check_span_invariants(vm_on.tracer) == []
    # --- wall-clock: bookkeeping stays cheap ---
    # generous bound: absolute floor absorbs timer noise on tiny runs
    assert wall_on < 2.0 * wall_off + 0.05, (
        f"span stamping cost {wall_on:.3f}s vs {wall_off:.3f}s without"
    )
