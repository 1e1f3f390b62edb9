"""Metric declarations and the per-layer metrics of a traced pass."""

from __future__ import annotations

import statistics

#: ``(name, unit, better)`` of every end-to-end metric, printed by every
#: untraced run.  ``sim_*`` are simulated; the rest are host measurements.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("payload_MBps", "MB/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_MB", "MB", "lower"),
    ("sim_p50_us", "us", "lower"),
    ("sim_p99_us", "us", "lower"),
    ("sim_GBps", "GB/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
)

#: the program-span phases whose simulated medians are reported.
SPAN_PHASES = ("copy_in", "ring", "credit_wait", "host_call", "guest_wake", "copy_out")
#: guest SCIF ops whose calls and host time are reported.
SCIF_OPS = ("send", "recv", "vreadfrom", "vwriteto")

#: ``(name, unit, better)`` of every per-layer metric, printed by every
#: traced run.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.cancelled", "count", "lower"),
    ("sim.kernel_s", "s", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.self_s", "s", "lower"),
    ("mem.translate_calls", "count", "lower"),
    ("mem.pages_pinned", "count", "lower"),
    ("mem.sg_entries", "count", "lower"),
    ("mem.bytes_copied", "B", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mem.ns_per_page", "ns", "lower"),
    ("pcie.dma_transfers", "count", "lower"),
    ("pcie.dma_bytes", "B", "lower"),
    ("pcie.self_s", "s", "lower"),
    ("virtio.kicks", "count", "lower"),
    ("virtio.descs", "count", "lower"),
    ("virtio.descs_per_kick", "ratio", "higher"),
    ("virtio.self_s", "s", "lower"),
    ("kvm.irqs", "count", "lower"),
    ("kvm.vm_pauses", "count", "lower"),
    ("kvm.self_s", "s", "lower"),
    ("vphi.frontend.submits", "count", "lower"),
    ("vphi.frontend.self_s", "s", "lower"),
    ("vphi.frontend.us_per_op", "us", "lower"),
    ("vphi.backend.drains", "count", "lower"),
    ("vphi.backend.reqs_per_drain", "ratio", "higher"),
    ("vphi.backend.self_s", "s", "lower"),
    ("vphi.pool.grants", "count", "higher"),
    ("vphi.pool.select_s", "s", "lower"),
    ("vphi.pool.us_per_grant", "us", "lower"),
    ("vphi.pool.credit_wait_sim_us", "us", "lower"),
    ("vphi.qos.admit_ratio", "ratio", "higher"),
    *((f"scif.op.{op}.{key}", unit, "lower")
      for op in SCIF_OPS for key, unit in (("calls", "count"), ("host_us", "us"))),
    ("scif.self_s", "s", "lower"),
    ("traffic.self_s", "s", "lower"),
    *((f"span.{phase}.sim_us", "us", "lower") for phase in SPAN_PHASES),
    ("bench.trace_overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def layer_self_times(per_name: dict) -> dict[str, float]:
    """Self seconds per layer (a span name is ``<layer>|<what>``)."""
    out: dict[str, float] = {}
    for name, stat in per_name.items():
        layer = name.split("|", 1)[0]
        out[layer] = out.get(layer, 0.0) + stat["self_s"]
    return out


def per_layer_metrics(per_name: dict, counts: dict, delta: dict, spans: list,
                      attempted: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead.

    ``per_name``: :meth:`LayerTracer.per_name`; ``counts``: the tracer's
    hook counts; ``delta``: program counters over the window
    (:func:`workloads.program_counters`); ``spans``: the program's request
    spans in the window; ``attempted``: guest ops attempted.
    """
    selfs = layer_self_times(per_name)

    def calls(name: str) -> int:
        return per_name.get(name, {}).get("calls", 0)

    def incl(name: str) -> float:
        return per_name.get(name, {}).get("incl_s", 0.0)

    cancelled = counts.get("sim.cancelled", 0)
    events = delta["sim.pushes"] - cancelled - delta["sim.queued"]
    bytes_copied = counts.get("mem.bytes_copied", 0)
    kicks, descs = delta["virtio.kicks"], counts.get("virtio.descs", 0)
    drains = calls("vphi.backend|VPhiBackend._drain")
    grants = delta["vphi.pool.grants"]
    select_s = incl("vphi.pool|CardArbiter._select")
    decided = delta["vphi.qos.admitted"] + delta["vphi.qos.shed"]
    phases = [s.phase_durations() for s in spans]
    credit_wait = sum(p.get("credit_wait", 0.0) for p in phases)
    m = {
        "sim.events": events,
        "sim.cancelled": cancelled,
        "sim.kernel_s": selfs.get("sim", 0.0),
        "sim.ns_per_event": _ratio(selfs.get("sim", 0.0) * 1e9, events),
        "trace.calls": sum(v["calls"] for k, v in per_name.items()
                           if k.startswith("trace|")),
        "trace.self_s": selfs.get("trace", 0.0),
        "mem.translate_calls": calls("mem|AddressSpace.translate"),
        "mem.pages_pinned": counts.get("mem.pages_pinned", 0),
        "mem.sg_entries": counts.get("mem.sg_entries", 0),
        "mem.bytes_copied": bytes_copied,
        "mem.self_s": selfs.get("mem", 0.0),
        "mem.ns_per_page": _ratio(selfs.get("mem", 0.0) * 1e9, bytes_copied / 4096),
        "pcie.dma_transfers": delta["pcie.dma_transfers"],
        "pcie.dma_bytes": delta["pcie.dma_bytes"],
        "pcie.self_s": selfs.get("pcie", 0.0),
        "virtio.kicks": kicks,
        "virtio.descs": descs,
        "virtio.descs_per_kick": _ratio(descs, kicks),
        "virtio.self_s": selfs.get("virtio", 0.0),
        "kvm.irqs": delta["kvm.irqs"],
        "kvm.vm_pauses": delta["kvm.vm_pauses"],
        "kvm.self_s": selfs.get("kvm", 0.0),
        "vphi.frontend.submits": (calls("vphi.frontend|VPhiFrontend.submit")
                                  + calls("vphi.frontend|VPhiFrontend.submit_batch")),
        "vphi.frontend.self_s": selfs.get("vphi.frontend", 0.0),
        "vphi.frontend.us_per_op": _ratio(selfs.get("vphi.frontend", 0.0) * 1e6, attempted),
        "vphi.backend.drains": drains,
        "vphi.backend.reqs_per_drain": _ratio(delta["vphi.backend.requests"], drains),
        "vphi.backend.self_s": selfs.get("vphi.backend", 0.0),
        "vphi.pool.grants": grants,
        "vphi.pool.select_s": select_s,
        "vphi.pool.us_per_grant": _ratio(select_s * 1e6, grants),
        "vphi.pool.credit_wait_sim_us": _ratio(credit_wait * 1e6, grants),
        # admission control off (no watermark): every op is admitted
        "vphi.qos.admit_ratio": _ratio(delta["vphi.qos.admitted"], decided, empty=1.0),
        "scif.self_s": selfs.get("scif", 0.0),
        "traffic.self_s": selfs.get("traffic", 0.0),
    }
    for op in SCIF_OPS:
        stat = per_name.get(f"vphi.frontend|GuestScif.{op}", {})
        m[f"scif.op.{op}.calls"] = stat.get("calls", 0)
        m[f"scif.op.{op}.host_us"] = _ratio(stat.get("life_s", 0.0) * 1e6, stat.get("calls", 0))
    for phase in SPAN_PHASES:
        vals = [p[phase] for p in phases if phase in p]
        m[f"span.{phase}.sim_us"] = statistics.median(vals) * 1e6 if vals else 0.0
    return m
