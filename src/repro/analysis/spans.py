"""Request-lifecycle span analysis: breakdowns, invariants, export checks.

The vPHI datapath stamps every request's :class:`~repro.sim.Span` with
phase marks (guest marshal, descriptor post, ring residency, backend
pop, host syscall, completion push, interrupt delivery, guest wake —
see ``repro.vphi.ops.SPAN_PHASE_ORDER``).  This module turns the
collected spans into the paper's §IV-style accounting:

* :func:`span_breakdown` — per-op critical-path decomposition.  Because
  phase durations telescope between consecutive marks, every op's phase
  totals sum *exactly* to its total measured latency; nothing is lost
  and nothing is double-counted.
* :func:`check_span_invariants` — the machine-checkable contract behind
  that claim (monotone gap-free phases, sums matching end-to-end
  latency within ``tol``, no leaked open spans).
* :func:`request_timeline` / :func:`render_timeline` — one request's
  walk through Fig 3's I/O path: its phase marks, as offsets from the
  request's start (:func:`traced_tags` lists the requests).
* :func:`validate_chrome_trace` — structural validation of
  :meth:`Tracer.export_chrome_trace` output against the Chrome
  trace-event JSON shape Perfetto/``chrome://tracing`` accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..sim import Span, Tracer

__all__ = [
    "OpSpanBreakdown",
    "TimelineStep",
    "span_breakdown",
    "check_span_invariants",
    "render_span_breakdown",
    "render_timeline",
    "request_timeline",
    "traced_tags",
    "validate_chrome_trace",
]


@dataclass
class OpSpanBreakdown:
    """Aggregate phase accounting for one op across its finished spans."""

    op: str
    count: int = 0
    total: float = 0.0
    #: phase name -> summed seconds across this op's spans.
    phases: dict[str, float] = field(default_factory=dict)
    #: terminal status -> span count (ok / error / timeout / stale).
    statuses: dict[str, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def phase_share(self, phase: str) -> float:
        """Fraction of this op's total time spent in ``phase``."""
        if self.total <= 0:
            return 0.0
        return self.phases.get(phase, 0.0) / self.total

    def ordered_phases(self) -> list[tuple[str, float]]:
        """Phases in canonical datapath order, then any unknown extras."""
        # deferred: importing repro.vphi at module scope would close an
        # import cycle (vphi -> scif -> analysis.calibration -> here).
        from ..vphi.ops import SPAN_PHASE_ORDER

        known = [(p, self.phases[p]) for p in SPAN_PHASE_ORDER if p in self.phases]
        extra = sorted(
            (p, v) for p, v in self.phases.items() if p not in SPAN_PHASE_ORDER
        )
        return known + extra


def _iter_spans(
    tracer: Tracer,
    ops: Optional[Iterable[str]] = None,
    statuses: Optional[Iterable[str]] = None,
) -> list[Span]:
    wanted_ops = set(ops) if ops is not None else None
    wanted_status = set(statuses) if statuses is not None else None
    return [
        s
        for s in tracer.spans
        if (wanted_ops is None or s.op in wanted_ops)
        and (wanted_status is None or s.status in wanted_status)
    ]


def span_breakdown(
    tracer: Tracer,
    ops: Optional[Iterable[str]] = None,
    statuses: Optional[Iterable[str]] = None,
) -> dict[str, OpSpanBreakdown]:
    """Per-op critical-path decomposition over the tracer's closed spans.

    ``ops``/``statuses`` filter which spans contribute (default: all).
    The returned dict is keyed by op name; each value's phase totals sum
    exactly to its ``total`` (the telescoping-mark invariant).
    """
    out: dict[str, OpSpanBreakdown] = {}
    for span in _iter_spans(tracer, ops, statuses):
        bd = out.setdefault(span.op, OpSpanBreakdown(span.op))
        bd.count += 1
        bd.total += span.elapsed
        bd.statuses[span.status] = bd.statuses.get(span.status, 0) + 1
        for phase, dur in span.phase_durations().items():
            bd.phases[phase] = bd.phases.get(phase, 0.0) + dur
    return out


def check_span_invariants(
    tracer: Tracer,
    tol: float = 1e-9,
    require_closed: bool = True,
) -> list[str]:
    """Every violated span invariant, as a human-readable string.

    An empty list means the tracer's span record is internally
    consistent:

    * marks are monotone and start at/after the span's start time;
    * phase durations are non-negative and **gap-free** — they sum to
      the span's end-to-end elapsed time within ``tol`` simulated
      seconds (the acceptance bound is 1e-9);
    * closed spans carry a terminal status and at least one mark;
    * with ``require_closed``, no span is still open (an open span
      after quiesce is a leak — a lost tag binding on some
      retry/stale/abort path).
    """
    problems: list[str] = []

    def span_id(s: Span) -> str:
        tag = s.tag if s.tags else "-"
        return f"{s.op}[tag={tag} start={s.start:.9f}]"

    for span in tracer.spans:
        if span.status is None:
            problems.append(f"{span_id(span)}: stored span has no status")
        if not span.marks:
            problems.append(f"{span_id(span)}: closed with no phase marks")
            continue
        prev = span.start
        for phase, at in span.marks:
            if at < prev:
                problems.append(
                    f"{span_id(span)}: mark {phase}@{at:.9f} precedes {prev:.9f}"
                )
            prev = at
        durations = span.phase_durations()
        if any(d < 0 for d in durations.values()):
            problems.append(f"{span_id(span)}: negative phase duration")
        gap = abs(sum(durations.values()) - span.elapsed)
        if gap > tol:
            problems.append(
                f"{span_id(span)}: phases sum {sum(durations.values()):.12f} "
                f"!= elapsed {span.elapsed:.12f} (gap {gap:.3e} > tol {tol:.0e})"
            )
    if require_closed and tracer.active_spans:
        leaked = sorted(set(id(s) for s in tracer.active_spans.values()))
        tags = sorted(tracer.active_spans)
        problems.append(
            f"{len(leaked)} span(s) still open after quiesce (tags {tags})"
        )
    return problems


def render_span_breakdown(breakdowns: dict[str, OpSpanBreakdown]) -> str:
    """A per-op table: count, mean latency, and phase shares."""
    lines = ["request lifecycle (per-op span breakdown):"]
    if not breakdowns:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    for op in sorted(breakdowns):
        bd = breakdowns[op]
        status = ", ".join(f"{k}={v}" for k, v in sorted(bd.statuses.items()))
        lines.append(
            f"  {op:<14} n={bd.count:<5} mean={bd.mean * 1e6:9.2f} us  [{status}]"
        )
        for phase, total in bd.ordered_phases():
            per = total / bd.count if bd.count else 0.0
            lines.append(
                f"    {phase:<16} {per * 1e6:9.2f} us  {bd.phase_share(phase):6.1%}"
            )
    return "\n".join(lines)


@dataclass(frozen=True)
class TimelineStep:
    """One phase of a request: when it ended, and how far in."""

    time: float
    elapsed: float  # since the request's span opened
    phase: str
    op: str


def traced_tags(tracer: Tracer) -> list[int]:
    """The first wire tag of every closed, posted span, in submission
    order (a retried request keeps its first tag)."""
    posted = sorted((s for s in tracer.spans if s.tags), key=lambda s: s.start)
    return [s.tags[0] for s in posted]


def request_timeline(tracer: Tracer, tag: int) -> list[TimelineStep]:
    """The phases the request posted under ``tag`` went through, in
    order ([] when no closed span carries the tag)."""
    for span in tracer.spans:
        if tag in span.tags:
            return [
                TimelineStep(t, t - span.start, phase, span.op)
                for phase, t in span.marks
            ]
    return []


def render_timeline(steps: list[TimelineStep]) -> str:
    if not steps:
        return "(no span for this request)"
    lines = [f"request timeline ({steps[0].op}):"]
    for step in steps:
        lines.append(f"  +{step.elapsed * 1e6:8.1f} us  {step.phase}")
    lines.append(f"  total: {steps[-1].elapsed * 1e6:.1f} us")
    return "\n".join(lines)


_X_REQUIRED = ("name", "ph", "pid", "tid", "ts", "dur")


def validate_chrome_trace(doc) -> list[str]:
    """Structural problems in a Chrome trace-event JSON document.

    Empty list == the document is loadable by Perfetto /
    ``chrome://tracing``: a ``traceEvents`` array of ``X`` (complete)
    and ``M`` (metadata) events with numeric non-negative ``ts``/``dur``
    and integer ``pid``/``tid``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") != "process_name":
                problems.append(f"{where}: unexpected metadata event {ev.get('name')!r}")
            if not isinstance(ev.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata missing args.name")
            continue
        if ph != "X":
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        for key in _X_REQUIRED:
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: name is not a string")
        for key in ("ts", "dur"):
            v = ev.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                problems.append(f"{where}: {key} must be a non-negative number")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int) or isinstance(ev.get(key), bool):
                problems.append(f"{where}: {key} must be an integer")
    return problems
