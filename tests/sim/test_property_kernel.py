"""Differential property suite for the DES kernel.

Random process programs run on the kernel and on a reference copy of
the kernel it replaced, kept below.  The reference is that earlier
kernel with one amendment only: its observed-crash mark lives on the
process (the earlier ``id(process)`` set swallowed crashes once CPython
reused an id).

The current kernel queues nothing for a process that ends with nobody
waiting, builds timeouts without a ``succeed`` round trip and resumes
processes through a one-call path.  None of that may change what a
program observes: every resumption — its time, its process, its step,
the value or exception it got — and every ``run()`` raise must be
identical on both kernels.

A fused wait — ``delays(a, b)`` on the current kernel — is compared
with what it replaces, ``timeout(a)`` then ``timeout(b)`` on the
reference, domain freezes included: the instant the first delay ended
and the wake must match.

Two reorders are allowed, and pinned:

* a process joined at the very instant its target ended with no waiter
  (:func:`test_same_instant_late_join_reorder`).  The earlier
  kernel resumed the joiner where the target's (otherwise empty) firing
  was queued; the current one resumes it behind the join.  Random
  programs step around that instant (a joiner that finds its target
  ended *now* first yields ``timeout(0)``);
* a fused wake is queued when the wait begins, where the chain queues
  its second firing when the first one ends, so another firing for the
  very same instant may order differently
  (``tests/sim/test_core.py::test_fused_wake_orders_at_its_start_at_a_tie``).
  Random programs keep other firings off a fused wait's instants: each
  fused op adds its own power-of-two offsets (:func:`_fused_delays`),
  far below the delay grid and far above float rounding, so only a
  process that resumed *from* that wait can carry them.

Programs use timeouts (ties included), shared events succeeded or
failed with a delay, ``AllOf``/``AnyOf``, spawn and join (late joins of
finished and of crashed processes), interrupt and kill of started
processes (self included), domain pause/resume and fused waits.  ``VPHI_CHAOS_EXAMPLES`` raises the
example count (nightly chaos job).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Interrupted, Killed, SimError, Simulator
from repro.sim.errors import StopProcess

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "60"))


# ----------------------------------------------------------------------
# the reference kernel
# ----------------------------------------------------------------------
class RefEvent:
    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._value = None
        self._exc = None
        self._triggered = False
        self._fired = False
        self.callbacks = []
        self._entry = None

    @property
    def triggered(self):
        return self._triggered

    @property
    def ok(self):
        return self._triggered and self._exc is None

    @property
    def value(self):
        if not self._triggered:
            raise SimError("not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value=None, delay=0.0):
        if self._triggered:
            raise SimError("already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self, delay)
        return self

    def fail(self, exc, delay=0.0):
        if self._triggered:
            raise SimError("already triggered")
        self._triggered = True
        self._exc = exc
        self.sim._schedule_event(self, delay)
        return self

    def _fire(self):
        if self._fired:
            return
        self._fired = True
        self._entry = None
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def _add_callback(self, cb):
        if self._fired:
            self.sim._call_soon(lambda: cb(self))
        else:
            self.callbacks.append(cb)
            entry = self._entry
            if entry is not None and entry[2] is None:
                self.sim._revive(self, entry[0])

    def _discard_callback(self, cb):
        try:
            self.callbacks.remove(cb)
        except ValueError:
            pass
        if (not self.callbacks and isinstance(self, RefTimeout)
                and self._entry is not None and not self._fired):
            self.sim._queue.cancel(self._entry)


class RefTimeout(RefEvent):
    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        super().__init__(sim)
        self.succeed(value, delay=delay)


class RefDomain:
    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._pause_depth = 0
        self._deferred = []

    @property
    def paused(self):
        return self._pause_depth > 0

    def pause(self):
        self._pause_depth += 1

    def resume(self):
        if self._pause_depth == 0:
            raise SimError(f"domain {self.name!r} resume() without pause()")
        self._pause_depth -= 1
        if self._pause_depth == 0:
            deferred, self._deferred = self._deferred, []
            for thunk in deferred:
                self.sim._call_soon(thunk)

    def _defer(self, thunk):
        self._deferred.append(thunk)


class RefProcess(RefEvent):
    def __init__(self, sim, gen, name="", domain=None):
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self.domain = domain
        self._waiting_on = None
        self._started = False
        self._pending_throw = None
        self._observed = False  # amendment: the mark lives on the process
        self._resume_cb = self._on_event
        sim._call_soon(self._start)

    @property
    def alive(self):
        return not self._triggered

    def interrupt(self, cause=None):
        if not self.alive:
            return
        self._pending_throw = Interrupted(cause)
        self._detach()
        self.sim._call_soon(self._step_deliver)

    def kill(self):
        if not self.alive:
            return
        self._pending_throw = Killed(f"process {self.name!r} killed")
        self._detach()
        self.sim._call_soon(self._step_deliver)

    def _detach(self):
        if self._waiting_on is not None:
            self._waiting_on._discard_callback(self._resume_cb)
            self._waiting_on = None

    def _start(self):
        if self._started or self._triggered:
            return
        self._started = True
        self._step(None, None)

    def _on_event(self, event):
        self._waiting_on = None
        if event._exc is not None:
            self._step(None, event._exc)
        else:
            self._step(event._value, None)

    def _step_deliver(self):
        exc, self._pending_throw = self._pending_throw, None
        if exc is None or self._triggered:
            return
        self._step(None, exc)

    def _step(self, value, exc):
        if self.domain is not None and self.domain.paused:
            self.domain._defer(lambda: self._step(value, exc))
            return
        if self._pending_throw is not None and exc is None:
            exc, self._pending_throw = self._pending_throw, None
        if exc is not None:
            self._detach()
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except StopProcess:
            self._finish_err(Killed(f"process {self.name!r} killed"))
            return
        except BaseException as err:
            self._finish_err(err)
            return
        self._wait_for(target)

    def _wait_for(self, target):
        if not isinstance(target, RefEvent):
            self._finish_err(TypeError(f"process {self.name!r} yielded {target!r}"))
            return
        if target.sim is not self.sim:
            self._finish_err(SimError("yielded event belongs to a different Simulator"))
            return
        self._waiting_on = target
        target._add_callback(self._resume_cb)

    def _finish_ok(self, value):
        self.gen.close()
        if not self._triggered:
            self.succeed(value)

    def _finish_err(self, exc):
        self.gen.close()
        if not self._triggered:
            self.sim._crashes.append((self, exc))
            self.fail(exc)

    def _add_callback(self, cb):
        self._observed = True
        super()._add_callback(cb)


class RefAllOf(RefEvent):
    def __init__(self, sim, events):
        super().__init__(sim, name="all_of")
        events = list(events)
        self._values = [None] * len(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev._add_callback(self._make_cb(i))

    def _make_cb(self, i):
        def cb(ev):
            if self._triggered:
                return
            if ev._exc is not None:
                self.fail(ev._exc)
                return
            self._values[i] = ev._value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))

        return cb


class RefAnyOf(RefEvent):
    def __init__(self, sim, events):
        super().__init__(sim, name="any_of")
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(events):
            ev._add_callback(self._make_cb(i))

    def _make_cb(self, i):
        def cb(ev):
            if self._triggered:
                return
            if ev._exc is not None:
                self.fail(ev._exc)
            else:
                self.succeed((i, ev._value))

        return cb


class RefSimulator:
    def __init__(self):
        self.now = 0.0
        self._queue = CalendarQueue()
        self._crashes = []

    def event(self, name=""):
        return RefEvent(self, name=name)

    def timeout(self, delay, value=None):
        return RefTimeout(self, delay, value)

    def spawn(self, gen, name="", domain=None):
        return RefProcess(self, gen, name=name, domain=domain)

    def domain(self, name=""):
        return RefDomain(self, name=name)

    def all_of(self, events):
        return RefAllOf(self, events)

    def any_of(self, events):
        return RefAnyOf(self, events)

    def _schedule_event(self, event, delay):
        event._entry = self._queue.push(self.now + delay, event._fire, self.now)

    def _call_soon(self, thunk):
        self._queue.push(self.now, thunk, self.now)

    def _revive(self, event, when):
        event._entry = self._queue.push(max(when, self.now), event._fire, self.now)

    def run(self, until=None):
        pop = self._queue.pop
        while True:
            entry = pop(until)
            if entry is None:
                if until is not None and until > self.now:
                    self.now = until
                break
            if entry[0] > self.now:
                self.now = entry[0]
            entry[2]()
        for proc, exc in self._crashes:
            if proc._observed:
                continue
            proc._observed = True
            raise SimError(f"process {proc.name!r} died: {exc!r}") from exc
        return self.now


# ----------------------------------------------------------------------
# random process programs
# ----------------------------------------------------------------------
#: few distinct delays, so same-instant ties are common
_delay = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 0.1, 0.2, 0.3])
N_EVENTS = 3
N_DOMAINS = 2

_item = st.one_of(
    st.tuples(st.just("t"), _delay),
    st.tuples(st.just("e"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("p"), st.integers(0, 7)),
)

_leaf_op = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("fused"), _delay, _delay),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1), st.booleans(), _delay),
    st.tuples(st.just("all"), st.lists(_item, min_size=0, max_size=3)),
    st.tuples(st.just("any"), st.lists(_item, min_size=1, max_size=3)),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("pause"), st.integers(0, N_DOMAINS - 1)),
    st.tuples(st.just("resume"), st.integers(0, N_DOMAINS - 1)),
    st.tuples(st.just("crash")),
)
_child = st.lists(_leaf_op, min_size=0, max_size=5)
_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("spawn"), _child, st.integers(-1, N_DOMAINS - 1)),
)
_script = st.lists(_op, min_size=0, max_size=8)
programs = st.tuples(
    st.lists(st.tuples(_script, st.integers(-1, N_DOMAINS - 1)), min_size=1, max_size=4),
    st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.5])),
)


#: fused ops per program that get their own offsets; later ones sleep
MAX_FUSED = 10


def _fused_delays(op, k: int) -> tuple[float, float]:
    """The ``k``-th fused op's two delays: its grid delays plus offsets
    ``2**-(12 + 2k)`` and ``2**-(13 + 2k)``.  Offsets sum to under
    ``2**-11`` (below the grid's 0.1 step) and stay above ``2**-32``
    (above the rounding of any time in these programs), so an instant
    carrying fused op ``k``'s offsets is reached only through that op."""
    return op[1] + 2.0 ** -(12 + 2 * k), op[2] + 2.0 ** -(13 + 2 * k)


class Crash(Exception):
    """A process dying on purpose (surfaces from ``run()`` if unjoined)."""


def _outcome(value: Any) -> Any:
    """A kernel-independent rendering of what a wait returned."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(_outcome(v) for v in value)
    if isinstance(value, BaseException):
        return "exc", type(value).__name__, str(value)
    return "v", value


def run_program(sim, program) -> tuple[list, list]:
    """Run ``program`` on ``sim``; returns the resumption trace and the
    ``run()`` raises, in order."""
    scripts, horizon = program
    trace: list = []
    events = [sim.event(name=f"e{k}") for k in range(N_EVENTS)]
    domains = [sim.domain(f"d{k}") for k in range(N_DOMAINS)]
    procs: list = []
    started: set = set()
    ended_at: dict = {}
    end_log: list = []
    fused_log: list = []

    def pick(j: int):
        return procs[j % len(procs)] if procs else None

    def target_of(item):
        kind, arg = item
        if kind == "t":
            return sim.timeout(arg, value=f"t{arg}")
        if kind == "e":
            return events[arg]
        return pick(arg)

    def step_around_ended_now(targets):
        # the one allowed reorder: never join a process whose end at this
        # instant may still have its firing queued.  A timeout(0) queues
        # behind every firing already queued, so wait until no target
        # ended at this instant after the last one was queued.
        since = 0
        while any(t is not None and ended_at.get(t.name) == sim.now
                  and end_log.index(t.name) >= since for t in targets):
            since = len(end_log)
            yield sim.timeout(0.0)

    def body(pid: str, script):
        started.add(pid)
        try:
            for i, op in enumerate(script):
                kind = op[0]
                if kind == "crash":
                    raise Crash(f"{pid} crashed at {i}")
                try:
                    if kind == "sleep":
                        got = yield sim.timeout(op[1], value=i)
                    elif kind == "fused":
                        k = len(fused_log)
                        fused_log.append(pid)
                        if k >= MAX_FUSED:
                            got = yield sim.timeout(op[1], value=i)
                        elif isinstance(sim, Simulator):
                            got = yield sim.delays(*_fused_delays(op, k))
                        else:
                            first, then = _fused_delays(op, k)
                            yield sim.timeout(first)
                            got = sim.now
                            yield sim.timeout(then)
                    elif kind == "wait":
                        got = yield events[op[1]]
                    elif kind == "trigger":
                        ev = events[op[1]]
                        got = None
                        if not ev.triggered:
                            if op[2]:
                                ev.succeed(f"{pid}.{i}", delay=op[3])
                            else:
                                ev.fail(ValueError(f"{pid}.{i}"), delay=op[3])
                    elif kind in ("all", "any"):
                        procs_in = [pick(it[1]) for it in op[1] if it[0] == "p"]
                        yield from step_around_ended_now(procs_in)
                        targets = [target_of(it) for it in op[1]]
                        targets = [t for t in targets if t is not None]
                        if kind == "any" and not targets:
                            continue
                        got = yield (sim.all_of(targets) if kind == "all"
                                     else sim.any_of(targets))
                    elif kind == "join":
                        proc = pick(op[1])
                        if proc is None:
                            continue
                        yield from step_around_ended_now([proc])
                        got = yield proc
                    elif kind in ("interrupt", "kill"):
                        proc = pick(op[1])
                        if proc is None or proc.name not in started:
                            # a process killed before it ran ends without
                            # running its body, so its end goes unrecorded
                            # and step_around_ended_now could not see it
                            continue
                        if kind == "interrupt":
                            proc.interrupt(f"{pid}.{i}")
                        else:
                            proc.kill()
                        got = None
                    elif kind == "pause":
                        domains[op[1]].pause()
                        got = None
                    elif kind == "resume":
                        domains[op[1]].resume()
                        got = None
                    elif kind == "spawn":
                        spawn(op[1], op[2])
                        got = None
                    trace.append((sim.now, pid, i, _outcome(got)))
                except Interrupted as err:
                    trace.append((sim.now, pid, i, ("interrupted", err.cause)))
                except Killed:
                    raise
                except Exception as err:
                    # a failed event, a joined crash, a bad resume()
                    trace.append((sim.now, pid, i, _outcome(err)))
        finally:
            ended_at[pid] = sim.now
            end_log.append(pid)
        return pid

    def spawn(script, dom: int):
        pid = f"p{len(procs)}"
        procs.append(sim.spawn(body(pid, script), name=pid,
                               domain=None if dom < 0 else domains[dom]))

    for script, dom in scripts:
        spawn(script, dom)
    raises: list = []

    def run(until: Optional[float] = None) -> None:
        while True:
            try:
                sim.run(until=until)
                return
            except SimError as err:
                raises.append((sim.now, str(err)))

    if horizon is not None:
        run(horizon)
        trace.append(("horizon", sim.now))
    run()
    trace.append(("end", sim.now, sorted(ended_at.items())))
    return trace, raises


@settings(max_examples=N_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs)
def test_kernel_matches_reference(program):
    """Identical resumption traces and identical ``run()`` raises."""
    assert run_program(Simulator(), program) == run_program(RefSimulator(), program)


# ----------------------------------------------------------------------
# the pinned late-join reorder and the unjoined finish
# ----------------------------------------------------------------------
def _late_join_order(sim) -> list:
    order: list = []

    def child():
        yield sim.timeout(1.0)
        order.append("child ends")
        return "done"

    def bystander():
        yield sim.timeout(1.0)
        # queued after the child's end, before the join
        yield sim.timeout(0.0)
        order.append("bystander")

    def joiner(proc):
        yield sim.timeout(1.0)  # due at the child's instant, queued after it
        order.append("joiner joins")
        got = yield proc
        order.append(f"joiner resumed with {got}")

    proc = sim.spawn(child())
    sim.spawn(bystander())
    sim.spawn(joiner(proc))
    sim.run()
    return order


def test_same_instant_late_join_reorder():
    """A join at the instant its target ended with no waiter: the
    earlier kernel resumed the joiner at the target's queued (empty)
    firing, ahead of the bystander; the current kernel queues no such
    firing, so the joiner resumes behind the join, after the bystander."""
    head = ["child ends", "joiner joins"]
    assert _late_join_order(RefSimulator()) == head + [
        "joiner resumed with done", "bystander"]
    assert _late_join_order(Simulator()) == head + [
        "bystander", "joiner resumed with done"]


def _unjoined_process_pushes(make_sim: Callable) -> int:
    sim = make_sim()

    def quick():
        yield sim.timeout(1.0)

    sim.spawn(quick())
    sim.run()
    return sim._queue._seq


def test_unjoined_finish_queues_nothing():
    """Start and timeout only: the finish of a process nobody joins is
    marked in place, where the earlier kernel queued an empty firing."""
    assert _unjoined_process_pushes(RefSimulator) == 3
    assert _unjoined_process_pushes(Simulator) == 2
