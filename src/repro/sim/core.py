r"""Discrete-event simulation kernel.

Everything in this reproduction — the Xeon Phi card, the PCIe link, the SCIF
transport, virtio rings, QEMU/KVM and vPHI itself — runs as coroutine
*processes* on top of this kernel.  A process is a plain Python generator
that ``yield``\ s *events*; the kernel resumes it when the event fires and
sends the event's value back as the result of the ``yield`` expression.

Design points (all load-bearing for the reproduction):

* **Deterministic.**  Ties in the event queue are broken by a monotonic
  sequence number, so two runs with the same seed produce identical
  schedules.  ``Date``-free: simulated time is a float in **seconds**
  starting at 0.0 (helpers :func:`us`/:func:`ms` convert).
* **Execution domains.**  A :class:`Domain` groups processes that share an
  execution context that can be frozen — the guest side of a VM while QEMU
  handles a blocking request pauses exactly this way (§III, *Blocking vs
  non-blocking mode*).  Resumptions of processes in a paused domain are
  deferred, not lost, and replay in order on resume.
* **Interrupts.**  ``process.interrupt(cause)`` models asynchronous signal
  delivery (used by poll timeouts and connection teardown).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .calendar import CalendarQueue
from .errors import Interrupted, Killed, SimError, StopProcess

__all__ = [
    "Event",
    "Timeout",
    "FusedTimeout",
    "Process",
    "Domain",
    "Simulator",
    "AllOf",
    "AnyOf",
    "us",
    "ms",
    "SECOND",
    "US",
    "MS",
]

#: One simulated second (the base unit of simulated time).
SECOND = 1.0
#: One simulated millisecond.
MS = 1e-3
#: One simulated microsecond.
US = 1e-6


def us(x: float) -> float:
    """Convert microseconds to simulated seconds."""
    return x * US


def ms(x: float) -> float:
    """Convert milliseconds to simulated seconds."""
    return x * MS


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered*.  The kernel then schedules it and,
    when its turn comes, *fires* it: every registered callback (usually a
    process resumption) runs with the event's value or exception.
    """

    __slots__ = ("sim", "_value", "_exc", "_triggered", "_fired", "callbacks",
                 "name", "_entry")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._fired = False
        self.callbacks: list[Callable[["Event"], None]] = []
        #: the queue entry holding this event's pending firing (set when
        #: scheduled, cleared on fire; a cancelled entry has a None thunk).
        self._entry: Optional[list] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() was called (the outcome is decided)."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run (waiters have been resumed)."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError(f"event {self.name or self!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful; fire after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimError(f"event {self.name or self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if self._triggered:
            raise SimError(f"event {self.name or self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._schedule_event(self, delay)
        return self

    # -- kernel internals ---------------------------------------------------
    def _fire(self) -> None:
        if self._fired:
            return
        self._fired = True
        self._entry = None
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._fired:
            # Late subscription to an already-fired event: deliver promptly
            # (next kernel step at the current time) instead of silently
            # dropping the waiter.
            self.sim.call_soon(lambda: cb(self))
        else:
            self.callbacks.append(cb)
            entry = self._entry
            if entry is not None and entry[2] is None:
                # the pending firing was cancelled when the last waiter
                # abandoned it — a new waiter revives it
                self.sim._revive(self, entry[0])

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        try:
            self.callbacks.remove(cb)
        except ValueError:
            pass
        if (not self.callbacks and isinstance(self, Timeout)
                and self._entry is not None and not self._fired):
            # a pure delay nobody waits on anymore: tombstone its queue
            # entry so interrupted sleepers don't pile up until they expire
            self.sim._queue.cancel(self._entry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation.

    Its ``name`` stays empty: timeouts are built on every simulated
    delay, so the ``timeout(<delay>)`` label is formatted only where it
    is shown — :meth:`__repr__`, which error messages fall back to.
    Construction queues the firing inline (no ``succeed`` round trip):
    this is the kernel's hottest allocation.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self._queue_at(sim, sim.now + delay, delay, value)

    def _queue_at(self, sim: "Simulator", when: float, delay: float,
                  value: Any) -> None:
        """Initialise as triggered, its firing queued at ``when``."""
        self.sim = sim
        self.name = ""
        self._value = value
        self._exc = None
        self._triggered = True
        self._fired = False
        self.callbacks = []
        self.delay = delay
        self._entry = sim._queue.push(when, self._fire, sim.now)

    def __repr__(self) -> str:
        state = "fired" if self._fired else "triggered"
        return f"<Timeout timeout({self.delay:g}) {state}>"


class FusedTimeout(Timeout):
    """Two back-to-back pure delays, ``delay`` then ``then``, as one wake.

    A process that would ``yield timeout(a)`` and at once ``yield
    timeout(b)`` yields ``sim.delays(a, b)`` instead: one queued firing
    at ``(now + a) + b`` — the very float the two-step chain reaches
    (``timeout(a + b)`` would not be: float addition does not
    associate).  Its value is ``mid``, the instant the first delay ended
    for the waiter, where that phase's mark belongs.

    The chain's waiter is resumed at ``mid``, and a frozen domain defers
    that resumption — and so the start of the second delay — until it
    thaws.  A process waiting on this event directly has it watched by
    its domain: if the domain freezes before ``mid``, the wait splits
    back into the chain (the first delay fires at ``mid`` through the
    domain, the second starts when the waiter could have run, and the
    value becomes that instant).  Exact except at a same-instant tie:
    another firing queued for the very instant ``mid`` or ``mid + b``,
    or a freeze at ``mid`` itself, may order differently against this
    wake than against the chain's two firings.
    """

    __slots__ = ("mid", "then", "_domain", "_stage")

    def __init__(self, sim: "Simulator", delay: float, then: float):
        if delay < 0 or then < 0:
            raise ValueError(f"negative timeout: delays({delay}, {then})")
        mid = sim.now + delay
        self._queue_at(sim, mid + then, delay, mid)
        self.mid = mid
        self.then = then
        #: the waiter's domain, while it watches this wait
        self._domain: Optional[Domain] = None
        #: once split: the first delay's queue entry, then True while the
        #: second delay waits for the domain to thaw
        self._stage: Any = None

    def _watch(self, domain: "Domain") -> None:
        """Called when a process in ``domain`` parks on this event."""
        self._domain = domain
        if domain._pause_depth:
            # frozen by the waiter itself, before the first delay began
            self._split()
        elif self.mid > self.sim.now:
            domain._fused[self] = None

    def _split(self) -> None:
        """Trade the fused firing for the first delay's own."""
        queue = self.sim._queue
        queue.cancel(self._entry)
        self._stage = queue.push(self.mid, self._first_over, self.sim.now)

    def _first_over(self) -> None:
        self._stage = True
        domain = self._domain
        if domain._pause_depth:
            domain._defer(self._second)
        else:
            self._second()

    def _second(self) -> None:
        if self._stage is not True:
            return  # the waiter left meanwhile
        self._stage = None
        now = self.sim.now
        self._value = now
        self._entry = self.sim._queue.push(now + self.then, self._fire, now)

    def _fire(self) -> None:
        if self._domain is not None:
            self._domain._fused.pop(self, None)
            self._domain = None
        Event._fire(self)

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        super()._discard_callback(cb)
        if not self.callbacks:
            if self._domain is not None:
                self._domain._fused.pop(self, None)
                self._domain = None
            if self._stage is not None:
                if self._stage is not True:
                    self.sim._queue.cancel(self._stage)
                self._stage = None

    def __repr__(self) -> str:
        state = "fired" if self._fired else "triggered"
        return f"<FusedTimeout delays({self.delay:g}, {self.then:g}) {state}>"


class Domain:
    """A freezable execution context (e.g. the guest side of one VM).

    While paused, member processes are never resumed: resumptions are
    queued and replayed, in arrival order, when every pause is released.
    Pauses nest (``pause``/``resume`` act like a counting lock).
    """

    __slots__ = ("sim", "name", "_pause_depth", "_deferred", "paused_time",
                 "_paused_at", "_fused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._pause_depth = 0
        self._deferred: list[Callable[[], None]] = []
        #: Total simulated seconds this domain has spent frozen (metric for
        #: the blocking-mode cost analysis).
        self.paused_time = 0.0
        self._paused_at = 0.0
        #: fused waits of member processes whose first delay is running
        #: (an insertion-ordered set: splits queue in a fixed order)
        self._fused: dict[FusedTimeout, None] = {}

    @property
    def paused(self) -> bool:
        return self._pause_depth > 0

    @property
    def paused_seconds(self) -> float:
        """Total frozen time so far, *including* any still-open pause.

        ``paused_time`` only accumulates when the last nested pause is
        released; windowed accounting (occupancy over a sub-interval)
        needs the open pause counted up to now, or a domain frozen
        across a window boundary is invisible to that window.
        """
        open_pause = (self.sim.now - self._paused_at) if self.paused else 0.0
        return self.paused_time + open_pause

    def pause(self) -> None:
        if self._pause_depth == 0:
            self._paused_at = self.sim.now
            if self._fused:
                # a fused wait whose first delay ends while frozen goes
                # back to being two delays (see FusedTimeout)
                fused, self._fused = self._fused, {}
                now = self.sim.now
                for ev in fused:
                    if ev.mid > now:
                        ev._split()
                    else:
                        ev._domain = None
        self._pause_depth += 1

    def resume(self) -> None:
        if self._pause_depth == 0:
            raise SimError(f"domain {self.name!r} resume() without pause()")
        self._pause_depth -= 1
        if self._pause_depth == 0:
            self.paused_time += self.sim.now - self._paused_at
            deferred, self._deferred = self._deferred, []
            for thunk in deferred:
                self.sim.call_soon(thunk)

    def _defer(self, thunk: Callable[[], None]) -> None:
        self._deferred.append(thunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Domain {self.name!r} depth={self._pause_depth}>"


class Process(Event):
    """A coroutine process.  Also an event: it fires when the process ends,
    with the generator's return value (or its unhandled exception).

    A process that ends with nobody waiting on it is marked fired on the
    spot instead of queueing a firing that would run no callback; a late
    joiner is still resumed, promptly, through ``_add_callback``.
    """

    __slots__ = ("gen", "domain", "_waiting_on", "_resume_cb", "_started",
                 "_pending_throw", "_observed")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
        domain: Optional[Domain] = None,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process body must be a generator (got {type(gen).__name__}); "
                "did you forget a 'yield'?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self.domain = domain
        self._waiting_on: Optional[Event] = None
        self._started = False
        #: exception queued for delivery at the next resumption (interrupt).
        self._pending_throw: Optional[BaseException] = None
        #: set once anything waits on this process (or run() reported its
        #: crash): the waiter owns the outcome, so run() stays quiet.
        self._observed = False
        self._resume_cb = self._resume  # stable bound method for discard
        sim.call_soon(self._start)

    # -- public API ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: object = None) -> None:
        """Deliver :class:`Interrupted` into the process at the current time.

        Harmless no-op if the process already ended.
        """
        if not self.alive:
            return
        self._pending_throw = Interrupted(cause)
        self._detach()
        self.sim.call_soon(self._step_deliver)

    def kill(self) -> None:
        """Forcibly terminate the process (it fires with ``Killed``)."""
        if not self.alive:
            return
        self._pending_throw = Killed(f"process {self.name!r} killed")
        self._detach()
        self.sim.call_soon(self._step_deliver)

    # -- kernel internals -----------------------------------------------------
    def _detach(self) -> None:
        if self._waiting_on is not None:
            self._waiting_on._discard_callback(self._resume_cb)
            self._waiting_on = None

    def _start(self) -> None:
        if self._started or self._triggered:
            return
        self._started = True
        self._step(None, None)

    def _resume(self, event: Event) -> None:
        """The callback every awaited event fires into."""
        self._waiting_on = None
        self._step(event._value, event._exc)

    def _step_deliver(self) -> None:
        exc, self._pending_throw = self._pending_throw, None
        if exc is None or self._triggered:
            return
        self._step(None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        # Respect domain freeze: requeue the resumption for replay.
        domain = self.domain
        if domain is not None and domain._pause_depth:
            domain._defer(lambda: self._step(value, exc))
            return
        if self._pending_throw is not None and exc is None:
            exc, self._pending_throw = self._pending_throw, None
        try:
            if exc is None:
                target = self.gen.send(value)
            else:
                # a throw can land after a deferred resumption registered
                # the process on its next event; leave that wait, or the
                # stale event resumes the process again later with its
                # own value
                self._detach()
                target = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as err:
            self._crash(err)
            return
        # Common case first: park on a plain pending Event/Timeout
        # directly; anything else goes through _wait_for.
        cls = type(target)
        if ((cls is Timeout or cls is Event or cls is FusedTimeout)
                and not target._fired and target.sim is self.sim):
            entry = target._entry
            if entry is None or entry[2] is not None:
                self._waiting_on = target
                target.callbacks.append(self._resume_cb)
                if cls is FusedTimeout and self.domain is not None:
                    target._watch(self.domain)
                return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_err(
                TypeError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield Event instances (Timeout, Process, ...)"
                )
            )
            return
        if target.sim is not self.sim:
            self._finish_err(SimError("yielded event belongs to a different Simulator"))
            return
        self._waiting_on = target
        target._add_callback(self._resume_cb)

    def _crash(self, err: BaseException) -> None:
        if isinstance(err, StopProcess):
            err = Killed(f"process {self.name!r} killed")
        self._finish_err(err)

    def _finish_ok(self, value: Any) -> None:
        # only reached from the generator's StopIteration: nothing to close
        if self._triggered:
            return
        self._triggered = True
        self._value = value
        self._settle()

    def _finish_err(self, exc: BaseException) -> None:
        self.gen.close()
        if self._triggered:
            return
        self._triggered = True
        self._exc = exc
        # A process dying with an exception fails its join-event.  If
        # nobody joins it, run() surfaces the error once it stops, so
        # failures cannot vanish silently.
        if not self._observed:
            self.sim._crashes.append((self, exc))
        self._settle()

    def _settle(self) -> None:
        """Fire the join-event: queued when someone waits on it, marked
        fired in place when nobody does (a queued firing would run no
        callback)."""
        if self.callbacks:
            self.sim._schedule_event(self, 0.0)
        else:
            self._fired = True

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        # Registering a waiter on a process means its outcome is observed;
        # the waiter owns any exception, so run() will not re-raise it.
        self._observed = True
        super()._add_callback(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._triggered else ("running" if self._started else "new")
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Succeeds when all child events have fired; value is the list of their
    values (in the given order).  Fails fast on the first child failure."""

    __slots__ = ("_remaining", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        events = list(events)
        self._values: list[Any] = [None] * len(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev._add_callback(self._make_cb(i))

    def _make_cb(self, i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
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


class AnyOf(Event):
    """Succeeds when the first child fires; value is ``(index, value)``."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        events = list(events)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(events):
            ev._add_callback(self._make_cb(i))

    def _make_cb(self, i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self._triggered:
                return
            if ev._exc is not None:
                self.fail(ev._exc)
            else:
                self.succeed((i, ev._value))

        return cb


class Simulator:
    """The event loop: a time-ordered queue of pending event firings.

    ``run(until=None)`` executes until the queue drains (or simulated time
    reaches ``until``).  All times are simulated seconds.
    """

    def __init__(self, trace: Optional["object"] = None):
        self.now: float = 0.0
        self._queue = CalendarQueue()
        #: processes that crashed with nobody waiting on them, in order;
        #: ``run()`` raises the first one still unobserved and forgets
        #: every entry up to it.
        self._crashes: list[tuple[Process, BaseException]] = []
        self.trace = trace

    # -- factory helpers ------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def delays(self, delay: float, then: float) -> FusedTimeout:
        """``timeout(delay)`` then ``timeout(then)`` as one wake at
        ``(now + delay) + then``; its value is the instant the first
        delay ended.  Yield it directly (see :class:`FusedTimeout`), and
        only where nothing observable sits between the two delays."""
        return FusedTimeout(self, delay, then)

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        domain: Optional[Domain] = None,
    ) -> Process:
        return Process(self, gen, name=name, domain=domain)

    def domain(self, name: str = "") -> Domain:
        return Domain(self, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float) -> None:
        event._entry = self._queue.push(self.now + delay, event._fire, self.now)

    def call_soon(self, thunk: Callable[[], None]) -> None:
        """Run a plain callback at the current time, after everything
        already queued for this instant."""
        self._queue.push(self.now, thunk, self.now)

    def call_at(self, when: float, thunk: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``."""
        if when < self.now:
            raise SimError(f"call_at({when}) is in the past (now={self.now})")
        self._queue.push(when, thunk, self.now)

    def _revive(self, event: Event, when: float) -> None:
        """Re-queue a cancelled-but-revived event firing (see
        ``Event._add_callback``); past-due firings deliver promptly."""
        event._entry = self._queue.push(max(when, self.now), event._fire, self.now)

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``now`` would pass ``until``.

        Returns the final simulated time.  Raises the first unhandled
        process exception once the loop stops, so silent failures are
        impossible.
        """
        queue = self._queue
        pop = queue.pop
        while True:
            entry = pop(until)
            if entry is None:
                if until is not None and until > self.now:
                    # stopped on the horizon (or drained short of it)
                    self.now = until
                break
            when = entry[0]
            if when > self.now:
                self.now = when
            entry[2]()
        self.raise_pending_crash()
        return self.now

    def step(self) -> bool:
        """Execute a single queued firing.  Returns False if queue empty."""
        entry = self._queue.pop()
        if entry is None:
            return False
        when = entry[0]
        if when > self.now:
            self.now = when
        entry[2]()
        return True

    def peek(self) -> Optional[float]:
        """Time of the next queued firing, or None if the queue is empty."""
        return self._queue.peek()

    def raise_pending_crash(self) -> None:
        """Re-raise the first process crash that no other process observed.

        Crashes it has passed over are dropped: each holds its process
        and its traceback's frames, and none can be raised again.
        """
        crashes = self._crashes
        for i, (proc, exc) in enumerate(crashes):
            if proc._observed:
                continue
            proc._observed = True
            del crashes[:i + 1]
            raise SimError(f"process {proc.name!r} died: {exc!r}") from exc
        crashes.clear()
