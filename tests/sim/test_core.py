"""Unit tests for the DES kernel: events, processes, time, domains."""

import pytest

from repro.sim import (
    Interrupted,
    Killed,
    SimError,
    Simulator,
    ms,
    run_with,
    us,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert run_with(sim, proc()) == pytest.approx(1.5)


def test_timeouts_fire_in_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(waiter(3.0, "c"))
    sim.spawn(waiter(1.0, "a"))
    sim.spawn(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_ties_broken_by_spawn_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.spawn(waiter(tag))
    sim.run()
    assert order == list("abcde")


def test_delays_wake_at_the_chained_float():
    """A fused wait lands on exactly the float a chain of timeouts
    reaches, ``(now + a) + b``; ``a + b`` in one timeout would not."""
    sim = Simulator()
    woke = {}

    def chained():
        yield sim.timeout(0.1)
        yield sim.timeout(0.2)
        yield sim.timeout(0.3)
        woke["chained"] = sim.now

    def fused():
        yield sim.timeout(0.1)
        woke["mid"] = yield sim.delays(0.2, 0.3)
        woke["fused"] = sim.now

    sim.spawn(chained())
    sim.spawn(fused())
    sim.run()
    assert woke["fused"] == woke["chained"] == (0.1 + 0.2) + 0.3
    assert woke["fused"] != 0.1 + (0.2 + 0.3)
    assert woke["mid"] == 0.1 + 0.2


def test_negative_delays_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.delays(1.0, -1.0)
    with pytest.raises(ValueError):
        sim.delays(-1.0, 1.0)


def _freeze_run(fused: bool, freezes, first=1.0, then=0.5, self_pause=False):
    """A guest in a domain waits ``first`` then ``then`` — fused, or as
    the two-step chain — while the domain freezes over ``freezes``
    (``(pause_at, resume_at)`` pairs).  Returns (instant the first
    delay ended for the guest, wake time)."""
    sim = Simulator()
    dom = sim.domain("vm")
    got = {}

    def guest():
        if self_pause:
            dom.pause()
        if fused:
            got["mid"] = yield sim.delays(first, then)
        else:
            yield sim.timeout(first)
            got["mid"] = sim.now
            yield sim.timeout(then)
        got["wake"] = sim.now

    def freezer():
        for pause_at, resume_at in freezes:
            if pause_at is not None:
                yield sim.timeout(pause_at - sim.now)
                dom.pause()
            yield sim.timeout(resume_at - sim.now)
            dom.resume()

    sim.spawn(guest(), domain=dom)
    sim.spawn(freezer())
    sim.run()
    return got["mid"], got["wake"]


@pytest.mark.parametrize("freezes", [
    [],                              # never frozen: stays fused
    [(0.25, 0.75)],                  # thawed before the first delay ends
    [(0.5, 1.25)],                   # frozen over the first delay's end
    [(0.5, 2.0)],                    # ... and over the fused wake
    [(1.125, 1.75)],                 # frozen over the wake only
    [(0.25, 0.75), (0.875, 1.25), (1.375, 2.5)],
])
def test_fused_wait_matches_the_chain_under_domain_freezes(freezes):
    """A freeze covering the first delay's end defers the chain's second
    delay until the thaw; the fused wait splits back into the chain then,
    and so wakes, and reports the first delay's end, exactly as the
    chain does."""
    assert _freeze_run(True, freezes) == _freeze_run(False, freezes)


def test_fused_wait_in_a_domain_frozen_by_its_own_waiter():
    """The waiter froze its own domain before yielding: the first delay
    ends frozen, so the second starts at the thaw."""
    assert _freeze_run(True, [(None, 2.0)], self_pause=True) == (2.0, 2.5)
    assert _freeze_run(False, [(None, 2.0)], self_pause=True) == (2.0, 2.5)


def test_fused_wait_split_then_abandoned_leaves_no_firing():
    """A guest interrupted while its split wait's second delay waits for
    the thaw leaves nothing queued: the run ends at the thaw."""
    sim = Simulator()
    dom = sim.domain("vm")
    log = []

    def guest():
        try:
            yield sim.delays(1.0, 5.0)
        except Interrupted:
            log.append(("interrupted", sim.now))

    def freezer(proc):
        yield sim.timeout(0.5)
        dom.pause()
        yield sim.timeout(1.0)
        proc.interrupt()
        yield sim.timeout(0.5)
        dom.resume()

    proc = sim.spawn(guest(), domain=dom)
    sim.spawn(freezer(proc))
    assert sim.run() == 2.0
    assert log == [("interrupted", 2.0)]


def test_fused_wake_orders_at_its_start_at_a_tie():
    """The pinned tie: a fused wake is queued when the wait begins, the
    chain's second firing only when the first ends.  Another firing
    queued in between for the very same instant runs after the chain's
    wake but before the fused one."""

    def order(fused: bool) -> list:
        sim = Simulator()
        log = []

        def waiter():
            if fused:
                yield sim.delays(1.0, 1.0)
            else:
                yield sim.timeout(1.0)
                yield sim.timeout(1.0)
            log.append("waiter")

        def other():
            yield sim.timeout(0.5)
            yield sim.timeout(1.5)  # due at 2.0, queued at 0.5
            log.append("other")

        sim.spawn(waiter())
        sim.spawn(other())
        sim.run()
        return log

    assert order(fused=False) == ["other", "waiter"]
    assert order(fused=True) == ["waiter", "other"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(0.1, value="payload")
        return got

    assert run_with(sim, proc()) == "payload"


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event("e")

    def waiter():
        v = yield ev
        return v

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed(42)

    p = sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert p.value == 42
    assert sim.now == pytest.approx(1.0)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield ev
        return "survived"

    def trigger():
        yield sim.timeout(0.5)
        ev.fail(RuntimeError("boom"))

    assert ev.triggered is False
    p = sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert p.value == "survived"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_late_waiter_on_fired_event_still_resumed():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late():
        yield sim.timeout(2.0)
        v = yield ev
        return v

    assert run_with(sim, late()) == "early"


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        v = yield sim.spawn(child())
        return v

    assert run_with(sim, parent()) == "done"


def test_process_join_propagates_exception():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        with pytest.raises(ValueError, match="child died"):
            yield sim.spawn(child())
        return "handled"

    assert run_with(sim, parent()) == "handled"


def test_unobserved_crash_surfaces_at_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.1)
        raise RuntimeError("silent failure")

    sim.spawn(bad())
    with pytest.raises(SimError, match="died"):
        sim.run()


def test_unjoined_crash_surfaces_after_joined_processes_were_collected():
    """Every unjoined crash surfaces, however many processes were joined
    and freed before it: CPython reuses a collected object's id(), so an
    observed mark kept by id would swallow a later crash at that address."""
    sim = Simulator()

    def child():
        yield sim.timeout(1)

    def parent():
        for _ in range(2000):
            yield sim.spawn(child())

    sim.spawn(parent())
    sim.run()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unjoined")

    swallowed = 0
    for _ in range(200):
        sim.spawn(bad())
        try:
            sim.run()
        except SimError:
            pass
        else:
            swallowed += 1
        sim._crashes.clear()
    assert swallowed == 0


def test_crash_reported_once_then_observed():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.1)
        raise RuntimeError("boom")

    proc = sim.spawn(bad())
    with pytest.raises(SimError, match="died"):
        sim.run()
    sim.run()  # the same crash is not raised twice
    assert not proc.ok and proc.fired


def test_run_reports_each_crash_once_then_forgets_it():
    """Unjoined crashes surface one per run(), in order; run() then
    holds no crash it reported or that a late joiner observed (each
    would pin its process and traceback frames)."""
    sim = Simulator()

    def bad(tag):
        yield sim.timeout(0.1)
        raise RuntimeError(tag)

    def joiner(proc):
        yield sim.timeout(1.0)
        with pytest.raises(RuntimeError):
            yield proc

    for i in range(3):
        sim.spawn(joiner(sim.spawn(bad(f"joined{i}"))))
    sim.spawn(bad("first"))
    sim.spawn(bad("second"))
    with pytest.raises(SimError, match="first"):
        sim.run()
    with pytest.raises(SimError, match="second"):
        sim.run()
    sim.run()
    assert sim._crashes == []


def test_late_join_observes_an_unjoined_crash():
    """A process that crashed with nobody waiting is fired in place; a
    joiner arriving later still gets the exception, and owns it."""
    sim = Simulator()

    def bad():
        yield sim.timeout(0.1)
        raise ValueError("late")

    proc = sim.spawn(bad())

    def joiner():
        yield sim.timeout(1.0)
        assert proc.fired
        with pytest.raises(ValueError, match="late"):
            yield proc
        return sim.now

    j = sim.spawn(joiner())
    sim.run()  # observed by the joiner: run() does not raise
    assert j.value == 1.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.spawn(bad())
    with pytest.raises(SimError):
        sim.run()
    assert p.triggered and not p.ok


def test_interrupt_raises_interrupted_with_cause():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupted as e:
            return ("interrupted", e.cause, sim.now)
        return "not reached"

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt("wakeup-call")

    p = sim.spawn(sleeper())
    sim.spawn(interrupter(p))
    sim.run()
    assert p.value == ("interrupted", "wakeup-call", pytest.approx(1.0))


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)
        return 1

    p = sim.spawn(quick())
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == 1


def test_kill_terminates_process():
    sim = Simulator()

    def immortal():
        while True:
            yield sim.timeout(1.0)

    def killer(target):
        yield sim.timeout(2.5)
        target.kill()

    p = sim.spawn(immortal())

    def parent():
        with pytest.raises(Killed):
            yield p
        return "ok"

    par = sim.spawn(parent())
    sim.spawn(killer(p))
    sim.run()
    assert par.value == "ok"
    assert not p.alive


def test_run_until_stops_clock():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10.0)

    def parent():
        child = sim.spawn(forever())
        yield sim.timeout(1.0)
        child.kill()
        with pytest.raises(Killed):
            yield child

    sim.spawn(parent())
    end = sim.run(until=25.0)
    assert end == pytest.approx(25.0)


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    hits = []

    def proc():
        yield sim.timeout(10.0)
        hits.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0)
    assert hits == []
    sim.run()
    assert hits == [pytest.approx(10.0)]


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc():
        evs = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        vals = yield sim.all_of(evs)
        return vals

    assert run_with(sim, proc()) == ["c", "a", "b"]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def proc():
        vals = yield sim.all_of([])
        return (vals, sim.now)

    assert run_with(sim, proc()) == ([], 0.0)


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        idx, val = yield sim.any_of(
            [sim.timeout(3.0, "c"), sim.timeout(1.0, "a")]
        )
        return idx, val, sim.now

    assert run_with(sim, proc()) == (1, "a", pytest.approx(1.0))


def test_call_at_runs_callback():
    sim = Simulator()
    hits = []
    sim.call_at(5.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [pytest.approx(5.0)]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.spawn(proc())
    sim.run()
    with pytest.raises(SimError):
        sim.call_at(5.0, lambda: None)


def test_peek_and_step():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)

    sim.spawn(proc())
    assert sim.peek() == pytest.approx(0.0)  # process start thunk
    assert sim.step() is True
    assert sim.peek() == pytest.approx(2.0)
    while sim.step():
        pass
    assert sim.peek() is None


class TestDomain:
    def test_paused_domain_defers_resumption(self):
        sim = Simulator()
        dom = sim.domain("vm0")
        hits = []

        def guest():
            yield sim.timeout(1.0)
            hits.append(("guest", sim.now))

        def host():
            dom.pause()
            yield sim.timeout(5.0)
            dom.resume()
            hits.append(("host", sim.now))

        sim.spawn(guest(), domain=dom)
        sim.spawn(host())
        sim.run()
        # guest's 1.0s wakeup was deferred until the domain resumed at 5.0
        assert hits == [("host", 5.0), ("guest", 5.0)]

    def test_nested_pause_requires_matching_resumes(self):
        sim = Simulator()
        dom = sim.domain()
        hits = []

        def guest():
            yield sim.timeout(1.0)
            hits.append(sim.now)

        def host():
            dom.pause()
            dom.pause()
            yield sim.timeout(3.0)
            dom.resume()
            yield sim.timeout(3.0)
            dom.resume()

        sim.spawn(guest(), domain=dom)
        sim.spawn(host())
        sim.run()
        assert hits == [pytest.approx(6.0)]

    def test_resume_without_pause_raises(self):
        sim = Simulator()
        dom = sim.domain()
        with pytest.raises(SimError):
            dom.resume()

    def test_paused_time_accounting(self):
        sim = Simulator()
        dom = sim.domain()

        def host():
            dom.pause()
            yield sim.timeout(2.0)
            dom.resume()
            yield sim.timeout(1.0)
            dom.pause()
            yield sim.timeout(3.0)
            dom.resume()

        sim.spawn(host())
        sim.run()
        assert dom.paused_time == pytest.approx(5.0)

    def test_paused_seconds_counts_the_open_pause(self):
        """paused_time only settles at resume; paused_seconds includes
        the pause still open right now (windowed accounting needs it)."""
        sim = Simulator()
        dom = sim.domain()
        seen = {}

        def host():
            dom.pause()
            yield sim.timeout(2.0)
            seen["mid"] = (dom.paused_time, dom.paused_seconds)
            yield sim.timeout(1.0)
            dom.resume()
            seen["after"] = (dom.paused_time, dom.paused_seconds)

        sim.spawn(host())
        sim.run()
        assert seen["mid"] == (0.0, pytest.approx(2.0))
        assert seen["after"] == (pytest.approx(3.0), pytest.approx(3.0))

    def test_interrupt_deferred_while_paused(self):
        sim = Simulator()
        dom = sim.domain()
        hits = []

        def guest():
            try:
                yield sim.timeout(100.0)
            except Interrupted:
                hits.append(sim.now)

        def host(target):
            dom.pause()
            target.interrupt()
            yield sim.timeout(4.0)
            dom.resume()

        g = sim.spawn(guest(), domain=dom)
        sim.spawn(host(g))
        sim.run()
        assert hits == [pytest.approx(4.0)]

    def test_interrupt_after_deferred_value_leaves_the_stale_wait(self):
        """The regression: a wakeup deferred by the pause replays first
        and registers the guest on its next event; the interrupt thrown
        in right after must take the guest off that event, or the stale
        firing resumes the handler's own wait with the wrong value."""
        sim = Simulator()
        dom = sim.domain()
        got = []

        def guest():
            yield sim.timeout(us(2.5), value="t1")
            try:
                yield sim.timeout(us(5), value="t2")
            except Interrupted:
                value = yield sim.timeout(us(10), value="t3")
                got.append((sim.now, value))

        def host(target):
            dom.pause()
            yield sim.timeout(us(2.5))      # the guest's t1 fires, deferred
            target.interrupt("signal")      # delivery deferred behind it
            yield sim.timeout(0)
            dom.resume()

        g = sim.spawn(guest(), domain=dom)
        sim.spawn(host(g))
        sim.run()
        assert got == [(pytest.approx(us(12.5)), "t3")]
        assert g.ok

    def test_fifo_replay_order_on_resume(self):
        sim = Simulator()
        dom = sim.domain()
        order = []

        def guest(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        def host():
            dom.pause()
            yield sim.timeout(10.0)
            dom.resume()

        sim.spawn(guest("first", 1.0), domain=dom)
        sim.spawn(guest("second", 2.0), domain=dom)
        sim.spawn(guest("third", 3.0), domain=dom)
        sim.spawn(host())
        sim.run()
        assert order == ["first", "second", "third"]


def test_us_ms_helpers():
    assert us(7) == pytest.approx(7e-6)
    assert ms(2) == pytest.approx(2e-3)
