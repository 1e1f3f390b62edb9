"""Virtio notification paths: the kick runs the backend's handler as a
plain callback, queued where the per-kick handler process used to start."""

from repro.analysis.calibration import VPHI_COSTS
from repro.sim import Simulator
from repro.virtio import VirtioDevice


def _kick_order(old_kick: bool) -> tuple[list, int]:
    """Order of events at the kick's instant, and the queue pushes of the
    run.  ``old_kick`` replays the kick as it was: the vmexit, then a
    handler process spawned on the spot."""
    sim = Simulator()
    dev = VirtioDevice(sim)
    order: list = []
    vmexit = VPHI_COSTS.kick_vmexit

    def drain():
        order.append(("drain", sim.now))

    def handler_process():
        drain()
        yield sim.timeout(0)

    dev.bind_backend(drain)
    # due at the kick's instant but queued before the kick's own vmexit
    sim.call_at(vmexit, lambda: order.append(("queued before", sim.now)))

    def guest():
        if old_kick:
            yield sim.timeout(vmexit)
            sim.spawn(handler_process())
        else:
            yield from dev.kick()
        sim.call_soon(lambda: order.append(("queued after", sim.now)))

    sim.spawn(guest())
    before = sim._queue._seq
    sim.run()
    return order, sim._queue._seq - before


def test_kick_drains_where_the_handler_process_started():
    vmexit = VPHI_COSTS.kick_vmexit
    expected = [("queued before", vmexit), ("drain", vmexit), ("queued after", vmexit)]
    new, new_pushes = _kick_order(old_kick=False)
    old, old_pushes = _kick_order(old_kick=True)
    assert new == old == expected
    # vmexit, handler, "queued after": the handler process's start and
    # its timeout(0) are gone (its unjoined finish queues nothing either way)
    assert (new_pushes, old_pushes) == (3, 4)


def test_suppressed_kick_runs_no_handler():
    sim = Simulator()
    dev = VirtioDevice(sim, suppress_notifications=True)
    calls: list = []
    dev.bind_backend(lambda: calls.append(sim.now))

    def guest():
        yield from dev.kick()
        yield from dev.kick()  # backend still busy: a flag check, no vmexit

    sim.spawn(guest())
    sim.run()
    assert calls == [VPHI_COSTS.kick_vmexit]
    assert (dev.kicks, dev.suppressed_kicks) == (1, 1)
