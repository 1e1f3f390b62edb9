"""Fused waits in a guest whose VM freezes under them.

The frontend fuses back-to-back delays of a guest request into one wake:
the marshal with the 3i copy-in, and a batch's last copy-out with the
syscall return.  In the paper's blocking mode another guest process's
request freezes the whole VM while QEMU handles it inline (§III), and a
guest frozen at the end of the first delay only starts the second one
at the thaw.  These scenarios freeze the VM over guest A's marshal end,
and over its copy-out end, with guest B's ``open()``; A's completion
times must be the ones the two-step chain gives.
"""

import numpy as np
import pytest

from repro import Machine

PORT = 31_600
N = 64 << 10


def _times(a_start: float, b_start: float) -> list:
    """Guest A echoes 64 KiB through a card server (send, then recv)
    from ``a_start``; guest B opens an endpoint from ``b_start``.
    Returns B's open time and A's send and recv completion times."""
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0")
    slib = m.scif(m.card_process("echo", card=0))
    payload = np.arange(N, dtype=np.uint32).astype(np.uint8)
    state: dict = {}

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        data = yield from slib.recv(conn, N)
        yield from slib.send(conn, data)

    lib_a = vm.vphi.libscif(vm.guest_process("a"))
    lib_b = vm.vphi.libscif(vm.guest_process("b"))

    def connect():
        ep = yield from lib_a.open()
        yield from lib_a.connect(ep, (m.card_node_id(0), PORT))
        state["ep"] = ep

    m.sim.spawn(server())
    vm.spawn_guest(connect())
    m.run()
    t0 = m.sim.now
    times: list = []

    def guest_a():
        yield m.sim.timeout(a_start)
        yield from lib_a.send(state["ep"], payload)
        times.append(("a.send", m.sim.now - t0))
        data = yield from lib_a.recv(state["ep"], N)
        times.append(("a.recv", m.sim.now - t0))
        assert np.array_equal(data, payload)

    def guest_b():
        yield m.sim.timeout(b_start)
        yield from lib_b.open()
        times.append(("b.open", m.sim.now - t0))

    vm.spawn_guest(guest_a())
    vm.spawn_guest(guest_b())
    m.run()
    return sorted(times)


def test_unfrozen_reference():
    """Without B, nothing freezes A: the baseline both cases move from."""
    m_times = _times(0.0, 1.0)  # B opens after A is done
    assert m_times[0] == ("a.recv", 0.0007961370666666676)
    assert m_times[1] == ("a.send", 0.0004121052888888879)


@pytest.mark.parametrize("a_start, b_start, expected", [
    # B's open freezes the VM over A's marshal end: A's 3i copy-in
    # starts at the thaw
    (7.0e-6, 0.0, [("a.recv", 0.0008076370666666652),
                   ("a.send", 0.00042360528888888554),
                   ("b.open", 0.00037574999999999414)]),
    # B's open freezes the VM over A's recv copy-out end: A's syscall
    # return starts at the thaw
    (0.0, 779.0e-6, [("a.recv", 0.0008009999999999962),
                     ("a.send", 0.0004121052888888879),
                     ("b.open", 0.001154749999999996)]),
])
def test_freeze_over_a_fused_wait_gives_the_chained_times(a_start, b_start, expected):
    assert _times(a_start, b_start) == expected
