"""Property tests on the full vPHI data path: arbitrary payloads survive.

Each example drives real bytes through every layer (guest copy -> ring ->
backend -> host SCIF -> PCIe -> card) and back; any corruption anywhere
in the 12-component chain fails here.  ``VPHI_CHAOS_EXAMPLES`` raises the
example count (nightly chaos job).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine
from repro.mem import KMALLOC_MAX_SIZE

PORT = 8000
CHAOS_EXAMPLES = os.environ.get("VPHI_CHAOS_EXAMPLES")


@pytest.fixture(scope="module")
def machine():
    m = Machine(cards=1).boot()
    m._vm = m.create_vm("vm0")
    return m


_port_counter = [PORT]


@settings(max_examples=int(CHAOS_EXAMPLES or 12), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(1, 3 * KMALLOC_MAX_SIZE // 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_guest_send_arbitrary_payloads_intact(machine, sizes, seed):
    """Property: any sequence of message sizes (spanning the chunking
    boundary) arrives byte-exact, in order."""
    vm = machine._vm
    _port_counter[0] += 1
    port = _port_counter[0]
    card_node = machine.card_node_id(0)
    slib = machine.scif(machine.card_process(f"srv{port}"))
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=s, dtype=np.uint8) for s in sizes]

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        got = []
        for p in payloads:
            data = yield from slib.recv(conn, len(p))
            got.append(data)
        return got

    glib = vm.vphi.libscif(vm.guest_process(f"app{port}"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, port))
        for p in payloads:
            yield from glib.send(ep, p)
        yield from glib.close(ep)

    s = machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    for sent, got in zip(payloads, s.value):
        assert np.array_equal(sent, got)
    # no leaked bounce buffers regardless of sizes
    assert vm.guest_kernel.kmalloc.live == 0


@settings(max_examples=int(CHAOS_EXAMPLES or 10), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    offset_pages=st.integers(0, 8),
    nbytes=st.integers(1, 2 * KMALLOC_MAX_SIZE),
    fill=st.integers(1, 255),
)
def test_guest_vreadfrom_arbitrary_ranges_intact(machine, offset_pages, nbytes, fill):
    """Property: remote reads of any size/offset inside the window pull
    exactly the right bytes."""
    vm = machine._vm
    _port_counter[0] += 1
    port = _port_counter[0]
    card_node = machine.card_node_id(0)
    window = 12 * (1 << 20)
    offset = offset_pages * 4096
    nbytes = min(nbytes, window - offset)
    sproc = machine.card_process(f"rsrv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(window, populate=True)
        # distinguishable content: fill + position marker at the start of
        # the requested range
        sproc.address_space.write(vma.start, np.full(window, fill, dtype=np.uint8))
        sproc.address_space.write(vma.start + offset, bytes([fill ^ 0xFF]))
        roff = yield from slib.register(conn, vma.start, window)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)

    gproc = vm.guest_process(f"rapp{port}")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, port))
        roff = yield ready
        vma = gproc.address_space.mmap(nbytes, populate=True)
        n = yield from glib.vreadfrom(ep, vma.start, nbytes, roff + offset)
        data = gproc.address_space.read(vma.start, nbytes)
        yield from glib.send(ep, b"x")
        yield from glib.close(ep)
        return n, data

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    n, data = c.value
    assert n == nbytes
    assert data[0] == fill ^ 0xFF
    if nbytes > 1:
        assert (data[1:] == fill).all()
