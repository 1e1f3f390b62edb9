"""vPHI RMA (bounced + window-direct), scif_mmap via VM_PFNPHI, Fig 5 anchor."""

import numpy as np
import pytest

from repro.mem import BadAddress, Buffer, PAGE_SIZE, PageFault
from repro.vphi import VPhiConfig

PORT = 3100
MB = 1 << 20


def card_window_server(machine, size, fill=0x66, port=PORT):
    """Card server that registers a `size` window filled with `fill`."""
    sproc = machine.card_process("server")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True, name="card-buf")
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)  # park until the client is done
        return sproc, vma

    proc = machine.sim.spawn(server())
    return ready, proc


def test_guest_vreadfrom_pulls_card_bytes(machine, vm):
    size = 8 * MB
    ready, _ = card_window_server(machine, size, fill=0x3C)
    card_node = machine.card_node_id(0)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        n = yield from glib.vreadfrom(ep, vma.start, size, roff)
        got = gproc.address_space.read(vma.start, size)
        yield from glib.send(ep, b"x")
        return n, got

    c = vm.spawn_guest(client())
    machine.run()
    n, got = c.value
    assert n == size
    assert (got == 0x3C).all()
    assert vm.guest_kernel.kmalloc.live == 0  # bounces reclaimed


def test_guest_vwriteto_pushes_to_card(machine, vm):
    size = 2 * MB
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("server")
    slib = machine.scif(sproc)
    ready = machine.sim.event()
    payload = Buffer.pattern(size, seed=9)

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)
        return sproc.address_space.read(vma.start, size)

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        gproc.address_space.write(vma.start, payload.data)
        yield from glib.vwriteto(ep, vma.start, size, roff)
        yield from glib.send(ep, b"x")

    s = machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    assert np.array_equal(s.value, payload.data)


def test_vwriteto_into_a_hole_fails_before_forwarding(machine):
    """A vwriteto whose range runs off its VMA into the guard hole faults
    in the pages before the hole, then raises at call time exactly as
    reading the range would: no request, no admission, no simulated time."""
    vm = machine.create_vm("vm0", vphi_config=VPhiConfig(admit_queue_depth=4))
    ready, _ = card_window_server(machine, 2 * MB)
    card_node = machine.card_node_id(0)
    glib = vm.vphi.libscif(vm.guest_process("app"))
    reader = vm.guest_process("reader").address_space
    fe = vm.vphi.frontend

    def counters():
        return (fe.requests, fe.admission.admitted, fe.admission.shed,
                fe.admission.depth, machine.sim.now)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        space = glib.process.address_space
        lazy = space.mmap(3 * PAGE_SIZE)  # the next page is unmapped
        before = counters()
        with pytest.raises(BadAddress) as err:
            yield from glib.vwriteto(ep, lazy.start + 100, 3 * PAGE_SIZE, roff)
        assert counters() == before
        assert f"{lazy.end:#x}" in str(err.value)
        yield from glib.send(ep, b"x")
        return space.fault_count

    c = vm.spawn_guest(client())
    machine.run()
    # the same walk as a plain read of the same range
    lazy = reader.mmap(3 * PAGE_SIZE)
    with pytest.raises(BadAddress):
        reader.read(lazy.start + 100, 3 * PAGE_SIZE)
    assert c.value == reader.fault_count == 3


@pytest.mark.parametrize("meddle", ["rewrite", "munmap"])
def test_vwriteto_reads_the_user_pages_at_copy_in(machine, vm, meddle):
    """The bytes are taken at 3i, like copy_from_user, not at call time:
    a rewrite landing between the call and 3i is what reaches the card,
    and a buffer unmapped in that gap fails the call from 3i, leaking no
    bounce chunk."""
    size = MB
    ready, server = card_window_server(machine, size, fill=0x00)
    card_node = machine.card_node_id(0)
    glib = vm.vphi.libscif(vm.guest_process("app"))
    space = glib.process.address_space

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = space.mmap(size)
        space.write(vma.start, np.full(size, 0x11, dtype=np.uint8))

        def meddler():
            yield machine.sim.timeout(1e-6)  # inside the marshal charge
            if meddle == "rewrite":
                space.write(vma.start, np.full(size, 0x22, dtype=np.uint8))
            else:
                space.munmap(vma)

        vm.spawn_guest(meddler())
        try:
            n = yield from glib.vwriteto(ep, vma.start, size, roff)
        except BadAddress:
            n = None
        yield from glib.send(ep, b"x")
        return n

    c = vm.spawn_guest(client())
    machine.run()
    sproc, window = server.value
    landed = sproc.address_space.read(window.start, size)
    if meddle == "rewrite":
        assert c.value == size
        assert (landed == 0x22).all()
    else:
        assert c.value is None
        assert (landed == 0x00).all()
    assert vm.guest_kernel.kmalloc.live == 0


def test_vphi_rma_throughput_anchor_72_percent(machine, vm):
    """Fig 5 anchor: the same 256MB remote read native vs through vPHI —
    4.6 GB/s = 72% of the 6.4 GB/s native peak."""
    size = 256 * MB
    ready, _ = card_window_server(machine, size, fill=0x77)
    ready2, _ = card_window_server(machine, size, fill=0x77, port=PORT + 1)
    card_node = machine.card_node_id(0)

    # native client
    hproc = machine.host_process("native")
    hlib = machine.scif(hproc)

    def native_client():
        ep = yield from hlib.open()
        yield from hlib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = hproc.address_space.mmap(size, populate=True)
        t0 = machine.sim.now
        yield from hlib.vreadfrom(ep, vma.start, size, roff)
        dt = machine.sim.now - t0
        yield from hlib.send(ep, b"x")
        return size / dt

    n = machine.sim.spawn(native_client())
    machine.run()
    native_bw = n.value

    gproc = vm.guest_process("bench")
    glib = vm.vphi.libscif(gproc)

    def guest_client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT + 1))
        roff = yield ready2
        vma = gproc.address_space.mmap(size, populate=True)
        t0 = machine.sim.now
        yield from glib.vreadfrom(ep, vma.start, size, roff)
        dt = machine.sim.now - t0
        sample = gproc.address_space.read(vma.start + size - 4096, 4096)
        yield from glib.send(ep, b"x")
        return size / dt, sample

    g = vm.spawn_guest(guest_client())
    machine.run()
    vphi_bw, sample = g.value
    assert (sample == 0x77).all()  # the last page really arrived
    assert native_bw == pytest.approx(6.4e9, rel=0.01)
    assert vphi_bw == pytest.approx(4.6e9, rel=0.02)
    assert vphi_bw / native_bw == pytest.approx(0.72, abs=0.015)


def test_guest_register_enables_direct_window_rma(machine, vm):
    """A registered guest window is pinned guest RAM: window-to-window
    readfrom DMAs straight into it, no kmalloc bounce."""
    size = 4 * MB
    ready, _ = card_window_server(machine, size, fill=0x88)
    card_node = machine.card_node_id(0)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        loff = yield from glib.register(ep, vma.start, size)
        allocs_before = vm.guest_kernel.kmalloc.total_allocs
        yield from glib.readfrom(ep, loff, size, roff)
        allocs_after = vm.guest_kernel.kmalloc.total_allocs
        got = gproc.address_space.read(vma.start, size)
        yield from glib.unregister(ep, loff)
        yield from glib.send(ep, b"x")
        # only the request header was kmalloc'ed — no data bounce chunks
        return got, allocs_after - allocs_before

    c = vm.spawn_guest(client())
    machine.run()
    got, allocs = c.value
    assert (got == 0x88).all()
    assert allocs <= 2  # header allocations only (readfrom + maybe retry)
    assert gproc.address_space.pinned_pages() == 0  # unregister unpinned


def test_card_can_write_into_guest_window(machine, vm):
    """Sharing works both ways: the card-side server writes into the
    guest's registered window, landing directly in guest user memory."""
    size = MB
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("server")
    slib = machine.scif(sproc)
    payload = Buffer.pattern(size, seed=21)

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        # wait for the guest to tell us its window offset
        msg = yield from slib.recv(conn, 8)
        goff = int(np.frombuffer(msg.tobytes(), dtype=np.int64)[0])
        svma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(svma.start, payload.data)
        loff = yield from slib.register(conn, svma.start, size)
        yield from slib.writeto(conn, loff, size, goff)
        yield from slib.send(conn, b"done")

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        vma = gproc.address_space.mmap(size, populate=True)
        goff = yield from glib.register(ep, vma.start, size)
        yield from glib.send(ep, np.int64(goff).tobytes())
        yield from glib.recv(ep, 4)
        return gproc.address_space.read(vma.start, size)

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    assert np.array_equal(c.value, payload.data)


class TestGuestMmap:
    def test_mmap_dereference_reaches_card_memory(self, machine, vm):
        """The §III two-level mapping: guest VA -> (PFNPHI fault) -> GDDR."""
        size = 2 * PAGE_SIZE
        ready, sp = card_window_server(machine, size, fill=0xAB)
        card_node = machine.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card_node, PORT))
            roff = yield ready
            vma = yield from glib.mmap(ep, roff, size)
            # plain loads: no SCIF call, no ring traffic
            reqs_before = vm.vphi.frontend.requests
            data = gproc.address_space.read(vma.start + 5, 16)
            reqs_after = vm.vphi.frontend.requests
            yield from glib.send(ep, b"x")
            return data, reqs_before == reqs_after

        c = vm.spawn_guest(client())
        machine.run()
        data, no_ring_traffic = c.value
        assert (data == 0xAB).all()
        assert no_ring_traffic
        assert vm.mmu.pfnphi_faults >= 1

    def test_mmap_stores_hit_card_and_server_sees_them(self, machine, vm):
        size = PAGE_SIZE
        ready, sproc_p = card_window_server(machine, size, fill=0x00)
        card_node = machine.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card_node, PORT))
            roff = yield ready
            vma = yield from glib.mmap(ep, roff, size)
            gproc.address_space.write(vma.start + 64, b"from-the-guest")
            yield from glib.send(ep, b"x")

        vm.spawn_guest(client())
        machine.run()
        sproc, svma = sproc_p.value
        assert sproc.address_space.read(svma.start + 64, 14).tobytes() == b"from-the-guest"

    def test_mmap_without_kvm_patch_faults(self, machine):
        """Without the paper's <10-LOC KVM change the dereference dies —
        the reason the modification exists."""
        vm = machine.create_vm("vm-nopatch", kvm_modified=False)
        size = PAGE_SIZE
        ready, _ = card_window_server(machine, size)
        card_node = machine.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card_node, PORT))
            roff = yield ready
            vma = yield from glib.mmap(ep, roff, size)
            failed = False
            try:
                gproc.address_space.read(vma.start, 1)
            except PageFault:
                failed = True
            yield from glib.send(ep, b"x")
            return failed

        c = vm.spawn_guest(client())
        machine.run()
        assert c.value is True
