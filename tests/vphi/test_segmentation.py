"""Multi-segment requests: transfers larger than the ring's capacity are
split into sequential submissions with correctly advancing RMA offsets."""

import numpy as np
import pytest

from repro import Machine
from repro.mem import PAGE_SIZE, BadAddress
from repro.vphi.frontend import _SegmentSinkChain

MB = 1 << 20
PORT = 9990


@pytest.fixture
def small_ring_vm():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0")
    # ring of 8 -> max 4 data descriptors -> 16MB max per submission
    vm.vphi.virtio.ring.__init__(8)
    return machine, vm


def test_vreadfrom_spanning_multiple_segments(small_ring_vm):
    machine, vm = small_ring_vm
    size = 40 * MB  # 3 segments: 16 + 16 + 8
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        # position-dependent content so any offset slip is detectable
        content = (np.arange(size, dtype=np.int64) % 251).astype(np.uint8)
        sproc.address_space.write(vma.start, content)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed((roff, content))
        yield from slib.recv(conn, 1)

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff, content = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        reqs_before = vm.vphi.frontend.requests
        n = yield from glib.vreadfrom(ep, vma.start, size, roff)
        segments = vm.vphi.frontend.requests - reqs_before
        got = gproc.address_space.read(vma.start, size)
        yield from glib.send(ep, b"x")
        return n, segments, got, content

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    n, segments, got, content = c.value
    assert n == size
    assert segments == 3  # 16 + 16 + 8 MB
    assert np.array_equal(got, content)
    assert vm.guest_kernel.kmalloc.live == 0


def test_vwriteto_spanning_multiple_segments(small_ring_vm):
    """Both payload shapes land whole: a populated buffer, and a demand-
    faulted one that starts mid-page with its pages faulted in last-first,
    so every page sits in its own frame and each segment's copy-in walks
    thousands of runs."""
    machine, vm = small_ring_vm
    size = 24 * MB  # 2 segments
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        landed = []
        for _ in range(2):
            yield from slib.recv(conn, 1)
            landed.append(sproc.address_space.read(vma.start, size))
        return landed

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    space = gproc.address_space
    payload = (np.arange(size, dtype=np.int64) % 241).astype(np.uint8)
    scattered = (np.arange(size, dtype=np.int64) % 239).astype(np.uint8)[::-1].copy()

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = space.mmap(size, populate=True)
        space.write(vma.start, payload)
        yield from glib.vwriteto(ep, vma.start, size, roff)
        yield from glib.send(ep, b"x")
        lazy = space.mmap(size + PAGE_SIZE)
        for page in reversed(range(lazy.start, lazy.end, PAGE_SIZE)):
            space.translate(page)
        start = lazy.start + 123
        space.write(start, scattered)
        pieces = len(space.sg_list(start, size))
        yield from glib.vwriteto(ep, start, size, roff)
        yield from glib.send(ep, b"x")
        return pieces

    s = machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    assert c.value == size // PAGE_SIZE + 1
    populated, lazy = s.value
    assert np.array_equal(populated, payload)
    assert np.array_equal(lazy, scattered)


@pytest.mark.parametrize("size, failing", [
    (24 * MB, 1),  # 16 + 8 MB: segment 0 posted, not yet kicked
    (40 * MB, 2),  # 16 + 16 + 8 MB: segment 0 kicked, segment 1 posted
])
def test_vwriteto_unmapped_mid_segments_reaps_posted_segments(
        small_ring_vm, size, failing):
    """The buffer is unmapped right after segment ``failing - 1`` is
    posted, so segment ``failing``'s 3i copy-in faults.  The segments
    already on the ring still complete and are reaped before the error
    reaches the caller: every bounce chunk is back, the ring is empty, and
    no orphaned request writes the card window later."""
    machine, vm = small_ring_vm
    seg = 16 * MB
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()
    fe = vm.vphi.frontend
    ring = vm.vphi.virtio.ring
    kmalloc = vm.guest_kernel.kmalloc

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed((roff, vma))
        yield from slib.recv(conn, 1)

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    space = gproc.address_space
    payload = (np.arange(size, dtype=np.int64) % 241 + 1).astype(np.uint8)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff, window = yield ready
        vma = space.mmap(size, populate=True)
        space.write(vma.start, payload)
        real_post = fe._post_chain
        posted = []

        def post_then_unmap(p, replay=False):
            # another guest thread unmaps the buffer right after the post
            yield from real_post(p, replay=replay)
            posted.append(p.req.tag)
            if len(posted) == failing:
                space.munmap(vma)

        fe._post_chain = post_then_unmap
        with pytest.raises(BadAddress):
            yield from glib.vwriteto(ep, vma.start, size, roff)
        fe._post_chain = real_post
        state = (len(posted), kmalloc.live, ring.num_free, dict(fe.responses),
                 dict(fe._inflight))
        landed = sproc.address_space.read(window.start, size)
        yield from glib.send(ep, b"x")
        return state, landed, window

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    (n_posted, live, free, responses, inflight), landed, window = c.value
    assert n_posted == failing
    assert live == 0
    assert free == ring.size
    assert responses == {} and inflight == {}
    # the posted segments landed whole; the failed one never left the guest
    done = failing * seg
    assert np.array_equal(landed[:done], payload[:done])
    assert not landed[done:].any()
    # nothing reached the window after the caller saw the error
    assert np.array_equal(sproc.address_space.read(window.start, size), landed)
    assert fe.responses == {} and kmalloc.live == 0
    assert fe.tracer.counters["vphi.fault.late_responses"] == 0


# ----------------------------------------------------------------------
# short-read compaction across segments (_SegmentSinkChain)
#
# The pre-streaming datapath concatenated per-segment payloads and wrote
# one contiguous prefix into the guest buffer, so a short middle segment
# (partial completion on a fault/retry path) compacted later segments
# down.  The streaming sink chain must keep those guest-visible bytes.
# ----------------------------------------------------------------------
def _collect_chain(segment_payloads):
    """Stream ``segment_payloads`` (bytes per segment, possibly short)
    through a chain; returns the (offset -> bytes) writes in order."""
    writes = []
    chain = _SegmentSinkChain(lambda off, view: writes.append((off, bytes(view))))
    for payload in segment_payloads:
        consume = chain.segment()
        # mimic scatter_to: contiguous views in offset order, possibly
        # split across several chunk views
        off = 0
        for piece in payload:
            consume(off, piece)
            off += len(piece)
    return writes


def test_sink_chain_full_segments_use_nominal_offsets():
    writes = _collect_chain([[b"aaaa"], [b"bb", b"bb"], [b"cc"]])
    assert writes == [(0, b"aaaa"), (4, b"bb"), (6, b"bb"), (8, b"cc")]


def test_sink_chain_short_middle_segment_compacts_followers():
    # segment sizes 4 / 4 / 4, but the middle one only produced 1 byte:
    # the old flat gather wrote a 9-byte contiguous prefix — so must we
    writes = _collect_chain([[b"aaaa"], [b"B"], [b"cccc"]])
    assert writes == [(0, b"aaaa"), (4, b"B"), (5, b"cccc")]
    flat = bytearray(12)
    n = 0
    for off, data in writes:
        flat[off : off + len(data)] = data
        n = max(n, off + len(data))
    assert bytes(flat[:n]) == b"aaaaBcccc"  # contiguous, no hole


def test_sink_chain_zero_byte_segment_contributes_nothing():
    # a fully-short segment never streams a view (resp.written == 0
    # skips the scatter entirely) and must not advance the base
    writes = _collect_chain([[b"aa"], [], [b"zz"]])
    assert writes == [(0, b"aa"), (2, b"zz")]
