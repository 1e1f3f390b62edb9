"""Differential conformance: native SCIF vs the full vPHI path.

The paper's binary-compatibility claim (§I) means a guest caller must be
unable to distinguish vPHI from native libscif by anything except time.
This suite renders that claim testable: every operation in the
:mod:`repro.vphi.ops` registry is exercised by at least one *scenario* —
a client body written once against the shared SCIF call surface — run
three ways on identical fresh machines:

* **native** — a host process calling :class:`~repro.scif.NativeScif`;
* **blocking** — a guest process through frontend -> ring -> backend with
  the paper's whole-VM-pause dispatch;
* **pooled** — the same guest path with ``VPhiConfig(backend_workers=4)``.

Each scenario returns a tuple of plain observables (results, payload
bytes, errno class names, endpoint states); the virtualized runs must
reproduce the native tuple exactly.  Coverage is enforced structurally:
a parametrized test walks ``registered_ops()`` and fails for any op no
scenario claims, so adding an op without conformance coverage breaks CI.
"""

import numpy as np
import pytest

from repro import Machine
from repro.mem import PAGE_SIZE
from repro.scif import PollEvent, ScifError
from repro.vphi import VPhiConfig, VPhiOp, registered_ops

PORT = 4200
KB = 1 << 10

# ----------------------------------------------------------------------
# the two stacks under one interface
# ----------------------------------------------------------------------


class Side:
    """One stack under test: the lib plus the process driving it."""

    def __init__(self, machine, vm=None):
        self.machine = machine
        self.vm = vm
        if vm is None:
            self.proc = machine.host_process("diff-client")
            self.lib = machine.scif(self.proc)
        else:
            self.proc = vm.guest_process("diff-client")
            self.lib = vm.vphi.libscif(self.proc)

    def spawn(self, gen):
        if self.vm is None:
            return self.machine.sim.spawn(gen)
        return self.vm.spawn_guest(gen)

    def ep_state(self, ep) -> str:
        """The backing endpoint's state, looked up per stack: the native
        descriptor directly, the guest handle through the backend table
        (a dropped handle is a closed descriptor)."""
        if self.vm is None:
            return ep.state.value
        bep = self.vm.vphi.backend.endpoints.get(ep.handle)
        return "closed" if bep is None else bep.state.value

    def sysfs_read(self, path: str):
        """scif-adjacent mic sysfs: native reads the host tree, the guest
        forwards SYSFS_READ over the ring."""
        if self.vm is None:
            yield self.machine.sim.timeout(0)
            return self.machine.kernel.sysfs.read(path)
        result, _ = yield from self.vm.vphi.frontend.submit(
            VPhiOp.SYSFS_READ, args={"path": path}
        )
        return result


def err_name(exc: BaseException) -> str:
    return type(exc).__name__


# ----------------------------------------------------------------------
# scenario registry: name -> (ops covered, client body)
# ----------------------------------------------------------------------

SCENARIOS: dict = {}


def scenario(*ops):
    """Declare which registry ops a scenario's observables conform."""

    def wrap(fn):
        SCENARIOS[fn.__name__] = (frozenset(ops), fn)
        return fn

    return wrap


def card_echo_server(machine, port, nbytes):
    """Card-side peer: accept one connection, echo nbytes reversed."""
    slib = machine.scif(machine.card_process(f"srv{port}"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        data = yield from slib.recv(conn, nbytes)
        yield from slib.send(conn, data.tobytes()[::-1])

    machine.sim.spawn(server())


def card_window_server(machine, port, size, fill):
    """Card-side peer with a registered window; replies with the window
    checksum on request and parks until the client's final byte."""
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True, name="card-win")
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        while True:
            cmd = yield from slib.recv(conn, 1)
            if cmd.tobytes() == b"s":
                csum = int(sproc.address_space.read(vma.start, size).sum())
                yield from slib.send(conn, np.int64(csum).tobytes())
            elif cmd.tobytes() == b"w":
                # the whole window, for byte-exact comparisons
                yield from slib.send(conn, sproc.address_space.read(vma.start, size))
            else:
                return

    machine.sim.spawn(server())
    return ready


def server_checksum(side, ep):
    """Ask the window server for its current window checksum."""
    yield from side.lib.send(ep, b"s")
    raw = yield from side.lib.recv(ep, 8)
    return int(np.frombuffer(raw.tobytes(), dtype=np.int64)[0])


@scenario(VPhiOp.OPEN, VPhiOp.BIND, VPhiOp.LISTEN, VPhiOp.ACCEPT, VPhiOp.CLOSE)
def conn_lifecycle(side, machine):
    """Server-side lifecycle: open/bind/listen/accept/close state walk."""
    card_node = machine.card_node_id(0)
    clib = machine.scif(machine.card_process("dialer"))

    def dialer():
        ep = yield from clib.open()
        yield from clib.connect(ep, (0, PORT))  # the side listens on host node 0
        yield from clib.recv(ep, 2)

    obs = []
    ep = yield from side.lib.open()
    obs.append(side.ep_state(ep))
    port = yield from side.lib.bind(ep, PORT)
    obs.append((port, side.ep_state(ep)))
    yield from side.lib.listen(ep)
    obs.append(side.ep_state(ep))
    machine.sim.spawn(dialer())
    conn, peer = yield from side.lib.accept(ep)
    obs.append((peer[0], side.ep_state(conn)))
    yield from side.lib.send(conn, b"ok")
    yield from side.lib.close(conn)
    yield from side.lib.close(ep)
    obs.append((side.ep_state(conn), side.ep_state(ep)))
    return (card_node, tuple(obs))


@scenario(VPhiOp.OPEN, VPhiOp.CONNECT, VPhiOp.SEND, VPhiOp.RECV, VPhiOp.CLOSE)
def connect_echo(side, machine):
    """Active open + messaging, plus the refused-connect errno."""
    card_node = machine.card_node_id(0)
    card_echo_server(machine, PORT, nbytes=8)
    obs = []
    dead = yield from side.lib.open()
    try:
        yield from side.lib.connect(dead, (card_node, PORT + 7))  # no listener
    except ScifError as e:
        obs.append(err_name(e))
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    obs.append(side.ep_state(ep))
    n = yield from side.lib.send(ep, b"abcdefgh")
    echo = yield from side.lib.recv(ep, 8)
    obs.append((n, echo.tobytes()))
    yield from side.lib.close(ep)
    obs.append(side.ep_state(ep))
    return tuple(obs)


@scenario(VPhiOp.SEND, VPhiOp.RECV)
def zero_length_messaging(side, machine):
    """Zero-byte send/recv: 0 returned, nothing crosses beyond the header.

    Native scif_send/recv with len 0 complete immediately with 0 bytes
    and leave the peer's receive queue untouched; the forwarded path
    must match (the regression was one side rejecting with EINVAL while
    the other silently succeeded)."""
    card_node = machine.card_node_id(0)
    card_echo_server(machine, PORT, nbytes=4)
    obs = []
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    n0 = yield from side.lib.send(ep, b"")
    empty = yield from side.lib.recv(ep, 0)
    obs.append((n0, len(empty)))
    # the server is still waiting on its 4 real bytes: the zero-length
    # send fed it nothing.  Only this payload reaches it.
    n = yield from side.lib.send(ep, b"wxyz")
    echo = yield from side.lib.recv(ep, 4)
    obs.append((n, echo.tobytes()))
    yield from side.lib.close(ep)
    return tuple(obs)


@scenario(VPhiOp.REGISTER, VPhiOp.UNREGISTER, VPhiOp.READFROM, VPhiOp.WRITETO,
          VPhiOp.FENCE_MARK, VPhiOp.FENCE_WAIT)
def rma_window(side, machine):
    """Window-to-window RMA both directions, fenced, then unregistered."""
    size = 256 * KB
    card_node = machine.card_node_id(0)
    ready = card_window_server(machine, PORT, size, fill=0x5A)
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    roff = yield ready
    vma = side.proc.address_space.mmap(size, populate=True)
    loff = yield from side.lib.register(ep, vma.start, size)
    n_read = yield from side.lib.readfrom(ep, loff, size, roff)
    pulled = int(side.proc.address_space.read(vma.start, size).sum())
    side.proc.address_space.write(
        vma.start, np.full(size, 0xA5, dtype=np.uint8)
    )
    n_write = yield from side.lib.writeto(ep, loff, size, roff)
    mark = yield from side.lib.fence_mark(ep)
    yield from side.lib.fence_wait(ep, mark)
    remote = yield from server_checksum(side, ep)
    yield from side.lib.unregister(ep, loff)
    yield from side.lib.send(ep, b"q")
    return (n_read, pulled, n_write, mark, remote,
            side.proc.address_space.pinned_pages())


@scenario(VPhiOp.VREADFROM, VPhiOp.VWRITETO)
def vrma_roundtrip(side, machine):
    """Virtual-address RMA: the driver-pinned (vPHI: bounced) path."""
    size = 512 * KB
    card_node = machine.card_node_id(0)
    ready = card_window_server(machine, PORT, size, fill=0x3C)
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    roff = yield ready
    vma = side.proc.address_space.mmap(size, populate=True)
    n_read = yield from side.lib.vreadfrom(ep, vma.start, size, roff)
    pulled = int(side.proc.address_space.read(vma.start, size).sum())
    side.proc.address_space.write(
        vma.start, np.full(size, 0xC3, dtype=np.uint8)
    )
    n_write = yield from side.lib.vwriteto(ep, vma.start, size, roff)
    remote = yield from server_checksum(side, ep)
    # a demand-faulted source starting mid-page, its pages faulted in
    # last-first so that each sits in its own frame
    space = side.proc.address_space
    lazy = space.mmap(size + PAGE_SIZE)
    for page in reversed(range(lazy.start, lazy.end, PAGE_SIZE)):
        space.translate(page)
    start = lazy.start + 123
    space.write(start, (np.arange(size, dtype=np.int64) * 7 % 251).astype(np.uint8))
    pieces = len(space.sg_list(start, size))
    n_lazy = yield from side.lib.vwriteto(ep, start, size, roff)
    yield from side.lib.send(ep, b"w")
    window = yield from side.lib.recv(ep, size)
    lands_whole = bool(np.array_equal(window, space.read(start, size)))
    yield from side.lib.send(ep, b"q")
    return (n_read, pulled, n_write, remote, pieces, n_lazy, lands_whole)


@scenario(VPhiOp.MMAP)
def mmap_window(side, machine):
    """scif_mmap: plain loads/stores reach the card window."""
    size = 2 * PAGE_SIZE
    card_node = machine.card_node_id(0)
    ready = card_window_server(machine, PORT, size, fill=0xAB)
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    roff = yield ready
    vma = yield from side.lib.mmap(ep, roff, size)
    loaded = side.proc.address_space.read(vma.start + 17, 16).tobytes()
    side.proc.address_space.write(vma.start + 64, b"differential")
    remote = yield from server_checksum(side, ep)
    yield from side.lib.send(ep, b"q")
    return (loaded, remote)


@scenario(VPhiOp.FENCE_SIGNAL)
def fence_signal_flag(side, machine):
    """The RDMA-completion-flag idiom: fence_signal stamps the remote
    window once every issued RMA lands."""
    size = 64 * KB
    card_node = machine.card_node_id(0)
    ready = card_window_server(machine, PORT, size, fill=0x00)
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    roff = yield ready
    vma = side.proc.address_space.mmap(size, populate=True)
    side.proc.address_space.write(
        vma.start, np.full(size, 0x11, dtype=np.uint8)
    )
    loff = yield from side.lib.register(ep, vma.start, size)
    yield from side.lib.writeto(ep, loff, size - PAGE_SIZE, roff)
    yield from side.lib.fence_signal(ep, loff, 0x1234, roff + size - 8, 0x5678)
    local_flag = int(np.frombuffer(
        side.proc.address_space.read(vma.start, 8).tobytes(), dtype=np.int64
    )[0])
    remote = yield from server_checksum(side, ep)
    yield from side.lib.send(ep, b"q")
    return (local_flag, remote)


@scenario(VPhiOp.POLL)
def poll_readiness(side, machine):
    """poll readiness transitions: writable, then readable on arrival."""
    card_node = machine.card_node_id(0)
    card_echo_server(machine, PORT, nbytes=4)
    ep = yield from side.lib.open()
    yield from side.lib.connect(ep, (card_node, PORT))
    before = yield from side.lib.poll(
        [(ep, PollEvent.SCIF_POLLIN | PollEvent.SCIF_POLLOUT)], timeout=0
    )
    yield from side.lib.send(ep, b"ping")
    after = yield from side.lib.poll([(ep, PollEvent.SCIF_POLLIN)], timeout=None)
    data = yield from side.lib.recv(ep, 4)
    return (int(before[0]), int(after[0]), data.tobytes())


@scenario(VPhiOp.GET_NODE_IDS)
def node_enumeration(side, machine):
    """Both stacks present the same fabric from the same vantage point
    (the backend's libscif is a host process too)."""
    ids, own = yield from side.lib.get_node_ids()
    return (tuple(ids), own)


@scenario(VPhiOp.SYSFS_READ)
def sysfs_attributes(side, machine):
    """The mirrored mic sysfs tree answers identically."""
    out = []
    for attr in ("family", "version", "state"):
        val = yield from side.sysfs_read(f"sys/class/mic/mic0/{attr}")
        out.append(val)
    return tuple(out)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

MODES = {
    "native": None,
    "blocking": VPhiConfig(),
    "pooled": VPhiConfig(backend_workers=4),
}

_memo: dict = {}


def run_scenario(name: str, mode: str):
    """One scenario on one fresh machine; results memoized per (name,
    mode) so the native baseline is computed once per scenario."""
    key = (name, mode)
    if key in _memo:
        return _memo[key]
    _, fn = SCENARIOS[name]
    machine = Machine(cards=1).boot()
    config = MODES[mode]
    if config is None:
        side = Side(machine)
    else:
        vm = machine.create_vm("vm0", ram_bytes=2 << 30, vphi_config=config)
        side = Side(machine, vm)
    driver = side.spawn(fn(side, machine))
    machine.run()
    _memo[key] = driver.value
    return driver.value


@pytest.mark.parametrize("mode", ["blocking", "pooled"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_native(name, mode):
    """The virtualized observables equal the native ones exactly."""
    assert run_scenario(name, mode) == run_scenario(name, "native")


@pytest.mark.parametrize(
    "op", [s.op for s in registered_ops()], ids=lambda op: op.value
)
def test_every_registry_op_has_a_scenario(op):
    """Structural coverage: an op nobody's scenario claims fails here —
    conformance coverage cannot silently rot as ops are added."""
    covered = frozenset().union(*(ops for ops, _ in SCENARIOS.values()))
    assert op in covered, (
        f"registry op {op.value!r} has no differential scenario; add one "
        f"(or extend an existing scenario's @scenario(...) claim)"
    )


@pytest.mark.parametrize("mode", ["native", "blocking", "pooled"])
def test_vwriteto_from_scattered_lazy_buffer_lands_whole(mode):
    """Beyond agreeing with native, every card-window byte equals the
    demand-faulted, one-frame-per-page user buffer it was written from."""
    *_, pieces, n_lazy, lands_whole = run_scenario("vrma_roundtrip", mode)
    assert pieces == 512 * KB // PAGE_SIZE + 1
    assert n_lazy == 512 * KB
    assert lands_whole


def test_pooled_run_actually_pooled():
    """Guard the harness itself: the pooled mode routes traffic through
    the worker pool (otherwise the differential proves nothing)."""
    machine = Machine(cards=1).boot()
    vm = machine.create_vm(
        "vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig(backend_workers=4)
    )
    side = Side(machine, vm)
    driver = side.spawn(connect_echo(side, machine))
    machine.run()
    assert driver.value is not None
    assert vm.vphi.backend.pool is not None
    assert vm.vphi.backend.pool.completed > 0
    assert vm.domain.paused_time == 0.0
