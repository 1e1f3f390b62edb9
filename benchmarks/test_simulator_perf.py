"""Performance-regression guards for the simulation library itself.

The hpc-parallel discipline: no optimization without measurement.  These
benches exercise the hot paths (event loop throughput, scatter-gather
copy bandwidth, end-to-end request rate) with pytest-benchmark's real
multi-round statistics, so a slowdown in the kernel or the memory model
shows up as a regression, not as a mysteriously slower test suite.
"""

import numpy as np
import pytest

from repro import Machine
from repro.mem import PhysicalMemory, SGEntry
from repro.pcie import sg_copy
from repro.sim import Simulator
from repro.vphi.pool import CardArbiter

MB = 1 << 20


def test_event_loop_throughput(benchmark):
    """Schedule + fire 20k timeout events."""

    def run():
        sim = Simulator()

        def proc():
            for _ in range(20_000):
                yield sim.timeout(1e-6)

        sim.spawn(proc())
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0


@pytest.mark.parametrize("policy", CardArbiter.POLICIES)
@pytest.mark.parametrize("tenants", [200, 2_000])
def test_arbiter_grant_cost(benchmark, tenants, policy):
    """2000 contended grants over ``tenants`` backlogged VMs on one slot.

    Each step releases the slot (the policy picks the next grantee) and
    queues one more acquire, rotating over the tenants, so the backlog
    stays near ``tenants`` deep.  The tenants-vs-wall curve: per-grant
    cost should stay flat as the tenant count grows tenfold.
    """
    grants = 2_000
    vms = [f"vm{i}" for i in range(tenants)]

    def setup():
        arb = CardArbiter(Simulator(), slots=1, policy=policy)
        for i, vm in enumerate(vms):
            arb.configure(vm, weight=(1.0, 2.0, 0.5)[i % 3], priority=i % 4)
            arb.acquire(vm)
            arb.acquire(vm)
        return (arb,), {}

    def run(arb):
        for k in range(grants):
            arb.release("bench")
            arb.acquire(vms[k % tenants])
        return arb.grants

    benchmark.extra_info["grants_per_round"] = grants
    assert benchmark.pedantic(run, setup=setup, rounds=5) == grants + 1


def test_waitqueue_herd_wakeup(benchmark):
    """1000 sleepers woken 20 times (the §IV-B wake-all pattern)."""

    def run():
        from repro.sim import WaitQueue

        sim = Simulator()
        wq = WaitQueue(sim)
        alive = {"n": 0}

        def sleeper():
            for _ in range(20):
                yield wq.wait()
            alive["n"] += 1

        def waker():
            for _ in range(20):
                yield sim.timeout(1e-3)
                wq.wake_all()

        for _ in range(1000):
            sim.spawn(sleeper())
        sim.spawn(waker())
        sim.run()
        return alive["n"]

    assert benchmark(run) == 1000


def test_sg_copy_bandwidth(benchmark):
    """64MB scatter-gather copy between memories (numpy fast path)."""
    mem_a = PhysicalMemory(256 * MB)
    mem_b = PhysicalMemory(256 * MB)
    src_ext = mem_a.alloc(64 * MB)
    dst_ext = mem_b.alloc(64 * MB)
    src_ext.fill(0xAB)
    src = [SGEntry(mem_a, src_ext.addr + i * (8 * MB), 8 * MB) for i in range(8)]
    dst = [SGEntry(mem_b, dst_ext.addr, 64 * MB)]

    def run():
        return sg_copy(dst, src, 64 * MB)

    assert benchmark(run) == 64 * MB


def test_page_granular_address_space_access(benchmark):
    """4MB of virtual reads/writes through the page tables (one run)."""
    from repro.mem import AddressSpace

    space = AddressSpace(PhysicalMemory(64 * MB), "bench")
    vma = space.mmap(4 * MB, populate=True)
    payload = np.arange(4 * MB, dtype=np.uint8)

    def run():
        space.write(vma.start, payload)
        return space.read(vma.start, 4 * MB)[-1]

    assert benchmark(run) == payload[-1]


def test_pin_sg_list_64mb(benchmark):
    """Populate, pin, scatter-gather and unpin a 64MB buffer (scif_register)."""
    from repro.mem import AddressSpace

    space = AddressSpace(PhysicalMemory(128 * MB), "bench")

    def run():
        vma = space.mmap(64 * MB, populate=True)
        pinned = space.pin(vma.start, 64 * MB)
        sg = space.sg_list(vma.start, 64 * MB, fault_in=False)
        pinned.unpin()
        space.munmap(vma)
        return sum(e.nbytes for e in sg)

    assert benchmark(run) == 64 * MB


def test_guest_vwriteto_64mb(benchmark):
    """One 64MB guest vwriteto into a registered card window: the copy-in
    into the bounce chunks, then the DMA to the card (host time only).
    A first vwriteto in setup touches every chunk, so the timed one
    measures the copies, not first-touch page faults."""
    size = 64 * MB
    payload = (np.arange(size, dtype=np.int64) % 251).astype(np.uint8)

    def setup():
        machine = Machine(cards=1).boot()
        vm = machine.create_vm("vm0")
        sproc = machine.card_process("srv")
        slib = machine.scif(sproc)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)
        ready = machine.sim.event()
        state = {}

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, 9998)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            vma = sproc.address_space.mmap(size, populate=True)
            state["window"] = vma.start
            ready.succeed((yield from slib.register(conn, vma.start, size)))

        def connect():
            state["ep"] = yield from glib.open()
            yield from glib.connect(state["ep"], (machine.card_node_id(0), 9998))
            state["roff"] = yield ready
            state["buf"] = gproc.address_space.mmap(size, populate=True).start
            yield from glib.vwriteto(state["ep"], state["buf"], size, state["roff"])
            gproc.address_space.write(state["buf"], payload)

        machine.sim.spawn(server())
        vm.spawn_guest(connect())
        machine.run()
        return (machine, vm, glib, sproc, state), {}

    def run(machine, vm, glib, sproc, state):
        c = vm.spawn_guest(glib.vwriteto(state["ep"], state["buf"], size, state["roff"]))
        machine.run()
        return c.value, sproc, state["window"]

    n, sproc, window = benchmark.pedantic(run, setup=setup, rounds=5)
    assert n == size
    assert np.array_equal(sproc.address_space.read(window, size), payload)


def test_end_to_end_request_rate(benchmark):
    """Full-stack vPHI round trips per wall-second (20 sends)."""

    def run():
        machine = Machine(cards=1).boot()
        vm = machine.create_vm("vm0")
        slib = machine.scif(machine.card_process("srv"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, 9999)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            for _ in range(20):
                yield from slib.recv(conn, 64)

        glib = vm.vphi.libscif(vm.guest_process("app"))

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (machine.card_node_id(0), 9999))
            for _ in range(20):
                yield from glib.send(ep, bytes(64))
            return True

        machine.sim.spawn(server())
        c = vm.spawn_guest(client())
        machine.run()
        return c.value

    assert benchmark(run) is True
