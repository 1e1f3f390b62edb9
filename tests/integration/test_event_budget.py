"""Kernel-event budget of the per-request path.

Every hop of the §IV-B request path (marshal, kick, backend, host call,
IRQ, wakeup, copy) costs event-queue pushes, and the per-request host
cost of the simulator follows their number.  These tests count the
queue's pushes on two fixed, seeded scenarios — a closed-loop pingpong
and a small open-loop multi-tenant plan — and hold them at or below
the counts the kernel reaches now.  They are counts, not timings: a
change that adds events back fails here deterministically, on any host.
"""

import numpy as np

from repro import Machine
from repro.traffic import Poisson, TenantSpec, TrafficPlan, WorkloadMix, run_plan

PORT = 31_500
SIZES = (1, 64, 1 << 10, 4 << 10, 16 << 10, 64 << 10)
ROUND_TRIPS = 5 * len(SIZES)
#: queue pushes per guest send + recv round trip against a card echo server
PINGPONG_PUSHES_PER_ROUND_TRIP = 29
#: queue pushes for the whole tenants plan below, set-up included
TENANTS_PUSHES = 4_103


def _pingpong_pushes() -> tuple[int, list]:
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0")
    slib = m.scif(m.card_process("echo", card=0))
    rng = np.random.default_rng(5)
    payloads = [rng.integers(0, 256, SIZES[i % len(SIZES)], dtype=np.uint8)
                for i in range(ROUND_TRIPS)]
    state: dict = {}

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        for p in payloads:
            data = yield from slib.recv(conn, len(p))
            yield from slib.send(conn, data)

    lib = vm.vphi.libscif(vm.guest_process("client"))

    def connect():
        ep = yield from lib.open()
        yield from lib.connect(ep, (m.card_node_id(0), PORT))
        state["ep"] = ep

    m.sim.spawn(server())
    vm.spawn_guest(connect())
    m.run()
    echoed: list = []

    def client():
        for p in payloads:
            yield from lib.send(state["ep"], p)
            data = yield from lib.recv(state["ep"], len(p))
            echoed.append(np.array_equal(data, p))

    before = m.sim._queue._seq
    vm.spawn_guest(client())
    m.run()
    return m.sim._queue._seq - before, echoed


def test_pingpong_round_trip_event_budget():
    pushes, echoed = _pingpong_pushes()
    assert echoed == [True] * ROUND_TRIPS
    assert pushes <= PINGPONG_PUSHES_PER_ROUND_TRIP * ROUND_TRIPS, (
        f"{pushes / ROUND_TRIPS:.2f} pushes per round trip "
        f"(budget {PINGPONG_PUSHES_PER_ROUND_TRIP})")


def _tenants_pushes() -> tuple[int, int]:
    """A12's wfq plan at a tenth of its tenants and window."""
    plan = TrafficPlan(
        tenants=[
            TenantSpec(name="gold", arrivals=Poisson(20_000.0),
                       mix=WorkloadMix.interactive(), share=4.0, priority=0, count=16),
            TenantSpec(name="bronze", arrivals=Poisson(10_000.0),
                       mix=WorkloadMix.interactive(), share=1.0, priority=1, count=2),
            TenantSpec(name="bulk", arrivals=Poisson(2_000.0),
                       mix=WorkloadMix.bulk(), share=0.0, priority=2, count=2),
        ],
        policy="wfq", duration=0.0008, seed=7, slots=4,
        backend_workers=2, max_inflight=4, admit_queue_depth=8,
    )
    m = Machine(cards=1).boot()
    before = m.sim._queue._seq
    result = run_plan(plan, machine=m)
    result.check_conservation()
    return m.sim._queue._seq - before, sum(load.offered for load in result.loads)


def test_tenants_event_budget():
    pushes, arrivals = _tenants_pushes()
    assert arrivals > 0
    assert pushes <= TENANTS_PUSHES, (
        f"{pushes} pushes for {arrivals} arrivals, set-up included "
        f"(budget {TENANTS_PUSHES})")
