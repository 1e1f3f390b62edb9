"""The three benchmark workloads: seeded inputs, one pass, output checks.

A *pass* stands up a fresh simulated machine (the set-up, timed on its
own), runs the measured window of guest SCIF operations, and checks every
output.  Passes of one workload object are identical in simulated time:
the seed fixes every input, and the simulator is deterministic.

Each workload is a closed or open loop of guest requests:

* ``rma-sweep`` — closed loop, one guest VM in blocking dispatch, one
  registered card window; a ``vreadfrom`` and a ``vwriteto`` per size.
* ``pingpong`` — closed loop, one client, one guest VM in blocking
  dispatch, a card-side echo server.
* ``tenants`` — open loop, Poisson arrivals per tenant at about ten times
  what the card completes (the A12 plan under ``wfq``).
"""

from __future__ import annotations

import heapq
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import Machine
from repro.analysis import qos_stats
from repro.traffic import Poisson, TenantSpec, TrafficPlan, WorkloadMix, harness, run_plan

KB, MB = 1 << 10, 1 << 20
PORT = 31_000


@dataclass
class PassResult:
    """What one pass measured and produced.

    Host times are in host seconds; everything in :attr:`outputs`,
    :attr:`latencies` and :attr:`sim_window_s` is simulated and must
    repeat exactly from pass to pass.
    """

    setup_s: float
    #: host seconds of the measured window, less the benchmark's own
    #: output checks inside it.
    wall_s: float
    attempted: int
    completed: int
    #: ops that raised an error other than an admission-control refusal.
    failed: int
    #: ops refused by admission control (typed EBUSY sheds).
    refused: int
    payload_bytes: int
    #: simulated seconds per completed guest op.
    latencies: list[float]
    sim_window_s: float
    #: every simulated output, compared across passes and traced runs.
    outputs: dict
    #: output-check failures (empty when every check passed).
    problems: list[str] = field(default_factory=list)
    #: workload-specific extras (calibration samples, SLO figures).
    extra: dict = field(default_factory=dict)
    #: median host seconds of the runner probes taken in this pass.
    probe_s: float = 0.0


class RunnerProbe:
    """The runner-speed probe: host seconds of a fixed piece of work,
    interpreter-bound (heapq pushes and pops) and memory-bound
    (``np.copyto`` between two buffers larger than the L2).

    The runner this benchmark was written on is shared: its speed moved
    by up to 1.5x within a minute, and the probe moved with it.  Each pass
    takes the probe several times inside its measured window, and host
    times are reported scaled by ``NOMINAL_S / probe``: seconds of a
    runner on which the probe takes ``NOMINAL_S``.
    """

    NOMINAL_S = 0.012
    HEAP_OPS = 10_000
    NBYTES = 8 << 20

    def __init__(self):
        self.src = np.ones(self.NBYTES, dtype=np.uint8)
        self.dst = np.zeros_like(self.src)

    def __call__(self) -> float:
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        t0 = perf_counter()
        for i in range(self.HEAP_OPS):
            push(heap, (i * 1e-6, i, None))
        for _ in range(self.HEAP_OPS):
            pop(heap)
        np.copyto(self.dst, self.src)
        np.copyto(self.src, self.dst)
        return perf_counter() - t0


class Window:
    """Callbacks around a pass's measured window.

    :meth:`check` brackets the benchmark's own work inside the window
    (output checks, runner probes): its host time is summed in
    :attr:`check_s` and left out of the pass's wall time.
    """

    def __init__(self, probe: RunnerProbe | None = None):
        self.check_s = 0.0
        self.probe = probe
        self.probes: list[float] = []

    def open(self, machine) -> None:
        pass

    def close(self, machine) -> None:
        pass

    @contextmanager
    def check(self):
        t = perf_counter()
        try:
            yield
        finally:
            self.check_s += perf_counter() - t

    def sample(self) -> None:
        """Take one runner-speed probe (none without a probe)."""
        if self.probe is not None:
            with self.check():
                self.probes.append(self.probe())


class TracedWindow(Window):
    """The measured window of a traced pass: the tracer starts a fresh
    recording, counts inside the window and records nothing while the
    benchmark checks outputs; the program's own counters are read at
    both ends, and its request spans kept."""

    def __init__(self, tracer, probe: RunnerProbe | None = None):
        super().__init__(probe)
        self.tracer = tracer
        tracer.reset()

    def open(self, machine) -> None:
        self.before = program_counters(machine)
        self.sim_t0 = machine.sim.now
        self.tracer.open_window()

    def close(self, machine) -> None:
        self.tracer.close_window()
        after = program_counters(machine)
        self.delta = {k: after[k] - self.before[k] for k in after}
        self.spans = [s for backend in machine.faults.backends
                      for s in backend.vm.tracer.spans if s.start >= self.sim_t0]
        self.per_name = self.tracer.per_name()
        self.counts = dict(self.tracer.counts)

    @contextmanager
    def check(self):
        with super().check(), self.tracer.suspended():
            yield


def _jittered(base: int, rng: np.random.Generator) -> int:
    """``base`` grown by a seeded 0 to 1/16 of itself (at least 0 to 7 B):
    message sizes are inputs, so the seed moves every one of them."""
    return base + int(rng.integers(0, max(base // 16, 8)))


def _views(sg, n: int):
    """``(offset, view)`` over the first ``n`` bytes behind an SG list:
    views of the simulated memory itself, so checks copy nothing."""
    off = 0
    for entry in sg:
        take = min(entry.nbytes, n - off)
        if take <= 0:
            return
        for rel, view in entry.mem.iter_views(entry.paddr, take):
            yield off + rel, view
        off += take


# ----------------------------------------------------------------------
# rma-sweep
# ----------------------------------------------------------------------
class RmaSweep:
    """Fig 5 shape, both directions: per size a ``vreadfrom`` then a
    ``vwriteto`` against one registered card window; every byte checked.

    The 256 MB point of Fig 5 is left out: the host kernel's first-touch
    faults on fresh 256 MB buffers made its wall time vary by 0.4 of the
    median between passes.
    """

    name = "rma-sweep"
    SIZES = (64 * KB, 256 * KB, MB, 4 * MB, 16 * MB, 64 * MB)

    def __init__(self, seed: int, max_size: int = 64 * MB):
        rng = np.random.default_rng(seed)
        self.sizes = [_jittered(s, rng) for s in self.SIZES if s <= max_size]
        # registered windows are whole pages
        self.window = -(-max(self.sizes) // 4096) * 4096
        self.window0 = rng.integers(0, 256, self.window, dtype=np.uint8)
        self.keys = rng.integers(1, 256, len(self.sizes), dtype=np.uint8)

    def run_pass(self, window: Window | None = None) -> PassResult:
        window = window or Window()
        model = self.window0.copy()  # what the card window must hold
        t0 = perf_counter()
        m = Machine(cards=1).boot()
        vm = m.create_vm("vm0")
        sproc = m.card_process("rma-server", card=0)
        slib = m.scif(sproc)
        ready = m.sim.event()
        state: dict = {}

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            vma = sproc.address_space.mmap(self.window, populate=True, name="window")
            sproc.address_space.write(vma.start, self.window0)
            roff = yield from slib.register(conn, vma.start, self.window)
            state["card_vaddr"] = vma.start
            ready.succeed(roff)

        gproc = vm.guest_process("rma-client")
        lib = vm.vphi.libscif(gproc)
        gspace = gproc.address_space

        def connect():
            ep = yield from lib.open()
            yield from lib.connect(ep, (m.card_node_id(0), PORT))
            state["roff"] = yield ready
            state["ep"] = ep
            state["gvaddr"] = gspace.mmap(self.window, populate=True, name="buf").start

        m.sim.spawn(server())
        vm.spawn_guest(connect())
        m.run()
        t1 = perf_counter()

        lat: list[float] = []
        problems: list[str] = []
        ep, roff, gvaddr = state["ep"], state["roff"], state["gvaddr"]
        # the checks look at both buffers in place, through these lists
        guest_sg = gspace.sg_list(gvaddr, self.window)
        card_sg = sproc.address_space.sg_list(state["card_vaddr"], self.window)

        def same(sg, n: int) -> bool:
            return all(np.array_equal(view, model[off:off + len(view)])
                       for off, view in _views(sg, n))

        def client():
            for n, key in zip(self.sizes, self.keys):
                t = m.sim.now
                yield from lib.vreadfrom(ep, gvaddr, n, roff)
                lat.append(m.sim.now - t)
                with window.check():
                    if not same(guest_sg, n):
                        problems.append(f"vreadfrom {n} B: guest buffer differs from the window")
                    # the application rewrites its buffer before writing it back
                    np.bitwise_xor(model[:n], key, out=model[:n])
                    for off, view in _views(guest_sg, n):
                        view[:] = model[off:off + len(view)]
                t = m.sim.now
                yield from lib.vwriteto(ep, gvaddr, n, roff)
                lat.append(m.sim.now - t)
                with window.check():
                    if not same(card_sg, n):
                        problems.append(f"vwriteto {n} B: card window differs "
                                        "from the guest buffer")
                window.sample()

        sim_t0 = m.sim.now
        window.open(m)
        t2 = perf_counter()
        vm.spawn_guest(client())
        m.run()
        t3 = perf_counter()
        window.close(m)
        ops = 2 * len(self.sizes)
        if len(lat) != ops:
            problems.append(f"{len(lat)} of {ops} transfers completed")
        largest = self.sizes[-1]
        return PassResult(
            setup_s=t1 - t0, wall_s=t3 - t2 - window.check_s,
            attempted=ops, completed=len(lat), failed=ops - len(lat), refused=0,
            payload_bytes=2 * sum(self.sizes), latencies=lat,
            sim_window_s=m.sim.now - sim_t0,
            outputs={"sizes": self.sizes, "latencies": lat, "end": m.sim.now},
            problems=problems,
            extra={"read_GBps_at_largest": largest / lat[-2] / 1e9 if len(lat) == ops else 0.0},
        )


# ----------------------------------------------------------------------
# pingpong
# ----------------------------------------------------------------------
class PingPong:
    """Closed loop: the guest sends N bytes to a card echo server and
    receives them back, N from the Fig 4 sizes 1 B to 64 KB.

    Every sixth round trip is 64 KB, which fixes the bytes per pass (the
    64 KB messages carry nine tenths of them); the others draw among the
    five smaller sizes.  With six sizes in equal shares the per-op median
    would sit exactly between two size classes, at the same latency for
    every seed; drawn shares move it inside a class.
    """

    name = "pingpong"
    SIZES = (1, 64, KB, 4 * KB, 16 * KB, 64 * KB)
    #: round trips between runner probes
    PROBE_EVERY = 100

    def __init__(self, seed: int, round_trips: int = 1200):
        rng = np.random.default_rng(seed)
        small = self.SIZES[:-1]
        self.sizes = [_jittered(self.SIZES[-1] if i % 6 == 5
                                else small[rng.integers(len(small))], rng)
                      for i in range(round_trips)]
        pool = rng.integers(0, 256, 2 * max(self.sizes), dtype=np.uint8)
        starts = rng.integers(0, max(self.sizes), round_trips)
        self.payloads = [pool[s:s + n] for s, n in zip(starts, self.sizes)]

    def run_pass(self, window: Window | None = None) -> PassResult:
        window = window or Window()
        t0 = perf_counter()
        m = Machine(cards=1).boot()
        vm = m.create_vm("vm0")
        slib = m.scif(m.card_process("echo-server", card=0))
        sizes = self.sizes
        state: dict = {}

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            for n in sizes:
                data = yield from slib.recv(conn, n)
                yield from slib.send(conn, data)

        lib = vm.vphi.libscif(vm.guest_process("pingpong-client"))

        def connect():
            ep = yield from lib.open()
            yield from lib.connect(ep, (m.card_node_id(0), PORT))
            state["ep"] = ep

        m.sim.spawn(server())
        vm.spawn_guest(connect())
        m.run()
        t1 = perf_counter()

        sends: list[float] = []
        recvs: list[float] = []
        problems: list[str] = []
        ep = state["ep"]

        def client():
            for i, payload in enumerate(self.payloads, 1):
                t = m.sim.now
                yield from lib.send(ep, payload)
                sends.append(m.sim.now - t)
                t = m.sim.now
                data = yield from lib.recv(ep, len(payload))
                recvs.append(m.sim.now - t)
                with window.check():
                    if not np.array_equal(data, payload):
                        problems.append(f"round trip {i} ({len(payload)} B) not byte-exact")
                if i % self.PROBE_EVERY == 0:
                    window.sample()

        sim_t0 = m.sim.now
        window.open(m)
        t2 = perf_counter()
        vm.spawn_guest(client())
        m.run()
        t3 = perf_counter()
        window.close(m)
        ops = 2 * len(sizes)
        done = len(sends) + len(recvs)
        if done != ops:
            problems.append(f"{done} of {ops} ops completed")
        one_byte = [t for n, t in zip(sizes, sends) if n == 1]
        return PassResult(
            setup_s=t1 - t0, wall_s=t3 - t2 - window.check_s,
            attempted=ops, completed=done, failed=ops - done, refused=0,
            payload_bytes=2 * sum(sizes), latencies=sends + recvs,
            sim_window_s=m.sim.now - sim_t0,
            outputs={"sends": sends, "recvs": recvs, "end": m.sim.now},
            problems=problems,
            extra={"send_1B_s": float(np.median(one_byte)) if one_byte else 0.0},
        )


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------
#: the A12 plan (benchmarks/test_ablation_qos.py) under wfq.
TENANT_GROUPS = (
    # name, count, Poisson rate per tenant, mix, wfq share, priority
    ("gold", 160, 20_000.0, "interactive", 4.0, 0),
    ("bronze", 20, 10_000.0, "interactive", 1.0, 1),
    ("bulk", 20, 2_000.0, "bulk", 0.0, 2),
)
TENANT_WINDOW_S = 0.008
#: the A12 golden holds these wfq entries for seed 7 at full scale.
GOLDEN_SEED = 7
GOLDEN_KEYS = {"completed": "completed_by_policy", "shed": "shed_by_policy",
               "weighted_jain": "weighted_jain_by_policy",
               "gold_p99": "gold_p99_by_policy"}


class Tenants:
    """200 tenant VMs on one card, 4 dispatch slots, pooled backend with
    2 workers, ``wfq`` arbitration and admission control; open-loop
    Poisson arrivals at about 10x what the card completes.

    Arrivals fire on an exact simulated schedule and each one starts its
    own request process at once, so the generator is never late: the
    lateness of every request is 0 by construction.
    """

    name = "tenants"
    #: runner probes per pass, evenly over the arrival window
    PROBES = 16

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.full_scale = scale == 1.0
        self.plan = TrafficPlan(
            tenants=[
                TenantSpec(name=name, arrivals=Poisson(rate),
                           mix=getattr(WorkloadMix, mix)(), share=share,
                           priority=prio, count=max(1, round(count * scale)))
                for name, count, rate, mix, share, prio in TENANT_GROUPS
            ],
            policy="wfq", duration=TENANT_WINDOW_S * scale, seed=seed, slots=4,
            backend_workers=2, max_inflight=4, admit_queue_depth=8,
        )

    def run_pass(self, window: Window | None = None) -> PassResult:
        window = window or Window()
        stamps: dict = {}

        class TimedGate(harness._Gate):
            """The harness opens this gate once every tenant is connected:
            that instant ends set-up and opens the measured window."""

            def arrive(gate) -> None:
                super().arrive()
                if gate.open.triggered and "gate" not in stamps:
                    window.open(machine)
                    machine.sim.spawn(prober(machine.sim), name="runner-probe")
                    stamps["gate"] = perf_counter()

        def prober(sim):
            # a host-side process that only sleeps: it moves no simulated
            # state, so every simulated output stays as without it
            for _ in range(self.PROBES):
                yield sim.timeout(self.plan.duration / self.PROBES)
                window.sample()

        t0 = perf_counter()
        machine = Machine(cards=1).boot()
        # run_plan has no hook between tenant set-up and its arrivals
        plain_gate, harness._Gate = harness._Gate, TimedGate
        try:
            result = run_plan(self.plan, machine=machine)
        finally:
            harness._Gate = plain_gate
        t3 = perf_counter()
        window.close(machine)
        problems: list[str] = []
        try:
            result.check_conservation()
        except AssertionError as err:
            problems.append(f"conservation: {err}")
        report = qos_stats(result)
        gold = [t.p99 for t in report.tenants if t.name.startswith("gold") and t.completed]
        loads = result.loads
        lat = [x for load in loads for x in load.latencies]
        attempted = sum(load.offered for load in loads)
        completed = sum(load.completed for load in loads)
        refused = sum(load.shed for load in loads)
        failed = sum(load.errors for load in loads)
        if completed + refused + failed != attempted:
            problems.append("offered != completed + shed + errors")
        summary = {"completed": report.total_completed, "shed": report.total_shed,
                   "weighted_jain": report.weighted_jain,
                   "gold_p99": max(gold) if gold else 0.0}
        return PassResult(
            setup_s=stamps["gate"] - t0, wall_s=t3 - stamps["gate"],
            attempted=attempted, completed=completed, failed=failed, refused=refused,
            payload_bytes=sum(load.bytes_done for load in loads), latencies=lat,
            sim_window_s=result.t_end - result.t_start,
            outputs={"per_tenant": [(ld.offered, ld.completed, ld.shed, ld.errors,
                                     ld.bytes_done) for ld in loads],
                     "latencies": lat, "t_start": result.t_start,
                     "t_end": result.t_end, **summary},
            problems=problems, extra=summary,
        )

    def golden_problems(self, outputs: dict, golden_path: Path) -> list[str]:
        """At seed 7 and full scale, the wfq entries of the A12 golden."""
        if self.seed != GOLDEN_SEED or not self.full_scale:
            return []
        golden = json.loads(golden_path.read_text())
        problems = []
        for key, series in GOLDEN_KEYS.items():
            want = dict(golden[series])["wfq"]
            if outputs[key] != want:
                problems.append(f"a12 golden wfq {key}: got {outputs[key]!r}, want {want!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (RmaSweep, PingPong, Tenants)}

#: constructor arguments of a reduced-size instance: the warm-up pass of
#: every run, and the smoke tests.
SMALL = {"rma-sweep": {"max_size": MB}, "pingpong": {"round_trips": 60},
         "tenants": {"scale": 0.1}}


def program_counters(machine) -> dict:
    """Work counters the program keeps itself, summed over the machine's
    cards, arbiters and vPHI VMs (every backend registers with the
    machine's fault injector)."""
    vms = [backend.vm for backend in machine.faults.backends]
    arbiters = set(machine.card_arbiters.values())
    if getattr(machine, "vphi_arbiter", None) is not None:
        arbiters.add(machine.vphi_arbiter)
    adm = [vm.vphi.frontend.admission for vm in vms]
    return {
        "sim.pushes": machine.sim._queue._seq,
        "sim.queued": len(machine.sim._queue),
        "pcie.dma_transfers": sum(d.dma.transfers for d in machine.devices),
        "pcie.dma_bytes": sum(d.dma.bytes_moved for d in machine.devices),
        "virtio.kicks": sum(vm.vphi.virtio.kicks for vm in vms),
        "kvm.irqs": sum(vm.vphi.virtio.interrupts for vm in vms),
        "kvm.vm_pauses": sum(vm.qemu.blocking_events for vm in vms),
        "vphi.backend.requests": sum(vm.vphi.backend.requests_served for vm in vms),
        "vphi.pool.grants": sum(a.grants for a in arbiters),
        "vphi.qos.admitted": sum(a.admitted for a in adm),
        "vphi.qos.shed": sum(a.shed for a in adm),
    }
