"""Request timelines reconstruct the Fig 3 I/O path from request spans."""

import pytest

from repro import Machine
from repro.analysis.spans import render_timeline, request_timeline, traced_tags
from repro.sim import us
from repro.vphi.ops import SPAN_PHASE_ORDER

PORT = 9950


@pytest.fixture
def traced_vm():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0")
    slib = machine.scif(machine.card_process("srv"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield from slib.recv(conn, 1)

    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), PORT))
        yield from glib.send(ep, b"\x01")

    machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    return machine, vm


def test_timeline_covers_the_fig3_path(traced_vm):
    machine, vm = traced_vm
    tags = traced_tags(vm.tracer)
    assert len(tags) == 3  # open, connect, send
    send_tag = tags[-1]
    steps = request_timeline(vm.tracer, send_tag)
    assert {s.op for s in steps} == {"send"}
    # the steps are span phases, in the datapath's canonical order
    phases = [s.phase for s in steps]
    assert phases == [p for p in SPAN_PHASE_ORDER if p in phases]
    assert "irq_deliver" in phases and "guest_wake" in phases
    # elapsed times are monotone and end at the 382us Fig 4 total
    elapsed = [s.elapsed for s in steps]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert elapsed[-1] == pytest.approx(us(382), rel=0.02)


def test_render_is_readable(traced_vm):
    machine, vm = traced_vm
    tag = traced_tags(vm.tracer)[-1]
    text = render_timeline(request_timeline(vm.tracer, tag))
    assert "request timeline (send)" in text
    assert "irq_deliver" in text
    assert "total" in text


def test_untraced_tag_is_empty(traced_vm):
    machine, vm = traced_vm
    assert request_timeline(vm.tracer, 10_000_000) == []
    assert "no span" in render_timeline([])
