"""Stateful property test: the physical allocator against a shadow model.

``VPHI_CHAOS_EXAMPLES`` raises the example count (nightly chaos job).
"""

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mem import OutOfMemory, PAGE_SIZE, PhysicalMemory

MB = 1 << 20
N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "20"))


class AllocatorMachine(RuleBasedStateMachine):
    """alloc/free/write interleavings preserve content and accounting."""

    def __init__(self):
        super().__init__()
        self.mem = PhysicalMemory(32 * MB)
        #: live extents with their expected fill byte
        self.live: dict[int, tuple] = {}
        self._next_tag = 0

    @rule(pages=st.integers(1, 64))
    def alloc_and_stamp(self, pages):
        try:
            ext = self.mem.alloc(pages * PAGE_SIZE)
        except OutOfMemory:
            # legal only when the request genuinely doesn't fit any hole
            assert self.mem.largest_free_block() < pages * PAGE_SIZE
            return
        tag = self._next_tag = (self._next_tag + 1) % 255 or 1
        ext.fill(tag)
        self.live[ext.addr] = (ext, tag)

    @rule(data=st.data())
    def free_one(self, data):
        if not self.live:
            return
        addr = data.draw(st.sampled_from(sorted(self.live)))
        ext, _ = self.live.pop(addr)
        ext.free()

    @rule(data=st.data(), off=st.integers(0, PAGE_SIZE - 1))
    def rewrite_region(self, data, off):
        if not self.live:
            return
        addr = data.draw(st.sampled_from(sorted(self.live)))
        ext, tag = self.live[addr]
        new_tag = (tag % 254) + 1
        ext.fill(new_tag)
        self.live[addr] = (ext, new_tag)

    @invariant()
    def live_contents_uncorrupted(self):
        for addr, (ext, tag) in self.live.items():
            data = ext.read()
            assert (data == tag).all(), f"extent @{addr:#x} corrupted"

    @invariant()
    def accounting_conserved(self):
        assert self.mem.bytes_free + self.mem.bytes_allocated == self.mem.size
        assert self.mem.bytes_allocated == sum(
            e.nbytes for e, _ in self.live.values()
        )

    @invariant()
    def extents_disjoint(self):
        spans = sorted((e.addr, e.end) for e, _ in self.live.values())
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


TestAllocatorStateful = AllocatorMachine.TestCase
TestAllocatorStateful.settings = settings(
    max_examples=N_EXAMPLES, stateful_step_count=25, deadline=None
)
