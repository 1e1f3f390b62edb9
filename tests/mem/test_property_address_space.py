"""Stateful differential test: ``AddressSpace`` against a per-page model.

The real address space keeps its page table as a map of runs; the
reference below keeps one dict entry per page, the way the page table
looked before runs existed.  Both sides get their own physical and
device memories and the same operations, and after every step they must
agree on every page's physical address and pin count, every byte of both
memories, the allocator's state, swap contents, every counter, and the
type of every exception raised.

``VPHI_CHAOS_EXAMPLES`` raises the example count (nightly chaos job).
"""

import os

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.mem import (
    AddressSpace,
    BadAddress,
    MemError,
    PAGE_SHIFT,
    PAGE_SIZE,
    PageFault,
    PhysicalMemory,
    PinViolation,
    VMAFlag,
)

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "20"))
KB = 1 << 10
#: VMAs live in 4-page slots from VMA_BASE (a VMA may be up to 6 pages
#: long, so neighbours can touch or collide); kmap-style pages from KMAP_BASE.
VMA_BASE = 0x100
KMAP_BASE = 0x40
SLOT_PAGES = 4
SLOTS = 4
KINDS = ("lazy", "populate", "device")


class RefSpace:
    """Per-page reference: ``pt[vpn] = [mem, paddr, owned extent, pins]``."""

    def __init__(self, phys, dev):
        self.phys, self.dev = phys, dev
        self.pt, self.swap, self.vmas = {}, {}, {}  # vmas: lo -> [hi, kind, base]
        self.faults = self.swapins = self.swapouts = 0

    def mmap(self, lo, n, kind, dev_base):
        if any(a < lo + n and lo < hi for a, (hi, _, _) in self.vmas.items()):
            raise MemError("overlap")
        base = dev_base
        if kind == "populate":
            base = self.phys.alloc(n * PAGE_SIZE)
            for i in range(n):
                self.pt[lo + i] = [self.phys, base.addr + i * PAGE_SIZE, None, 0]
        self.vmas[lo] = [lo + n, kind, base]

    def munmap(self, lo):
        hi, kind, base = self.vmas[lo]
        if any(self.pt[v][3] for v in range(lo, hi) if v in self.pt):
            raise PinViolation("munmap")
        for v in range(lo, hi):
            self.unmap_page(v, missing_ok=True)
            self.swap.pop(v, None)
        if kind == "populate":
            base.free()
        del self.vmas[lo]

    def page(self, v, fault_in=True):
        if v in self.pt:
            return self.pt[v]
        if not fault_in:
            raise PageFault(v << PAGE_SHIFT)
        lo = next((a for a, (hi, _, _) in self.vmas.items() if a <= v < hi), None)
        if lo is None:
            raise BadAddress("segv")
        self.faults += 1
        _, kind, base = self.vmas[lo]
        if kind == "device":
            self.pt[v] = [self.dev, base + (v - lo) * PAGE_SIZE, None, 0]
        else:
            ext = self.phys.alloc(PAGE_SIZE)
            self.pt[v] = [self.phys, ext.addr, ext, 0]
            if v in self.swap:
                self.swapins += 1
                self.phys.write(ext.addr, self.swap.pop(v))
        return self.pt[v]

    def pieces(self, vaddr, n, fault_in=True):
        while n > 0:
            mem, paddr, _, _ = self.page(vaddr >> PAGE_SHIFT, fault_in)
            take = min(PAGE_SIZE - vaddr % PAGE_SIZE, n)
            yield mem, paddr + vaddr % PAGE_SIZE, take
            vaddr, n = vaddr + take, n - take

    def read(self, vaddr, n):
        return np.concatenate([m.read(p, k) for m, p, k in self.pieces(vaddr, n)])

    def write(self, vaddr, data):
        off = 0
        for m, p, k in self.pieces(vaddr, len(data)):
            m.write(p, data[off:off + k])
            off += k

    def sg_list(self, vaddr, n, fault_in=True):
        out = []
        for m, p, k in self.pieces(vaddr, n, fault_in):
            if out and out[-1][0] is m and out[-1][1] + out[-1][2] == p:
                out[-1][2] += k
            else:
                out.append([m, p, k])
        return out

    def pin(self, vaddr, n):
        vpns = range(vaddr >> PAGE_SHIFT, (vaddr + n + PAGE_SIZE - 1) >> PAGE_SHIFT)
        for page in [self.page(v) for v in vpns]:
            page[3] += 1
        return vpns, self.sg_list(vaddr, n, fault_in=False)

    def unpin(self, vpns):
        if not all(v in self.pt and self.pt[v][3] > 0 for v in vpns):
            raise PinViolation("unpin")
        for v in vpns:
            self.pt[v][3] -= 1

    def swap_out(self, v):
        page = self.pt.get(v)
        if page is None or page[3] or page[2] is None:
            return False
        self.swap[v] = bytes(page[0].read(page[1], PAGE_SIZE))
        self.unmap_page(v)
        self.swapouts += 1
        return True

    def map_page(self, v, mem, paddr):
        if v in self.pt:
            raise MemError("mapped")
        self.pt[v] = [mem, paddr, None, 0]

    def unmap_page(self, v, missing_ok=False):
        if v not in self.pt:
            if missing_ok:
                return
            raise MemError("not mapped")
        if self.pt[v][3]:
            raise PinViolation("unmap")
        ext = self.pt.pop(v)[2]
        if ext is not None:
            ext.free()


def _memories():
    return PhysicalMemory(512 * KB, "ram"), PhysicalMemory(128 * KB, "dev")


def _outcome(fn):
    """``(result, exception type)`` of one call."""
    try:
        return fn(), None
    except MemError as err:
        return None, type(err)


def _sg(entries):
    return [(m.name, p, n) for m, p, n in entries]


addresses = st.tuples(
    st.sampled_from((VMA_BASE, VMA_BASE, VMA_BASE, KMAP_BASE)),
    st.integers(0, SLOTS * SLOT_PAGES + 1),
    st.integers(0, PAGE_SIZE - 1),
).map(lambda t: ((t[0] + t[1]) << PAGE_SHIFT) + t[2])
lengths = st.integers(1, 3 * PAGE_SIZE)
vma_shapes = st.tuples(st.integers(1, SLOT_PAGES + 2), st.sampled_from(KINDS))


class AddressSpaceDiff(RuleBasedStateMachine):
    """The run-map ``AddressSpace`` and ``RefSpace`` stay indistinguishable."""

    def __init__(self):
        super().__init__()
        phys, self.dev = _memories()
        self.real = AddressSpace(phys, "real")
        ref_phys, ref_dev = _memories()
        self.ref = RefSpace(ref_phys, ref_dev)
        self.vmas = {}  # slot -> real VMA
        self.pins = []  # (real PinnedPages, reference vpns)

    def both(self, real_fn, ref_fn):
        (got, err), (want, ref_err) = _outcome(real_fn), _outcome(ref_fn)
        assert err is ref_err, f"real raised {err}, reference raised {ref_err}"
        return got, want

    # -- mappings -----------------------------------------------------------
    @initialize(shapes=st.lists(vma_shapes, min_size=SLOTS, max_size=SLOTS))
    def map_every_slot(self, shapes):
        for slot, (npages, kind) in enumerate(shapes):
            self.mmap(slot, npages, kind)

    @rule(slot=st.integers(0, SLOTS - 1), npages=st.integers(1, SLOT_PAGES + 2),
          kind=st.sampled_from(KINDS))
    def mmap(self, slot, npages, kind):
        lo = VMA_BASE + slot * SLOT_PAGES
        dev_base = slot * SLOT_PAGES * PAGE_SIZE  # neighbours are contiguous
        dev = self.dev

        def real():
            if kind == "device":
                return self.real.mmap(
                    npages * PAGE_SIZE, flags=VMAFlag.READ | VMAFlag.WRITE | VMAFlag.DEVICE,
                    addr=lo << PAGE_SHIFT,
                    fault_handler=lambda vma, a: (dev, dev_base + a - vma.start))
            return self.real.mmap(npages * PAGE_SIZE, addr=lo << PAGE_SHIFT,
                                  populate=kind == "populate")

        vma, _ = self.both(real, lambda: self.ref.mmap(lo, npages, kind, dev_base))
        if vma is not None:
            self.vmas[slot] = vma

    @rule(slot=st.integers(0, SLOTS - 1))
    def munmap(self, slot):
        vma = self.vmas.get(slot)
        if vma is None:
            return
        self.both(lambda: self.real.munmap(vma),
                  lambda: self.ref.munmap(vma.start >> PAGE_SHIFT))
        if self.real.find_vma(vma.start) is None:
            del self.vmas[slot]

    @rule(page=st.integers(0, 7), frame=st.integers(0, 15))
    def map_page(self, page, frame):
        vpn = KMAP_BASE + page
        self.both(lambda: self.real.map_page(vpn << PAGE_SHIFT, self.dev, frame * PAGE_SIZE),
                  lambda: self.ref.map_page(vpn, self.ref.dev, frame * PAGE_SIZE))

    @rule(vaddr=addresses)
    def unmap_page(self, vaddr):
        self.both(lambda: self.real.unmap_page(vaddr),
                  lambda: self.ref.unmap_page(vaddr >> PAGE_SHIFT))

    @rule(vaddr=addresses)
    def swap_out(self, vaddr):
        got, want = self.both(lambda: self.real.swap_out(vaddr),
                              lambda: self.ref.swap_out(vaddr >> PAGE_SHIFT))
        assert got == want

    # -- access -------------------------------------------------------------
    @rule(vaddr=addresses, nbytes=lengths, seed=st.integers(0, 2**16))
    def write(self, vaddr, nbytes, seed):
        data = np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8)
        self.both(lambda: self.real.write(vaddr, data), lambda: self.ref.write(vaddr, data))

    @rule(vaddr=addresses, nbytes=lengths)
    def read(self, vaddr, nbytes):
        got, want = self.both(lambda: self.real.read(vaddr, nbytes),
                              lambda: self.ref.read(vaddr, nbytes))
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)

    @rule(vaddr=addresses, nbytes=lengths, fault_in=st.booleans())
    def sg_list(self, vaddr, nbytes, fault_in):
        got, want = self.both(lambda: self.real.sg_list(vaddr, nbytes, fault_in),
                              lambda: self.ref.sg_list(vaddr, nbytes, fault_in))
        if got is not None:
            assert _sg(got) == _sg(want)

    # -- pinning ------------------------------------------------------------
    @rule(vaddr=addresses, nbytes=lengths)
    def pin(self, vaddr, nbytes):
        got, want = self.both(lambda: self.real.pin(vaddr, nbytes),
                              lambda: self.ref.pin(vaddr, nbytes))
        if got is not None:
            vpns, sg = want
            assert got._vpns == vpns
            assert _sg(got.sg) == _sg(sg)
            self.pins.append((got, vpns))

    @rule(data=st.data(), delta=st.integers(-1, 1), offset=st.integers(0, PAGE_SIZE - 1),
          nbytes=lengths)
    def pin_near_a_pin(self, data, delta, offset, nbytes):
        """Pin next to, inside or across an earlier pin (adjacent or nested
        registered windows), where runs split and re-merge."""
        if not self.pins:
            return
        vpns = data.draw(st.sampled_from(self.pins))[1]
        anchor = data.draw(st.sampled_from((vpns.start, vpns.stop)))
        self.pin(((anchor + delta) << PAGE_SHIFT) + offset, nbytes)

    @rule(data=st.data())
    def unpin(self, data):
        if not self.pins:
            return
        pinned, vpns = self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1)))
        self.both(pinned.unpin, lambda: self.ref.unpin(vpns))

    # -- the two sides agree ------------------------------------------------
    @invariant()
    def same_page_tables(self):
        real, ref = self.real, self.ref
        pages = {}
        for r in real._runs:
            for k in range(r.npages):
                pages[r.vpn + k] = (r.mem.name, r.paddr + (k << PAGE_SHIFT), r.pins)
        assert pages == {v: (m.name, p, pins) for v, (m, p, _, pins) in ref.pt.items()}
        assert real.resident_pages() == len(ref.pt)
        assert real.pinned_pages() == sum(1 for page in ref.pt.values() if page[3])
        assert (real.fault_count, real.swapin_count, real.swapout_count) == (
            ref.faults, ref.swapins, ref.swapouts)
        assert real._swap == ref.swap

    @invariant()
    def same_memory(self):
        for got, want in ((self.real.phys, self.ref.phys), (self.dev, self.ref.dev)):
            assert got.bytes_allocated == want.bytes_allocated
            assert got._holes == want._holes
            assert np.array_equal(got.read(0, got.size), want.read(0, want.size))

    @invariant()
    def runs_are_canonical(self):
        """Sorted, disjoint, maximal; a run owning an extent is one page."""
        runs = self.real._runs
        assert self.real._starts == [r.vpn for r in runs]
        for a, b in zip(runs, runs[1:]):
            assert a.end <= b.vpn
            assert not a.joins(b)
        assert all(r.npages == 1 for r in runs if r.extent is not None)


TestAddressSpaceDiff = AddressSpaceDiff.TestCase
TestAddressSpaceDiff.settings = settings(
    max_examples=N_EXAMPLES, stateful_step_count=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
