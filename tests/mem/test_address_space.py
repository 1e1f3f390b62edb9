"""AddressSpace: VMAs, faulting, pinning, swap, scatter-gather."""

import numpy as np
import pytest

from repro.mem import (
    AddressSpace,
    BadAddress,
    MemError,
    PAGE_SIZE,
    PageFault,
    PhysicalMemory,
    PinViolation,
    VMAFlag,
    pages_spanned,
)

MB = 1 << 20


@pytest.fixture
def space():
    return AddressSpace(PhysicalMemory(64 * MB, "ram"), name="proc")


def test_mmap_returns_page_aligned_vma(space):
    vma = space.mmap(10000, name="buf")
    assert vma.start % PAGE_SIZE == 0
    assert vma.nbytes == 12288  # rounded up to 3 pages


def test_mmap_rejects_bad_length(space):
    with pytest.raises(MemError):
        space.mmap(0)


def test_mmap_hint_must_be_aligned(space):
    with pytest.raises(MemError):
        space.mmap(PAGE_SIZE, addr=0x1001)


def test_mmap_overlap_rejected(space):
    space.mmap(PAGE_SIZE, addr=0x10000)
    with pytest.raises(MemError):
        space.mmap(2 * PAGE_SIZE, addr=0x10000)


def test_demand_faulting_allocates_lazily(space):
    vma = space.mmap(16 * PAGE_SIZE, name="lazy")
    assert space.resident_pages() == 0
    space.write(vma.start + 5, b"hello")
    assert space.resident_pages() == 1
    assert space.fault_count == 1
    assert space.read(vma.start + 5, 5).tobytes() == b"hello"


def test_read_write_across_page_boundary(space):
    vma = space.mmap(2 * PAGE_SIZE)
    payload = np.arange(100, dtype=np.uint8)
    space.write(vma.start + PAGE_SIZE - 50, payload)
    assert np.array_equal(space.read(vma.start + PAGE_SIZE - 50, 100), payload)
    assert space.resident_pages() == 2


def test_write_counts_a_wide_dtype_in_bytes(space):
    """An 8 KiB int32 array is 8 KiB, not 2048 bytes: the write walks both
    pages of its lazy buffer and leaves the next frame's owner alone."""
    vma = space.mmap(2 * PAGE_SIZE, name="lazy")
    space.translate(vma.start)  # first page's frame, then a neighbour's
    other = space.mmap(PAGE_SIZE, populate=True, name="other")
    space.write(other.start, np.full(PAGE_SIZE, 0x5A, dtype=np.uint8))
    payload = np.arange(2 * PAGE_SIZE // 4, dtype=np.int32)
    space.write(vma.start, payload)
    assert space.fault_count == 2
    assert np.array_equal(space.read(vma.start, 2 * PAGE_SIZE), payload.view(np.uint8))
    assert (space.read(other.start, PAGE_SIZE) == 0x5A).all()


def test_access_unmapped_is_segv(space):
    with pytest.raises(BadAddress):
        space.read(0xDEAD0000, 1)


def test_munmap_frees_and_invalidates(space):
    vma = space.mmap(4 * PAGE_SIZE)
    space.write(vma.start, b"x" * PAGE_SIZE)
    allocated = space.phys.bytes_allocated
    assert allocated > 0
    space.munmap(vma)
    assert space.phys.bytes_allocated == 0
    with pytest.raises(BadAddress):
        space.read(vma.start, 1)


def test_munmap_unknown_vma_rejected(space):
    vma = space.mmap(PAGE_SIZE)
    space.munmap(vma)
    with pytest.raises(MemError):
        space.munmap(vma)


def test_populate_backs_with_contiguous_extent(space):
    vma = space.mmap(8 * PAGE_SIZE, populate=True)
    assert space.resident_pages() == 8
    sg = space.sg_list(vma.start, 8 * PAGE_SIZE)
    assert len(sg) == 1  # fully contiguous
    space.munmap(vma)
    assert space.phys.bytes_allocated == 0


def test_device_vma_uses_fault_handler(space):
    dev = PhysicalMemory(MB, "gddr")
    hits = []

    def handler(vma, page_vaddr):
        hits.append(page_vaddr)
        return dev, (page_vaddr - vma.start) % MB

    vma = space.mmap(
        2 * PAGE_SIZE,
        flags=VMAFlag.READ | VMAFlag.WRITE | VMAFlag.DEVICE,
        fault_handler=handler,
        name="mic-window",
    )
    dev.write(0, b"device!")
    assert space.read(vma.start, 7).tobytes() == b"device!"
    assert hits == [vma.start]


def test_device_vma_without_handler_faults(space):
    vma = space.mmap(PAGE_SIZE, flags=VMAFlag.READ | VMAFlag.DEVICE)
    with pytest.raises(PageFault):
        space.read(vma.start, 1)


def test_vma_private_and_pfnphi_flag(space):
    vma = space.mmap(
        PAGE_SIZE,
        flags=VMAFlag.READ | VMAFlag.DEVICE | VMAFlag.PFNPHI,
        fault_handler=lambda v, a: (space.phys, 0),
    )
    vma.private = ("phi-frame", 1234)
    found = space.find_vma(vma.start)
    assert found is vma
    assert found.flags & VMAFlag.PFNPHI
    assert found.private == ("phi-frame", 1234)


class TestSG:
    def test_sg_covers_exact_bytes(self, space):
        vma = space.mmap(4 * PAGE_SIZE)
        sg = space.sg_list(vma.start + 100, 2 * PAGE_SIZE)
        assert sum(e.nbytes for e in sg) == 2 * PAGE_SIZE

    def test_sg_coalesces_contiguous_pages(self, space):
        vma = space.mmap(4 * PAGE_SIZE, populate=True)
        sg = space.sg_list(vma.start, 4 * PAGE_SIZE)
        assert len(sg) == 1

    def test_sg_empty_for_zero_length(self, space):
        assert space.sg_list(0x1000, 0) == []

    def test_sg_no_fault_mode_raises_on_absent(self, space):
        vma = space.mmap(PAGE_SIZE)
        with pytest.raises(PageFault):
            space.sg_list(vma.start, 10, fault_in=False)


class TestPinning:
    def test_pin_faults_in_and_counts(self, space):
        vma = space.mmap(4 * PAGE_SIZE)
        pinned = space.pin(vma.start, 4 * PAGE_SIZE)
        assert space.pinned_pages() == 4
        assert sum(e.nbytes for e in pinned.sg) == 4 * PAGE_SIZE
        pinned.unpin()
        assert space.pinned_pages() == 0

    def test_pin_partial_pages_rounds_out(self, space):
        vma = space.mmap(3 * PAGE_SIZE)
        pinned = space.pin(vma.start + 100, PAGE_SIZE)  # straddles 2 pages
        assert space.pinned_pages() == 2
        pinned.unpin()

    def test_double_unpin_rejected(self, space):
        vma = space.mmap(PAGE_SIZE)
        pinned = space.pin(vma.start, PAGE_SIZE)
        pinned.unpin()
        with pytest.raises(PinViolation):
            pinned.unpin()

    def test_pin_records_every_page_spanned(self, space):
        vma = space.mmap(8 * PAGE_SIZE, populate=True)
        pinned = space.pin(vma.start + 100, 3 * PAGE_SIZE)
        assert len(pinned._vpns) == pages_spanned(vma.start + 100, 3 * PAGE_SIZE) == 4
        assert space.pinned_pages() == 4
        pinned.unpin()

    def test_pin_over_hole_takes_no_pin(self, space):
        """A pin that faults partway (a VMA gap) must not leak pins on the
        pages before the gap, or their VMA could never be unmapped."""
        vma = space.mmap(2 * PAGE_SIZE, addr=0x100000)
        with pytest.raises(BadAddress):
            space.pin(vma.start, 3 * PAGE_SIZE)
        assert space.pinned_pages() == 0
        space.munmap(vma)
        assert space.phys.bytes_allocated == 0

    def test_munmap_of_pinned_page_rejected(self, space):
        lazy = space.mmap(4 * PAGE_SIZE)
        space.write(lazy.start, b"x" * 4 * PAGE_SIZE)
        eager = space.mmap(4 * PAGE_SIZE, populate=True)
        for vma in (lazy, eager):
            pinned = space.pin(vma.start + 2 * PAGE_SIZE, PAGE_SIZE)
            allocated, resident = space.phys.bytes_allocated, space.resident_pages()
            with pytest.raises(PinViolation):
                space.munmap(vma)
            # the rejected call changed nothing
            assert space.find_vma(vma.start) is vma
            assert space.resident_pages() == resident
            assert space.pinned_pages() == 1
            assert space.phys.bytes_allocated == allocated
            pinned.unpin()
            space.munmap(vma)
        assert space.resident_pages() == 0
        assert space.phys.bytes_allocated == 0

    def test_unmap_page_of_pinned_page_rejected(self, space):
        vma = space.mmap(2 * PAGE_SIZE)
        space.write(vma.start, b"y" * 2 * PAGE_SIZE)
        pinned = space.pin(vma.start, 2 * PAGE_SIZE)
        allocated = space.phys.bytes_allocated
        with pytest.raises(PinViolation):
            space.unmap_page(vma.start + PAGE_SIZE)
        assert space.is_present(vma.start + PAGE_SIZE)
        assert space.phys.bytes_allocated == allocated
        pinned.unpin()
        space.unmap_page(vma.start + PAGE_SIZE)
        assert not space.is_present(vma.start + PAGE_SIZE)
        assert space.phys.bytes_allocated == allocated - PAGE_SIZE

    def test_nested_pins(self, space):
        vma = space.mmap(PAGE_SIZE)
        p1 = space.pin(vma.start, PAGE_SIZE)
        p2 = space.pin(vma.start, PAGE_SIZE)
        p1.unpin()
        assert space.pinned_pages() == 1
        p2.unpin()
        assert space.pinned_pages() == 0


class TestSwap:
    def test_swap_out_and_transparent_swap_in(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.write(vma.start, b"important")
        assert space.swap_out(vma.start) is True
        assert space.resident_pages() == 0
        # CPU access faults the page back in with its contents
        assert space.read(vma.start, 9).tobytes() == b"important"
        assert space.swapin_count == 1

    def test_pinned_page_refuses_swap(self, space):
        vma = space.mmap(PAGE_SIZE)
        space.pin(vma.start, PAGE_SIZE)
        assert space.swap_out(vma.start) is False

    def test_swap_out_nonresident_is_noop(self, space):
        vma = space.mmap(PAGE_SIZE)
        assert space.swap_out(vma.start) is False

    def test_dma_sees_stale_frame_after_swap(self, space):
        """The paper's §III pinning rationale, demonstrated: DMA against an
        unpinned, swapped-out page reads poison/garbage, not the data."""
        vma = space.mmap(PAGE_SIZE)
        space.write(vma.start, b"valid-data")
        sg = space.sg_list(vma.start, 10, fault_in=False)  # DMA address grabbed
        mem, paddr, n = next(iter(sg[0])), sg[0].paddr, sg[0].nbytes
        space.swap_out(vma.start)
        # the DMA engine still holds the old physical address
        stale = sg[0].mem.read(sg[0].paddr, 10)
        assert stale.tobytes() != b"valid-data"
