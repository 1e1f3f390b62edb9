"""PhysicalMemory: allocator, data access, nesting, poisoning."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    BadAddress,
    MemError,
    OutOfMemory,
    PAGE_SIZE,
    POISON_BYTE,
    PhysicalMemory,
)
from repro.mem.physical import _POOL, CHUNK_SIZE

MB = 1 << 20


def test_alloc_returns_aligned_disjoint_extents():
    mem = PhysicalMemory(16 * MB, "ram")
    a = mem.alloc(5000)
    b = mem.alloc(5000)
    assert a.addr % PAGE_SIZE == 0
    assert b.addr % PAGE_SIZE == 0
    assert a.end <= b.addr or b.end <= a.addr
    # sizes round up to pages
    assert a.nbytes == 8192


def test_alloc_custom_alignment():
    mem = PhysicalMemory(16 * MB)
    mem.alloc(PAGE_SIZE)  # disturb
    ext = mem.alloc(PAGE_SIZE, align=1 << 16)
    assert ext.addr % (1 << 16) == 0


def test_alloc_bad_alignment_rejected():
    mem = PhysicalMemory(MB)
    with pytest.raises(MemError):
        mem.alloc(100, align=3)


def test_alloc_nonpositive_rejected():
    mem = PhysicalMemory(MB)
    with pytest.raises(MemError):
        mem.alloc(0)


def test_out_of_memory():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.alloc(PAGE_SIZE)
    mem.alloc(PAGE_SIZE)
    with pytest.raises(OutOfMemory):
        mem.alloc(PAGE_SIZE)


def test_free_allows_reuse_and_coalesces():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    a = mem.alloc(PAGE_SIZE)
    b = mem.alloc(PAGE_SIZE)
    c = mem.alloc(2 * PAGE_SIZE)
    a.free()
    b.free()
    c.free()
    # after freeing everything the full span is one hole again
    assert mem.largest_free_block() == 4 * PAGE_SIZE
    big = mem.alloc(4 * PAGE_SIZE)
    assert big.nbytes == 4 * PAGE_SIZE


def test_double_free_rejected():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.free()
    with pytest.raises(MemError):
        ext.free()


def test_use_after_free_rejected():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.free()
    with pytest.raises(BadAddress):
        ext.read()


def test_read_write_roundtrip():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    payload = np.arange(256, dtype=np.uint8)
    ext.write(payload, off=100)
    assert np.array_equal(ext.read(100, 256), payload)


def test_write_bytes_accepted():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.write(b"hello world")
    assert ext.read(0, 11).tobytes() == b"hello world"


def test_extent_bounds_checked():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    with pytest.raises(BadAddress):
        ext.read(0, PAGE_SIZE + 1)
    with pytest.raises(BadAddress):
        ext.write(b"x", off=PAGE_SIZE)


def test_memory_bounds_checked():
    mem = PhysicalMemory(MB)
    with pytest.raises(BadAddress):
        mem.read(MB - 1, 2)
    with pytest.raises(BadAddress):
        mem.write(MB, b"x")


def test_cross_chunk_access():
    mem = PhysicalMemory(4 * CHUNK_SIZE)
    ext = mem.alloc(2 * CHUNK_SIZE, align=PAGE_SIZE)
    # place a write straddling the chunk boundary inside the extent
    start = CHUNK_SIZE - ext.addr - 100 if ext.addr < CHUNK_SIZE else 0
    payload = np.random.default_rng(1).integers(0, 256, 300, dtype=np.uint8)
    ext.write(payload, off=start)
    assert np.array_equal(ext.read(start, 300), payload)


def test_unwritten_memory_reads_zero():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    assert not ext.read().any()


def test_freed_region_poisoned():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.write(b"secret-data!")
    addr = ext.addr
    ext.free()
    # direct physical read now sees poison, not the old contents
    got = mem.read(addr, 12)
    assert (got == POISON_BYTE).all()


def test_collected_memory_chunks_recycled_as_zeros():
    """A collected memory's chunks back later memories and read back as
    zeros; a chunk that a live view still aliases is never handed out."""
    mem = PhysicalMemory(4 * CHUNK_SIZE)
    mem.write(0, np.full(2 * CHUNK_SIZE, 0xAB, dtype=np.uint8))
    _, view = next(mem.iter_views(CHUNK_SIZE, 16))
    gc.collect()
    before = len(_POOL._free)
    del mem
    gc.collect()
    assert before == _POOL.limit or len(_POOL._free) > before
    assert all(chunk is not view.base for chunk in _POOL._free)
    fresh = [PhysicalMemory(4 * CHUNK_SIZE) for _ in range(4)]
    for m in fresh:
        assert not m.read(0, 4 * CHUNK_SIZE).any()
        m.write(0, np.full(4 * CHUNK_SIZE, 0x11, dtype=np.uint8))
    assert (view == 0xAB).all()
    assert len(_POOL._free) <= _POOL.limit


def test_partial_materialization_zeroes_a_dirty_recycled_chunk():
    """A chunk first touched by a misaligned write or copy is taken from
    the pool without a zero pass; every byte outside the written span
    still reads back as zero, however dirty the recycled chunk was."""
    scrap = PhysicalMemory(8 * CHUNK_SIZE)
    scrap.write(0, np.ones(8 * CHUNK_SIZE, dtype=np.uint8))
    del scrap
    gc.collect()
    assert len(_POOL._free) >= 5
    for chunk in _POOL._free:
        chunk.fill(0xAB)
    dirty = {id(chunk) for chunk in _POOL._free}
    mem = PhysicalMemory(4 * CHUNK_SIZE)
    src = PhysicalMemory(CHUNK_SIZE)
    src.write(0, np.full(5000, 0x22, dtype=np.uint8))
    mem.write(CHUNK_SIZE - 1000, np.full(3000, 0x11, dtype=np.uint8))
    PhysicalMemory.copy(mem, 3 * CHUNK_SIZE - 2000, src, 0, 5000)
    assert sorted(mem._chunks) == [0, 1, 2, 3]
    assert all(id(chunk) in dirty for chunk in mem._chunks.values())
    want = np.zeros(4 * CHUNK_SIZE, dtype=np.uint8)
    want[CHUNK_SIZE - 1000 : CHUNK_SIZE + 2000] = 0x11
    want[3 * CHUNK_SIZE - 2000 : 3 * CHUNK_SIZE + 3000] = 0x22
    assert np.array_equal(mem.read(0, 4 * CHUNK_SIZE), want)


def test_extent_write_bounds_a_wide_dtype_in_bytes():
    """4096 int32 elements are 16 KiB: too big for a 4 KiB extent, and
    refused before a byte of the neighbouring extent is touched."""
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    neighbour = mem.alloc(PAGE_SIZE)
    neighbour.fill(0x5A)
    with pytest.raises(BadAddress):
        ext.write(np.arange(PAGE_SIZE, dtype=np.int32))
    assert (neighbour.read() == 0x5A).all()
    words = np.arange(PAGE_SIZE // 4, dtype=np.int32)
    ext.write(words)
    assert np.array_equal(ext.read(), words.view(np.uint8))


def test_fill():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.fill(0xAB)
    assert (ext.read() == 0xAB).all()
    ext.fill(0x00, off=10, nbytes=10)
    assert (ext.read(10, 10) == 0).all()


def test_copy_between_memories():
    src = PhysicalMemory(MB, "a")
    dst = PhysicalMemory(MB, "b")
    se = src.alloc(PAGE_SIZE)
    de = dst.alloc(PAGE_SIZE)
    se.write(b"payload-x")
    PhysicalMemory.copy(dst, de.addr, src, se.addr, 9)
    assert de.read(0, 9).tobytes() == b"payload-x"


def test_copy_within():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(2 * PAGE_SIZE)
    ext.write(b"abcd")
    mem.copy_within(ext.addr + PAGE_SIZE, ext.addr, 4)
    assert ext.read(PAGE_SIZE, 4).tobytes() == b"abcd"


class TestNested:
    def test_carve_creates_window_into_parent(self):
        host = PhysicalMemory(64 * MB, "host")
        guest = host.carve(8 * MB, name="vm0-ram")
        guest.write(0x1000, b"guest-bytes")
        # the same bytes are visible at host physical base+0x1000
        base = guest.host_base
        assert host.read(base + 0x1000, 11).tobytes() == b"guest-bytes"

    def test_nested_alloc_and_bounds(self):
        host = PhysicalMemory(64 * MB, "host")
        guest = host.carve(4 * MB, name="vm0-ram")
        ext = guest.alloc(PAGE_SIZE)
        ext.write(b"inner")
        assert ext.read(0, 5).tobytes() == b"inner"
        with pytest.raises(BadAddress):
            guest.read(4 * MB, 1)

    def test_two_level_nesting_host_base(self):
        root = PhysicalMemory(64 * MB, "root")
        mid = root.carve(16 * MB, name="mid")
        leaf = mid.carve(4 * MB, name="leaf")
        leaf.write(0, b"Z")
        assert root.read(leaf.host_base, 1).tobytes() == b"Z"
        assert leaf.root() is root

    def test_accounting(self):
        mem = PhysicalMemory(MB)
        assert mem.bytes_free == MB
        e = mem.alloc(3 * PAGE_SIZE)
        assert mem.bytes_allocated == 3 * PAGE_SIZE
        assert mem.bytes_free == MB - 3 * PAGE_SIZE
        e.free()
        assert mem.bytes_allocated == 0


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6 * PAGE_SIZE),  # alloc size
            st.booleans(),  # free it afterwards in this round?
        ),
        min_size=1,
        max_size=25,
    )
)
def test_allocator_never_overlaps_and_conserves(ops):
    """Property: live extents never overlap; free+allocated == size."""
    mem = PhysicalMemory(256 * PAGE_SIZE)
    live = []
    for size, do_free in ops:
        try:
            ext = mem.alloc(size)
        except OutOfMemory:
            continue
        for other in live:
            assert ext.end <= other.addr or other.end <= ext.addr
        if do_free:
            ext.free()
        else:
            live.append(ext)
        assert mem.bytes_free + mem.bytes_allocated == mem.size


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * PAGE_SIZE - 1),
            st.binary(min_size=1, max_size=600),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_read_back_matches_reference_model(writes):
    """Property: PhysicalMemory behaves like a flat bytearray."""
    mem = PhysicalMemory(4 * PAGE_SIZE)
    ref = bytearray(4 * PAGE_SIZE)
    for off, data in writes:
        data = data[: 4 * PAGE_SIZE - off]
        if not data:
            continue
        mem.write(off, data)
        ref[off : off + len(data)] = data
    assert mem.read(0, 4 * PAGE_SIZE).tobytes() == bytes(ref)
