"""Physical memory model: sparse, chunk-backed, byte-addressable.

Each simulated RAM (host DDR3, guest RAM, Xeon Phi GDDR5) is a
:class:`PhysicalMemory`.  Storage is materialized lazily in fixed-size
chunks of one numpy array each, so a simulated 64 GB host costs nothing
until written, while bulk copies still run at numpy speed (the guides'
"views, not copies" rule: all internal transfers slice chunk arrays
directly).

A :class:`PhysicalMemory` can be *nested*: a VM's RAM is carved out of an
extent of host RAM, so guest-physical address ``g`` **is** host-physical
``base + g`` and the QEMU backend's zero-copy access to guest buffers falls
out of the representation instead of being faked.
"""

from __future__ import annotations

import bisect
import sys
import weakref
from typing import Iterator, Optional

import numpy as np

from .errors import BadAddress, MemError, OutOfMemory
from .pages import PAGE_SIZE, page_align_up

__all__ = ["PhysicalMemory", "PhysExtent", "CHUNK_SIZE", "POISON_BYTE", "as_bytes"]

#: Materialization granularity of backing storage.
CHUNK_SIZE = 1 << 20  # 1 MiB

#: Pattern written into freshly *reused* frames so stale reads are detectable
#: (the paper's pinning discussion: an RMA against a swapped-out page reads
#: whatever now occupies the frame).
POISON_BYTE = 0xDD


class _ChunkPool:
    """Backing chunks of collected memories, kept for the next memory.

    A fresh 1 MiB array costs 256 host page faults on first touch, or
    none when the allocator happens to reuse memory it still holds, so a
    workload that builds a machine, drops it and builds the next one ran
    at a speed set by the allocator's state.  Recycling chunks makes that
    cost the same every time.  A chunk still referenced outside its
    memory (a live view) is left to the garbage collector.
    """

    #: at most 256 MiB of recycled chunks
    limit = 256

    def __init__(self):
        self._free: list[np.ndarray] = []

    def zeros(self) -> np.ndarray:
        if not self._free:
            return np.zeros(CHUNK_SIZE, dtype=np.uint8)
        chunk = self._free.pop()
        chunk.fill(0)
        return chunk

    def blank(self, lo: int, hi: int) -> np.ndarray:
        """A chunk whose bytes ``[lo, hi)`` are about to be overwritten:
        only the bytes outside that span are zeroed."""
        if not self._free:
            chunk = np.empty(CHUNK_SIZE, dtype=np.uint8)
        else:
            chunk = self._free.pop()
        chunk[:lo] = 0
        chunk[hi:] = 0
        return chunk

    def release(self, chunks: dict) -> None:
        free = self._free
        while chunks:
            _, chunk = chunks.popitem()
            # two references: ``chunk`` and getrefcount's argument
            if len(free) < self.limit and sys.getrefcount(chunk) == 2:
                free.append(chunk)


_POOL = _ChunkPool()


_UINT8 = np.dtype(np.uint8)


def as_bytes(data) -> np.ndarray:
    """``data`` as a flat uint8 array, a view of it where possible.

    Every size in the memory model counts bytes: a caller's ``int32``
    array of 2048 elements is 8 KiB here, not 2048 bytes.
    """
    if not isinstance(data, np.ndarray):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    if data.dtype != _UINT8 or data.ndim != 1:
        data = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    return data


class PhysExtent:
    """A contiguous physical byte range owned by an allocation."""

    __slots__ = ("mem", "addr", "nbytes", "_freed", "label")

    def __init__(self, mem: "PhysicalMemory", addr: int, nbytes: int, label: str = ""):
        self.mem = mem
        self.addr = addr
        self.nbytes = nbytes
        self.label = label
        self._freed = False

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    @property
    def freed(self) -> bool:
        return self._freed

    def _check(self, off: int, n: int) -> None:
        if self._freed:
            raise BadAddress(f"use-after-free of extent {self.label!r}@{self.addr:#x}")
        if off < 0 or n < 0 or off + n > self.nbytes:
            raise BadAddress(
                f"extent {self.label!r} access [{off}, {off + n}) outside size {self.nbytes}"
            )

    def read(self, off: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        return self.mem.read(self.addr + off, nbytes)

    def read_into(self, out: np.ndarray, off: int = 0) -> None:
        """Copy extent bytes directly into ``out`` (a uint8 array or view)."""
        self._check(off, len(out))
        self.mem.read_into(self.addr + off, out)

    def iter_views(self, off: int = 0, nbytes: Optional[int] = None):
        """Yield ``(offset, chunk_view)`` pairs covering the range, zero-copy."""
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        return self.mem.iter_views(self.addr + off, nbytes)

    def write_views(self, off: int = 0, nbytes: Optional[int] = None):
        """Yield ``(offset, chunk_view)`` pairs for overwriting the range
        (see :meth:`PhysicalMemory.write_views`)."""
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        return self.mem.write_views(self.addr + off, nbytes)

    def write(self, data: np.ndarray | bytes, off: int = 0) -> None:
        data = as_bytes(data)
        self._check(off, len(data))
        self.mem.write(self.addr + off, data)

    def fill(self, byte: int, off: int = 0, nbytes: Optional[int] = None) -> None:
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        self.mem.fill(self.addr + off, nbytes, byte)

    def free(self) -> None:
        self.mem.free(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PhysExtent {self.label!r} [{self.addr:#x}, {self.end:#x}) in {self.mem.name!r}>"


class PhysicalMemory:
    """Byte-addressable physical memory with a first-fit range allocator."""

    def __init__(
        self,
        size: int,
        name: str = "",
        parent: Optional[PhysExtent] = None,
    ):
        if size <= 0:
            raise ValueError("memory size must be positive")
        if parent is not None and parent.nbytes < size:
            raise ValueError("parent extent smaller than requested memory size")
        self.size = size
        self.name = name
        self.parent = parent
        # Free list: sorted list of [start, end) holes.
        self._holes: list[tuple[int, int]] = [(0, size)]
        self._extents: dict[int, PhysExtent] = {}
        self._chunks: dict[int, np.ndarray] = {}
        #: bytes currently allocated (accounting).
        self.bytes_allocated = 0
        weakref.finalize(self, _POOL.release, self._chunks).atexit = False

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = PAGE_SIZE, label: str = "") -> PhysExtent:
        """Allocate a physically contiguous, ``align``-aligned extent."""
        if nbytes <= 0:
            raise MemError("allocation size must be positive")
        if align <= 0 or (align & (align - 1)):
            raise MemError(f"alignment must be a power of two, got {align}")
        nbytes = page_align_up(nbytes)
        for i, (start, end) in enumerate(self._holes):
            base = (start + align - 1) & ~(align - 1)
            if base + nbytes <= end:
                # Split the hole around [base, base+nbytes).
                newholes = []
                if start < base:
                    newholes.append((start, base))
                if base + nbytes < end:
                    newholes.append((base + nbytes, end))
                self._holes[i : i + 1] = newholes
                ext = PhysExtent(self, base, nbytes, label=label)
                self._extents[base] = ext
                self.bytes_allocated += nbytes
                return ext
        raise OutOfMemory(
            f"{self.name or 'memory'}: cannot allocate {nbytes} bytes "
            f"(allocated {self.bytes_allocated}/{self.size})"
        )

    def free(self, extent: PhysExtent) -> None:
        if extent.mem is not self:
            raise MemError("extent belongs to a different memory")
        if extent._freed:
            raise MemError(f"double free of extent @{extent.addr:#x}")
        stored = self._extents.pop(extent.addr, None)
        if stored is not extent:
            raise MemError(f"unknown extent @{extent.addr:#x}")
        extent._freed = True
        self.bytes_allocated -= extent.nbytes
        # Scribble poison over freed storage (only where chunks are already
        # materialized — untouched chunks still read back as poison-free
        # zeros, which is fine: they held no data to leak).  A later reuse of
        # the range sees garbage, not the old contents, which is what makes
        # stale reads against swapped/freed frames detectable in the pinning
        # experiments.
        first = extent.addr // CHUNK_SIZE
        last = (extent.end - 1) // CHUNK_SIZE
        for ci in range(first, last + 1):
            if ci in self._chunks:
                lo = max(extent.addr - ci * CHUNK_SIZE, 0)
                hi = min(extent.end - ci * CHUNK_SIZE, CHUNK_SIZE)
                self._chunks[ci][lo:hi] = POISON_BYTE
        self._insert_hole(extent.addr, extent.end)

    def _insert_hole(self, start: int, end: int) -> None:
        starts = [h[0] for h in self._holes]
        i = bisect.bisect_left(starts, start)
        self._holes.insert(i, (start, end))
        # Coalesce with neighbours.
        merged: list[tuple[int, int]] = []
        for s, e in self._holes:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._holes = merged

    @property
    def bytes_free(self) -> int:
        return sum(e - s for s, e in self._holes)

    def largest_free_block(self) -> int:
        return max((e - s for s, e in self._holes), default=0)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def _bounds(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise BadAddress(
                f"{self.name or 'memory'}: access [{addr:#x}, {addr + nbytes:#x}) "
                f"outside size {self.size:#x}"
            )

    def _chunk(self, index: int) -> np.ndarray:
        chunk = self._chunks.get(index)
        if chunk is None:
            chunk = self._chunks[index] = _POOL.zeros()
        return chunk

    def _spans(self, addr: int, nbytes: int) -> Iterator[tuple[np.ndarray, int, int, int]]:
        """Yield ``(chunk, chunk_lo, chunk_hi, dest_off)`` covering the range."""
        off = 0
        while off < nbytes:
            a = addr + off
            ci, co = divmod(a, CHUNK_SIZE)
            n = min(CHUNK_SIZE - co, nbytes - off)
            yield self._chunk(ci), co, co + n, off
            off += n

    def _resolve(self, addr: int) -> tuple["PhysicalMemory", int]:
        """Flatten a nested address to (root memory, root address).

        Walks the parent chain once instead of recursing through each
        level's read/write; liveness of every intermediate extent is still
        enforced so use-after-free of a carved region keeps raising.
        """
        mem: PhysicalMemory = self
        while mem.parent is not None:
            ext = mem.parent
            if ext._freed:
                raise BadAddress(
                    f"use-after-free of extent {ext.label!r}@{ext.addr:#x}"
                )
            addr += ext.addr
            mem = ext.mem
        return mem, addr

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` out as a fresh uint8 array."""
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        ci, co = divmod(addr, CHUNK_SIZE)
        if co + nbytes <= CHUNK_SIZE:
            return mem._chunk(ci)[co : co + nbytes].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            out[doff : doff + (hi - lo)] = chunk[lo:hi]
        return out

    def read_into(self, addr: int, out: np.ndarray) -> None:
        """Copy ``len(out)`` bytes directly into ``out`` — one copy, no temp."""
        nbytes = len(out)
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        ci, co = divmod(addr, CHUNK_SIZE)
        if co + nbytes <= CHUNK_SIZE:
            out[:] = mem._chunk(ci)[co : co + nbytes]
            return
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            out[doff : doff + (hi - lo)] = chunk[lo:hi]

    def iter_views(self, addr: int, nbytes: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, chunk_view)`` pairs covering the range.

        The views alias live backing storage — callers must consume (copy)
        each one before the next simulated write can touch the range.
        """
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            yield doff, chunk[lo:hi]

    def write_views(self, addr: int, nbytes: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, chunk_view)`` pairs for overwriting the range.

        A chunk first materialized here has only the bytes outside the
        range zeroed, so the caller must fill every view it is given.
        """
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        chunks = mem._chunks
        off = 0
        while off < nbytes:
            ci, co = divmod(addr + off, CHUNK_SIZE)
            take = min(CHUNK_SIZE - co, nbytes - off)
            chunk = chunks.get(ci)
            if chunk is None:
                chunk = chunks[ci] = _POOL.blank(co, co + take)
            yield off, chunk[co : co + take]
            off += take

    def write(self, addr: int, data: np.ndarray | bytes) -> None:
        data = as_bytes(data)
        for off, view in self.write_views(addr, len(data)):
            view[:] = data[off : off + len(view)]

    def fill(self, addr: int, nbytes: int, byte: int) -> None:
        for _, view in self.write_views(addr, nbytes):
            view[:] = byte

    def copy_within(self, dst: int, src: int, nbytes: int) -> None:
        """memmove-style copy inside this memory."""
        self.write(dst, self.read(src, nbytes))

    @staticmethod
    def copy(
        dst_mem: "PhysicalMemory",
        dst: int,
        src_mem: "PhysicalMemory",
        src: int,
        nbytes: int,
    ) -> None:
        """Copy between two physical memories (the DMA engine's data move).

        Reads the source straight into the destination's chunk views —
        one copy per span instead of a full read into a temporary followed
        by a full write, and no zero pass over the bytes of a chunk the
        copy is first to touch.
        Overlapping same-root ranges fall back to the copy-via-temporary
        path so the memmove semantics are preserved.
        """
        src_mem._bounds(src, nbytes)
        dst_mem._bounds(dst, nbytes)
        smem, s = src_mem._resolve(src) if src_mem.parent is not None else (src_mem, src)
        dmem, d = dst_mem._resolve(dst) if dst_mem.parent is not None else (dst_mem, dst)
        if smem is dmem and s < d + nbytes and d < s + nbytes:
            dst_mem.write(dst, src_mem.read(src, nbytes))
            return
        for off, view in dmem.write_views(d, nbytes):
            smem.read_into(s + off, view)

    def carve(self, nbytes: int, name: str = "", label: str = "") -> "PhysicalMemory":
        """Allocate an extent and wrap it as a nested PhysicalMemory.

        This is how a VM's RAM is created out of host RAM.
        """
        ext = self.alloc(nbytes, label=label or name)
        return PhysicalMemory(nbytes, name=name, parent=ext)

    @property
    def host_base(self) -> int:
        """For nested memories: offset of address 0 in the root memory."""
        base = 0
        mem: Optional[PhysicalMemory] = self
        while mem is not None and mem.parent is not None:
            base += mem.parent.addr
            mem = mem.parent.mem
        return base

    def root(self) -> "PhysicalMemory":
        mem = self
        while mem.parent is not None:
            mem = mem.parent.mem
        return mem

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PhysicalMemory {self.name!r} size={self.size:#x} "
            f"alloc={self.bytes_allocated:#x} nested={self.parent is not None}>"
        )
