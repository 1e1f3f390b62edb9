"""KMALLOC_MAX_SIZE chunking (§III, *Implementation details*).

"Linux memory subsystem imposes a limitation on the maximum set of
physically contiguous pages ... for x86_64 ... the limit is 4MB.  Hence,
if the requested data size is greater than this value, we implement the
data transfer breaking up the allocation to KMALLOC_MAX_SIZE elements and
proceed with each one of them."
"""

from __future__ import annotations

import numpy as np

from ..mem import KMALLOC_MAX_SIZE, AddressSpace, KernelAllocator, PhysExtent

__all__ = ["chunk_plan", "BounceBuffers", "UserRange"]


def chunk_plan(nbytes: int, chunk_size: int = KMALLOC_MAX_SIZE) -> list[int]:
    """Split ``nbytes`` into chunk sizes, each <= ``chunk_size``."""
    if nbytes < 0:
        raise ValueError("negative size")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    out = []
    left = nbytes
    while left > 0:
        take = min(chunk_size, left)
        out.append(take)
        left -= take
    return out


class UserRange:
    """``nbytes`` of user memory at ``vaddr``: a payload that is copied
    through the page table when the bounce chunks are filled (step 3i,
    ``copy_from_user``), not when the call is made.  Slicing gives the
    sub-range a segmented submit copies."""

    __slots__ = ("space", "vaddr", "nbytes")

    def __init__(self, space: AddressSpace, vaddr: int, nbytes: int):
        self.space = space
        self.vaddr = vaddr
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __getitem__(self, s: slice) -> "UserRange":
        start, stop, _ = s.indices(self.nbytes)
        return UserRange(self.space, self.vaddr + start, stop - start)

    def read_into(self, off: int, out: np.ndarray) -> None:
        self.space.read_into(self.vaddr + off, out)


class BounceBuffers:
    """A set of kmalloc'd guest-contiguous chunks covering one transfer."""

    __slots__ = ("allocator", "extents", "sizes", "nbytes")

    def __init__(self, allocator: KernelAllocator, nbytes: int, chunk_size: int,
                 label: str = "vphi-bounce"):
        self.allocator = allocator
        self.nbytes = nbytes
        self.sizes = chunk_plan(nbytes, chunk_size)
        self.extents: list[PhysExtent] = []
        try:
            for size in self.sizes:
                self.extents.append(allocator.kmalloc(size, label=label))
        except Exception:
            self.free()
            raise

    def descriptors(self) -> list[tuple[int, int]]:
        """(guest_physical_addr, len) pairs for the virtio chain."""
        return [(ext.addr, size) for ext, size in zip(self.extents, self.sizes)]

    def scatter(self, src) -> None:
        """Copy ``src`` into the chunks (3i, the guest user->kernel copy).

        ``src`` is a flat uint8 payload or a :class:`UserRange`; either
        way each byte is copied once, straight into chunk storage.
        """
        if isinstance(src, UserRange):
            read_into = src.read_into
        else:
            def read_into(off, out):
                out[:] = src[off : off + len(out)]
        base = 0
        for ext, size in zip(self.extents, self.sizes):
            for off, view in ext.write_views(0, size):
                try:
                    read_into(base + off, view)
                except Exception:
                    # a user page gone since the call was checked: zero
                    # the view rather than leave a recycled chunk's old
                    # bytes in it (copy_from_user zero-fills the same way)
                    view[:] = 0
                    raise
            base += size

    def gather(self, nbytes: int | None = None):
        """Concatenate chunk contents back into a flat array."""
        n = self.nbytes if nbytes is None else min(nbytes, self.nbytes)
        out = np.empty(n, dtype=np.uint8)
        off = 0
        for ext, size in zip(self.extents, self.sizes):
            take = min(size, n - off)
            if take <= 0:
                break
            ext.read_into(out[off : off + take])
            off += take
        return out

    def scatter_to(self, consume, nbytes: int | None = None) -> int:
        """Stream chunk contents to ``consume(offset, view)`` without the
        flat intermediate array :meth:`gather` allocates.

        The views alias live chunk storage; ``consume`` must copy them out
        before returning.  Returns bytes streamed.
        """
        n = self.nbytes if nbytes is None else min(nbytes, self.nbytes)
        off = 0
        for ext, size in zip(self.extents, self.sizes):
            take = min(size, n - off)
            if take <= 0:
                break
            for voff, view in ext.iter_views(0, take):
                consume(off + voff, view)
            off += take
        return off

    def free(self) -> None:
        for ext in self.extents:
            if not ext.freed:
                self.allocator.kfree(ext)
        self.extents.clear()

    def __len__(self) -> int:
        return len(self.extents)
