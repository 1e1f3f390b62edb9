"""Virtual address spaces: VMAs, page tables, pinning, swap, fault hooks.

This models exactly the machinery §III of the paper leans on:

* ``scif_register`` needs :meth:`AddressSpace.pin` (the get_user_pages
  model) so RMA targets cannot be swapped out from under a transfer;
* ``scif_mmap`` installs a *device* VMA whose fault handler resolves to
  Xeon Phi memory — and under vPHI the guest-side VMA is tagged
  :data:`VMAFlag.PFNPHI` carrying the host frame number, which is the
  <10-LOC KVM modification;
* the swap model makes the paper's warning concrete: an RMA against an
  unpinned page that was swapped out reads stale bytes *without* faulting,
  because DMA bypasses the page tables.

The page table is a sorted map of *runs*: maximal stretches of virtual
pages that are physically contiguous in one memory and share a pin
count.  Translating, pinning and scatter-gather cost O(runs), not
O(pages); a run splits only where a partial-range operation needs it.
"""

from __future__ import annotations

import bisect
import enum
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import BadAddress, MemError, PageFault, PinViolation
from .pages import PAGE_SHIFT, PAGE_SIZE, page_align_up, page_offset
from .physical import PhysExtent, PhysicalMemory, as_bytes

__all__ = ["VMAFlag", "VMA", "PinnedPages", "AddressSpace", "SGEntry"]


class VMAFlag(enum.IntFlag):
    """VMA permission / type flags (subset of Linux ``vm_flags``)."""

    READ = 0x1
    WRITE = 0x2
    ANON = 0x10
    #: device mapping (no anonymous backing; faults go to the handler)
    DEVICE = 0x20
    #: the paper's new tag: this VMA maps Xeon Phi memory through vPHI and
    #: stores the physical frame so KVM's fault path can resolve EPT faults.
    PFNPHI = 0x1000


#: ``fault_handler(vma, page_vaddr) -> (mem, paddr)`` resolving one page.
FaultHandler = Callable[["VMA", int], tuple[PhysicalMemory, int]]


class VMA:
    """A virtual memory area: ``[start, end)`` with flags and fault hook."""

    __slots__ = ("start", "end", "flags", "name", "fault_handler", "private")

    def __init__(
        self,
        start: int,
        end: int,
        flags: VMAFlag,
        name: str = "",
        fault_handler: Optional[FaultHandler] = None,
    ):
        self.start = start
        self.end = end
        self.flags = flags
        self.name = name
        self.fault_handler = fault_handler
        #: scratch slot for driver-private data (vPHI stores the base PFN
        #: of the mapped Xeon Phi region here — the "stored frame number").
        self.private: object = None

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VMA {self.name!r} [{self.start:#x},{self.end:#x}) {self.flags!r}>"


class _Run:
    """Pages ``[vpn, vpn + npages)`` mapped to ``[paddr, ...)`` in ``mem``.
    A run owning an extent (a demand-faulted anonymous page, freed on unmap
    or swap-out) is one page long, so no split ever divides an extent."""

    __slots__ = ("vpn", "npages", "mem", "paddr", "extent", "pins")

    def __init__(self, vpn: int, npages: int, mem: PhysicalMemory, paddr: int,
                 extent: Optional[PhysExtent] = None, pins: int = 0):
        self.vpn = vpn
        self.npages = npages
        self.mem = mem
        self.paddr = paddr
        self.extent = extent
        self.pins = pins

    @property
    def end(self) -> int:
        return self.vpn + self.npages

    def joins(self, nxt: "_Run") -> bool:
        """Whether ``nxt`` continues this run and the two may merge."""
        return (self.extent is None and nxt.extent is None and nxt.mem is self.mem
                and nxt.pins == self.pins and nxt.vpn == self.end
                and nxt.paddr == self.paddr + (self.npages << PAGE_SHIFT))


class SGEntry:
    """One physically contiguous run of a scatter-gather list."""

    __slots__ = ("mem", "paddr", "nbytes")

    def __init__(self, mem: PhysicalMemory, paddr: int, nbytes: int):
        self.mem = mem
        self.paddr = paddr
        self.nbytes = nbytes

    def __iter__(self):
        return iter((self.mem, self.paddr, self.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SG {self.mem.name!r}@{self.paddr:#x}+{self.nbytes}>"


class PinnedPages:
    """Result of :meth:`AddressSpace.pin` — holds pages resident until unpinned."""

    __slots__ = ("space", "vaddr", "nbytes", "sg", "_vpns", "active")

    def __init__(self, space: "AddressSpace", vaddr: int, nbytes: int,
                 sg: list[SGEntry], vpns: range):
        self.space = space
        self.vaddr = vaddr
        self.nbytes = nbytes
        self.sg = sg
        #: the pinned virtual page numbers
        self._vpns = vpns
        self.active = True

    def unpin(self) -> None:
        self.space.unpin(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PinnedPages {self.vaddr:#x}+{self.nbytes} runs={len(self.sg)} active={self.active}>"


class AddressSpace:
    """One process's (or one kernel's) virtual address space."""

    #: default placement base for mmap without an address hint.
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self, phys: PhysicalMemory, name: str = ""):
        self.phys = phys
        self.name = name
        self._vmas: list[VMA] = []  # sorted by start
        #: the page table: runs sorted by vpn, and their start vpns
        self._runs: list[_Run] = []
        self._starts: list[int] = []
        self._swap: dict[int, bytes] = {}  # vpn -> swapped-out contents
        self._next_map = self.MMAP_BASE
        #: counters for the experiments
        self.fault_count = 0
        self.swapin_count = 0
        self.swapout_count = 0

    # ------------------------------------------------------------------
    # VMA management
    # ------------------------------------------------------------------
    def mmap(
        self,
        length: int,
        flags: VMAFlag = VMAFlag.READ | VMAFlag.WRITE | VMAFlag.ANON,
        name: str = "",
        addr: Optional[int] = None,
        fault_handler: Optional[FaultHandler] = None,
        populate: bool = False,
    ) -> VMA:
        """Create a mapping; returns the VMA (its ``start`` is the address).

        ``populate=True`` eagerly backs an anonymous VMA with one contiguous
        extent — used by benchmark buffers so scatter-gather lists coalesce.
        """
        if length <= 0:
            raise MemError("mmap length must be positive")
        length = page_align_up(length)
        if addr is None:
            addr = self._next_map
            self._next_map += length + PAGE_SIZE  # guard page gap
        elif page_offset(addr):
            raise MemError(f"mmap hint {addr:#x} not page aligned")
        if self._overlaps(addr, addr + length):
            raise MemError(f"mmap [{addr:#x},{addr + length:#x}) overlaps existing VMA")
        lo, hi = addr >> PAGE_SHIFT, (addr + length) >> PAGE_SHIFT
        if populate:
            if fault_handler is not None:
                raise MemError("populate only applies to anonymous VMAs")
            self._drop(lo, hi, "populate")  # replaces kmap-style translations
        vma = VMA(addr, addr + length, flags, name=name, fault_handler=fault_handler)
        starts = [v.start for v in self._vmas]
        self._vmas.insert(bisect.bisect_left(starts, vma.start), vma)
        if populate:
            ext = self.phys.alloc(length, label=name or "anon")
            self._insert(_Run(lo, hi - lo, self.phys, ext.addr))
            # Remember the extent on the VMA so munmap can free it wholesale.
            vma.private = ext
        return vma

    def munmap(self, vma: VMA) -> None:
        """Drop ``vma`` and every translation inside it.  A pinned page
        raises :class:`PinViolation` and leaves everything as it was."""
        if vma not in self._vmas:
            raise MemError(f"munmap of unknown VMA {vma!r}")
        lo, hi = vma.start >> PAGE_SHIFT, vma.end >> PAGE_SHIFT
        self._drop(lo, hi, f"munmap of {vma.name!r}")
        self._vmas.remove(vma)
        for vpn in [v for v in self._swap if lo <= v < hi]:
            del self._swap[vpn]
        if isinstance(vma.private, PhysExtent) and not vma.private.freed:
            vma.private.free()

    def _overlaps(self, start: int, end: int) -> bool:
        for v in self._vmas:
            if v.start < end and start < v.end:
                return True
        return False

    def find_vma(self, vaddr: int) -> Optional[VMA]:
        starts = [v.start for v in self._vmas]
        i = bisect.bisect_right(starts, vaddr) - 1
        if i >= 0 and self._vmas[i].contains(vaddr):
            return self._vmas[i]
        return None

    # ------------------------------------------------------------------
    # the run map
    # ------------------------------------------------------------------
    def _find(self, vpn: int) -> int:
        """Index of the run mapping ``vpn``, or -1."""
        i = bisect.bisect_right(self._starts, vpn) - 1
        if i >= 0 and vpn < self._runs[i].end:
            return i
        return -1

    def _cut(self, vpn: int) -> int:
        """Split the run straddling ``vpn`` (if any) so a run boundary falls
        on it; returns the index of the first run at or after ``vpn``."""
        i = bisect.bisect_left(self._starts, vpn)
        if i:
            r = self._runs[i - 1]
            if vpn < r.end:
                k = vpn - r.vpn
                self._runs.insert(i, _Run(vpn, r.npages - k, r.mem,
                                          r.paddr + (k << PAGE_SHIFT), None, r.pins))
                self._starts.insert(i, vpn)
                r.npages = k
        return i

    def _merge(self, i: int, j: int) -> None:
        """Re-join mergeable neighbours among ``runs[i - 1:j + 1]``."""
        runs, starts = self._runs, self._starts
        for k in range(min(j, len(runs) - 1), max(i, 1) - 1, -1):
            a = runs[k - 1]
            if a.joins(runs[k]):
                a.npages += runs[k].npages
                del runs[k], starts[k]

    def _insert(self, run: _Run) -> None:
        """Add a run over unmapped pages, merging it with its neighbours."""
        i = bisect.bisect_left(self._starts, run.vpn)
        self._runs.insert(i, run)
        self._starts.insert(i, run.vpn)
        self._merge(i, i + 1)

    def _add_pins(self, lo: int, hi: int, delta: int) -> None:
        i, j = self._cut(lo), self._cut(hi)
        for r in self._runs[i:j]:
            r.pins += delta
        self._merge(i, j)

    def _drop(self, lo: int, hi: int, what: str) -> int:
        """Remove every translation in pages ``[lo, hi)`` and free the pages
        they own; returns the page count.  Raises :class:`PinViolation`,
        changing nothing, if any of them is pinned."""
        i, j = self._cut(lo), self._cut(hi)
        gone = self._runs[i:j]
        pinned = next((r for r in gone if r.pins), None)
        if pinned is not None:
            self._merge(i, j)
            raise PinViolation(f"{what}: page {pinned.vpn << PAGE_SHIFT:#x} is pinned")
        del self._runs[i:j], self._starts[i:j]
        for r in gone:
            if r.extent is not None:
                r.extent.free()
        return sum(r.npages for r in gone)

    # ------------------------------------------------------------------
    # translation and faults
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> tuple[PhysicalMemory, int]:
        """Resolve ``vaddr`` to (memory, physical address), faulting if needed."""
        mem, paddr, _ = self._piece(vaddr, vaddr + 1, fault_in=True)
        return mem, paddr

    def _piece(self, vaddr: int, end: int, fault_in: bool) -> tuple[PhysicalMemory, int, int]:
        """``(mem, paddr, n)``: the start of ``[vaddr, end)`` up to the end
        of the run that maps ``vaddr``, faulting the page in if it is absent
        (or raising :class:`PageFault` when ``fault_in`` is false)."""
        i = self._find(vaddr >> PAGE_SHIFT)
        if i < 0:
            if not fault_in:
                raise PageFault(vaddr, f"{self.name}: DMA against non-present page")
            i = self._fault(vaddr)
        r = self._runs[i]
        run_end = r.end << PAGE_SHIFT
        return r.mem, r.paddr + vaddr - (r.vpn << PAGE_SHIFT), min(run_end, end) - vaddr

    def _pieces(self, vaddr: int, nbytes: int,
                fault_in: bool = True) -> Iterator[tuple[PhysicalMemory, int, int]]:
        """Yield ``(mem, paddr, n)`` for the physically contiguous pieces of
        ``[vaddr, vaddr + nbytes)`` in address order.

        Absent pages fault in one at a time in ascending order.  When a
        page cannot be resolved, the pieces before it are yielded before
        the error is raised, so a write stops exactly at the bad page.
        """
        end = vaddr + nbytes
        while vaddr < end:
            mem, paddr, n = self._piece(vaddr, end, fault_in)
            while vaddr + n < end:
                try:
                    m2, p2, n2 = self._piece(vaddr + n, end, fault_in)
                except MemError:
                    yield mem, paddr, n
                    raise
                if m2 is not mem or p2 != paddr + n:
                    break
                n += n2
            yield mem, paddr, n
            vaddr += n

    def _fault(self, vaddr: int) -> int:
        """Map the one page holding ``vaddr``; returns its run index."""
        vma = self.find_vma(vaddr)
        if vma is None:
            raise BadAddress(f"{self.name}: no VMA maps {vaddr:#x} (SIGSEGV)")
        self.fault_count += 1
        vpn = vaddr >> PAGE_SHIFT
        if vma.fault_handler is not None:
            mem, paddr = vma.fault_handler(vma, vpn << PAGE_SHIFT)
            run = _Run(vpn, 1, mem, paddr)
        elif vma.flags & VMAFlag.ANON:
            ext = self.phys.alloc(PAGE_SIZE, label=vma.name or "anon")
            run = _Run(vpn, 1, self.phys, ext.addr, ext)
            swapped = self._swap.pop(vpn, None)
            if swapped is not None:
                self.swapin_count += 1
                self.phys.write(ext.addr, swapped)
        else:
            raise PageFault(vaddr, f"{self.name}: VMA {vma.name!r} has no backing")
        self._insert(run)
        return self._find(vpn)

    def map_page(self, vaddr: int, mem: PhysicalMemory, paddr: int) -> None:
        """Install an explicit translation (kmap-style, no VMA required)."""
        if page_offset(vaddr) or page_offset(paddr):
            raise MemError("map_page requires page-aligned addresses")
        if self.is_present(vaddr):
            raise MemError(f"page {vaddr:#x} already mapped")
        self._insert(_Run(vaddr >> PAGE_SHIFT, 1, mem, paddr))

    def unmap_page(self, vaddr: int) -> None:
        """Drop one page's translation (freeing it if it owns its frame)."""
        if not self.is_present(vaddr):
            raise MemError(f"page {vaddr:#x} not mapped")
        vpn = vaddr >> PAGE_SHIFT
        self._drop(vpn, vpn + 1, "unmap")

    def unmap_range(self, start: int, end: int) -> int:
        """Drop every translation in ``[start, end)``; returns how many
        pages were present.  Like :meth:`unmap_page`, a pinned page raises
        :class:`PinViolation` and nothing is dropped."""
        return self._drop(start >> PAGE_SHIFT, page_align_up(end) >> PAGE_SHIFT, "unmap")

    def is_present(self, vaddr: int) -> bool:
        return self._find(vaddr >> PAGE_SHIFT) >= 0

    # ------------------------------------------------------------------
    # CPU-style access (walks page tables, takes faults)
    # ------------------------------------------------------------------
    def fault_in(self, vaddr: int, nbytes: int) -> None:
        """Fault in every page of the range, as an access to it would,
        without copying anything (same faults, same order, same error)."""
        for _ in self._pieces(vaddr, nbytes):
            pass

    def read(self, vaddr: int, nbytes: int) -> np.ndarray:
        out = np.empty(nbytes, dtype=np.uint8)
        self.read_into(vaddr, out)
        return out

    def read_into(self, vaddr: int, out: np.ndarray) -> None:
        """Copy ``len(out)`` bytes at ``vaddr`` into ``out`` (a uint8 array
        or view) through the page table: ``copy_from_user``."""
        off = 0
        for mem, paddr, n in self._pieces(vaddr, len(out)):
            mem.read_into(paddr, out[off : off + n])
            off += n

    def write(self, vaddr: int, data: np.ndarray | bytes) -> None:
        data = as_bytes(data)
        off = 0
        for mem, paddr, n in self._pieces(vaddr, len(data)):
            mem.write(paddr, data[off : off + n])
            off += n

    # ------------------------------------------------------------------
    # scatter-gather resolution (the DMA view of a user buffer)
    # ------------------------------------------------------------------
    def sg_list(self, vaddr: int, nbytes: int, fault_in: bool = True) -> list[SGEntry]:
        """Resolve a virtual range to coalesced physical runs.

        ``fault_in=False`` reads the page tables *without* faulting —
        that is how DMA sees memory, and why unpinned swapped-out pages
        yield stale physical frames (:class:`PageFault` is raised here only
        if the page was never mapped at all).
        """
        if nbytes <= 0:
            return []
        return [SGEntry(mem, paddr, n) for mem, paddr, n in self._pieces(vaddr, nbytes, fault_in)]

    # ------------------------------------------------------------------
    # pinning (get_user_pages) and swap
    # ------------------------------------------------------------------
    def pin(self, vaddr: int, nbytes: int) -> PinnedPages:
        """Fault in and pin every page of ``[vaddr, vaddr+nbytes)``.

        Every page is faulted in before any is pinned, so a range that
        cannot be resolved raises with no pin taken.
        """
        if nbytes <= 0:
            raise MemError("pin length must be positive")
        lo = vaddr >> PAGE_SHIFT
        hi = page_align_up(vaddr + nbytes) >> PAGE_SHIFT
        self.fault_in(lo << PAGE_SHIFT, (hi - lo) << PAGE_SHIFT)
        self._add_pins(lo, hi, 1)
        sg = self.sg_list(vaddr, nbytes, fault_in=False)
        return PinnedPages(self, vaddr, nbytes, sg, range(lo, hi))

    def unpin(self, pinned: PinnedPages) -> None:
        if not pinned.active:
            raise PinViolation("double unpin")
        if pinned.space is not self:
            raise PinViolation("unpin against the wrong address space")
        pinned.active = False
        # nothing drops a pinned page, so every page in the range is mapped
        self._add_pins(pinned._vpns.start, pinned._vpns.stop, -1)

    def swap_out(self, vaddr: int) -> bool:
        """Evict one anonymous page to swap.  Returns False if it was pinned
        (the kernel skips pinned pages) or not present."""
        i = self._find(vaddr >> PAGE_SHIFT)
        r = self._runs[i] if i >= 0 else None
        # Leave alone what is not an anonymous page we own (device mapping /
        # populated extent), like the kernel would.
        if r is None or r.pins or r.extent is None:
            return False
        self._swap[r.vpn] = bytes(r.mem.read(r.paddr, PAGE_SIZE))
        r.extent.free()
        del self._runs[i], self._starts[i]
        self.swapout_count += 1
        return True

    def resident_pages(self) -> int:
        return sum(r.npages for r in self._runs)

    def pinned_pages(self) -> int:
        return sum(r.npages for r in self._runs if r.pins > 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AddressSpace {self.name!r} vmas={len(self._vmas)} resident={self.resident_pages()}>"
