"""Guest-side libscif: the same API, virtualization underneath.

"vPHI is binary-compatible with precompiled applications, alleviating the
need for porting or even recompiling existing source code" (§I).  In this
reproduction that claim is rendered as *call-compatibility*:
:class:`GuestScif` exposes exactly the :class:`~repro.scif.NativeScif`
method set with the same semantics, so the same client code runs
unmodified on the host or inside a VM — only the object it is handed
differs.  Underneath, every call is intercepted by the frontend driver
and forwarded over virtio (Fig 3, steps 3a-3e).

Marshalling is generic: each wrapper hands its scalar arguments to
:meth:`GuestScif._forward`, which looks the operation up in the
:mod:`~repro.vphi.ops` registry and applies that op's declared argument
specs (defaults, wire conversions).  The wrappers keep only what is
genuinely guest-side: page pinning, VMA management, endpoint bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..kvm.fault import PfnPhiInfo
from ..mem import PAGE_SIZE, PinnedPages, VMA, VMAFlag, is_page_aligned
from ..oscore import OSProcess
from ..scif import (
    EINVAL, ENOTCONN, MapFlag, PollEvent, Prot, RecvFlag, RmaFlag, SendFlag,
)
from ..scif.api import DataLike, as_bytes_array
from .chunking import UserRange
from .frontend import VPhiFrontend
from .ops import spec_for
from .protocol import VPhiOp

__all__ = ["GuestEndpoint", "GuestScif"]


class GuestEndpoint:
    """The guest's endpoint descriptor: an opaque backend handle."""

    __slots__ = ("handle", "port", "peer_addr", "_windows")

    def __init__(self, handle: int):
        self.handle = handle
        self.port: Optional[int] = None
        self.peer_addr: Optional[tuple[int, int]] = None
        #: RAS offset -> guest-side pin to release on unregister.
        self._windows: dict[int, PinnedPages] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GuestEndpoint h={self.handle} port={self.port}>"


class GuestScif:
    """libscif inside the guest, running over the vPHI frontend."""

    def __init__(self, frontend: VPhiFrontend, process: OSProcess):
        self.frontend = frontend
        self.vm = frontend.vm
        self.sim = frontend.sim
        self.process = process

    # ------------------------------------------------------------------
    def _forward(
        self,
        op: VPhiOp,
        ep: Optional[GuestEndpoint] = None,
        out_data=None,
        in_nbytes: int = 0,
        segment_args=None,
        in_sink=None,
        **call_args,
    ):
        """Marshal one intercepted call from its op spec and forward it.

        The registry supplies the marshal rules (scalar args, defaults,
        wire conversions); the frontend does the rest of Fig 3.
        Returns ``(result, in_data)``.
        """
        spec = spec_for(op)
        result, data = yield from self.frontend.submit(
            op,
            handle=ep.handle if spec.wants_endpoint and ep is not None else 0,
            args=spec.marshal(call_args),
            out_data=out_data,
            in_nbytes=in_nbytes,
            segment_args=segment_args,
            in_sink=in_sink,
        )
        return result, data

    def _ensure_connected(self, ep: GuestEndpoint) -> None:
        """Native libscif rejects ENOTCONN *before* validating arguments;
        the shim must check in the same order or a caller could tell the
        stacks apart by which errno a doubly-bad call returns."""
        if ep.peer_addr is None:
            raise ENOTCONN(f"endpoint h={ep.handle} is not connected")

    # ------------------------------------------------------------------
    # endpoint lifecycle
    # ------------------------------------------------------------------
    def open(self):
        handle, _ = yield from self._forward(VPhiOp.OPEN)
        return GuestEndpoint(handle)

    def close(self, ep: GuestEndpoint):
        for pinned in ep._windows.values():
            if pinned.active:
                pinned.unpin()
        ep._windows.clear()
        yield from self._forward(VPhiOp.CLOSE, ep)
        return 0

    def bind(self, ep: GuestEndpoint, port: int = 0):
        bound, _ = yield from self._forward(VPhiOp.BIND, ep, port=port)
        ep.port = bound
        return bound

    def listen(self, ep: GuestEndpoint, backlog: int = 16):
        yield from self._forward(VPhiOp.LISTEN, ep, backlog=backlog)
        return 0

    def connect(self, ep: GuestEndpoint, addr: tuple[int, int]):
        port, _ = yield from self._forward(VPhiOp.CONNECT, ep, addr=addr)
        ep.port = port
        ep.peer_addr = tuple(addr)
        return port

    def accept(self, lep: GuestEndpoint, block: bool = True):
        (handle, peer), _ = yield from self._forward(VPhiOp.ACCEPT, lep, block=block)
        conn = GuestEndpoint(handle)
        conn.port = lep.port
        conn.peer_addr = tuple(peer)
        return conn, tuple(peer)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, ep: GuestEndpoint, data: DataLike,
             flags: SendFlag = SendFlag.SCIF_SEND_BLOCK):
        payload = as_bytes_array(data)
        n, _ = yield from self._forward(
            VPhiOp.SEND, ep, out_data=payload, flags=flags
        )
        return n

    def recv(self, ep: GuestEndpoint, nbytes: int,
             flags: RecvFlag = RecvFlag.SCIF_RECV_BLOCK):
        n, data = yield from self._forward(
            VPhiOp.RECV, ep, in_nbytes=nbytes, nbytes=nbytes, flags=flags
        )
        if data is None:
            data = np.empty(0, dtype=np.uint8)
        return data[:n]

    # ------------------------------------------------------------------
    # registration / RMA
    # ------------------------------------------------------------------
    def register(
        self,
        ep: GuestEndpoint,
        vaddr: int,
        nbytes: int,
        offset: Optional[int] = None,
        prot: Prot = Prot.SCIF_PROT_READ | Prot.SCIF_PROT_WRITE,
        flags: MapFlag = MapFlag.NONE,
    ):
        """Pin guest user pages, hand their (guest-physical == host-
        physical) scatter list to the backend (§III, *Guest memory
        registration*)."""
        self._ensure_connected(ep)
        if not is_page_aligned(vaddr) or nbytes <= 0 or nbytes % PAGE_SIZE:
            raise EINVAL("scif_register requires page-aligned addr and length")
        if not (flags & MapFlag.SCIF_MAP_FIXED):
            offset = None
        elif offset is None:
            raise EINVAL("SCIF_MAP_FIXED requires an offset")
        pinned = self.process.address_space.pin(vaddr, nbytes)
        try:
            ras_offset, _ = yield from self._forward(
                VPhiOp.REGISTER, ep,
                sg=pinned.sg, nbytes=nbytes, offset=offset, prot=prot,
            )
        except Exception:
            pinned.unpin()
            raise
        ep._windows[ras_offset] = pinned
        return ras_offset

    def unregister(self, ep: GuestEndpoint, offset: int):
        yield from self._forward(VPhiOp.UNREGISTER, ep, offset=offset)
        pinned = ep._windows.pop(offset, None)
        if pinned is not None and pinned.active:
            pinned.unpin()
        return 0

    def readfrom(self, ep: GuestEndpoint, loffset: int, nbytes: int, roffset: int,
                 flags: RmaFlag = RmaFlag.NONE):
        n, _ = yield from self._forward(
            VPhiOp.READFROM, ep,
            loffset=loffset, nbytes=nbytes, roffset=roffset, flags=flags,
        )
        return n

    def writeto(self, ep: GuestEndpoint, loffset: int, nbytes: int, roffset: int,
                flags: RmaFlag = RmaFlag.NONE):
        n, _ = yield from self._forward(
            VPhiOp.WRITETO, ep,
            loffset=loffset, nbytes=nbytes, roffset=roffset, flags=flags,
        )
        return n

    def vreadfrom(self, ep: GuestEndpoint, vaddr: int, nbytes: int, roffset: int,
                  flags: RmaFlag = RmaFlag.NONE):
        """Remote window -> guest user buffer, bounced through kmalloc
        chunks (§III *Implementation details*: the receive/read case)."""
        self._ensure_connected(ep)
        if nbytes <= 0:
            raise EINVAL("RMA length must be positive")
        # copy_to_user per bounce chunk: the payload streams from the
        # kmalloc chunks straight into the user buffer, so no flat
        # kernel-side staging array is ever allocated.
        space = self.process.address_space
        n, _ = yield from self._forward(
            VPhiOp.VREADFROM, ep,
            in_nbytes=nbytes,
            segment_args=lambda a, off: {**a, "roffset": roffset + off},
            in_sink=lambda off, view: space.write(vaddr + off, view),
            roffset=roffset, flags=flags,
        )
        return n

    def vwriteto(self, ep: GuestEndpoint, vaddr: int, nbytes: int, roffset: int,
                 flags: RmaFlag = RmaFlag.NONE):
        """Guest user buffer -> remote window (the send/write case)."""
        self._ensure_connected(ep)
        if nbytes <= 0:
            raise EINVAL("RMA length must be positive")
        # the range is faulted in and checked now, before anything is
        # forwarded; its bytes are copied at 3i, straight from the user
        # pages into the bounce chunks (copy_from_user per chunk).
        space = self.process.address_space
        space.fault_in(vaddr, nbytes)
        n, _ = yield from self._forward(
            VPhiOp.VWRITETO, ep,
            out_data=UserRange(space, vaddr, nbytes),
            segment_args=lambda a, off: {**a, "roffset": roffset + off},
            roffset=roffset, flags=flags,
        )
        return n

    # ------------------------------------------------------------------
    # mmap: the two-level mapping with the VM_PFNPHI tag
    # ------------------------------------------------------------------
    def mmap(self, ep: GuestEndpoint, roffset: int, nbytes: int,
             prot: Prot = Prot.SCIF_PROT_READ | Prot.SCIF_PROT_WRITE) -> VMA:
        self._ensure_connected(ep)
        if nbytes <= 0 or nbytes % PAGE_SIZE or roffset % PAGE_SIZE:
            raise EINVAL("scif_mmap requires page-aligned offset and length")
        info, _ = yield from self._forward(
            VPhiOp.MMAP, ep, roffset=roffset, nbytes=nbytes, prot=prot
        )
        assert isinstance(info, PfnPhiInfo)
        space = self.process.address_space
        flags = VMAFlag.DEVICE | VMAFlag.PFNPHI
        if prot & Prot.SCIF_PROT_READ:
            flags |= VMAFlag.READ
        if prot & Prot.SCIF_PROT_WRITE:
            flags |= VMAFlag.WRITE
        # Every fault on this VMA goes through the (modified) KVM module,
        # which spots the PFNPHI tag and resolves to Xeon Phi memory.
        vma = space.mmap(
            nbytes, flags=flags,
            fault_handler=lambda v, a: self.vm.mmu.handle_fault(space, v, a),
            name=f"vphi-mmap@{roffset:#x}",
        )
        vma.private = info
        # the session journal remembers this mapping so a card reset can
        # re-establish it: replay swaps vma.private for the fresh PFN info
        # and zaps the stale EPT entries (faults then resolve anew).
        self.frontend.session.attach_vma(ep.handle, roffset, vma, space)
        return vma

    def munmap(self, vma: VMA):
        yield self.sim.timeout(0)
        self.frontend.session.detach_vma(vma)
        self.process.address_space.munmap(vma)
        return 0

    # ------------------------------------------------------------------
    # fences, poll, node ids
    # ------------------------------------------------------------------
    def fence_mark(self, ep: GuestEndpoint):
        mark, _ = yield from self._forward(VPhiOp.FENCE_MARK, ep)
        return mark

    def fence_wait(self, ep: GuestEndpoint, mark: int):
        yield from self._forward(VPhiOp.FENCE_WAIT, ep, mark=mark)
        return 0

    def fence_signal(self, ep: GuestEndpoint, loffset, lval: int,
                     roffset, rval: int):
        yield from self._forward(
            VPhiOp.FENCE_SIGNAL, ep,
            loffset=loffset, lval=lval, roffset=roffset, rval=rval,
        )
        return 0

    def poll(self, fds: Sequence[tuple[GuestEndpoint, PollEvent]],
             timeout: Optional[float] = None):
        """Single-endpoint polls forward directly; multi-endpoint polls
        fall back to non-blocking rounds (the frontend forwards one
        endpoint per request)."""
        if len(fds) == 1:
            ep, mask = fds[0]
            revents, _ = yield from self._forward(
                VPhiOp.POLL, ep, mask=mask, timeout=timeout
            )
            return [PollEvent(revents)]
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            out = []
            for ep, mask in fds:
                revents, _ = yield from self._forward(
                    VPhiOp.POLL, ep, mask=mask, timeout=0
                )
                out.append(PollEvent(revents))
            if any(out):
                return out
            if deadline is not None and self.sim.now >= deadline:
                return out
            yield self.sim.timeout(self.frontend.costs.poll_interval * 100)

    def get_node_ids(self):
        ids, _ = yield from self._forward(VPhiOp.GET_NODE_IDS)
        return ids
