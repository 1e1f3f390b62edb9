"""Virtio transport: kicks (guest->host) and virtual interrupts (host->guest).

§II-C, Fig 2: the frontend posts buffers and *notifies* the backend (a
kick, costing a vmexit); the backend completes the request, posts the
response and notifies the guest *via a virtual interrupt*.  Interrupt
delivery respects the VM's execution domain: while QEMU handles a
blocking event the guest is frozen and the interrupt is deferred.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis.calibration import VPHI_COSTS, VPhiCosts
from ..sim import Domain, Simulator
from .ring import Vring

__all__ = ["VirtioDevice"]


class VirtioDevice:
    """One virtio device instance: a vring plus both notification paths."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "virtio-vphi",
        ring_size: int = 256,
        costs: VPhiCosts = VPHI_COSTS,
        guest_domain: Optional[Domain] = None,
        suppress_notifications: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.ring = Vring(ring_size)
        self.costs = costs
        self.guest_domain = guest_domain
        #: host-side kick handler (plain callable), run after each kick.
        self._backend_handler: Optional[Callable[[], None]] = None
        #: guest-side interrupt service routine (plain callable).
        self._guest_isr: Optional[Callable[[], None]] = None
        #: EVENT_IDX-style suppression: skip kicks while the device is
        #: already draining, coalesce interrupts until the driver reaps.
        self.suppress_notifications = suppress_notifications
        #: device-side "I am processing" flag (the driver reads it from
        #: the shared ring to decide whether a kick is needed).
        self.backend_busy = False
        self._irq_pending = False
        self.kicks = 0
        self.suppressed_kicks = 0
        self.interrupts = 0
        self.suppressed_irqs = 0

    # ------------------------------------------------------------------
    def bind_backend(self, handler: Callable[[], None]) -> None:
        """Register the QEMU backend's kick handler (a plain callable)."""
        self._backend_handler = handler

    def bind_guest_isr(self, isr: Callable[[], None]) -> None:
        """Register the frontend's interrupt service routine."""
        self._guest_isr = isr

    # ------------------------------------------------------------------
    def kick(self):
        """Process (guest side): notify the backend.

        Costs one vmexit; the backend handler then runs on the host side,
        queued behind whatever else is due at that instant.  With
        notification suppression on, a kick while the device is already
        draining is skipped entirely — the driver reads the device's busy
        flag from the shared ring instead of trapping out.
        ``yield from dev.kick()``.
        """
        if self._backend_handler is None:
            raise RuntimeError(f"{self.name}: no backend bound")
        if self.suppress_notifications and self.backend_busy:
            self.suppressed_kicks += 1
            return  # flag check in shared memory: no vmexit
        self.kicks += 1
        self.backend_busy = True
        yield self.sim.timeout(self.costs.kick_vmexit)
        self.sim.call_soon(self._backend_handler)

    def backend_idle(self) -> None:
        """Device side: declare the drain loop finished.

        The caller must re-check the avail ring *after* this (the classic
        virtio lost-wakeup dance): a driver that saw ``backend_busy`` and
        skipped its kick may have queued work in the gap.
        """
        self.backend_busy = False

    def inject_irq(self) -> None:
        """Host side: raise the virtual interrupt toward the guest.

        Delivery costs ``irq_inject``; if the guest domain is paused the
        ISR runs once it resumes (the domain defers the callback).  With
        suppression on, interrupts coalesce: while one is pending,
        further completions ride the same delivery.
        """
        if self._guest_isr is None:
            raise RuntimeError(f"{self.name}: no guest ISR bound")
        if self.suppress_notifications and self._irq_pending:
            self.suppressed_irqs += 1
            return
        self.interrupts += 1
        self._irq_pending = True

        def deliver() -> None:
            if self.guest_domain is not None and self.guest_domain.paused:
                self.guest_domain._defer(deliver)
                return
            self._irq_pending = False
            self._guest_isr()

        self.sim.call_at(self.sim.now + self.costs.irq_inject, deliver)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtioDevice {self.name} kicks={self.kicks} irqs={self.interrupts}>"
