"""Two-tier event queue for the DES kernel.

The overwhelmingly dominant schedule in this workload is *zero delay*:
ring drains, process starts, event callbacks and deferred resumptions
all land at the current instant.  Those entries go to a plain FIFO
**lane** (append/popleft, no comparisons); everything later goes to one
binary **heap**.

Ordering is *exactly* a single heap's: every entry carries ``(when,
seq)`` with a globally monotonic ``seq``, and :meth:`pop` always returns
the smaller of the two tier heads — including same-timestamp FIFO
tie-breaks.  Lane entries are pushed in ``seq`` order at a
non-decreasing current time, so the lane is itself sorted and its head
is its minimum.  The property suite drives this queue and a reference
heap with identical random schedules and asserts the firing orders are
indistinguishable.

Entries are mutable ``[when, seq, thunk]`` records; cancellation nulls
the thunk (a lazy-delete tombstone) and the queue compacts itself when
tombstones outnumber live entries, so abandoned timeouts from
interrupted waiters cannot grow the queue without bound.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

__all__ = ["CalendarQueue"]

#: entry layout: [when, seq, thunk-or-None]
Entry = list


class CalendarQueue:
    """Time-ordered queue of ``(when, seq, thunk)`` firings.

    Two tiers, popped in global ``(when, seq)`` order:

    * ``lane`` — FIFO deque of entries pushed at the current instant
      (``when == now`` at push time).
    * ``heap`` — one binary heap for every later firing.
    """

    __slots__ = ("_lane", "_heap", "_seq", "_live", "tombstones",
                 "compactions", "compact_threshold")

    def __init__(self, compact_threshold: int = 64):
        self._lane: deque = deque()
        self._heap: list = []
        self._seq = 0
        #: live (non-tombstone) entries across both tiers.
        self._live = 0
        #: current number of cancelled-but-unreaped entries.
        self.tombstones = 0
        #: total compaction passes (observability for the chaos suites).
        self.compactions = 0
        self.compact_threshold = compact_threshold

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    def push(self, when: float, thunk: Callable[[], None], now: float) -> Entry:
        """Insert a firing; returns the entry (for :meth:`cancel`)."""
        seq = self._seq
        self._seq = seq + 1
        entry: Entry = [when, seq, thunk]
        self._live += 1
        if when == now:
            # seq order *is* FIFO order at one instant, so appending
            # keeps the lane sorted by (when, seq)
            self._lane.append(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Entry) -> None:
        """Tombstone one entry (lazy delete); compacts when they pile up."""
        if entry[2] is None:
            return
        entry[2] = None
        self._live -= 1
        self.tombstones += 1
        if (self.tombstones > self.compact_threshold
                and self.tombstones > self._live):
            self.compact()

    def compact(self) -> None:
        """Drop every tombstone from both tiers in one pass."""
        self.compactions += 1
        self._lane = deque(e for e in self._lane if e[2] is not None)
        heap = [e for e in self._heap if e[2] is not None]
        heapify(heap)
        self._heap = heap
        self.tombstones = 0

    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of the next live firing, or None if the queue is empty."""
        lane, heap = self._lane, self._heap
        while lane and lane[0][2] is None:
            lane.popleft()
            self.tombstones -= 1
        while heap and heap[0][2] is None:
            heappop(heap)
            self.tombstones -= 1
        if lane and not (heap and heap[0] < lane[0]):
            return lane[0][0]
        return heap[0][0] if heap else None

    def pop(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Remove and return the next live entry; None if empty or if its
        time exceeds ``limit``."""
        lane, heap = self._lane, self._heap
        while True:
            if lane and not (heap and heap[0] < lane[0]):
                if limit is not None and lane[0][0] > limit:
                    return None
                head = lane.popleft()
            elif heap:
                if limit is not None and heap[0][0] > limit:
                    return None
                head = heappop(heap)
            else:
                return None
            if head[2] is None:
                self.tombstones -= 1
                continue
            self._live -= 1
            return head
