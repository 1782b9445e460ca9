"""Drop-tail packet queues.

Every node's MAC holds its outgoing transport packets in a bounded
drop-tail queue.  Queue drops are a first-class metric of the paper:
Figure 7(b) plots "the total number of packet drops in the queues of
the system" as a function of feedback rate, showing that slow feedback
lets the long-lived sender overrun intermediate queues.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from repro.util.validation import require_positive

T = TypeVar("T")


class DropTailQueue(Generic[T]):
    """A bounded FIFO queue that drops arrivals when full.

    ``items`` (the FIFO, head on the left) and ``drops`` are plain
    attributes: the MAC pushes and pops its queue once per frame, and
    does it on ``items`` directly with the same capacity test as
    :meth:`push` (``TdmaMac.enqueue`` and ``TdmaMac._service_next``).
    """

    def __init__(self, capacity: int = 50):
        self.capacity = int(require_positive(capacity, "capacity"))
        self.items: Deque[T] = deque()
        #: Number of arrivals rejected because the queue was full.
        self.drops = 0

    def __len__(self) -> int:
        return len(self.items)

    def push(self, item: T) -> bool:
        """Append ``item``; returns False (and counts a drop) if full."""
        items = self.items
        if len(items) >= self.capacity:
            self.drops += 1
            return False
        items.append(item)
        return True

    def pop(self) -> Optional[T]:
        """Remove and return the head of the queue, or None if empty."""
        if not self.items:
            return None
        return self.items.popleft()

    def drain(self) -> List[T]:
        """Remove and return all queued items in order."""
        items = list(self.items)
        self.items.clear()
        return items
