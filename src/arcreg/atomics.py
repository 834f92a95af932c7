"""Single-word atomic operations for pure-Python concurrent algorithms.

Real hardware offers read-modify-write (RMW) instructions (exchange,
add-and-fetch, fetch-and-or, ...) on single machine words. CPython has no
such primitive, so :class:`AtomicU64` emulates one 64-bit word whose RMW
operations are linearizable: each RMW runs under a per-word lock, and plain
loads/stores rely on the GIL making attribute access of an ``int`` a single
indivisible bytecode.

Memory ordering: under the GIL every bytecode is a global synchronization
point, so all operations here are sequentially consistent. That is strictly
stronger than the acquire/release contract the register algorithms require,
so no separate fences are needed.
"""

from __future__ import annotations

import threading

_MASK64 = (1 << 64) - 1


class AtomicU64:
    """A 64-bit word supporting linearizable RMW operations.

    ``load`` and ``store`` are plain atomic accesses (not RMW): they touch
    the word without taking the lock, mirroring how ordinary aligned loads
    and stores behave on 64-bit hardware. All arithmetic wraps modulo 2**64.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = value & _MASK64

    def load(self) -> int:
        """Plain atomic load (single untorn read, acquire under the GIL)."""
        return self._value

    def store(self, value: int) -> None:
        """Plain atomic store (release under the GIL). Not an RMW."""
        self._value = value & _MASK64

    # Each RMW takes the lock with acquire()/try/finally instead of ``with``:
    # the context-manager protocol adds an ``__exit__(None, None, None)``
    # call that costs more than the lock itself, and every slot transition
    # pays for it twice. The ``finally`` still releases the lock when an
    # operand raises, so a bad operand cannot wedge the word.

    def add_and_fetch(self, delta: int) -> int:
        """RMW: add ``delta`` (wrapping) and return the new value."""
        self._lock.acquire()
        try:
            new = self._value = (self._value + delta) & _MASK64
        finally:
            self._lock.release()
        return new

    def exchange(self, value: int) -> int:
        """RMW: store ``value`` and return the previous value."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = value & _MASK64
        finally:
            self._lock.release()
        return old

    def fetch_or(self, bits: int) -> int:
        """RMW: OR ``bits`` into the word and return the previous value."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = (old | bits) & _MASK64
        finally:
            self._lock.release()
        return old

    def fetch_and(self, bits: int) -> int:
        """RMW: AND ``bits`` into the word and return the previous value."""
        self._lock.acquire()
        try:
            old = self._value
            self._value = old & bits & _MASK64
        finally:
            self._lock.release()
        return old

    def __repr__(self) -> str:
        return f"AtomicU64({self._value:#x})"
