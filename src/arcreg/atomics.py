"""Single-word atomic operations for pure-Python concurrent algorithms.

Real hardware offers read-modify-write (RMW) instructions (exchange,
add-and-fetch, fetch-and-or, ...) on single machine words. CPython has no
such primitive, so :class:`AtomicU64` emulates one 64-bit word whose RMW
operations are linearizable: each RMW runs under a per-word mutex, and plain
loads/stores rely on the GIL making attribute access of an ``int`` a single
indivisible bytecode.

The mutex is a one-token ``queue.SimpleQueue``: ``get()`` takes the token
(blocking while another thread holds it) and ``put(None)`` gives it back.
It excludes exactly as a ``threading.Lock`` does, but both calls are fast
C calls: on CPython 3.11 ``Lock.acquire()`` parses its absent arguments
through the generic keyword parser, which makes an acquire/release pair
cost about twice a ``get()``/``put()`` pair. The mutex must stay a real
blocking one: that the GIL happens to run a short RMW body without a
switch is an interpreter detail, and free-threaded builds do not give it.

Memory ordering: under the GIL every bytecode is a global synchronization
point, so all operations here are sequentially consistent. That is strictly
stronger than the acquire/release contract the register algorithms require,
so no separate fences are needed.
"""

from __future__ import annotations

from queue import SimpleQueue

_MASK64 = (1 << 64) - 1


class AtomicU64:
    """A 64-bit word supporting linearizable RMW operations.

    ``load`` and ``store`` are plain atomic accesses (not RMW): they touch
    the word without taking the mutex, mirroring how ordinary aligned loads
    and stores behave on 64-bit hardware. All arithmetic wraps modulo 2**64.
    """

    __slots__ = ("_mutex", "_value")

    def __init__(self, value: int = 0) -> None:
        self._mutex = mutex = SimpleQueue()
        mutex.put(None)  # the one token: the mutex starts free
        self._value = value & _MASK64

    def load(self) -> int:
        """Plain atomic load (single untorn read, acquire under the GIL)."""
        return self._value

    def store(self, value: int) -> None:
        """Plain atomic store (release under the GIL). Not an RMW."""
        self._value = value & _MASK64

    # Each RMW takes the token with get() and gives it back with put(None)
    # in a ``finally``, so an operand that raises cannot wedge the word.

    def add_and_fetch(self, delta: int) -> int:
        """RMW: add ``delta`` (wrapping) and return the new value."""
        mutex = self._mutex
        mutex.get()
        try:
            new = self._value = (self._value + delta) & _MASK64
        finally:
            mutex.put(None)
        return new

    def exchange(self, value: int) -> int:
        """RMW: store ``value`` and return the previous value."""
        mutex = self._mutex
        mutex.get()
        try:
            old = self._value
            self._value = value & _MASK64
        finally:
            mutex.put(None)
        return old

    def fetch_or(self, bits: int) -> int:
        """RMW: OR ``bits`` into the word and return the previous value."""
        mutex = self._mutex
        mutex.get()
        try:
            old = self._value
            self._value = (old | bits) & _MASK64
        finally:
            mutex.put(None)
        return old

    def fetch_and(self, bits: int) -> int:
        """RMW: AND ``bits`` into the word and return the previous value."""
        mutex = self._mutex
        mutex.get()
        try:
            old = self._value
            self._value = old & bits & _MASK64
        finally:
            mutex.put(None)
        return old

    def __repr__(self) -> str:
        return f"AtomicU64({self._value:#x})"
