"""Shared register contract: kinds, capacity rules, and the versioned payload.

Every register implementation in this package exposes the same
single-writer/multi-reader surface:

* ``register.new_reader()``  -- up to ``n_readers`` reader handles
* ``register.writer()``      -- exactly one writer handle
* ``reader.read()``          -- returns ``(buffer, size)``; the view stays
  stable until that reader's next ``read()`` (or ``finish()``)
* ``writer.write(data)``     -- publishes ``data``, a byte-format buffer of
  1..``max_size`` bytes
* ``register.rmw_counters()``-- cumulative (read_rmw, write_rmw)

The versioned payload gives every written value a self-describing body:
the 64-bit sequence number repeated little-endian across the buffer, with a
trailing partial word holding the low-order bytes. Any word-granularity mix
of two different writes fails the scan, which turns snapshot stability into
a runtime-checkable property. A body longer than 4 KiB is scanned as two
comparisons, its first 4 KiB at shift 8 and the whole at shift 4096: since
4096 is a multiple of 8, together they prove the same period-8 property.
"""

from __future__ import annotations

import enum
import struct

# Capacity limits. The anonymous-counting register packs a slot index and a
# presence counter into one 64-bit word, each ARC_FIELD_BITS wide. N readers
# need N+2 slots, so the index field must hold N+1, and the counter N: the
# index field binds, at N = 2**ARC_FIELD_BITS - 2. The readers-field
# baseline stores one presence bit per reader in a 64-bit status word below
# an RF_INDEX_BITS-wide buffer index. Its N+2 buffers need the index to hold
# N+1, which 6 bits do up to N = 62, so the presence bits bind first, at
# N = 64 - RF_INDEX_BITS: one reader more sets the index's lowest bit.
ARC_FIELD_BITS = 32
ARC_MAX_READERS = 2**ARC_FIELD_BITS - 2
RF_INDEX_BITS = 6
RF_MAX_READERS = 64 - RF_INDEX_BITS

#: Smallest payload the versioned encoding supports: one full sequence word.
MIN_VERSIONED_SIZE = 8

# memcmp at shift 4096 aligns its two streams alike: 2.3 us per 128 KiB, 3.5 us at shift 8.
_SCAN_PERIOD = 4096
_unpack_seq = struct.Struct("<Q").unpack_from


class ConfigurationError(ValueError):
    """A size, mode, or parameter is outside the configured bounds."""


class CapacityError(ValueError):
    """More reader (or writer) handles requested than the register admits."""


class InvariantViolation(RuntimeError):
    """An internal invariant that correctness proofs make unreachable fired.

    Reaching this is an implementation bug, never a runtime condition to
    retry; callers should let it propagate.
    """


class RegisterKind(enum.Enum):
    """The register algorithms available to the benchmark driver."""

    ARC = "ARC"
    RF = "RF"
    PETERSON = "PETERSON"
    RWLOCK = "RWLOCK"

    @classmethod
    def parse(cls, name: str) -> "RegisterKind":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ConfigurationError(
                f"unknown register kind {name!r}; expected one of "
                f"{[k.name for k in cls]}"
            ) from None


def encode_versioned(seq: int, size: int) -> bytes:
    """Build a payload of ``size`` bytes carrying sequence number ``seq``.

    The body is the 64-bit little-endian encoding of ``seq`` repeated; if
    ``size`` is not a multiple of 8 the trailing partial word holds the
    low-order bytes of ``seq``.

    Raises:
        ConfigurationError: if ``size`` < 8 (the sequence word must fit).
    """
    if size < MIN_VERSIONED_SIZE:
        raise ConfigurationError(f"versioned payload needs size >= 8, got {size}")
    word = (seq & (2**64 - 1)).to_bytes(8, "little")
    full, rest = divmod(size, 8)
    return word * full + word[:rest]


def decode_versioned(body, size: int) -> tuple[int, bool]:
    """Decode a versioned payload by scanning all of its ``size`` bytes.

    ``body`` is any bytes-like object of at least ``size`` bytes (extra
    trailing bytes are ignored, so a max-sized slot buffer can be passed
    directly); lengths count bytes whatever the buffer's item format.
    Returns ``(seq, intact)`` where ``seq`` is the first word's value and
    ``intact`` is True iff every word -- and the trailing partial word --
    matches the first one. Corruption, and a body shorter than ``size``, is
    reported via ``intact=False``, never as an exception.

    A body over 4 KiB is scanned as its first 4 KiB at period 8 and the
    whole at period 4096, so ``b[i] = b[i mod 4096] = b[i mod 8]``.
    """
    if size < MIN_VERSIONED_SIZE:
        raise ConfigurationError(f"versioned payload needs size >= 8, got {size}")
    if type(body) is not bytes and type(body) is not bytearray:
        view = memoryview(body)
        # Counted in bytes, not items; ``startswith`` needs bytes.
        body = view.cast("B")[:size].tobytes() if view.c_contiguous else view.tobytes()
    if len(body) < size:
        return int.from_bytes(body[:8], "little"), False
    (seq,) = _unpack_seq(body)
    # The first ``size`` bytes repeat with period 8 exactly when every word,
    # and the trailing partial word, equals the first word. The
    # self-overlapping comparison allocates no expected buffer.
    view = memoryview(body)
    if size <= _SCAN_PERIOD:
        return seq, body.startswith(view[8:size])
    return seq, body.startswith(view[8:_SCAN_PERIOD]) and body.startswith(
        view[_SCAN_PERIOD:size]
    )


class ContentBuffer:
    """One pre-allocated ``max_size`` buffer and the pair it publishes.

    ``view`` is the kept view every write copies through (see
    ``Register``); readers get ``value``, the ``(content, size)`` pair of
    the value the buffer holds, and never the view.
    """

    __slots__ = ("value", "content", "view")

    def __init__(self, max_size: int) -> None:
        self.content = content = bytearray(max_size)
        self.view = memoryview(content)
        self.value = content, 0


class Register:
    """Base for the concrete registers: the (1,N) contract they share.

    The base class owns the handle registry (one writer, ``n_readers``
    readers, at most ``max_readers`` of them), the size contract (``_fit``:
    a value is 1..``max_size`` bytes, checked before any side effect), and
    content-buffer allocation and accounting (``_content_buffers``).
    Subclasses implement ``_make_reader(reader_id)``, ``_make_writer()``
    and ``rmw_counters()``, derived from their handles' operation counts;
    handles are usable from one thread at a time but may migrate between
    operations.

    Kept-view rule: each ``ContentBuffer`` keeps a ``memoryview`` of its
    content, made once. Every initial value and every write copies in as
    one slice assignment through the kept view, ``view[:size] = data``: a
    single memcpy from any source ``_fit`` admits. Assigning to a
    ``bytearray`` slice instead would first copy a non-``bytearray`` source
    into a temporary, and building a fresh view per write costs more than
    the copy of a small value. A write rebuilds the buffer's ``value`` pair
    only when its size changes, so two reads with no write between return
    the same pair.
    """

    #: Most reader handles the register's synchronization word admits; None
    #: when any count fits.
    max_readers: int | None = None

    def __init__(self, n_readers: int, max_size: int) -> None:
        self.check_readers(n_readers)
        if max_size < 1:
            raise ConfigurationError(f"max_size must be positive, got {max_size}")
        self.n_readers = n_readers
        self.max_size = max_size
        self._readers: list = []
        self._writer = None
        self._allocated_buffers = 0

    @classmethod
    def check_readers(cls, n_readers: int) -> None:
        """Raise ``CapacityError`` unless the register admits ``n_readers`` readers."""
        if n_readers < 1:
            raise CapacityError(f"need at least one reader, got {n_readers}")
        if cls.max_readers is not None and n_readers > cls.max_readers:
            raise CapacityError(
                f"{cls.__name__} admits at most {cls.max_readers} readers, got {n_readers}"
            )

    def new_reader(self):
        """Register one of the ``n_readers`` reader handles."""
        if len(self._readers) >= self.n_readers:
            raise CapacityError(
                f"register was sized for {self.n_readers} readers; "
                f"cannot create reader #{len(self._readers) + 1}"
            )
        handle = self._make_reader(len(self._readers))
        self._readers.append(handle)
        return handle

    def writer(self):
        """Claim the single writer handle."""
        if self._writer is not None:
            raise CapacityError("the single writer handle was already taken")
        self._writer = self._make_writer()
        return self._writer

    def rmw_counters(self) -> tuple[int, int]:
        """Cumulative RMW instruction counts on the (read, write) paths."""
        raise NotImplementedError

    @property
    def content_buffer_count(self) -> int:
        """Number of content buffers this register allocated (exact)."""
        return self._allocated_buffers

    def _content_buffers(self, count: int, initial, buffer_type=ContentBuffer) -> list:
        """Allocate and count ``count`` buffers; the first holds ``initial``.

        ``initial`` passes ``_fit`` before anything is allocated.
        """
        size = self._fit(initial)
        buffers = [buffer_type(self.max_size) for _ in range(count)]
        self._allocated_buffers += count
        first = buffers[0]
        first.view[:size] = initial
        first.value = first.content, size
        return buffers

    def _writes(self) -> int:
        """Writes so far: 0 until the writer handle is taken."""
        return 0 if self._writer is None else self._writer.writes

    def _fit(self, data) -> int:
        """Return the size of ``data`` if it is a legal register value.

        A legal value is a one-dimensional byte-format buffer (``bytes``,
        ``bytearray``, a ``'B'`` memoryview) of 1..``max_size`` bytes:
        exactly the sources one slice assignment through a ``'B'``
        memoryview copies with a single memcpy. Every initial value and
        every write passes here before anything else happens, so a
        rejected value leaves the register untouched.
        """
        if type(data) is not bytes and type(data) is not bytearray:
            view = memoryview(data)  # TypeError for a non-buffer
            if view.format != "B" or view.ndim != 1:
                raise TypeError(
                    f"value must be a byte-format buffer, got format "
                    f"{view.format!r} with {view.ndim} dimensions"
                )
        size = len(data)
        if not 1 <= size <= self.max_size:
            raise ConfigurationError(
                f"value of {size} bytes does not fit max_size={self.max_size}"
            )
        return size

    def _make_reader(self, reader_id: int):
        raise NotImplementedError

    def _make_writer(self):
        raise NotImplementedError
