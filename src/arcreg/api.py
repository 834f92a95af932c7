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
a runtime-checkable property.
"""

from __future__ import annotations

import enum

# Capacity limits. The anonymous-counting register packs a slot index and a
# presence counter into one 64-bit word, each ARC_FIELD_BITS wide. N readers
# need N+2 slots, so the index field must hold N+1, and the counter N: the
# index field binds, at N = 2**ARC_FIELD_BITS - 2. The readers-field
# baseline stores one presence bit per reader in a 64-bit status word next
# to a buffer index, which caps it at 58 readers.
ARC_FIELD_BITS = 32
ARC_MAX_READERS = 2**ARC_FIELD_BITS - 2
RF_MAX_READERS = 58

#: Smallest payload the versioned encoding supports: one full sequence word.
MIN_VERSIONED_SIZE = 8


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
    directly). Returns ``(seq, intact)`` where ``seq`` is the first word's
    value and ``intact`` is True iff every word -- and the trailing partial
    word -- matches the first one. Corruption, and a body shorter than
    ``size``, is reported via ``intact=False``, never as an exception.
    """
    if size < MIN_VERSIONED_SIZE:
        raise ConfigurationError(f"versioned payload needs size >= 8, got {size}")
    seq = int.from_bytes(body[:8], "little")
    if len(body) < size:
        return seq, False
    if not isinstance(body, (bytes, bytearray)):
        body = bytes(body[:size])
    # The first ``size`` bytes repeat with period 8 exactly when every word,
    # and the trailing partial word, equals the first word. The
    # self-overlapping comparison allocates no expected buffer.
    return seq, body.startswith(memoryview(body)[8:size])


class Register:
    """Base for the concrete registers: the (1,N) contract they share.

    The base class owns the handle registry (one writer, ``n_readers``
    readers), the size contract (``_fit``: a value is 1..``max_size``
    bytes, checked before any side effect), content-buffer allocation and
    accounting, and the rollup of the handles' ``rmw_ops`` tallies.
    Subclasses implement ``_make_reader(reader_id)`` and ``_make_writer()``;
    handles are usable from one thread at a time but may migrate between
    operations.

    Kept-view rule: ``_new_content_buffer`` returns each buffer together
    with a ``memoryview`` of it, made once, and the register keeps that
    view next to the buffer. Every initial value and every write copies
    in as one slice assignment through the kept view,
    ``view[:size] = data``: a single memcpy from any source ``_fit``
    admits. Assigning to a ``bytearray`` slice instead would first copy a
    non-``bytearray`` source into a temporary, and building a fresh view
    per write costs more than the copy of a small value. Readers get the
    ``bytearray`` itself, never the view.
    """

    def __init__(self, n_readers: int, max_size: int) -> None:
        if n_readers < 1:
            raise CapacityError(f"need at least one reader, got {n_readers}")
        if max_size < 1:
            raise ConfigurationError(f"max_size must be positive, got {max_size}")
        self.n_readers = n_readers
        self.max_size = max_size
        self._readers: list = []
        self._writer = None
        self._allocated_buffers = 0

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
        read_rmw = sum(r.rmw_ops for r in self._readers)
        write_rmw = self._writer.rmw_ops if self._writer is not None else 0
        return read_rmw, write_rmw

    @property
    def content_buffer_count(self) -> int:
        """Number of content buffers this register allocated (exact)."""
        return self._allocated_buffers

    def _new_content_buffer(self) -> tuple[bytearray, memoryview]:
        """Allocate one ``max_size`` buffer; return it and its kept view."""
        self._allocated_buffers += 1
        content = bytearray(self.max_size)
        return content, memoryview(content)

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
