"""Atomic word semantics, including linearizability under contention."""

import threading
import time

import pytest

from arcreg import AtomicU64


def test_add_and_fetch_returns_new_value():
    w = AtomicU64(40)
    assert w.add_and_fetch(2) == 42
    assert w.load() == 42


def test_exchange_returns_old_value():
    w = AtomicU64(7)
    assert w.exchange(9) == 7
    assert w.load() == 9


def test_fetch_or_and_fetch_and_return_prior():
    w = AtomicU64(0b0011)
    assert w.fetch_or(0b0100) == 0b0011
    assert w.fetch_and(0b0110) == 0b0111
    assert w.load() == 0b0110


def test_wraps_modulo_2_64():
    w = AtomicU64(2**64 - 1)
    assert w.add_and_fetch(1) == 0
    assert w.add_and_fetch(-1) == 2**64 - 1


class SwitchingWord(AtomicU64):
    """An ``AtomicU64`` that yields to other threads on every read of its
    value, so each RMW's critical section holds a thread switch."""

    __slots__ = ("_stored",)

    @property
    def _value(self):
        value = self._stored
        time.sleep(0)  # releases the GIL between the read and the write
        return value

    @_value.setter
    def _value(self, value):
        self._stored = value


def test_contended_increments_are_lost_update_free():
    # Each increment reads the word, yields and writes back: without the
    # mutex, the other threads' increments in between are lost.
    w = SwitchingWord(0)
    per_thread = 50
    n_threads = 8

    def hammer():
        for _ in range(per_thread):
            w.add_and_fetch(1)

    threads = [threading.Thread(target=hammer, daemon=True) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert w.load() == per_thread * n_threads


_MASK = 2**64 - 1
_THREADS, _OPS_EACH = 4, 16  # 64 ops: one distinct bit each for fetch_or/fetch_and

# Op k (0..63) of the contended run: the initial value, the operand of op k,
# and the (before, after) states that op's return value and operand imply.
# Every op changes the state, and no state recurs.
_RMW_RUNS = {
    "add_and_fetch": (0, lambda k: 1, lambda ret, arg: (ret - arg, ret)),
    "exchange": (0, lambda k: k + 1, lambda ret, arg: (ret, arg)),
    "fetch_or": (0, lambda k: 1 << k, lambda ret, arg: (ret, ret | arg)),
    "fetch_and": (_MASK, lambda k: _MASK ^ (1 << k), lambda ret, arg: (ret, ret & arg)),
}


@pytest.mark.parametrize("op", sorted(_RMW_RUNS))
def test_rmw_excludes_a_thread_switched_in_mid_update(op):
    # Without the mutex every op reads its word, yields, and writes back
    # over the others' updates. Linearizable RMWs chain instead: each op
    # starts from the state the one before it left, so following the
    # chain from the initial value visits every op once and ends at the
    # final value.
    initial, operand, states = _RMW_RUNS[op]
    w = SwitchingWord(initial)
    done = []

    def hammer(t):
        rmw = getattr(w, op)
        for k in range(t * _OPS_EACH, (t + 1) * _OPS_EACH):
            arg = operand(k)
            done.append(states(rmw(arg), arg))

    threads = [threading.Thread(target=hammer, args=(t,), daemon=True) for t in range(_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == _THREADS * _OPS_EACH
    after = {}
    for before, new in done:
        assert before not in after, f"two {op} ops both started from {before:#x}"
        after[before] = new
    state = initial
    for _ in done:
        assert state in after, f"no {op} op started from {state:#x}"
        state = after.pop(state)
    assert state == w.load()


@pytest.mark.parametrize(
    "op, operand",
    [
        ("add_and_fetch", "x"),
        ("exchange", None),
        ("fetch_or", "x"),
        ("fetch_and", None),
    ],
)
def test_failed_rmw_releases_its_lock(op, operand):
    w = AtomicU64(5)
    with pytest.raises(TypeError):
        getattr(w, op)(operand)
    assert w.load() == 5
    # A lock left held would block this RMW forever; run it on another
    # thread so the test fails instead of hanging.
    results = []
    t = threading.Thread(target=lambda: results.append(w.add_and_fetch(1)), daemon=True)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    assert results == [6]
