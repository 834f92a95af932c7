"""Atomic word semantics, including linearizability under contention."""

import threading

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


def test_contended_increments_are_lost_update_free():
    w = AtomicU64(0)
    per_thread = 20_000
    n_threads = 8

    def hammer():
        for _ in range(per_thread):
            w.add_and_fetch(1)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert w.load() == per_thread * n_threads


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
