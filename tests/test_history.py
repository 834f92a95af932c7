"""History checker semantics, export format, and oracle cross-checks."""

import random

import pytest

from arcreg import (
    CorruptedHistoryError,
    History,
    OpRecord,
    Recorder,
    check_history,
    check_integrity,
    check_no_new_old_inversion,
    check_no_past,
)
from support import linearizable_by_search, random_small_history


def H(*records):
    return History.from_records(list(records))


def test_empty_history_has_no_violations():
    h = H()
    assert check_no_past(h) == []
    assert check_no_new_old_inversion(h) == []
    assert check_integrity(h) == 0


def test_stale_read_after_two_completed_writes():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(0, "write", 2, 3, 2),
        OpRecord(1, "read", 4, 5, 1),
    )
    violations = check_no_past(h)
    assert len(violations) == 1
    assert violations[0].flavor == "stale-read"
    assert violations[0].read_seq == 1
    assert violations[0].witness_seq == 2


def test_read_overlapping_write_may_return_old_value():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(0, "write", 4, 8, 2),
        OpRecord(1, "read", 5, 6, 1),
    )
    assert check_no_past(h) == []


def test_read_before_any_write_returns_initial():
    h = H(
        OpRecord(1, "read", 0, 1, 0),
        OpRecord(0, "write", 2, 3, 1),
    )
    assert check_no_past(h) == []


def test_read_of_value_from_the_future_is_flagged():
    h = H(
        OpRecord(1, "read", 0, 1, 1),
        OpRecord(0, "write", 2, 3, 1),
    )
    violations = check_no_past(h)
    assert len(violations) == 1
    assert violations[0].flavor == "future-read"


def test_inversion_between_ordered_reads():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(0, "write", 2, 10, 2),
        OpRecord(1, "read", 3, 4, 2),
        OpRecord(2, "read", 5, 6, 1),
    )
    violations = check_no_new_old_inversion(h)
    assert len(violations) == 1
    v = violations[0]
    assert (v.first_seq, v.second_seq) == (2, 1)


def test_overlapping_reads_may_disagree():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(0, "write", 2, 10, 2),
        OpRecord(1, "read", 3, 7, 2),
        OpRecord(2, "read", 4, 6, 1),
    )
    assert check_no_new_old_inversion(h) == []


def test_integrity_counts_torn_reads():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(1, "read", 2, 3, 1, intact=True),
        OpRecord(2, "read", 2, 3, 1, intact=False),
    )
    assert check_integrity(h) == 1


def test_read_matching_no_write_is_corrupted_history():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(1, "read", 2, 3, 7),
    )
    with pytest.raises(CorruptedHistoryError):
        check_no_past(h)


def test_overlapping_writes_are_corrupted_history():
    h = H(
        OpRecord(0, "write", 0, 5, 1),
        OpRecord(0, "write", 3, 8, 2),
    )
    with pytest.raises(CorruptedHistoryError):
        check_no_past(h)


def test_non_increasing_write_seq_is_corrupted_history():
    h = H(
        OpRecord(0, "write", 0, 1, 2),
        OpRecord(0, "write", 2, 3, 1),
    )
    with pytest.raises(CorruptedHistoryError):
        check_no_past(h)


def test_check_history_validates_once_and_agrees_with_the_public_checkers(monkeypatch):
    import arcreg.history as history

    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(0, "write", 2, 3, 2),
        OpRecord(1, "read", 4, 5, 2),
        OpRecord(1, "read", 6, 7, 1),  # stale, and inverted against the first
    )
    calls = []
    validate = history._validate
    monkeypatch.setattr(history, "_validate", lambda hist: calls.append(1) or validate(hist))
    report = check_history(h)
    assert len(calls) == 1
    assert report.no_past == check_no_past(h) and len(report.no_past) == 1
    assert report.inversions == check_no_new_old_inversion(h) and len(report.inversions) == 1


def test_check_history_still_rejects_corrupted_history():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(1, "read", 2, 3, 7),
    )
    with pytest.raises(CorruptedHistoryError):
        check_history(h)


def test_sequential_histories_always_pass():
    # Soundness: one thread alternating writes and fresh reads.
    records = []
    t = 0
    for seq in range(1, 40):
        records.append(OpRecord(0, "write", t, t + 1, seq))
        records.append(OpRecord(0, "read", t + 2, t + 3, seq))
        t += 4
    report = check_history(H(*records))
    assert report.atomic
    assert report.total_violations == 0


def test_recorder_merge_round_trip():
    w = Recorder(0)
    r = Recorder(1)
    w.record_write(0, 1, 1)
    r.record_read(2, 3, 1, True)
    r.record_read(4, 5, 1, False)
    h = History.from_recorders([w, r])
    assert len(h) == 3
    assert check_integrity(h) == 1
    assert sorted(rec.kind for rec in h.records()) == ["read", "read", "write"]


def test_export_import_round_trip(tmp_path):
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(1, "read", 2, 3, 1, intact=False),
        OpRecord(2, "read", 2, 4, 0),
    )
    path = tmp_path / "history.txt"
    h.save(path)
    lines = path.read_text().splitlines()
    assert lines[0].split() == ["0", "write", "0", "1", "1", "1"]
    h2 = History.load(path)
    assert h2.records() == h.records()


def test_export_line_format_is_stable():
    h = H(OpRecord(3, "read", 10, 20, 5, intact=False))
    assert list(h.to_lines()) == ["3 read 10 20 5 0"]


def test_checker_matches_bruteforce_oracle_on_handmade_cases():
    cases = [
        # fresh read
        [OpRecord(0, "write", 0, 1, 1), OpRecord(1, "read", 2, 3, 1)],
        # stale read
        [OpRecord(0, "write", 0, 1, 1), OpRecord(0, "write", 2, 3, 2),
         OpRecord(1, "read", 4, 5, 1)],
        # inversion across two reader threads
        [OpRecord(0, "write", 0, 9, 1), OpRecord(1, "read", 1, 2, 1),
         OpRecord(2, "read", 3, 4, 0)],
        # same pattern but overlapping reads: fine
        [OpRecord(0, "write", 0, 9, 1), OpRecord(1, "read", 1, 3, 1),
         OpRecord(2, "read", 2, 4, 0)],
    ]
    for records in cases:
        report = check_history(History.from_records(records))
        assert report.atomic == linearizable_by_search(records)


def test_checker_matches_bruteforce_oracle_on_random_histories():
    rng = random.Random(7)
    for _ in range(60):
        records = random_small_history(rng)
        report = check_history(History.from_records(records))
        assert report.atomic == linearizable_by_search(records)
