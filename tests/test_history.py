"""History checker semantics, export format, and oracle cross-checks."""

import random
import struct
from collections import Counter

import numpy as np
import pytest

import arcreg.history as history
from arcreg import (
    ArcRegister,
    CorruptedHistoryError,
    History,
    OpRecord,
    Recorder,
    check_history,
    check_integrity,
    check_no_new_old_inversion,
    check_no_past,
    encode_versioned,
)
from support import (
    CORRUPTIONS,
    LONG_RUN_PLANTS,
    ROW_ORDERS,
    arrange_rows,
    instrument,
    linearizable_by_search,
    random_long_run_history,
    random_raw_history,
    random_small_history,
    reference_check_history,
    run_schedule,
    schedule_history,
)


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


def test_unknown_kind_code_is_corrupted_history():
    # Kind 2 is neither read nor write: neither index list holds the row,
    # and the text export has no name for it.
    h = History([1, 0], [2, 1], [0, 0], [1, 1], [5, 1], [1, 1])
    checks = (check_history, check_no_past, check_no_new_old_inversion, reference_check_history)
    for check in checks:
        with pytest.raises(CorruptedHistoryError, match="^operation kind 2 is neither read nor "):
            check(h)


@pytest.mark.parametrize("columns", [
    ([0, 1], [1, 0], [0, 5], [1, 6], [1, 1], [1]),  # a short intact column
    ([0, 1], [1, 0], [0, 5], [1, 6], [1, 1, 99], [1, 1]),  # a seq no row holds
    ([0, 1, 1], [1, 0, 0], [0, 5, 7], [1, 6, 8], [1, 1], [1, 1, 1]),  # a row with no seq
])
def test_columns_of_different_lengths_are_refused(columns):
    lengths = ", ".join(f"{name} {len(c)}" for name, c in zip(History.__slots__, columns))
    with pytest.raises(CorruptedHistoryError, match=f"^columns differ in length: {lengths}$"):
        History(*columns)


def test_column_that_is_not_one_dimensional_is_refused():
    with pytest.raises(CorruptedHistoryError, match="^column seq is 2-D, not 1-D$"):
        History([0, 1], [1, 0], [0, 5], [1, 6], [[1], [1]], [1, 1])
    with pytest.raises(CorruptedHistoryError, match="^column thread is 0-D, not 1-D$"):
        History(0, [1], [0], [1], [1], [1])


def test_saving_an_unknown_kind_is_refused_before_the_file_is_opened(tmp_path):
    h = History([1, 0], [2, 1], [0, 0], [1, 1], [5, 1], [1, 1])
    path = tmp_path / "history.txt"
    refused = "^operation kind 2 is neither read nor write$"
    with pytest.raises(CorruptedHistoryError, match=refused):
        h.save(path)
    assert not path.exists()


def test_check_history_validates_once_and_agrees_with_the_public_checkers(monkeypatch):
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


def test_packed_rows_match_records_column_by_column():
    rng = random.Random(11)
    intacts = [True, False, 0, 1, np.bool_(True), np.bool_(False)]
    recorders = [Recorder(tid) for tid in range(4)]
    records = []
    for rec in recorders:
        t = 2**62 - 2_000 + rec.thread_id  # timestamps cross 2**62
        for i in range(1_000):
            inv = t + rng.randrange(3)
            resp = inv + rng.randrange(3)
            t = resp + 1
            seq = (0, 2**63 - 1, rng.randrange(2**63))[i % 3]
            if rng.random() < 0.2:
                rec.record_write(inv, resp, seq)
                records.append(OpRecord(rec.thread_id, "write", inv, resp, seq))
            else:
                intact = intacts[i % len(intacts)]
                rec.record_read(inv, resp, seq, intact)
                records.append(OpRecord(rec.thread_id, "read", inv, resp, seq, intact))
        assert len(rec) == 1_000
    packed = History.from_recorders(recorders)
    expected = History.from_records(records)
    assert len(packed) == len(expected) == 4_000
    assert expected.invocation.min() < 2**62 < expected.response.max()
    assert set(expected.seq.tolist()) >= {0, 2**63 - 1}
    assert set(expected.intact.tolist()) == {0, 1}
    for column in History.__slots__:
        got, want = getattr(packed, column), getattr(expected, column)
        assert got.dtype == want.dtype == np.int64, column
        assert np.array_equal(got, want), column


def test_rejected_row_leaves_recorder_whole():
    rec = Recorder(3)
    with pytest.raises((struct.error, OverflowError)):
        rec.record_read(1, 2, 2**63, True)  # a garbage seq decoded from a torn buffer
    rec.record_read(3, 4, 1, True)
    assert len(rec) == 1
    assert History.from_recorders([rec]).records() == [OpRecord(3, "read", 3, 4, 1, True)]


def _permuted(h: History, perm) -> History:
    """``h`` with row ``perm[i]`` as its row ``i``."""
    return History(*(getattr(h, column)[perm] for column in History.__slots__))


def _merged_history() -> History:
    """Writer, then two readers, merged as a run merges them; one read of each
    kind of violation: stale, future, inverted and torn."""
    writer, r1, r2 = Recorder(0), Recorder(1), Recorder(2)
    for seq in range(1, 5):
        writer.record_write(10 * seq, 10 * seq + 5, seq)
    r1.record_read(0, 1, 0, True)
    r1.record_read(16, 18, 1, True)
    r1.record_read(26, 27, 2, True)
    r1.record_read(36, 37, 1, True)  # stale, and inverted against the read before
    r2.record_read(2, 3, 2, True)  # future
    r2.record_read(45, 46, 4, False)  # torn
    return History.from_recorders([writer, r1, r2])


def test_merged_history_is_checked_through_views():
    h = _merged_history()
    reads, source, r_inv, r_resp, r_seq, w_inv, w_resp, values, _ = history._validate(h)
    assert reads == range(4, 10)
    for view, column in ((r_inv, h.invocation), (r_resp, h.response), (r_seq, h.seq),
                         (source, h.seq), (w_inv, h.invocation), (w_resp, h.response)):
        assert np.shares_memory(view, column)
    report = check_history(h)
    assert report == reference_check_history(h)
    assert _verdicts(report) == ["stale-read", "future-read", "inverted", "torn"]


def test_read_moved_into_the_write_block_is_gathered():
    h = _merged_history()
    perm = np.array([0, 1, 7, 2, 3, 4, 5, 6, 8, 9])  # r1's last read between two writes
    moved = _permuted(h, perm)
    reads, *_, values, _ = history._validate(moved)
    assert isinstance(reads, np.ndarray) and list(reads) == [2, 5, 6, 7, 8, 9]
    assert list(values) == [0, 1, 2, 3, 4]
    report = check_history(moved)
    assert report == reference_check_history(moved)
    assert _by_row(report, moved, perm) == _by_row(check_history(h), h, range(len(h)))


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


def _outcome(check, h):
    """A checker's report, or the message of the CorruptedHistoryError it raised."""
    try:
        return check(h)
    except CorruptedHistoryError as exc:
        return f"corrupt: {exc}"


#: One fragment of each CorruptedHistoryError message the checker can raise.
_CORRUPT_KINDS = (
    "invocation after response",
    "not strictly increasing",
    "collides with the initial value",
    "writes overlap",
    "has overlapping operations",
    "which no write produced",
    "neither read nor write",
)


def _verdicts(outcome) -> list[str]:
    if isinstance(outcome, str):
        return [kind for kind in _CORRUPT_KINDS if kind in outcome]
    flavors = {v.flavor for v in outcome.no_past}
    verdicts = [f for f in ("stale-read", "future-read") if f in flavors]
    verdicts += ["inverted"] * bool(outcome.inversions) + ["torn"] * bool(outcome.torn_reads)
    return verdicts or ["valid"]


def _by_row(outcome, h: History, row_of) -> object:
    """``outcome`` in the row numbers ``row_of`` maps ``h``'s rows to, order-free.

    An inversion's earlier read is named by its response instead: when two
    reads with the newest value respond at once, the witness is the later
    one in row order.
    """
    if isinstance(outcome, str):
        return outcome
    no_past = sorted((int(row_of[v.read_index]), v.read_seq, v.witness_seq, v.flavor)
                     for v in outcome.no_past)
    inversions = sorted((int(h.response[v.first_read_index]), v.first_seq,
                         int(row_of[v.second_read_index]), v.second_seq)
                        for v in outcome.inversions)
    return no_past, inversions, outcome.torn_reads


def _counting(monkeypatch, name: str) -> list:
    """Replace ``history.<name>`` by a wrapper that logs each result."""
    results = []
    function = getattr(history, name)

    def counted(*args):
        results.append(function(*args))
        return results[-1]

    monkeypatch.setattr(history, name, counted)
    return results


def test_checker_matches_reference_checker_on_random_histories(monkeypatch):
    # Differential test against the reference checker: the same reports,
    # witnesses and order included, and the same error messages, for rows
    # grouped as recorders give them, shuffled, and sorted by invocation.
    # Each history's grouped rows, which the checker reads in place, must
    # also give the report of the same rows permuted, which it gathers.
    # Errors are left out of that comparison: the first check to fail names
    # the error, and row order can change which fails first. But no
    # uncorrupted history is refused in any row order: ties between equal
    # invocations are broken by the response, and the writes' then by seq.
    # These histories hold a few reads a run, so every one that is checked
    # at all takes the value screen (every screen is counted).
    screens = _counting(monkeypatch, "_screen_values")
    rng = random.Random(12)
    seen = Counter()
    compared = 0
    for i in range(20_000):
        corruption = CORRUPTIONS[i // 4 % len(CORRUPTIONS)] if i % 4 == 0 else None
        rows = random_raw_history(rng, corruption)
        h = arrange_rows(rows, ROW_ORDERS[i % len(ROW_ORDERS)], rng)
        want = _outcome(reference_check_history, h)
        assert _outcome(check_history, h) == want, (rows, ROW_ORDERS[i % len(ROW_ORDERS)])
        if i % 10 == 0 and not isinstance(want, str):
            assert check_no_past(h) == want.no_past, rows
            assert check_no_new_old_inversion(h) == want.inversions, rows
        seen.update(_verdicts(want))
        grouped = arrange_rows(rows, "grouped", rng)
        perm = np.random.default_rng(i).permutation(len(rows))
        permuted = _permuted(grouped, perm)
        if corruption is None:
            assert isinstance(history._validate(grouped)[0], range), rows
        got = _by_row(_outcome(check_history, permuted), permuted, perm)
        expected = _by_row(_outcome(check_history, grouped), grouped, range(len(rows)))
        if corruption is None:
            assert not isinstance(expected, str) and not isinstance(got, str), (rows, perm, got)
        if not isinstance(got, str) and not isinstance(expected, str):
            assert got == expected, rows
            compared += 1
    assert compared >= 10_000
    for verdict in ("valid", "stale-read", "future-read", "inverted", "torn") + _CORRUPT_KINDS:
        assert seen[verdict] >= 100, seen
    # Screens both cleared and fired, for regularity and for order: one that
    # always fires gives the same reports, only slower.
    regular = Counter(regular for regular, _ in screens)
    ordered = Counter(ordered for _, ordered in screens)
    assert len(screens) >= 40_000, len(screens)
    assert min(regular[True], regular[False], ordered[True], ordered[False]) >= 10_000, (regular, ordered)


def test_long_runs_are_screened_and_match_the_reference_checker(monkeypatch):
    # Differential test on histories shaped like a threaded run, hundreds of
    # reads per value, with violations where the run screen looks for them:
    # stale and inverted reads at a run's end, future reads at its start, a
    # torn read inside it. Grouped, a history is screened run by run (every
    # screen is counted); permuted, value by value. Both must give the
    # reference checker's report, witnesses and order included.
    screens = _counting(monkeypatch, "_screen_runs")
    rng = np.random.default_rng(24)
    seen = Counter()
    for i in range(500):
        plant = LONG_RUN_PLANTS[i % len(LONG_RUN_PLANTS)]
        h = random_long_run_history(rng, plant)
        want = reference_check_history(h)
        assert check_history(h) == want, (i, plant)
        permuted = _permuted(h, rng.permutation(len(h)))
        assert check_history(permuted) == reference_check_history(permuted), (i, plant)
        seen.update((plant, verdict) for verdict in _verdicts(want))
    verdicts = {"clean": "valid", "stale-at-run-end": "stale-read", "torn-mid-run": "torn",
                "inverted-at-run-end": "inverted", "future-at-run-start": "future-read"}
    for plant, verdict in verdicts.items():
        assert seen[plant, verdict] >= 90, seen
    # Every grouped history was screened, and screens both cleared and fired.
    outcomes = Counter(screens)
    assert sum(outcomes[s] for s in outcomes if s is not None) >= 500, outcomes
    assert outcomes[True, True] >= 150 and outcomes[False, True] + outcomes[False, False] >= 150
    assert outcomes[True, False] >= 90, outcomes


def test_churn_shaped_history_runs_the_per_read_checks_only_when_a_screen_fires(monkeypatch):
    # One thread's schedule over 31 readers, a write in ten ops, so about
    # nine reads a value. The writer's and the readers' rows interleave, so
    # they are not grouped by thread and the value screen decides.
    reg = ArcRegister(encode_versioned(0, 64), 31, 64)
    h = schedule_history(run_schedule(reg, instrument(reg)))
    assert history._validate(h)[-1] is None
    no_past, inversions = _counting(monkeypatch, "_no_past"), _counting(monkeypatch, "_inversions")
    report = check_history(h)
    assert report.total_violations == 0 and not no_past and not inversions
    # One late read rewritten to the initial value: stale, and inverted
    # against every earlier read of a newer value.
    late = np.flatnonzero((h.kind == history.KIND_READ) & (h.seq > 1))[-100]
    seq = h.seq.copy()
    seq[late] = history.INITIAL_SEQ
    stale = History(h.thread, h.kind, h.invocation, h.response, seq, h.intact)
    report = check_history(stale)
    assert len(no_past) == len(inversions) == 1
    assert report == reference_check_history(stale)
    assert _verdicts(report) == ["stale-read", "inverted"]


def test_thread_split_by_another_thread_is_still_an_overlap():
    # Thread 1's two reads overlap, but thread 2's row sits between them, so
    # no two neighbouring rows share a thread.
    h = H(
        OpRecord(1, "read", 0, 10, 0),
        OpRecord(2, "read", 0, 1, 0),
        OpRecord(1, "read", 5, 6, 0),
    )
    with pytest.raises(CorruptedHistoryError, match="^thread 1 has overlapping operations$"):
        check_history(h)


@pytest.mark.parametrize("rows", [
    [OpRecord(0, "write", 0, 5, 2), OpRecord(0, "write", 0, 0, 1), OpRecord(1, "read", 6, 7, 2)],
    [OpRecord(0, "write", 0, 0, 1), OpRecord(0, "write", 0, 5, 2), OpRecord(1, "read", 6, 7, 2)],
    [OpRecord(1, "read", 0, 5, 0), OpRecord(1, "read", 0, 0, 0)],
    [OpRecord(1, "read", 0, 0, 0), OpRecord(1, "read", 0, 5, 0)],
])
def test_operations_invoked_at_once_are_ordered_by_response(rows):
    # A zero-length operation invoked at the same tick as a longer one goes
    # first, whichever row holds it.
    h = H(*rows)
    report = check_history(h)
    assert report.total_violations == 0
    assert report == reference_check_history(h)


def test_thread_rows_out_of_program_order_are_sorted_before_the_check():
    h = H(
        OpRecord(0, "write", 0, 1, 1),
        OpRecord(1, "read", 5, 6, 1),
        OpRecord(1, "read", 2, 3, 1),
    )
    report = check_history(h)
    assert report.total_violations == 0
    assert report == reference_check_history(h)
