import random
import sys
import threading
from typing import NamedTuple

import pytest

from helpers import parse_labeled_sgr, segment_bursts
from sgdrift.stream_model import (SGR, BurstProfile, SgrParseError, ingest_timestamp,
                                  parse_sgr)


class Event(NamedTuple):
    new_timestamp: bool
    starts_window: bool


def feed(taus):
    """Ingest ``taus``; a record's timestamp is new when it grew ``seen``."""
    profile = BurstProfile()
    events = []
    for tau in taus:
        closed = len(profile.seen)
        starts_window = ingest_timestamp(profile, tau)
        events.append(Event(len(profile.seen) > closed, starts_window))
    return profile, events


# --- parsing -----------------------------------------------------------------

def test_parse_basic():
    r = parse_sgr("3,7,1.0,42", t=1)
    assert r == SGR("3", "7", 1.0, 42, 1)


def test_parse_opaque_ids_and_negative_tau():
    r = parse_sgr("a,b,2.5,-1", t=9)
    assert r == SGR("a", "b", 2.5, -1, 9)


def test_parse_bad_weight_names_field():
    with pytest.raises(SgrParseError, match="field 3"):
        parse_sgr("3,7,x,42", t=1)


def test_parse_bad_tau_names_field():
    with pytest.raises(SgrParseError, match="field 4"):
        parse_sgr("3,7,1.0,4.2", t=1)


def test_parse_field_count_and_empty_tokens():
    with pytest.raises(SgrParseError, match="4 fields"):
        parse_sgr("3,7,1.0", t=1)
    with pytest.raises(SgrParseError, match="field 1"):
        parse_sgr(",7,1.0,42", t=1)


def test_parse_blank_line_is_skip_signal():
    assert parse_sgr("   ", t=1) is None
    assert parse_sgr("\n", t=1) is None


def test_parse_labeled_adds_arrival_field():
    record, arrival = parse_labeled_sgr("3,7,1.0,42,5", t=1)
    assert record.tau == 42 and arrival == 5
    with pytest.raises(SgrParseError, match="5 fields"):
        parse_labeled_sgr("3,7,1.0,42", t=1)


def test_parse_slots_hold_across_threads():
    # Four streams with disjoint timestamp and weight text, in bursts of
    # three, each parsed in its own thread under a tiny switch interval: a
    # thread preempted between reading a slot's text and its value, were
    # they kept apart, would take another stream's value for its own text.
    streams = [[f"i{n},j{n},{k}.5,{k}{n // 3:06d}\n" for n in range(30_000)]
               for k in range(1, 5)]
    expected = [[parse_sgr(line, t) for t, line in enumerate(lines, 1)] for lines in streams]
    got = [None] * len(streams)

    def parse(k):
        got[k] = [parse_sgr(line, t) for t, line in enumerate(streams[k], 1)]

    threads = [threading.Thread(target=parse, args=(k,)) for k in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(streams)):
        assert got[k] == expected[k], f"stream {k}"


# --- ingest ------------------------------------------------------------------

def test_ingest_trace_1_1_2():
    profile, events = feed([1, 1, 2])
    assert profile.average == pytest.approx(1.5)  # (1*1 + 2) / 2
    assert profile.current == 1
    assert events[2].new_timestamp


def test_ingest_late_arrival_increments_current_burst():
    profile, events = feed([1, 1, 2, 1])
    assert not events[3].new_timestamp
    assert profile.current == 2


def test_first_record_never_starts_window():
    _, events = feed([5])
    assert not events[0].starts_window


def test_window_starts_at_third_distinct_timestamp():
    _, events = feed([1, 1, 2, 3, 4])
    assert [e.starts_window for e in events] == [False, False, False, True, True]


def test_starts_window_implies_new_timestamp():
    rng = random.Random(7)
    taus = [rng.randint(0, 20) for _ in range(500)]
    _, events = feed(taus)
    assert all(e.new_timestamp for e in events if e.starts_window)


def test_replay_determinism():
    rng = random.Random(3)
    taus = [rng.randint(0, 30) for _ in range(400)]
    _, first = feed(taus)
    _, second = feed(taus)
    assert first == second


def test_average_equals_mean_of_folded_samples():
    # Trace oracle: collect the burst-size samples the update rule folds in
    # (the value of the running counter at each new timestamp) and compare
    # their arithmetic mean with the maintained average.
    for seed in range(20):
        rng = random.Random(seed)
        taus = [rng.randint(0, 15) for _ in range(rng.randint(1, 300))]
        folded = []
        seen = set()
        counter = 1
        for tau in taus:
            if tau in seen:
                counter += 1
            else:
                folded.append(counter)
                counter = 1
            seen.add(tau)
        profile, _ = feed(taus)
        assert profile.average == pytest.approx(sum(folded) / len(folded))
        assert len(profile.seen) == len(folded)


def test_count_conservation():
    # Every record adds exactly one to (sum of folded samples + current
    # counter); the +1 offset is the phantom sample seeded by the counter's
    # initial value, folded at the first record.
    for seed in range(10):
        rng = random.Random(100 + seed)
        taus = [rng.randint(0, 10) for _ in range(200)]
        profile = BurstProfile()
        folded_sum = 0.0
        for tau in taus:
            before = len(profile.seen)
            ingest_timestamp(profile, tau)
            if len(profile.seen) > before:
                folded_sum = profile.average * len(profile.seen)
        assert folded_sum + profile.current == pytest.approx(len(taus) + 1)


def test_profile_invariants_hold_throughout():
    rng = random.Random(11)
    profile = BurstProfile()
    # A fresh profile holds the burst invariants too; its average is 0.
    assert profile.maximum >= profile.current >= 1
    for _ in range(600):
        ingest_timestamp(profile, rng.randint(0, 25))
        assert profile.current >= 1
        assert profile.maximum >= profile.current
        assert 1.0 <= profile.average <= profile.maximum
        assert list(profile.seen.values()) == list(range(len(profile.seen)))


def test_order_keeps_first_seen_order():
    profile, _ = feed([5, 3, 5, 9, 3, 1])
    assert list(profile.seen) == [5, 3, 9, 1]


# --- burst segmentation oracle ------------------------------------------------

def _sgr(payload_id, tau, t):
    return SGR(f"i{payload_id}", f"j{payload_id}", 1.0, tau, t)


def test_segment_bursts_motivating_example():
    # Fifteen records over five arrival points, with a duplicated burst and
    # late arrivals, split into seven bursts.
    labeled = [
        (_sgr(1, 1, 1), 1), (_sgr(2, 1, 2), 1),
        (_sgr(3, 2, 3), 2), (_sgr(4, 2, 4), 2),
        (_sgr(1, 1, 5), 2), (_sgr(2, 1, 6), 2),
        (_sgr(5, 3, 7), 3), (_sgr(6, 3, 8), 3),
        (_sgr(7, 1, 9), 3), (_sgr(8, 1, 10), 3),
        (_sgr(9, 4, 11), 4),
        (_sgr(3, 5, 12), 5), (_sgr(10, 5, 13), 5),
        (_sgr(11, 5, 14), 5), (_sgr(12, 5, 15), 5),
    ]
    bursts = segment_bursts(labeled)
    assert len(bursts) == 7
    assert [len(b.records) for b in bursts] == [2, 2, 2, 2, 2, 1, 4]
    # the duplicate of burst 1 arrives later with the same payloads and tau
    assert bursts[2].tau == bursts[0].tau
    assert {r.i for r in bursts[2].records} == {r.i for r in bursts[0].records}
    assert bursts[2].arrival > bursts[0].arrival


def test_segment_bursts_single_group():
    labeled = [(_sgr(k, 7, k), 1) for k in range(1, 6)]
    assert len(segment_bursts(labeled)) == 1


def test_segment_bursts_one_per_record():
    labeled = [(_sgr(k, k, k), k) for k in range(1, 6)]
    assert len(segment_bursts(labeled)) == 5
