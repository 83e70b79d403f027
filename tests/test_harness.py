import json
import random
import time

import pytest

from sgdrift.genstream import GroundTruth
from sgdrift.harness import DeterminismError, distances, repeated_timing
from sgdrift.signals import DriftSignal


def sig(t, window=None, wall=0.0, mode="sgdp"):
    return DriftSignal(mode=mode, t=t, window=window or t, wall_ms=wall)


TRUTH_ONE = GroundTruth((1000,), (10,))


# --- distances -------------------------------------------------------------------

def test_distances_fixture():
    report = distances([sig(900), sig(995)], TRUTH_ONE)
    cd = report.per_cd[0]
    assert cd.d_first == 100 and cd.d_last == 5
    assert cd.count == 2
    assert report.false_negatives == []


def test_signal_exactly_at_cd_has_zero_distance():
    report = distances([sig(1000)], TRUTH_ONE)
    assert report.per_cd[0].d_last == 0


def test_cd_without_signals_is_false_negative():
    truth = GroundTruth((100, 200), (1, 2))
    report = distances([sig(50)], truth)
    assert report.false_negatives == [200]
    assert report.per_cd[1].count == 0
    assert report.per_cd[1].d_first is None


def test_buckets_attribute_to_next_cd():
    truth = GroundTruth((100, 200, 300), (1, 2, 3))
    report = distances([sig(40), sig(100), sig(150), sig(299), sig(300)], truth)
    assert [cd.count for cd in report.per_cd] == [2, 1, 2]
    assert report.per_cd[2].d_first == 1 and report.per_cd[2].d_last == 0


def test_after_last_signals_reported_separately():
    report = distances([sig(900), sig(1005), sig(1400)], TRUTH_ONE)
    assert report.after_last.count == 2
    assert report.after_last.d_first == 5
    assert report.after_last.d_last == 400


def test_false_positive_needs_drift_interval():
    signals = [sig(900), sig(1005), sig(1400)]
    assert distances(signals, TRUTH_ONE).false_positives == 0
    report = distances(signals, TRUTH_ONE, drift_interval=300)
    assert report.false_positives == 1  # only the one beyond 1000+300


@pytest.mark.parametrize("interval", [0, -5])
def test_non_positive_drift_interval_rejected(interval):
    # A negative interval would count every trailing signal as a false positive.
    with pytest.raises(ValueError, match="drift interval must be positive"):
        distances([sig(900), sig(1005), sig(1400)], TRUTH_ONE, drift_interval=interval)


def test_unsorted_signals_rejected():
    with pytest.raises(ValueError):
        distances([sig(995), sig(900)], TRUTH_ONE)


def test_empty_truth_rejected():
    with pytest.raises(ValueError):
        distances([sig(1)], GroundTruth((), ()))
    with pytest.raises(ValueError):
        distances([sig(1)], GroundTruth((5, 5), (1, 1)))


def test_adding_signals_moves_endpoints_monotonically():
    # An extra signal can only pull first_t earlier and last_t later, so
    # d_first never decreases and d_last never increases.
    rng = random.Random(2)
    truth = GroundTruth((50, 120, 400), (1, 2, 3))
    ts = sorted(rng.sample(range(1, 500), 40))
    signals = []
    previous = None
    for t in ts:
        signals = sorted(signals + [sig(t)], key=lambda s: s.t)
        report = distances(signals, truth)
        if previous is not None:
            for old, new in zip(previous.per_cd, report.per_cd):
                if old.d_first is not None:
                    assert new.d_first >= old.d_first
                    assert new.d_last <= old.d_last
        previous = report


def test_report_round_trips_through_json():
    report = distances([sig(900), sig(995), sig(1200)], TRUTH_ONE,
                       drift_interval=100)
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


def test_table_layout():
    table = distances([sig(900), sig(995)], TRUTH_ONE).to_table()
    header, row = table.strip().splitlines()
    assert header.split("\t")[:2] == ["d_1f", "d_1l"]
    assert "-/100" in row and "-/5" in row


# --- repeated timing ---------------------------------------------------------------

def make_runner(signal_ts, cd_indices, delay_ms=0.0, jitter=None):
    """Deterministic fake detector: signals fire just before each CD."""
    calls = {"n": 0}

    def run():
        calls["n"] += 1
        base = time.time() * 1000.0
        signals = [DriftSignal("sgdp", t, t, base + k) for k, t in enumerate(signal_ts)]
        if jitter is not None and calls["n"] == jitter:
            signals = signals[:-1]  # drop a signal on one run
        if delay_ms:
            time.sleep(delay_ms / 1000.0)
        after = time.time() * 1000.0
        cd_wall = [after + c for c in range(len(cd_indices))]
        return signals, cd_wall

    return run


def test_repeated_timing_aggregates_ms_and_keeps_sgr_fixed():
    truth = GroundTruth((100, 200), (1, 2))
    runner = make_runner([90, 95, 190], truth.cd_indices)
    report = repeated_timing(runner, truth, runs=4, batches=2)
    assert report.runs == 4
    first = report.per_cd[0]
    assert first.d_first == 10 and first.d_last == 5
    assert first.ms_first_mean is not None and first.ms_first_std is not None
    assert report.per_cd[1].d_first == 10


def test_repeated_timing_reads_each_drift_at_its_own_bucket():
    # Each drift's ms distances come from the first and last signal of its
    # own bucket: past an empty bucket, and the last of two signals that
    # share a record index.
    truth = GroundTruth((100, 120, 200), (1, 2, 3))
    signals = [DriftSignal("sgdp", t, t, wall) for t, wall in
               ((90, 1.0), (95, 2.0), (95, 3.0), (150, 10.0), (190, 20.0), (250, 40.0))]
    report = repeated_timing(lambda: (signals, [100.0, 120.0, 200.0]), truth,
                             runs=2, batches=1)
    assert [(cd.ms_first_mean, cd.ms_last_mean) for cd in report.per_cd] == \
        [(99.0, 97.0), (None, None), (190.0, 180.0)]


def test_single_run_matches_offline_distances():
    truth = GroundTruth((100,), (1,))
    runner = make_runner([90], truth.cd_indices)
    report = repeated_timing(runner, truth, runs=1, batches=1)
    signals, _ = runner()
    offline = distances(signals, truth)
    assert [(c.index, c.d_first, c.d_last) for c in report.per_cd] == \
           [(c.index, c.d_first, c.d_last) for c in offline.per_cd]


def test_injected_sleep_grows_ms_but_not_sgr():
    truth = GroundTruth((100,), (1,))
    fast = repeated_timing(make_runner([90], truth.cd_indices),
                           truth, runs=2, batches=1)
    slow = repeated_timing(make_runner([90], truth.cd_indices, delay_ms=30.0),
                           truth, runs=2, batches=1)
    assert slow.per_cd[0].d_first == fast.per_cd[0].d_first == 10
    assert slow.per_cd[0].ms_first_mean > fast.per_cd[0].ms_first_mean + 20.0


def test_nondeterministic_runner_hard_fails():
    truth = GroundTruth((100,), (1,))
    # Call 1 is the batch's warmup, so call 4 is the third timed run.
    runner = make_runner([90, 95], truth.cd_indices, jitter=4)
    with pytest.raises(DeterminismError):
        repeated_timing(runner, truth, runs=4, batches=1)


def test_rerun_that_moves_a_false_positive_hard_fails():
    # Every bucket keeps its first and last signal and its count; only the
    # middle trailing signal crosses last drift + interval = 150.
    truth = GroundTruth((100,), (1,))
    moved = {"n": 0}

    def run():
        moved["n"] += 1
        middle = 160 if moved["n"] == 3 else 140  # call 1 is the batch's warmup
        signals = [DriftSignal("sgdp", t, t, float(t)) for t in (90, 120, middle, 200)]
        return signals, [0.0]

    with pytest.raises(DeterminismError):
        repeated_timing(run, truth, runs=2, batches=1, drift_interval=50)


def test_runs_must_divide_into_batches():
    truth = GroundTruth((100,), (1,))
    with pytest.raises(ValueError):
        repeated_timing(make_runner([90], truth.cd_indices), truth,
                        runs=5, batches=2)
