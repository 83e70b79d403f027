import random
from collections import Counter
from itertools import groupby
from operator import attrgetter
from statistics import fmean

import pytest

from sgdrift.butterfly import BipartiteWindow, enumerate_young
from sgdrift.genstream import (BASE_PARAMS, DriftSchedule, GeneratorConfig,
                               format_burst, generate, generate_to_files,
                               read_ground_truth)
from sgdrift.stream_model import parse_sgr


# --- schedules -------------------------------------------------------------------

def test_gradual_schedule_plateaus():
    schedule = DriftSchedule.make("gradual", 100_000)
    assert BASE_PARAMS == (0.4, 1, 4)
    assert schedule.changes == ((200_000, (0.6, 3, 4)), (300_000, (0.4, 1, 4)),
                                (400_000, (0.6, 3, 4)))


def test_recurring_schedule_returns_to_original():
    schedule = DriftSchedule.make("recurring", 100_000)
    assert schedule.changes == ((200_000, (0.6, 3, 4)), (300_000, (0.4, 1, 4)))
    assert schedule.changes[-1][1] == BASE_PARAMS


def test_change_counts_per_pattern():
    gradual = DriftSchedule.make("gradual", 10)
    recurring = DriftSchedule.make("recurring", 10)
    assert [index for index, _ in gradual.changes] == [20, 30, 40]
    assert [index for index, _ in recurring.changes] == [20, 30]


def test_schedule_validation():
    with pytest.raises(ValueError):
        DriftSchedule.make("sudden", 10)
    with pytest.raises(ValueError):
        DriftSchedule.make("gradual", 0)


# --- generation ------------------------------------------------------------------

def small_stream(pattern="gradual", delta=400, n=2000, seed=3, prefix=200):
    config = GeneratorConfig(seed=seed, prefix_len=prefix)
    schedule = DriftSchedule.make(pattern, delta)
    return generate(config, schedule, n), config, schedule


def test_ground_truth_boundary_enumeration():
    config = GeneratorConfig(seed=1, prefix_len=5, m=2)
    schedule = DriftSchedule.make("gradual", 2)
    _, truth = generate(config, schedule, 10)
    # changes at 4, 6, 8; those at or below the prefix are suppressed
    assert truth.cd_indices == (5, 6, 8)
    assert len(truth.cd_timestamps) == 3


def test_truth_timestamps_match_stream():
    (records, truth), _, _ = small_stream()
    by_index = {r.t: r.tau for r in records}
    assert truth.cd_timestamps == tuple(by_index[c] for c in truth.cd_indices)


def test_fixed_seed_reproduces_stream_exactly():
    (first, truth1), _, _ = small_stream()
    (second, truth2), _, _ = small_stream()
    assert first == second
    assert truth1 == truth2


def test_different_seeds_differ():
    (first, _), _, _ = small_stream(seed=3)
    (second, _), _, _ = small_stream(seed=4)
    assert first != second


def test_bursts_share_tau_and_tau_strictly_increases():
    (records, _), _, _ = small_stream()
    taus = [r.t for r in records]
    assert taus == list(range(1, len(records) + 1))
    seen_tau = []
    for r in records:
        if not seen_tau or r.tau != seen_tau[-1]:
            seen_tau.append(r.tau)
    assert seen_tau == sorted(set(seen_tau))
    assert all(b == a + 1 for a, b in zip(seen_tau, seen_tau[1:]))


def test_bursts_never_straddle_boundaries():
    (records, truth), _, schedule = small_stream()
    cuts = set(truth.cd_indices) | {index for index, _ in schedule.changes}
    burst_of = {}
    for r in records:
        burst_of.setdefault(r.tau, []).append(r.t)
    for indices in burst_of.values():
        for cut in cuts:
            assert not (indices[0] <= cut < indices[-1])


def test_raised_regime_has_strictly_larger_bursts():
    config = GeneratorConfig(seed=5, prefix_len=100)
    schedule = DriftSchedule.make("gradual", 12_000)
    records, _ = generate(config, schedule, 36_000)
    sizes = Counter()
    first_index = {}
    for r in records:
        sizes[r.tau] += 1
        first_index.setdefault(r.tau, r.t)
    base, raised = [], []
    for tau, size in sizes.items():
        start = first_index[tau]
        if 100 < start <= 24_000:
            base.append(size)
        elif start > 24_000:
            raised.append(size)
    assert len(base) > 1000 and len(raised) > 500
    assert fmean(raised) > fmean(base) + 1.0  # two-sided margin


def test_every_regime_produces_butterflies():
    (records, truth), _, _ = small_stream(n=3000, delta=600, prefix=200)
    boundaries = [0, *truth.cd_indices, len(records)]
    for lo, hi in zip(boundaries, boundaries[1:]):
        window = BipartiteWindow()
        count = 0
        segment = [r for r in records if lo < r.t <= hi]
        current_tau = None
        for r in segment:
            if r.tau != current_tau:
                count += len(enumerate_young(window, set(window.j_last_tau.values())))
                window.clear()
                current_tau = r.tau
            window.add(r.i, r.j, r.tau)
        count += len(enumerate_young(window, set(window.j_last_tau.values())))
        assert count >= len(segment) // 1000 + 1


def test_rejects_n_not_exceeding_prefix():
    config = GeneratorConfig(seed=1, prefix_len=50)
    with pytest.raises(ValueError):
        generate(config, DriftSchedule.make("gradual", 10), 50)


def test_config_validation():
    with pytest.raises(ValueError, match="m must be positive"):
        GeneratorConfig(m=0)


def test_config_rejects_negative_seed():
    # random.Random(-s) seeds like Random(s), so -3 would write seed 3's stream.
    assert random.Random(-3).random() == random.Random(3).random()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        GeneratorConfig(seed=-3)
    assert GeneratorConfig(seed=0).seed == 0


# --- files -----------------------------------------------------------------------

def test_file_round_trip(tmp_path):
    config = GeneratorConfig(seed=8, prefix_len=50, m=4)
    schedule = DriftSchedule.make("recurring", 150)
    stream_path = tmp_path / "s.stream"
    truth_path = tmp_path / "s.truth"
    truth = generate_to_files(config, schedule, 600, stream_path, truth_path)

    in_memory, truth_mem = generate(config, schedule, 600)
    assert truth == truth_mem
    with open(stream_path, encoding="utf-8") as handle:
        parsed = [parse_sgr(line, t) for t, line in enumerate(handle, start=1)]
    assert parsed == in_memory
    assert read_ground_truth(truth_path) == truth


def test_format_round_trips_through_parser():
    (records, _), _, _ = small_stream(n=400, delta=100, prefix=50)
    for tau, burst in groupby(records[:100], key=attrgetter("tau")):
        burst = list(burst)
        lines = format_burst(tau, [(r.i, r.j) for r in burst]).splitlines()
        assert [parse_sgr(line, r.t) for line, r in zip(lines, burst, strict=True)] == burst


@pytest.mark.parametrize("bad", ["800", "800,123,5", "x,123", "800,12.5"])
def test_malformed_truth_line_names_its_number(tmp_path, bad):
    path = tmp_path / "t.truth"
    path.write_text(f"300,58\n\n{bad}\n")
    with pytest.raises(ValueError, match=r"^truth line 3: expected index,tau "):
        read_ground_truth(path)


@pytest.mark.parametrize("bad", ["0,5", "-3,2"])
def test_truth_index_below_one_names_its_line(tmp_path, bad):
    path = tmp_path / "t.truth"
    path.write_text(f"\n{bad}\n300,58\n")
    index = bad.split(",")[0]
    with pytest.raises(ValueError, match=rf"^truth line 2: index {index} is below 1 "):
        read_ground_truth(path)

