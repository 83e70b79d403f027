import math
import random
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import FIG5_DOTTED, FIG5_SOLID, reference_sgdd, taus_to_records
from sgdrift import sgdd
from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate
from sgdrift.sgdd import (SgddConfig, SgddState, cdc_butterfly, graph_at, rebuild_o2,
                          run_sgdd, sgdd_step, sprime_length)
from sgdrift.sgdp import SgdpConfig
from sgdrift.stream_model import SGR, BurstProfile, ingest_timestamp
from sgdrift.uwgo import OscillatorGraph
from test_golden import SGDD_APPENDIX_GOLDEN, SGDD_GOLDEN, _digest

# The five golden sgdd runs: each SGDD_GOLDEN stream, and the appendix case.
GOLDEN_RUNS = [*((pattern, seed, "default") for pattern, seed in sorted(SGDD_GOLDEN)),
               ("gradual", 3, "appendix")]


def fig5_stream():
    """Records reproducing the worked-example window, then a burst boundary.

    Two distinct timestamps arm the window guard; the boundary record's own
    edge joins the closing window but forms no butterfly. The stale j0
    edges carry the older timestamp.
    """
    records = []
    t = 0
    for i, j in FIG5_DOTTED:
        if j == "j0":
            t += 1
            records.append(SGR(i, j, 1.0, 1, t))
    for i, j in FIG5_SOLID + [(i, j) for i, j in FIG5_DOTTED if j != "j0"]:
        t += 1
        records.append(SGR(i, j, 1.0, 2, t))
    t += 1
    records.append(SGR("i99", "j99", 1.0, 3, t))
    return records


# --- S' ---------------------------------------------------------------------------

def test_sprime_decreasing_shrinks_with_detections():
    values = [sprime_length(6, d) for d in range(1, 6)]
    assert values == [6, 3, 2, 2, 2]
    assert all(v >= 1 for v in values)


# --- drift check -----------------------------------------------------------------

def _series(n, value=0.5):
    return [value] * n


def test_cdc_blocked_by_window_spacing():
    o1 = _series(12, 0.4)
    o2 = [0.9] * 11 + [0.1]
    # identical evidence, but the last signal is too recent
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[7]) is None


def test_cdc_constructed_satisfaction():
    # S=2 and S'=2 at d=1; O1 flat, both preceding O2 values above the
    # current one, eleven windows since the initial log entry.
    o1 = _series(11, 0.4)
    o2 = [0.9] * 10 + [0.1]
    drift = [0]
    signal = cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=drift)
    assert signal is not None
    assert signal.params["S"] == 2 and signal.params["S_prime"] == 2
    assert signal.params["alpha"] == 3 and signal.params["more"] == 2
    assert drift == [0, 11]


def test_cdc_requires_steady_o1():
    o1 = [0.4] * 10 + [0.6]  # current O1 far from the suffix mean
    o2 = [0.9] * 10 + [0.1]
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[0]) is None


def test_cdc_requires_extremum_in_o2():
    o1 = _series(11, 0.4)
    o2 = [0.1, 0.9] * 5 + [0.5]  # mixed suffix, neither count reaches S'
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[0]) is None


def test_cdc_tests_spacing_before_reading_the_series():
    # Windows that no spaced check can read hold placeholders.
    o1 = _series(12, 0.4)
    assert cdc_butterfly(100, 10, o1, [None] * 12, t=100, drift_windows=[5]) is None


@pytest.mark.libm
def test_cdc_tests_steadiness_before_reading_o2():
    # S = 2 and S' = 2 at d = 1. Once C3 holds, the hook fills the O1 slice
    # C1 reads; here O1 moved, so the O2 suffix, all placeholders, is never
    # read, and the hook is not called for it.
    o1 = [None] * 12
    o2 = [None] * 12
    fills = []

    def fill(series, first, stop):
        fills.append(("o1" if series is o1 else "o2", first, stop))
        if series is o1:
            o1[first:stop] = [0.4] * (stop - first - 1) + [o1_now]
        else:
            o2[first:stop] = [0.9] * (stop - first - 1) + [0.1]

    o1_now = 0.6
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[0], fill=fill) is None
    assert fills == [("o1", 9, 12)] and o2 == [None] * 12
    # Steady O1: the O2 slice the check reads is filled after the O1 one.
    o1[:], o1_now = [None] * 12, 0.4
    fills.clear()
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[0], fill=fill) is not None
    assert fills == [("o1", 9, 12), ("o2", 9, 12)]
    # C3 fails: neither slice is read or filled.
    fills.clear()
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[5], fill=fill) is None
    assert fills == []


def test_cdc_insufficient_series_is_quiet():
    assert cdc_butterfly(100, 10, [0.4], [0.5], t=5, drift_windows=[0]) is None
    # Past C3 (window 23, last drift at 12) but with S = 25 > 22 prior
    # windows: without the history guard, S' = 2 would count a two-value O2
    # slice that wraps from index -3, and fire.
    assert cdc_butterfly(1e25, 1, [0.5] * 23, [0.9] * 22 + [0.1], t=99,
                         drift_windows=list(range(13))) is None


def test_cdc_precision_tightens_with_detections():
    # The steadiness tolerance is 10**-(d+2): a 5e-4 wobble passes at d=1
    # (1e-3) but fails at d=2 (1e-4); a 5e-5 wobble passes again.
    o1 = [0.4] * 10 + [0.4 + 5e-4]
    o2 = [0.9] * 10 + [0.1]
    assert cdc_butterfly(100, 10, o1, o2, t=100, drift_windows=[0]) is not None
    o1 = [0.4] * 30 + [0.4 + 5e-4]
    o2 = [0.9] * 30 + [0.1]
    assert cdc_butterfly(100, 10, o1, o2, t=300, drift_windows=[0, 15]) is None
    o1 = [0.4] * 30 + [0.4 + 5e-5]
    assert cdc_butterfly(100, 10, o1, o2, t=300, drift_windows=[0, 15]) is not None


def test_cdc_falls_silent_for_good_after_321_signals():
    # C1's tolerance 10**-(d+2) is the subnormal 1e-323 at d = 321 and
    # underflows to 0.0 at d = 322, so once the drift log holds 322 entries
    # (321 signals) not even a constant O1 passes C1, whatever O2 does.
    o1 = [0.4] * 340
    o2 = [0.9] * 339 + [0.1]
    signal = cdc_butterfly(100, 10, o1, o2, t=1000, drift_windows=list(range(321)))
    assert signal is not None and signal.params["alpha"] == 323
    assert signal.params["mu1"] == signal.params["O1"]
    assert 10.0 ** -324 == 0.0
    assert cdc_butterfly(100, 10, o1, o2, t=1000, drift_windows=list(range(322))) is None


def test_sgdd_falls_silent_before_the_last_drift_of_a_long_stream():
    # The ceiling above, reached on a generated stream: the 321st signal
    # (alpha 323) comes at t = 29,717, and the drift at 32,000 gets none.
    records, truth = generate(GeneratorConfig(seed=7), DriftSchedule.make("gradual", 16000),
                              33000)
    signals = run_sgdd(records)
    assert len(signals) == 321
    assert signals[-1].params["alpha"] == 323
    assert signals[-1].t < truth.cd_indices[-1]
    # All 321 pass C1 by exact equality, so comparing with exact equality
    # once the tolerance is below O1's resolution would keep every one.
    assert all(s.params["mu1"] == s.params["O1"] for s in signals)


def test_cdc_decisions_match_direct_count_oracle():
    rng = random.Random(321)
    for _ in range(300):
        n = rng.randint(1, 25)
        o1 = [round(rng.uniform(0, 1), 3) for _ in range(n)]
        o2 = [round(rng.uniform(0, 1), 3) for _ in range(n)]
        if rng.random() < 0.5 and n >= 3:
            o1[-min(4, n):] = [o1[-1]] * min(4, n)  # force steady tails often
        window = n
        d = rng.randint(1, 5)
        drift = [0] + sorted(rng.sample(range(1, max(2, window - 11)),
                                        min(d - 1, max(0, window - 12))))
        average = rng.uniform(1, 500)
        maximum = rng.uniform(average, 10 ** rng.randint(2, 6))
        variant = rng.choice(["default", "appendix"])
        expected = _cdc_oracle(average, maximum, o1, o2, window, list(drift), variant)
        got = cdc_butterfly(maximum, average, o1, o2, 10 * window, list(drift), variant)
        assert (got is not None) == expected


def _cdc_oracle(average, maximum, o1, o2, window, drift, variant):
    num = len(str(int(max(maximum, 100)))) - 1
    den = len(str(int(max(average, 10)))) - 1
    d = len(drift)
    flip = (d % 2 == 0) if variant == "default" else (d % 2 == 1)
    if flip:
        num, den = den, num
    s = max(1, math.ceil(Fraction(num, den)))
    sprime = max(1, math.ceil(Fraction(s, d)))
    prior1, prior2 = o1[:window - 1], o2[:window - 1]
    if len(prior2) < s or len(prior1) < sprime:
        return False
    suffix = prior2[-s:]
    more = sum(1 for v in suffix if v > o2[window - 1])
    less = sum(1 for v in suffix if v < o2[window - 1])
    mu1 = sum(prior1[-sprime:]) / sprime
    c1 = abs(Decimal(mu1) - Decimal(o1[window - 1])) < Decimal(10) ** -(d + 2)
    c2 = more >= sprime or less >= sprime
    c3 = window - drift[-1] > 10
    return c1 and c2 and c3


# --- stepping --------------------------------------------------------------------

def test_two_records_open_no_window():
    state = SgddState()
    assert sgdd_step(state, SGR("a", "x", 1.0, 1, 1)) is None
    assert sgdd_step(state, SGR("b", "y", 1.0, 2, 2)) is None
    assert len(state.graph) == 0
    assert state.o1 == [] and state.o2 == []


def test_fig5_stream_one_window_no_signal():
    state = SgddState(config=SgddConfig(x=0.5, seed=1))
    signals = [s for r in fig5_stream() if (s := sgdd_step(state, r))]
    assert signals == []
    assert len(state.o1) == 1 and len(state.o2) == 1
    assert len(state.graph) == 8  # the worked example's young butterflies
    # No check can read window 1's O1 or O2, so both were skipped.
    assert state.o1 == [None] and state.o2 == [None]
    assert graph_at(state, 0).coherence() > 0.0
    # predicted phase changes are small and clustered: high coherence
    assert rebuild_o2(state, 0) > 0.9


# --- skipped windows ----------------------------------------------------------------

def _run_counting_rebuilds(monkeypatch, records, config):
    """Signals, the O2 series and the indices ``rebuild_o2`` was called for."""
    rebuilt = []
    rebuild = sgdd.rebuild_o2
    monkeypatch.setattr(sgdd, "rebuild_o2",
                        lambda state, k: rebuilt.append(k) or rebuild(state, k))
    state = SgddState(config=config)
    signals = [s for r in records if (s := sgdd_step(state, r)) is not None]
    monkeypatch.setattr(sgdd, "rebuild_o2", rebuild)
    return signals, state.o2, rebuilt


def _reference_run(records, config):
    """Signals and O2 series of ``reference_sgdd``, which computes every window."""
    signals, _, o2 = reference_sgdd(records, x=config.x, sigma=config.sigma,
                                    seed=config.seed, variant=config.variant)
    return signals, o2


@pytest.mark.parametrize("pattern,seed,variant", GOLDEN_RUNS)
def test_rebuilt_o2_keeps_golden_fingerprints(monkeypatch, pattern, seed, variant):
    # With the bound on S forced down, windows that spaced checks read are
    # skipped too, and every such read goes through rebuild_o2 for O2 and
    # through the fill hook for O1, some of it from a graph that has grown
    # since, rebuilt by prefix.
    records, _ = generate(GeneratorConfig(seed=seed, prefix_len=500),
                          DriftSchedule.make(pattern, 500), 3000)
    config = SgddConfig(seed=seed, variant=variant)
    _, unskipped = _reference_run(records, config)
    bound = sgdd.suffix_bound
    monkeypatch.setattr(sgdd, "suffix_bound",
                        lambda maximum, d, variant: bound(maximum, d, variant) - 8)
    past_o1 = []
    prefix, coherence = OscillatorGraph.prefix, OscillatorGraph.coherence

    def marked_prefix(graph, n, m):
        past = prefix(graph, n, m)
        past.coherence = lambda: past_o1.append((n, m)) or coherence(past)
        return past

    monkeypatch.setattr(OscillatorGraph, "prefix", marked_prefix)
    signals, o2, rebuilt = _run_counting_rebuilds(monkeypatch, records, config)
    expected = SGDD_GOLDEN[(pattern, seed)] if variant == "default" else SGDD_APPENDIX_GOLDEN
    assert _digest(signals) == expected
    # Every golden signal passes C1 by exact equality, from alpha 3 on.
    assert all(s.params["mu1"] == s.params["O1"] for s in signals)
    assert rebuilt
    assert [o2[k] for k in rebuilt] == [unskipped[k] for k in rebuilt]
    assert past_o1, "no O1 fill read a graph that has grown since"


@pytest.mark.libm
@pytest.mark.parametrize("pattern,seed,variant", GOLDEN_RUNS)
def test_filled_o1_placeholders_give_the_reference_series(pattern, seed, variant):
    # Every window that no check could read holds None in o1. Filled from
    # the graph as it stood then, live or rebuilt by prefix, the series is
    # the literal detector's, bit for bit.
    records, _ = generate(GeneratorConfig(seed=seed, prefix_len=500),
                          DriftSchedule.make(pattern, 500), 3000)
    config = SgddConfig(seed=seed, variant=variant)
    state = SgddState(config=config)
    for r in records:
        sgdd_step(state, r)
    past = 0
    for k, value in enumerate(state.o1):
        if value is None:
            graph = graph_at(state, k)
            past += graph is not state.graph
            state.o1[k] = graph.coherence()
    assert past
    _, expected, _ = reference_sgdd(records, x=config.x, sigma=config.sigma,
                                    seed=config.seed, variant=config.variant)
    assert [v.hex() for v in state.o1] == [v.hex() for v in expected]


def _traced_golden_run(monkeypatch, pattern, seed, variant):
    """Run one golden stream, tracing every check through its ``fill`` hook.

    Returns one namespace per check: ``d``, the drift log's length before
    it; ``read``, the range of the O2 slice it filled (``None`` if C3 or C1
    stopped it); ``rebuilt``, the indices ``rebuild_o2`` computed inside
    that fill; and ``fired``. Also returns the indices rebuilt anywhere else.
    """
    records, _ = generate(GeneratorConfig(seed=seed, prefix_len=500),
                          DriftSchedule.make(pattern, 500), 3000)
    state = SgddState(config=SgddConfig(seed=seed, variant=variant))
    checks, filling, outside = [], [], []
    check, rebuild = sgdd.cdc_butterfly, sgdd.rebuild_o2

    def traced_check(*args):
        *args, fill = args
        traced = SimpleNamespace(d=len(args[5]), read=None, rebuilt=[])

        def traced_fill(series, first, stop):
            if series is not state.o2:
                return fill(series, first, stop)
            traced.read = range(first, stop)
            filling.append(traced)
            fill(series, first, stop)
            filling.pop()

        checks.append(traced)
        signal = check(*args, traced_fill)
        traced.fired = signal is not None
        return signal

    monkeypatch.setattr(sgdd, "cdc_butterfly", traced_check)
    monkeypatch.setattr(sgdd, "rebuild_o2", lambda s, k: (
        filling[-1].rebuilt if filling else outside).append(k) or rebuild(s, k))
    for r in records:
        sgdd_step(state, r)
    return checks, outside


@pytest.mark.parametrize("pattern,seed,variant", GOLDEN_RUNS)
def test_checks_integrate_only_the_o2_they_read_oldest_first(
        monkeypatch, pattern, seed, variant):
    # O2 is computed only inside the check that reads it: the check's O2
    # slice is the S windows before it and its own, so it integrates at most
    # S + 1, and the golden runs reach that. Checks come in window order
    # and fill their slices oldest first, so the rebuilt indices increase.
    checks, outside = _traced_golden_run(monkeypatch, pattern, seed, variant)
    assert outside == []
    assert all(k in c.read for c in checks for k in c.rebuilt)
    assert max(len(c.rebuilt) - len(c.read) for c in checks if c.read) == 0
    rebuilt = [k for c in checks for k in c.rebuilt]
    assert rebuilt and all(a < b for a, b in zip(rebuilt, rebuilt[1:]))


@pytest.mark.parametrize("pattern,seed,variant", GOLDEN_RUNS)
def test_every_check_reaching_c2_at_sprime_1_fires(monkeypatch, pattern, seed, variant):
    # At S' = 1, C2 asks only that one of the S earlier O2 values differ
    # from the check's own, which the random frequencies all but ensure.
    checks, _ = _traced_golden_run(monkeypatch, pattern, seed, variant)
    at_one = [c.fired for c in checks
              if c.read and sprime_length(len(c.read) - 1, c.d) == 1]
    assert at_one and all(at_one)


def _saturated_stream(big_tau: int) -> list[SGR]:
    """Bursts of the complete 3 x 3 window, one timestamp each; the burst at
    ``big_tau`` sends its first edge 1,000 more times."""
    records = []
    for tau in range(1, 60):
        edges = [(f"i{a}", f"j{b}") for a in range(3) for b in range(3)]
        if tau == big_tau:
            edges += [edges[0]] * 1000
        for i, j in edges:
            records.append(SGR(i, j, 1.0, tau, len(records) + 1))
    return records


def test_burst_past_a_power_of_ten_rebuilds_a_skipped_window(monkeypatch):
    # Seed 0 signals at windows 11, 22, 33, ... In parentheses, the
    # rebuild_o2 calls by o2 index, which is w - 1 for window w. Every
    # window skips its O2, and each signalling check integrates the S
    # windows before it and its own, oldest first. Where the bound on S is
    # 2 (d = 1), the S = 2 check at window 11 reads (8, 9, 10). At d = 2
    # (windows 12-22) and d = 4 (windows 34-44) the bound on S is 1, so the
    # S = 1 checks at windows 22 and 44 read (20, 21) and (42, 43). The
    # burst at timestamp 32 opens with the record that closes window 30, so
    # the largest burst reaches 1,000 only after window 30 was skipped as
    # unreadable under S <= 2. At window 33, d = 3 gives S = 3, so the check
    # reaches back past the readable windows to window 30 (29, 30, 31, 32).
    # At d = 5 the bound is 3 again, and the S = 3 check at window 55 reads
    # (51, 52, 53, 54).
    records = _saturated_stream(big_tau=32)
    config = SgddConfig(seed=0)
    signals, o2, rebuilt = _run_counting_rebuilds(monkeypatch, records, config)
    assert rebuilt == [8, 9, 10, 20, 21, 29, 30, 31, 32, 42, 43, 51, 52, 53, 54]
    expected, reference_o2 = _reference_run(records, config)
    assert [o2[k] for k in rebuilt] == [reference_o2[k] for k in rebuilt]
    assert [s.params["S"] for s in signals if s.window == 33] == [3]
    assert [s.fingerprint() for s in signals] == [s.fingerprint() for s in expected]


@pytest.mark.parametrize("pattern,seed,variant", GOLDEN_RUNS)
def test_golden_runs_start_no_fresh_rng(monkeypatch, pattern, seed, variant):
    # rebuild_o2 seeds a fresh RNG only when its cursor has passed the
    # window it rebuilds. sgdd_step rebuilds windows oldest first, so the
    # only RNG a run seeds is its state's cursor.
    records, _ = generate(GeneratorConfig(seed=seed, prefix_len=500),
                          DriftSchedule.make(pattern, 500), 3000)
    seeded = []
    monkeypatch.setattr(sgdd, "random", SimpleNamespace(
        Random=lambda seed: seeded.append(seed) or random.Random(seed)))
    signals = run_sgdd(records, SgddConfig(seed=seed, variant=variant))
    expected = SGDD_GOLDEN[(pattern, seed)] if variant == "default" else SGDD_APPENDIX_GOLDEN
    assert _digest(signals) == expected
    assert seeded == [seed]


def test_every_placeholder_rebuilds_in_any_order(monkeypatch):
    # Newest first: the first rebuild takes the RNG cursor past every other
    # placeholder, which must each start a fresh RNG from the seed.
    records = _saturated_stream(big_tau=32)
    config = SgddConfig(seed=0)
    state = SgddState(config=config)
    for r in records:
        sgdd_step(state, r)
    pending = [k for k, value in enumerate(state.o2) if value is None][::-1]
    assert len(pending) > 30
    _, reference_o2 = _reference_run(records, config)
    fresh = []
    monkeypatch.setattr(sgdd, "random", SimpleNamespace(
        Random=lambda seed: fresh.append(seed) or random.Random(seed)))
    assert [rebuild_o2(state, k) for k in pending] == [reference_o2[k] for k in pending]
    assert None not in state.o2
    assert fresh == [config.seed] * (len(pending) - 1)


def _isolated_butterflies_stream() -> list[SGR]:
    """Bursts that each add one butterfly on j-vertices of their own.

    Each burst opens with an edge that joins the window before it, then
    sends a complete 2 x 2 biclique. Every window adds one vertex with no
    edge, so every phase is 0, O1 is 1 throughout, and C1 always holds.
    """
    records = []
    for tau in range(1, 40):
        edges = [(f"z{tau}", f"w{tau}")]
        edges += [(f"{i}{tau}", f"{j}{tau}") for i in "ab" for j in "xy"]
        for i, j in edges:
            records.append(SGR(i, j, 1.0, tau, len(records) + 1))
    return records


def _check_s1_rebuild(monkeypatch, records):
    """Run seed 0 over ``records`` counting rebuilds and ``prefix`` calls.

    Checks the signals and every rebuilt O2 against ``reference_sgdd``,
    and that the first S = 1 check, at window 22, fires. Returns the
    rebuilt indices and the ``prefix`` calls.
    """
    config = SgddConfig(seed=0)
    prefixes = []
    prefix = OscillatorGraph.prefix
    monkeypatch.setattr(OscillatorGraph, "prefix",
                        lambda graph, n, m: prefixes.append((n, m)) or prefix(graph, n, m))
    signals, o2, rebuilt = _run_counting_rebuilds(monkeypatch, records, config)
    expected, reference_o2 = _reference_run(records, config)
    assert [o2[k] for k in rebuilt] == [reference_o2[k] for k in rebuilt]
    assert [s.fingerprint() for s in signals] == [s.fingerprint() for s in expected]
    [signal] = [s for s in signals if s.window == 22]
    assert signal.params["S"] == 1
    assert signal.params["O2"] == reference_o2[21]
    return rebuilt, prefixes


@pytest.mark.libm
def test_s1_check_fires_over_a_skipped_window_of_the_live_graph(monkeypatch):
    # The complete 3 x 3 window re-derives the same butterflies every
    # window, so the graph stops growing at window 3. Every window skips its
    # O2, and each check integrates the live graph for the windows it reads,
    # oldest first: at d = 2 and d = 4 the S = 1 checks at windows 22 and
    # 44 read the window before and their own (20, 21 and 42, 43), and the
    # S = 2 checks at windows 11, 33 and 55 the two windows before and
    # their own (8, 9, 10 and 30, 31, 32 and 52, 53, 54).
    rebuilt, prefixes = _check_s1_rebuild(monkeypatch, _saturated_stream(big_tau=0))
    assert rebuilt == [8, 9, 10, 20, 21, 30, 31, 32, 42, 43, 52, 53, 54]
    assert prefixes == []


@pytest.mark.libm
def test_s1_check_rebuilds_a_smaller_past_graph_through_prefix(monkeypatch):
    # Here the graph grows by one vertex every window, so every window a
    # check reads before its own is smaller than the live graph and is
    # rebuilt through prefix: windows 9 and 10 for the S = 2 check at
    # window 11 (8, 9), window 21 for the S = 1 check at window 22 (20), and
    # windows 31 and 32 for the S = 2 check at window 33 (30, 31). Each
    # check's own window is the live graph (10, 21, 32).
    records = _isolated_butterflies_stream()
    state = SgddState()
    for r in records:
        sgdd_step(state, r)
    # Windows 1 and 2 close on an empty graph; window w holds w - 2 vertices.
    # O1 is taken only where a check can read it: from nine windows after
    # the last signal while the bound on S is 2 (d = 1, 3) and from ten
    # after it while the bound is 1 (d = 2, 4), so windows 3-8, 12-20, 23-30
    # and 34-37 hold None.
    assert state.o1[:2] == [0.0, 0.0] and set(state.o1[2:]) == {1.0, None}
    assert [k + 1 for k, value in enumerate(state.o1) if value is None] == [
        *range(3, 9), *range(12, 21), *range(23, 31), *range(34, 38)]
    assert state.graph.edge_count() == 0
    rebuilt, prefixes = _check_s1_rebuild(monkeypatch, records)
    assert rebuilt == [8, 9, 10, 20, 21, 30, 31, 32]
    assert prefixes == [(7, 0), (8, 0), (19, 0), (29, 0), (30, 0)]


def _growing_star_stream(grow_until: int) -> list[SGR]:
    """Bursts that each add one butterfly on a shared j-vertex, then stop adding.

    Like ``_isolated_butterflies_stream``, but every butterfly shares the
    j-vertex ``s``, so each new vertex links to all the earlier ones and O1
    changes every window the graph grows. From the burst at ``grow_until``
    on, each burst re-sends that burst's butterfly, so the graph is steady.
    """
    records = []
    for tau in range(1, 40):
        k = min(tau, grow_until)
        edges = [(f"z{tau}", f"w{tau}")]
        edges += [(f"{i}{k}", j) for i in "ab" for j in ("s", f"y{k}")]
        for i, j in edges:
            records.append(SGR(i, j, 1.0, tau, len(records) + 1))
    return records


@pytest.mark.libm
def test_growing_graph_integrates_only_what_checks_read(monkeypatch):
    # Window w holds w - 2 vertices up to window 14, and 12 from then on,
    # so the graph grows in windows 11-14, after C3 opens at window 11.
    # Each of those checks fails C1, because O1 changes with the graph, and
    # reads no O2, so none of them integrates. The check at window 16 is
    # the first whose O1 suffix is steady: it integrates the two windows
    # before it and its own (13, 14, 15), S + 1 = 3, and fires. At d = 2
    # the bound on S is 1 and the S = 1 check at window 27 reads the window
    # before and its own (25, 26). No window integrates outside a check
    # that reads it, so windows 10 and 37, whose checks C3 blocks, do not.
    # The pairs are (window, o2 index).
    records = _growing_star_stream(grow_until=15)
    config = SgddConfig(seed=0)
    rebuilt = []
    rebuild = sgdd.rebuild_o2
    monkeypatch.setattr(sgdd, "rebuild_o2",
                        lambda state, k: rebuilt.append((len(state.o1), k)) or rebuild(state, k))
    state = SgddState(config=config)
    signals = [s for r in records if (s := sgdd_step(state, r)) is not None]
    assert [n for n, _, _ in state.sizes[10:15]] == [9, 10, 11, 12, 12]
    assert len(set(state.o1[10:14])) == 4
    assert rebuilt == [(16, 13), (16, 14), (16, 15), (27, 25), (27, 26)]
    assert [(s.window, s.params["S"]) for s in signals] == [(16, 2), (27, 1)]
    expected, reference_o2 = _reference_run(records, config)
    assert [state.o2[k] for _, k in rebuilt] == [reference_o2[k] for _, k in rebuilt]
    assert [s.fingerprint() for s in signals] == [s.fingerprint() for s in expected]


def test_boundary_record_joins_closing_window():
    # The edge arriving with the boundary timestamp completes a butterfly
    # inside the window it closes.
    records = [
        SGR("p", "q", 1.0, 1, 1), SGR("p2", "q2", 1.0, 2, 2),
        SGR("p3", "q3", 1.0, 3, 3),  # closes window 1 (no butterfly)
        SGR("a", "x", 1.0, 3, 4), SGR("a", "y", 1.0, 3, 5),
        SGR("b", "x", 1.0, 3, 6),
        SGR("b", "y", 1.0, 4, 7),  # boundary: closes window 2, adds (b, y)
    ]
    state = SgddState(config=SgddConfig(x=1.0, seed=0))
    for r in records:
        sgdd_step(state, r)
    assert len(state.graph) == 1


def test_zero_butterfly_windows_carry_forward():
    # Bursts of unrelated single edges: no butterflies, series pinned at 0.
    records = []
    t = 0
    for tau in range(1, 30):
        for k in range(2):
            t += 1
            records.append(SGR(f"u{t}", f"v{t}", 1.0, tau, t))
    state = SgddState()
    signals = [s for r in records if (s := sgdd_step(state, r))]
    assert signals == []
    assert len(state.graph) == 0
    assert set(state.o1) == {0.0} and set(state.o2) == {0.0}


def test_replay_determinism_with_seed():
    records, _ = generate(GeneratorConfig(seed=4, prefix_len=100),
                          DriftSchedule.make("recurring", 300), 1200)
    first = [s.fingerprint() for s in run_sgdd(records, SgddConfig(seed=9))]
    second = [s.fingerprint() for s in run_sgdd(records, SgddConfig(seed=9))]
    assert first == second
    assert first, "the generated stream should produce at least one signal"


def test_signal_t_is_the_record_t():
    # sgdd counts no records of its own: a caller whose arrival indices do
    # not start at 1 gets its own indices back, and the same windows.
    records, _ = generate(GeneratorConfig(seed=3, prefix_len=500),
                          DriftSchedule.make("gradual", 500), 3000)
    shifted = [r._replace(t=r.t + 1000) for r in records]
    expected = run_sgdd(records, SgddConfig(seed=3))
    signals = run_sgdd(shifted, SgddConfig(seed=3))
    assert len(expected) == SGDD_GOLDEN[("gradual", 3)][0]
    assert [s.window for s in signals] == [s.window for s in expected]
    assert [s.t for s in signals] == [s.t + 1000 for s in expected]


def test_signal_spacing_respects_c3():
    records, _ = generate(GeneratorConfig(seed=4, prefix_len=100),
                          DriftSchedule.make("gradual", 300), 1500)
    signals = run_sgdd(records, SgddConfig(seed=2))
    assert len(signals) > 1
    windows = [s.window for s in signals]
    assert all(b - a > 10 for a, b in zip(windows, windows[1:]))
    assert windows == sorted(windows)


def test_series_lengths_track_window_counter():
    records = taus_to_records([1, 1, 2, 3, 3, 4, 5, 5, 6])
    state = SgddState()
    profile = BurstProfile()
    windows = 0
    for r in records:
        sgdd_step(state, r)
        windows += ingest_timestamp(profile, r.tau)
        assert len(state.o1) == len(state.o2) == windows


def test_config_validation():
    with pytest.raises(ValueError):
        SgddConfig(x=0.0)


def test_config_rejects_negative_seed():
    # random.Random(-s) seeds like Random(s): two seeds, one frequency stream.
    assert random.Random(-3).random() == random.Random(3).random()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SgddConfig(seed=-3)
    assert SgddConfig(seed=0).seed == 0


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_sigma(sigma):
    # A NaN spread makes every O2 NaN, so C2 never holds and nothing
    # fires; an infinite one fails in the integration, mid-stream.
    with pytest.raises(ValueError, match="sigma must be finite"):
        SgddConfig(sigma=sigma)


def test_config_rejects_negative_sigma():
    # A standard deviation is never below 0; a zero spread draws every
    # frequency at 0 and stays legal.
    with pytest.raises(ValueError,
                       match="^frequency spread sigma must be finite and non-negative$"):
        SgddConfig(sigma=-1.0)
    assert SgddConfig(sigma=0.0).sigma == 0.0


def test_config_rejects_unknown_variant_like_sgdp():
    messages = []
    for config in (SgdpConfig, SgddConfig):
        with pytest.raises(ValueError) as excinfo:
            config(variant="nope")
        messages.append(str(excinfo.value))
    assert messages == ["unknown suffix-size variant: 'nope'"] * 2
