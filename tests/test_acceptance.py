"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from helpers import (FIG5_BUTTERFLIES, FIG5_EDGES, adjacency, brute_force_butterflies,
                     edge_weights, fig5_window, random_bipartite_window,
                     rk4_reference, unit_weights, weighted_graph, window_edges)
from sgdrift.butterfly import enumerate_young
from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate
from sgdrift.harness import repeated_timing
from sgdrift.sgdd import SgddConfig, SgddState, cdc_butterfly, sgdd_step
from sgdrift.sgdp import SgdpState, cds_bursts, run_sgdp, sgdp_step
from sgdrift.stream_model import SGR
from sgdrift.uwgo import (OscillatorGraph, TWO_PI, assign_phases,
                          order_parameter, project, rk4_step)

from test_sgdd import _cdc_oracle
from test_sgdp import _cds_oracle


def report(name):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorator


def _generated_stream(seed=21, n=2500, delta=500, prefix=200):
    config = GeneratorConfig(seed=seed, prefix_len=prefix)
    schedule = DriftSchedule.make("gradual", delta)
    return generate(config, schedule, n)


def _run_sgdp_with_walls(records, cd_indices):
    state = SgdpState()
    signals = []
    cd_wall = [None] * len(cd_indices)
    lookup = {c: k for k, c in enumerate(cd_indices)}
    for r in records:
        signal = sgdp_step(state, r.tau)
        if signal is not None:
            signals.append(signal)
        if r.t in lookup:
            cd_wall[lookup[r.t]] = time.time() * 1000.0
    return signals, cd_wall


def _run_sgdd_with_walls(records, cd_indices, seed=5):
    state = SgddState(config=SgddConfig(seed=seed))
    signals = []
    cd_wall = [None] * len(cd_indices)
    lookup = {c: k for k, c in enumerate(cd_indices)}
    for r in records:
        signal = sgdd_step(state, r)
        if signal is not None:
            signals.append(signal)
        if r.t in lookup:
            cd_wall[lookup[r.t]] = time.time() * 1000.0
    return signals, cd_wall


@report("butterfly enumeration matches brute-force oracle (100 graphs, exact)")
def test_acceptance_butterfly_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        window = random_bipartite_window(rng, max_side=15,
                                         density_lo=0.1, density_hi=0.5)
        young = {2}
        young_js = {j for j, tau in window.j_last_tau.items() if tau in young}
        assert enumerate_young(window, young) == \
            brute_force_butterflies(window_edges(window), young_js)
    assert time.perf_counter() - started < 5.0


@report("worked-example projection: exact edges/weights, phase identities")
def test_acceptance_worked_example():
    started = time.perf_counter()
    window, young = fig5_window()
    graph = OscillatorGraph()
    keys = enumerate_young(window, young)  # before project, which clears the window
    project(window, graph, young)
    assert keys == FIG5_BUTTERFLIES
    expected = {(FIG5_BUTTERFLIES[a], FIG5_BUTTERFLIES[b]): w
                for (a, b), w in FIG5_EDGES.items()}
    assert edge_weights(graph) == expected
    ids = [graph.vertices[k] for k in FIG5_BUTTERFLIES]
    assert adjacency(graph)[ids[7]] == []
    assign_phases(graph, random.Random(0))
    assert graph.theta[ids[7]] == 0.0
    assert graph.theta[ids[4]] == graph.theta[ids[6]]
    assert time.perf_counter() - started < 1.0


@report("order parameter: synchrony, cancellation, shift invariance (1e-12)")
def test_acceptance_order_parameter():
    assert abs(order_parameter([1.1] * 5) - 1.0) < 1e-12
    quadrants = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert abs(order_parameter(quadrants)) < 1e-12
    rng = random.Random(99)
    for _ in range(1000):
        phases = [rng.uniform(0, TWO_PI) for _ in range(rng.randint(1, 25))]
        shift = rng.uniform(-20, 20)
        assert abs(order_parameter(phases)
                   - order_parameter([p + shift for p in phases])) < 1e-12


@report("one-step integrator: reference match 1e-12, fixed point, synchronization")
def test_acceptance_rk4():
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randint(1, 10)
        weights = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                w = rng.choice([0, 1, 2, 5])
                weights[a][b] = weights[b][a] = w
        graph = weighted_graph(weights)
        thetas = [rng.uniform(0, TWO_PI) for _ in range(n)]
        omegas = [rng.gauss(0, 1) for _ in range(n)]
        graph.theta[:] = thetas
        graph.omega[:] = omegas
        delta = rk4_step(graph)
        expected = rk4_reference(thetas, omegas, weights, 0.01)
        for d, e in zip(delta, expected):
            assert abs(d - e) < 1e-12

    graph = weighted_graph(unit_weights(4))
    graph.theta[:] = [0.77] * 4
    graph.omega[:] = [0.0] * 4
    assert all(v == 0.0 for v in rk4_step(graph))

    started = time.perf_counter()
    graph = weighted_graph(unit_weights(8))
    sync_rng = random.Random(7)
    for k in range(8):
        graph.theta[k] = sync_rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        graph.omega[k] = 0.0
    r = order_parameter(graph.theta)
    steps = 0
    while r < 0.99 and steps < 100_000:
        delta = rk4_step(graph)
        for k in range(8):
            graph.theta[k] += delta[k]
        r_next = order_parameter(graph.theta)
        assert r_next >= r - 1e-9
        r = r_next
        steps += 1
    assert r >= 0.99 and steps < 100_000
    assert time.perf_counter() - started < 10.0


@report("predictor is payload-free: permuted payloads give identical signals")
def test_acceptance_payload_freedom():
    for seed in range(20):
        rng = random.Random(seed)
        taus = []
        tau = 0
        while len(taus) < 600:
            tau += 1
            taus.extend([tau] * rng.randint(1, 8))
        records = [SGR(f"u{rng.randint(0, 40)}", f"v{rng.randint(0, 40)}",
                       rng.random(), tau, t)
                   for t, tau in enumerate(taus, start=1)]
        permutation = records[:]
        rng.shuffle(permutation)
        permuted = [SGR(p.i, p.j, p.omega, r.tau, r.t)
                    for r, p in zip(records, permutation)]

        def run(stream):
            return [s.fingerprint() for s in run_sgdp(r.tau for r in stream)]

        assert run(records) == run(permuted)


@report("determinism: 10 repeated runs, identical (t, W) for both detectors")
def test_acceptance_determinism():
    records, truth = _generated_stream()

    sgdp_outcomes = [_run_sgdp_with_walls(records, truth.cd_indices)[0]
                     for _ in range(10)]
    sgdp_keys = [[(s.t, s.window) for s in run] for run in sgdp_outcomes]
    assert all(keys == sgdp_keys[0] for keys in sgdp_keys)
    assert sgdp_keys[0], "predictor must signal on the drifting stream"

    sgdd_outcomes = [_run_sgdd_with_walls(records, truth.cd_indices)[0]
                     for _ in range(10)]
    sgdd_keys = [[(s.t, s.window) for s in run] for run in sgdd_outcomes]
    assert all(keys == sgdd_keys[0] for keys in sgdd_keys)
    assert sgdd_keys[0], "detector must signal on the drifting stream"

    # the harness protocol hard-fails on any record-count divergence
    report = repeated_timing(lambda: _run_sgdp_with_walls(records, truth.cd_indices),
                             truth, runs=10, batches=2)
    assert report.runs == 10


@report("desk-scale end-to-end: predictor covers >= 2 of 3 drift windows, < 30 s")
def test_acceptance_desk_scale():
    started = time.perf_counter()
    config = GeneratorConfig(seed=7)
    delta = 10_000
    records, truth = generate(config, DriftSchedule.make("gradual", delta), 50_000)
    assert truth.cd_indices == (1000, 20_000, 30_000, 40_000)
    signals = run_sgdp(r.tau for r in records)
    ts = [s.t for s in signals]
    covered = 0
    for c in truth.cd_indices[1:]:
        if any(c - delta < t <= c for t in ts):
            covered += 1
    assert covered >= 2
    assert time.perf_counter() - started < 30.0


@report("threshold arithmetic: 200 randomized series match direct-count oracles")
def test_acceptance_threshold_arithmetic():
    rng = random.Random(2024)
    for _ in range(200):
        # The series always ends in the current average, which it anchors on.
        n = rng.randint(1, 30)
        series = [round(rng.uniform(1, 40), 3) for _ in range(n)]
        average = series[-1]
        maximum = rng.uniform(average, 10 ** rng.randint(2, 7))
        d = rng.randint(1, 7)
        f = rng.choice((1.0, 0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5))
        variant = rng.choice(["default", "appendix"])
        expected = _cds_oracle(maximum, average, series, f, d, variant)
        got = cds_bursts(maximum, series, 9999, list(range(d)), (f,), variant)
        assert (got is not None) == expected

    for _ in range(200):
        n = rng.randint(1, 30)
        o1 = [round(rng.uniform(0, 1), 3) for _ in range(n)]
        o2 = [round(rng.uniform(0, 1), 3) for _ in range(n)]
        if rng.random() < 0.5 and n >= 4:
            o1[-4:] = [o1[-1]] * 4
        d = rng.randint(1, 5)
        drift = [0] + sorted(rng.sample(range(1, max(2, n - 11)),
                                        min(d - 1, max(0, n - 12))))
        average = rng.uniform(1, 500)
        maximum = rng.uniform(average, 10 ** rng.randint(2, 6))
        variant = rng.choice(["default", "appendix"])
        expected = _cdc_oracle(average, maximum, o1, o2, n, list(drift), variant)
        got = cdc_butterfly(maximum, average, o1, o2, 10 * n, list(drift), variant)
        assert (got is not None) == expected


@report("gate invariants: detector spacing > 10 windows, predictor spacing > average")
def test_acceptance_gate_invariants():
    records, truth = _generated_stream()

    sgdp_signals, _ = _run_sgdp_with_walls(records, truth.cd_indices)
    assert len(sgdp_signals) > 1
    for earlier, later in zip(sgdp_signals, sgdp_signals[1:]):
        assert later.window - earlier.window > later.params["average"]

    sgdd_signals, _ = _run_sgdd_with_walls(records, truth.cd_indices)
    assert len(sgdd_signals) > 1
    windows = [s.window for s in sgdd_signals]
    assert all(b - a > 10 for a, b in zip(windows, windows[1:]))

    # same invariants on the desk-scale predictor run
    config = GeneratorConfig(seed=7)
    records, _ = generate(config, DriftSchedule.make("gradual", 10_000), 50_000)
    signals = run_sgdp(r.tau for r in records)
    for earlier, later in zip(signals, signals[1:]):
        assert later.window - earlier.window > later.params["average"]
