"""Property tests: the stream model against its literal reference versions.

The profile keeps one first-seen rank map and answers youth by a rank
threshold; the references keep a timestamp set plus a first-seen list
and take the youth suffix from that list. Generated timestamp sequences
mix bursts, repeats, late arrivals of old timestamps and decreasing
values. The burst window, which keeps its edges only as per-j neighbour
sets, is checked against a literal edge set plus a last-touch dict.
sgdd, which derives its window index from its series and keeps every
phase current as edges arrive, is checked window by window against a
from-scratch recomputation, on streams with and without butterflies; its
O1 is left unset only for a window that no check can read. The
scatter-add RK4 kernel is checked for equality against the per-vertex
one. On graphs grown by random links, the phase coherence taken from the
sines cached at each phase write must equal the one taken from the
phases bit for bit, and the graph as it stood at an earlier size must
equal the graph replayed to that size. Paired frequency draws are
checked against one ``Random.gauss`` call per vertex, and an RNG sought
ahead by a number of draws against that many ``Random.gauss`` calls. The
whole of sgdd, which defers the draws and the integration of a window
until a check that can fire reads its O2, is checked against a literal
per-window implementation of its module docstring on drawn streams,
which must at least once rebuild a skipped window of a graph that has
grown since, and on one golden stream. sgdp's step, which reads its
window gate once and returns at most one signal, is checked against a
step that re-reads the gate before every threshold factor and collects
every signal in a list. The scorer, which slices each drift's signals out
of the record-index list by bisection, is checked against one that walks
the signals into per-drift bucket lists, on truth and signal lists that
may be empty, repeat, go negative or come unsorted. The generator's
recent graph, which evicts only its oldest burst, is checked after every
call against one rebuilt from all retained bursts: the same edges, the
same adjacency lists and the j-vertices in the same first-occurrence order.
A signal's ``to_json`` and ``fingerprint``, which share one module-level
encoder, must give ``json.dumps(..., sort_keys=True)``'s bytes for any
mode text and any JSON params, NaN and infinities included. sgdp's S,
whose formula runs without helper calls, its count threshold, cached as
an integer ratio, and its check, which counts both sides in one loop,
must give the plain helper-per-formula versions' values, signals and
errors; a parsed record, built without its class's Python-level
``__new__``, must still be an ``SGR``. The parser, which splits the raw
line once and reuses the last timestamp and weight it converted while
their text repeats, must give the strip-first reference's record or
error, bit for bit, line after line of drawn sequences.
"""

import math
import random
import struct
from array import array
from dataclasses import asdict
from itertools import product

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from helpers import (ReferenceProfile, ReferenceRecentGraph, brute_force_butterflies,
                     butterfly_key, reference_cds_bursts, reference_count_threshold,
                     reference_distances, reference_fingerprint, reference_ingest,
                     reference_parse_sgr, reference_sgdd, reference_sgdp_step,
                     reference_suffix_size, reference_to_json,
                     reference_young, rk4_oracle, window_edges)
from sgdrift.butterfly import BipartiteWindow, enumerate_young, young_timestamps
from sgdrift.genstream import (DriftSchedule, GeneratorConfig, GroundTruth, _RecentGraph,
                               generate)
from sgdrift.harness import distances
from sgdrift.sgdd import REPLAY_CHUNK, SgddConfig, SgddState, _seek, run_sgdd, sgdd_step
from sgdrift.sgdp import (DEFAULT_F_SCHEDULE, FULL_F_SCHEDULE, VARIANTS, SgdpConfig,
                          SgdpState, cds_bursts, count_threshold, sgdp_step, suffix_size)
from sgdrift.signals import DriftSignal
from sgdrift.stream_model import (SGR, BurstProfile, SgrParseError, ingest_timestamp,
                                  parse_sgr)
from sgdrift.uwgo import (TWO_PI, OscillatorGraph, assign_phases, butterfly_ident,
                          order_parameter, rk4_step)
from test_golden import SGDD_GOLDEN

# Runs of one timestamp (bursts), drawn from a small range so that values
# repeat, come back late and go down as well as up.
bursts = st.lists(st.tuples(st.integers(-10, 40), st.integers(1, 6)), max_size=60)
fractions = st.one_of(st.sampled_from([0.01, 0.07, 0.1, 0.25, 0.5, 0.99, 1.0]),
                      st.floats(min_value=1e-3, max_value=1.0))


def _expand(runs):
    return [tau for tau, length in runs for _ in range(length)]


@settings(max_examples=200, deadline=None)
@given(bursts)
def test_ingest_matches_reference_after_every_record(runs):
    profile, reference = BurstProfile(), ReferenceProfile()
    for tau in _expand(runs):
        starts_window = ingest_timestamp(profile, tau)
        _, expected = reference_ingest(reference, tau)
        assert starts_window == expected
        assert profile.current == reference.current
        assert profile.average == reference.average
        assert profile.maximum == reference.maximum
        assert len(profile.seen) == reference.closed
        assert list(profile.seen) == reference.order


@settings(max_examples=200, deadline=None)
@given(bursts, fractions, st.lists(st.integers(-15, 45), max_size=12))
def test_young_matches_first_seen_suffix(runs, x, candidates):
    profile, reference = BurstProfile(), ReferenceProfile()
    for tau in _expand(runs):
        ingest_timestamp(profile, tau)
        reference_ingest(reference, tau)
        expected = reference_young(reference.order, x)
        assert young_timestamps(profile.seen, x, profile.seen) == expected
        # Candidates include unseen timestamps, which are never young.
        assert young_timestamps(profile.seen, x, candidates) == expected & set(candidates)


# Longer streams of bursts of changing size, so that the average moves
# and the predictor signals, blocks and signals again.
long_bursts = st.lists(st.tuples(st.integers(-20, 150), st.integers(1, 8)),
                       min_size=30, max_size=200)


@settings(max_examples=200, deadline=None)
@given(long_bursts)
def test_sgdp_step_matches_list_reference(runs):
    taus = _expand(runs)
    for schedule in (DEFAULT_F_SCHEDULE, FULL_F_SCHEDULE):
        for variant in VARIANTS:
            config = SgdpConfig(schedule, variant)
            state, reference = SgdpState(config=config), SgdpState(config=config)
            for tau in taus:
                signal = sgdp_step(state, tau)
                expected = reference_sgdp_step(reference, tau)
                assert len(expected) <= 1
                got = [] if signal is None else [signal.fingerprint()]
                assert got == [s.fingerprint() for s in expected]
            assert state.drift_windows == reference.drift_windows


# Window records drawn from few vertices and timestamps, so that (i, j) pairs
# repeat and one j comes back at changing timestamps.
window_records = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                    st.integers(0, 3)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(window_records, st.sets(st.integers(0, 3)))
def test_window_matches_edge_set_reference(records, young):
    window = BipartiteWindow()
    edges: set[tuple[str, str]] = set()
    last_tau: dict[str, int] = {}
    for a, b, tau in records:
        i, j = f"i{a}", f"j{b}"
        window.add(i, j, tau)
        edges.add((i, j))
        last_tau[j] = tau
        assert window_edges(window) == edges
        assert window.j_last_tau == last_tau
        for k in range(5):
            assert window.i_of_j.get(f"j{k}", set()) == {u for u, v in edges if v == f"j{k}"}
        young_js = {v for v, t in last_tau.items() if t in young}
        assert enumerate_young(window, young) == brute_force_butterflies(edges, young_js)


# Bursts of edges over few vertices: every i-vertex of a burst joins every
# j-vertex of it, so butterflies form. A burst sends its edges to the pool
# (0), where butterflies share j-vertices and come back; to j-vertices of its
# own (1), whose butterflies link to the pool's only through i-vertices; or
# gives every edge vertices of its own (2), forming no butterfly. With twelve
# or more bursts, more than half of the drawn streams reach the first window
# a check can read with a butterfly in the graph.
edge_bursts = st.lists(
    st.tuples(st.integers(-3, 20), st.sampled_from([0, 1, 2]),
              st.sets(st.integers(0, 3), min_size=1, max_size=3),
              st.sets(st.integers(0, 4), min_size=1, max_size=3)),
    min_size=12, max_size=30)


def _expected_phases(graph) -> list[float]:
    """Every phase recomputed from the keys: linked means sharing a j-vertex."""
    phases = []
    for key in graph.keys:
        shared = [other for other in graph.keys
                  if other != key and set(other.j_vertices) & set(key.j_vertices)]
        phases.append(math.fmod(float(sum(map(butterfly_ident, shared))), TWO_PI))
    return phases


# No shrink phase: shrinking a failing stream of 12-30 bursts takes up to
# two minutes, so a failure reports the stream as drawn.
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(edge_bursts, st.sampled_from([0.25, 0.5, 1.0]), st.integers(0, 3))
# One butterfly from the first window on, so that the checks from window 11
# on read O1 from a non-empty graph. Then a stream that forms no butterfly
# at all.
@example([(tau, 0, {0, 1}, {0, 1}) for tau in range(12)], 0.5, 0)
@example([(tau, 2, {0, 1}, {0, 1}) for tau in range(12)], 0.5, 0)
def test_sgdd_window_bookkeeping_matches_recomputation(bursts, x, seed):
    state = SgddState(config=SgddConfig(x=x, seed=seed))
    reference = ReferenceProfile()
    windows = 0
    t = 0
    expected_o1 = []
    for burst, (tau, target, i_side, j_side) in enumerate(bursts):
        for a, b in product(sorted(i_side), sorted(j_side)):
            t += 1
            i, j = ((f"i{a}", f"j{b}") if target == 0 else (f"i{a}", f"j{b}.{burst}")
                    if target == 1 else (f"i{t}", f"j{t}"))
            signal = sgdd_step(state, SGR(i, j, 1.0, tau, t))
            _, starts_window = reference_ingest(reference, tau)
            windows += starts_window
            assert len(state.o1) == len(state.o2) == windows
            if not starts_window:
                continue
            graph = state.graph
            phases = _expected_phases(graph)
            assert graph.theta == phases
            ordered = sorted(range(len(graph)), key=graph.keys.__getitem__)
            expected_o1.append(order_parameter([phases[v] for v in ordered])
                               if len(graph) else 0.0)
            if not len(graph) or state.o1[-1] is None:
                # An empty graph gives no signal (both series are 0
                # throughout), nor does a window that no check has read: a
                # signalling check has read its own window.
                assert signal is None
    # Every value is the O1 recomputed when its window closed, and so is
    # every placeholder, filled from its window's graph, live or rebuilt by
    # prefix.
    for k, value in enumerate(state.o1):
        if value is None:
            n, m, _ = state.sizes[k]
            assert state.graph.prefix(n, m).coherence() == expected_o1[k]
        else:
            assert value == expected_o1[k]


@st.composite
def oscillator_graphs(draw):
    """A graph whose edges go in, each way round, in a random order.

    Phases come partly from a small pool, so that linked vertices often sit
    at equal phases and their difference is exactly zero.
    """
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = OscillatorGraph()
    for k in range(n):
        graph._add_vertex(butterfly_key(f"a{k}", f"b{k}", f"x{k}", f"y{k}"))
    for a, b in chosen:
        u, v = (b, a) if draw(st.booleans()) else (a, b)
        graph._add_edge(u, v, draw(st.integers(1, 60)))
    phase = st.floats(0.0, TWO_PI, exclude_max=True)
    pool = draw(st.lists(phase, min_size=1, max_size=3))
    graph.theta[:] = draw(st.lists(st.one_of(st.sampled_from(pool), phase),
                                   min_size=n, max_size=n))
    graph.omega[:] = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return graph


@pytest.mark.libm
@settings(max_examples=300, deadline=None)
@given(oscillator_graphs())
def test_rk4_scatter_add_bit_identical_to_per_vertex_oracle(graph):
    theta = graph.theta
    for u, v, _ in graph.edges:
        x = theta[v] - theta[u]
        # The scatter-add kernel gives v the term -w*sin(x) in place of
        # w*sin(-x); a libm whose sin is not odd breaks it, named here.
        assert math.sin(-x) == -math.sin(x), f"sin is not odd at {x!r}"
    # List equality compares element by element with ==, no tolerance.
    assert rk4_step(graph) == rk4_oracle(graph)


def _bits(values):
    """Exact float text, so that 0.0 and -0.0 differ (they compare equal)."""
    return [v.hex() for v in values]


def _grown_graph(data):
    """A graph grown in drawn steps of new vertices and new edges, and the
    ``(vertices, edges)`` counts after every step. Keys put the canonical
    order out of id order; each edge goes in either way round."""
    graph = OscillatorGraph()
    linked = set()
    steps = []
    for _ in range(data.draw(st.integers(1, 6))):
        for _ in range(data.draw(st.integers(0 if len(graph) else 1, 3))):
            k = len(graph)
            graph._add_vertex(butterfly_key(f"a{data.draw(st.integers(0, 9))}", f"b{k}",
                                            f"x{k}", f"y{k}"))
        n = len(graph)
        free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in linked]
        if free:
            for a, b in data.draw(st.lists(st.sampled_from(free), unique=True, max_size=4)):
                linked.add((a, b))
                u, v = (b, a) if data.draw(st.booleans()) else (a, b)
                graph._add_edge(u, v, data.draw(st.integers(1, 60)))
        steps.append((n, graph.edge_count()))
    return graph, steps


@pytest.mark.libm
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coherence_from_cached_sines_matches_order_parameter(data):
    graph, _ = _grown_graph(data)
    # The cached sines were taken when each phase was written; the
    # coherence must equal the one taken from the phases now, bit for bit.
    expected = order_parameter([graph.theta[v] for v in graph.order])
    assert graph.coherence().hex() == expected.hex()
    assert _bits(graph.sin_theta) == _bits(map(math.sin, graph.theta))
    assert _bits(graph.cos_theta) == _bits(map(math.cos, graph.theta))


@pytest.mark.libm
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prefix_matches_the_graph_replayed_to_that_size(data):
    graph, steps = _grown_graph(data)
    for n, m in steps:
        past, replayed = graph.prefix(n, m), OscillatorGraph()
        for key in graph.keys[:n]:
            replayed._add_vertex(key)
        for u, v, w in graph.edges[:m]:
            replayed._add_edge(u, v, int(w))
        assert len(past) == len(replayed) == n
        assert past.edges == replayed.edges and past.order == replayed.order
        assert past.nbr_sum == replayed.nbr_sum and past.omega == [0.0] * n
        for name in ("theta", "sin_theta", "cos_theta"):
            assert _bits(getattr(past, name)) == _bits(getattr(replayed, name)), name
        assert _bits(rk4_step(past)) == _bits(rk4_step(replayed))


def _graph_of_size(n: int) -> OscillatorGraph:
    """n isolated vertices whose canonical order is not their id order."""
    graph = OscillatorGraph()
    for k in range(n):
        graph._add_vertex(butterfly_key(f"a{(7 * k) % 10}", f"b{k}", f"x{k}", f"y{k}"))
    return graph


@pytest.mark.libm
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.tuples(
    st.integers(0, 9), st.one_of(st.sampled_from([1.0, 0.0, 0.5, 2.75, -1.5]),
                                 st.floats(-10.0, 10.0))), max_size=8))
def test_assign_phases_pairs_match_gauss_loop(seed, calls):
    paired, looped = random.Random(seed), random.Random(seed)
    for n, sigma in calls:
        graph, expected = _graph_of_size(n), _graph_of_size(n)
        assign_phases(graph, paired, sigma)
        for v in expected.order:
            expected.omega[v] = looped.gauss(0.0, sigma)
        assert list(map(repr, graph.omega)) == list(map(repr, expected.omega))
        assert paired.getstate() == looped.getstate()


def _gaussed(seed: int, draws: int) -> random.Random:
    rng = random.Random(seed)
    for _ in range(draws):
        rng.gauss(0.0, 1.0)
    return rng


@pytest.mark.libm
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 40),
       st.one_of(st.integers(0, 40), st.integers(REPLAY_CHUNK, 3 * REPLAY_CHUNK)))
@example(seed=0, at=7, ahead=0)  # at == g with g odd: a careless seek draws a pair
def test_seek_leaves_rng_as_plain_gauss_draws(seed, at, ahead):
    # Both parities of at and of g, and seeks of several getrandbits chunks.
    rng = _gaussed(seed, at)
    _seek(rng, at, at + ahead)
    assert rng.getstate() == _gaussed(seed, at + ahead).getstate()


# Bursts of a drifting detector stream: how far back from a running
# counter the timestamp lies (0 opens a new one; more repeats one or comes
# back late, below the newest), the burst's edges as a bit mask over a
# 4 x 4 vertex pool, where they go (1 in 7 to fresh vertices, whose
# windows form no butterfly; 2 in 7 to j-vertices of the burst's own,
# whose butterflies link to none already in the graph, so that the graph
# keeps growing after the pool's butterflies are all in it; else to the
# pool), and whether they are sent 120 times over (1 in 21), which can
# take the largest burst past 1,000 and S to 3. Forty or more bursts take
# most streams past d >= 3.
detector_bursts = st.lists(
    st.tuples(st.sampled_from([0, 0, 0, 0, 1, 2, 6]), st.integers(1, 2**16 - 1),
              st.sampled_from([0, 1, 1, 2, 2, 2, 2]), st.integers(0, 20)),
    min_size=40, max_size=150)


def _detector_stream(bursts) -> list[SGR]:
    records = []
    for counter, (back, mask, target, repeat) in enumerate(bursts, start=1):
        edges = [(f"i{k // 4}", f"j{k % 4}") for k in range(16) if mask >> k & 1]
        if target == 0:
            edges = [(f"{i}.{counter}.{k}", f"{j}.{counter}.{k}")
                     for k, (i, j) in enumerate(edges)]
        elif target == 1:
            edges = [(i, f"{j}.{counter}") for i, j in edges]
        for _ in range(120 if repeat == 0 else 1):
            for i, j in edges:
                records.append(SGR(i, j, 1.0, counter - back, len(records) + 1))
    return records


# The complete 3 x 3 window at every timestamp, the 32nd sent 120 times:
# seed 0 signals at windows 11 and 22, the largest burst passes 1,000 after
# window 30 was skipped, and the check at window 33 (d = 3, S = 3) reads it.
_SATURATED = [(0, 0b11101110111, 2, 1)] * 31 + [(0, 0b11101110111, 2, 0)] \
    + [(0, 0b11101110111, 2, 1)] * 27


# No shrink phase: shrinking a failing stream of 40-150 bursts takes
# minutes, so a failure reports the stream as drawn.
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(detector_bursts, st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from(VARIANTS),
       st.integers(0, 3))
@example(_SATURATED, 0.25, "default", 0)
def _sgdd_matches_reference(bursts, x, variant, seed):
    records = _detector_stream(bursts)
    expected, _, _ = reference_sgdd(records, x=x, seed=seed, variant=variant)
    signals = run_sgdd(records, SgddConfig(x=x, seed=seed, variant=variant))
    assert [s.fingerprint() for s in signals] == [s.fingerprint() for s in expected]


@pytest.mark.libm
def test_sgdd_matches_reference_detector(monkeypatch):
    # A check that reads a skipped window of a graph that has grown since
    # rebuilds it through prefix; the drawn streams must reach that path.
    prefixes = []
    prefix = OscillatorGraph.prefix
    monkeypatch.setattr(OscillatorGraph, "prefix",
                        lambda graph, n, m: prefixes.append((n, m)) or prefix(graph, n, m))
    _sgdd_matches_reference()
    assert prefixes, "no drawn stream rebuilt a window of a smaller graph"


@pytest.mark.libm
def test_sgdd_matches_reference_detector_on_a_golden_stream():
    records, _ = generate(GeneratorConfig(seed=3, prefix_len=500),
                          DriftSchedule.make("gradual", 500), 3000)
    expected = [s.fingerprint() for s in reference_sgdd(records, seed=3)[0]]
    assert len(expected) == SGDD_GOLDEN[("gradual", 3)][0]
    assert [s.fingerprint() for s in run_sgdd(records, SgddConfig(seed=3))] == expected


# Field text: numbers, words, empty strings and comma-free junk, padded
# with ASCII and Unicode whitespace.
spaces = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x85\xa0 　", max_size=3)
tokens = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1.5e3", "4.2", "1_000", "0x10", "inf", "-0", "١٢"]),
    st.text(alphabet="ab9.-+e_ ", max_size=5),
)
padded = st.builds(lambda a, tok, b: a + tok + b, spaces, tokens, spaces)


def _outcome(parse, line, t):
    # The repr, so that two parses of "nan" agree (nan != nan), and the
    # weight's bits, which tell -nan from nan; float reprs round-trip, so
    # nothing else that differs compares equal.
    try:
        record = parse(line, t)
    except SgrParseError as exc:
        return type(exc), str(exc)
    bits = None if record is None else struct.pack("<d", record.omega)
    return type(record), repr(record), bits


# Stream lines for the sequence test: mostly records whose timestamp and
# weight text come from a few values, each under several spellings (7,
# 07, +7, " 7"; 1.0, 1.00; nan, -nan; 0, -0), so that text repeats, changes
# and changes back. A rough record has one flaw: an empty id, a field
# that fails to convert (padded with \x1c, which only str.strip() drops,
# or no number at all) or edge padding that may hold a comma. Blank
# lines and free-form ones (the padded field text above) fall between the
# records, and every line comes one to three times in a row, as a burst's
# timestamp does.
tau_texts = st.sampled_from([["7", "07", "+7", " 7", "7 "], ["8", "08"], ["10", "1_0"]]
                            ).flatmap(st.sampled_from)
omega_texts = st.sampled_from([["1.0", "1.00", "1", "+1.0", " 1.0", "1.0\t", "1e0"],
                               ["nan", "-nan", "NaN"], ["0", "-0", "-0.0"]]
                              ).flatmap(st.sampled_from)
ids = st.sampled_from(["a", "b", "c", " a", "b "])
edges = st.sampled_from(["", " ", "\n"])
rough_edges = st.text(alphabet=" \t\n\x1c\x85\xa0,", max_size=3)
bad_ids = st.sampled_from(["", " ", "\x1c"])
flaws = [bad_ids, bad_ids, st.sampled_from(["\x1c1.0", "", "y", "1.0.0"]),
         st.sampled_from(["\x1c7", "7.0", "", "x"])]


@st.composite
def stream_line(draw):
    kind = draw(st.sampled_from(["record"] * 3 + ["rough", "blank", "free"]))
    if kind == "blank":
        return draw(spaces)
    if kind == "free":
        return ",".join(draw(st.lists(padded, max_size=6))) + draw(spaces)
    fields = [draw(ids), draw(ids), draw(omega_texts), draw(tau_texts)]
    head, tail = draw(edges), draw(edges)
    if kind == "rough":
        flaw = draw(st.integers(0, 4))
        if flaw < 4:
            fields[flaw] = draw(flaws[flaw])
        else:
            head, tail = draw(rough_edges), draw(rough_edges)
    return head + ",".join(fields) + tail


stream_lines = st.lists(st.tuples(stream_line(), st.integers(1, 3)), min_size=2, max_size=6
                        ).map(lambda runs: [line for line, k in runs for _ in range(k)])


# Shrinking is kept, since a failure shrinks to one short line, but not the
# explain phase, which took half of a failing run; with at most six runs
# of lines a failure reports in under 10 s on a 2-vCPU host.
@settings(max_examples=400, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(stream_lines)
def test_parse_matches_reference(lines):
    for t, line in enumerate(lines, start=1):
        assert _outcome(parse_sgr, line, t) == _outcome(reference_parse_sgr, line, t), line


@given(spaces)
def test_blank_line_is_skipped_like_reference(line):
    assert parse_sgr(line, 1) is None
    assert reference_parse_sgr(line, 1) is None


def test_parsed_record_is_an_sgr():
    record = parse_sgr(" i1 , j2 , 0.5 , 42 ", 3)
    assert type(record) is SGR
    assert (record.i, record.j, record.omega, record.tau, record.t) == ("i1", "j2", 0.5, 42, 3)


# Signals with any mode text and any JSON-encodable params: nested lists
# and dicts, big ints, NaN and both infinities.
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
json_values = st.recursive(json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
drawn_signals = st.builds(DriftSignal, st.text(max_size=6), st.integers(1, 2**40),
                          st.integers(1, 2**40), st.floats(allow_nan=True, allow_infinity=True),
                          st.dictionaries(st.text(max_size=4), json_values, max_size=6))


@settings(max_examples=500, deadline=None)
@given(drawn_signals)
@example(DriftSignal("sgdp→é", 7, 3, math.nan,
                     {"f": 0.3, "S": 2, "nan": math.nan, "hi": math.inf, "lo": -math.inf,
                      "nested": {"b": [1, 2.5, {"z": -math.inf}], "a": "ü\n"}}))
def test_signal_json_matches_json_dumps(signal):
    assert signal.to_json() == reference_to_json(signal)
    assert signal.fingerprint() == reference_fingerprint(signal)


def _result(fn, *args):
    # A value, a signal's fingerprint, or the exception's type and message.
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return (type(value), value.fingerprint()) if isinstance(value, DriftSignal) else value


burst_sizes = st.one_of(st.integers(-10**3, 10**15),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([9.999, 10.0, 99.5, 100, 100.0, 1e3, 12345.6]))
any_variant = st.sampled_from(VARIANTS + ("bogus",))


@settings(max_examples=1000, deadline=None)
@given(burst_sizes, burst_sizes, st.integers(-3, 12), any_variant)
@example(1000, 10.0, 0, "default")
@example(1000, 10.0, 1, "bogus")
@example(1000, math.nan, 1, "default")
def test_suffix_size_matches_reference(maximum, average, d, variant):
    assert (_result(suffix_size, maximum, average, d, variant)
            == _result(reference_suffix_size, maximum, average, d, variant))


@settings(max_examples=1000, deadline=None)
@given(st.integers(-10**6, 10**6),
       st.one_of(st.sampled_from(FULL_F_SCHEDULE + (0.07, 1e-300, 1, 0)),
                 st.floats(allow_nan=True, allow_infinity=True)))
def test_count_threshold_matches_reference(s, f):
    # Twice, so the second call reads the cache.
    for _ in range(2):
        assert _result(count_threshold, s, f) == _result(reference_count_threshold, s, f)


series_values = st.one_of(st.sampled_from([5.0, 8.0, 8.5, 12.0, math.nan]),
                          st.floats(0.0, 50.0))


@settings(max_examples=1000, deadline=None)
@given(burst_sizes, st.lists(series_values, min_size=1, max_size=12), st.integers(1, 10**6),
       st.lists(st.integers(0, 12), max_size=4),
       st.lists(st.one_of(st.sampled_from(FULL_F_SCHEDULE), st.floats(0.01, 1.0)),
                min_size=1, max_size=4),
       any_variant)
@example(1000, [8.0, 9.0, 10.0], 30, [], (0.3,), "default")
@example(1000, [8.0, 9.0, 10.0], 30, [0], (0.3,), "bogus")
@example(1000, [8.0, 9.0, math.nan], 30, [0], (0.3,), "default")
def test_cds_bursts_matches_reference(maximum, series, t, drift, schedule, variant):
    drift_windows, reference_windows = list(drift), list(drift)
    assert (_result(cds_bursts, maximum, array("d", series), t, drift_windows, schedule, variant)
            == _result(reference_cds_bursts, maximum, array("d", series), t,
                       reference_windows, schedule, variant))
    assert drift_windows == reference_windows


def _scored(score, ts, cds, interval):
    signals = [DriftSignal("sgdp", t, k + 1, float(k)) for k, t in enumerate(ts)]
    try:
        return asdict(score(signals, GroundTruth(tuple(cds), tuple(cds)), interval))
    except ValueError as exc:
        return ("error", str(exc))


cd_lists = st.lists(st.integers(-5, 60), max_size=6)
t_lists = st.lists(st.integers(-5, 80), max_size=20)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(t_lists.map(sorted), t_lists),
       st.one_of(cd_lists.map(lambda cds: sorted(set(cds))), cd_lists),
       st.one_of(st.none(), st.integers(-3, 30)))
def test_distances_match_bucket_reference(ts, cds, interval):
    assert _scored(distances, ts, cds, interval) == \
        _scored(reference_distances, ts, cds, interval)


# Bursts of edge groups (one ``add`` call each) over a few vertex names, so
# that a j-vertex outlives the burst that introduced it; some bursts are empty.
def _recent_bursts(names):
    edge = st.tuples(st.integers(0, names - 1), st.integers(0, names - 1))
    return st.lists(st.lists(st.lists(edge, min_size=1, max_size=4), max_size=4),
                    max_size=25)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(3, 6).flatmap(_recent_bursts))
def test_recent_graph_matches_rebuild_reference(beta, bursts):
    graph, reference = _RecentGraph(beta), ReferenceRecentGraph(beta)

    def assert_same():
        assert graph.edges == reference.edges
        assert graph.i_of_j == reference.i_of_j
        assert graph.j_of_i == reference.j_of_i
        assert graph.j_vertices == list(reference.i_of_j)

    for groups in bursts:
        graph.open_burst()
        reference.open_burst()
        assert_same()
        for group in groups:
            edges = [(f"u{a}", f"v{b}") for a, b in group]
            graph.add(edges)
            for i, j in edges:
                reference.add(i, j)
            assert_same()
