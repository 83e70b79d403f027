import math
import random

import pytest

from helpers import (FIG5_BUTTERFLIES, FIG5_EDGES, adjacency, butterfly_key, edge_weights,
                     fig5_window, order_parameter_oracle, random_bipartite_window,
                     rk4_reference, unit_weights, weighted_graph, window_edges)
from sgdrift.butterfly import enumerate_young
from sgdrift.uwgo import (OscillatorGraph, TWO_PI, assign_phases,
                          butterfly_ident, order_parameter, project, rk4_step)


def build_fig5_graph():
    window, young = fig5_window()
    graph = OscillatorGraph()
    project(window, graph, young)
    return graph


def complete_unit_graph(n):
    """Complete oscillator graph with unit weights; vertex ids are 0..n-1."""
    return weighted_graph(unit_weights(n)), list(range(n))


# --- identifiers ----------------------------------------------------------------

def test_ident_is_32_bit_and_stable():
    key = butterfly_key("i02", "i03", "j1", "j2")
    value = butterfly_ident(key)
    assert 0 <= value < 2 ** 32
    assert value == butterfly_ident(butterfly_key("i03", "i02", "j2", "j1"))


def test_ident_spreads_over_sample_keys():
    idents = {butterfly_ident(k) for k in FIG5_BUTTERFLIES}
    assert len(idents) == len(FIG5_BUTTERFLIES)


# --- projection ------------------------------------------------------------------

def test_fig5_projection_edges_and_weights():
    graph = build_fig5_graph()
    v = FIG5_BUTTERFLIES
    expected = {(v[a], v[b]): w for (a, b), w in FIG5_EDGES.items()}
    assert edge_weights(graph) == expected
    assert adjacency(graph)[graph.vertices[v[7]]] == []  # last butterfly stays isolated


def test_projection_clears_window():
    window, young = fig5_window()
    graph = OscillatorGraph()
    project(window, graph, young)
    assert window_edges(window) == set()


def test_single_butterfly_is_isolated():
    window, _ = fig5_window()
    window.clear()
    window.add("a", "x", 1)
    window.add("a", "y", 1)
    window.add("b", "x", 1)
    window.add("b", "y", 1)
    graph = OscillatorGraph()
    keys = enumerate_young(window, {1})  # before project, which clears the window
    project(window, graph, {1})
    assert len(keys) == 1 and len(graph) == 1
    assert adjacency(graph)[graph.vertices[keys[0]]] == []


def test_disjoint_butterflies_stay_disconnected():
    window = fig5_window()[0]
    window.clear()
    for i, j in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
                 ("c", "p"), ("c", "q"), ("d", "p"), ("d", "q")]:
        window.add(i, j, 1)
    graph = OscillatorGraph()
    project(window, graph, {1})
    assert len(graph) == 2 and graph.edge_count() == 0


def test_reprojection_of_identical_window_adds_nothing():
    graph = OscillatorGraph()
    for _ in range(2):
        window, young = fig5_window()
        project(window, graph, young)
    assert len(graph) == 8
    assert graph.edge_count() == len(FIG5_EDGES)


def test_cross_window_linking_uses_cumulative_j_index():
    graph = OscillatorGraph()
    window, _ = fig5_window()
    window.clear()
    for i, j in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]:
        window.add(i, j, 1)
    project(window, graph, {1})
    # a later window shares j-vertex x with the first butterfly
    for i, j in [("c", "x"), ("c", "z"), ("d", "x"), ("d", "z")]:
        window.add(i, j, 2)
    project(window, graph, {2})
    first = butterfly_key("a", "b", "x", "y")
    second = butterfly_key("c", "d", "x", "z")
    assert dict(adjacency(graph)[graph.vertices[second]])[graph.vertices[first]] == 2


def test_weights_at_least_two_wherever_linked():
    for seed in range(25):
        rng = random.Random(seed)
        window = random_bipartite_window(rng)
        graph = OscillatorGraph()
        project(window, graph, {1, 2})
        for edges in adjacency(graph):
            for _, w in edges:
                assert w >= 2


# --- phases ----------------------------------------------------------------------

def test_isolated_vertex_phase_zero():
    graph = build_fig5_graph()
    assign_phases(graph, random.Random(0))
    assert graph.theta[graph.vertices[FIG5_BUTTERFLIES[7]]] == 0.0


def test_shared_neighbourhood_equal_phases():
    graph = build_fig5_graph()
    assign_phases(graph, random.Random(0))
    v = FIG5_BUTTERFLIES
    assert graph.theta[graph.vertices[v[4]]] == graph.theta[graph.vertices[v[6]]]


def test_phases_reduced_into_range():
    for seed in range(10):
        window = random_bipartite_window(random.Random(seed))
        graph = OscillatorGraph()
        project(window, graph, {1, 2})
        assign_phases(graph, random.Random(seed))
        for theta in graph.theta:
            assert 0.0 <= theta < TWO_PI


def test_incremental_phases_match_full_recompute():
    # Phases are only recomputed for vertices that gained an edge; across
    # windows that link back to older vertices they must still equal the
    # neighbourhood sum taken from scratch.
    graph = OscillatorGraph()
    rng = random.Random(3)
    for seed in range(12):
        project(random_bipartite_window(random.Random(seed)), graph, {1, 2})
        assign_phases(graph, rng)
        for v, edges in enumerate(adjacency(graph)):
            total = sum(graph.ident[u] for u, _ in edges)
            assert graph.theta[v] == math.fmod(float(total), TWO_PI)
    assert graph.edge_count() > len(graph)


def test_phase_assignment_deterministic_given_seed():
    a, b = build_fig5_graph(), build_fig5_graph()
    assign_phases(a, random.Random(42), sigma=0.5)
    assign_phases(b, random.Random(42), sigma=0.5)
    assert list(zip(a.theta, a.omega)) == list(zip(b.theta, b.omega))


def test_frequency_spread_follows_sigma():
    graph, _ = complete_unit_graph(40)
    assign_phases(graph, random.Random(1), sigma=0.0)
    assert all(omega == 0.0 for omega in graph.omega)


def test_prefix_is_the_graph_itself_only_at_its_own_size():
    # At its own size the prefix is the live graph. A later window links a
    # new butterfly to the isolated Fig. 5 one through j8, which moves that
    # vertex's phase; the prefix at the Fig. 5 size is a new graph that
    # must undo the move.
    graph = build_fig5_graph()
    n, m = len(graph), graph.edge_count()
    assert graph.prefix(n, m) is graph
    window, _ = fig5_window()
    window.clear()
    for i, j in [("c", "j8"), ("c", "z"), ("d", "j8"), ("d", "z")]:
        window.add(i, j, 2)
    project(window, graph, {2})
    assert (len(graph), graph.edge_count()) == (n + 1, m + 1)
    past, replayed = graph.prefix(n, m), build_fig5_graph()
    assert past is not graph
    assert past.coherence() == replayed.coherence() != graph.coherence()


# --- order parameter ---------------------------------------------------------------

def test_order_parameter_synchrony():
    assert order_parameter([0.7] * 5) == pytest.approx(1.0, abs=1e-12)


def test_order_parameter_quadrant_cancellation():
    phases = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert order_parameter(phases) == pytest.approx(0.0, abs=1e-12)


def test_order_parameter_empty_is_error():
    with pytest.raises(ValueError):
        order_parameter([])


def test_order_parameter_global_shift_invariance():
    rng = random.Random(9)
    for _ in range(50):
        phases = [rng.uniform(0, TWO_PI) for _ in range(rng.randint(1, 40))]
        shift = rng.uniform(-10, 10)
        r0 = order_parameter(phases)
        r1 = order_parameter([p + shift for p in phases])
        assert abs(r0 - r1) < 1e-12
        assert 0.0 <= r0 <= 1.0


def test_order_parameter_matches_complex_oracle():
    rng = random.Random(4)
    for _ in range(100):
        phases = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 30))]
        assert order_parameter(phases) == pytest.approx(
            order_parameter_oracle(phases), abs=1e-12)


def test_order_parameter_sums_left_to_right():
    # Exact bits of a plain left-to-right float sum on every CPython
    # version; builtin sum() is compensated from 3.12 on.
    rng = random.Random(12)
    for _ in range(200):
        phases = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 200))]
        s = c = 0.0
        for p in phases:
            s += math.sin(p)
            c += math.cos(p)
        assert order_parameter(phases) == min(math.hypot(s, c) / len(phases), 1.0)


def test_fig5_rounded_phase_coherence():
    # Printed worked-example phases, evaluated through the formula. The
    # narrative quotes a slightly different value because its internal
    # phases were rounded before printing; the formula itself is the anchor.
    phases = [1.2 * math.pi, 1.27 * math.pi, 1.33 * math.pi, 1.38 * math.pi,
              0.23 * math.pi, 0.58 * math.pi, 0.23 * math.pi, 0.0]
    value = order_parameter(phases)
    assert value == pytest.approx(order_parameter_oracle(phases), abs=1e-12)
    assert value == pytest.approx(0.105336, abs=1e-6)


# --- one integration step -----------------------------------------------------------

def test_rk4_zero_weights_gives_h_omega_exactly():
    graph, keys = complete_unit_graph(1)
    extra = graph._add_vertex(butterfly_key("z1", "z2", "w1", "w2"))
    graph.omega[keys[0]] = 2.5
    graph.omega[extra] = -1.25
    delta = rk4_step(graph)
    assert delta[keys[0]] == 0.01 * 2.5
    assert delta[extra] == 0.01 * -1.25


def test_rk4_synchronized_zero_frequency_is_fixed_point():
    graph, keys = complete_unit_graph(5)
    for v in keys:
        graph.theta[v] = 1.234
        graph.omega[v] = 0.0
    delta = rk4_step(graph)
    assert all(delta[k] == 0.0 for k in keys)


def test_rk4_two_vertex_against_reference():
    graph, keys = complete_unit_graph(2)
    graph.theta[keys[0]] = 0.0
    graph.theta[keys[1]] = math.pi / 2
    delta = rk4_step(graph)
    expected = rk4_reference([0.0, math.pi / 2], [0.0, 0.0],
                             [[0, 1], [1, 0]], 0.01)
    assert delta[keys[0]] == pytest.approx(expected[0], abs=1e-12)
    assert delta[keys[1]] == pytest.approx(expected[1], abs=1e-12)


def test_rk4_random_graphs_against_reference():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        weights = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                w = rng.choice([0, 0, 1, 2, 3, 4])
                weights[a][b] = weights[b][a] = w
        graph = weighted_graph(weights)
        thetas = [rng.uniform(0, TWO_PI) for _ in range(n)]
        omegas = [rng.gauss(0, 1) for _ in range(n)]
        graph.theta[:] = thetas
        graph.omega[:] = omegas
        delta = rk4_step(graph)
        expected = rk4_reference(thetas, omegas, weights, 0.01)
        for d, e in zip(delta, expected):
            assert d == pytest.approx(e, abs=1e-12)


def test_rk4_does_not_mutate_phases():
    graph, keys = complete_unit_graph(3)
    assign_phases(graph, random.Random(2))
    before = list(graph.theta)
    rk4_step(graph)
    assert graph.theta == before


def test_multi_step_drives_complete_graph_to_synchrony():
    rng = random.Random(17)
    graph, keys = complete_unit_graph(8)
    for k in keys:
        graph.theta[k] = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        graph.omega[k] = 0.0
    r = order_parameter(graph.theta)
    for _ in range(100_000):
        if r >= 0.99:
            break
        delta = rk4_step(graph)
        for k in keys:
            graph.theta[k] += delta[k]
        r_next = order_parameter(graph.theta)
        assert r_next >= r - 1e-9
        r = r_next
    assert r >= 0.99

