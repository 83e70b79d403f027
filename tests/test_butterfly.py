import random

import pytest

from helpers import (FIG5_BUTTERFLIES, brute_force_butterflies, butterfly_key, fig5_window,
                     first_seen_ranks, random_bipartite_window, window_edges)
from sgdrift.butterfly import (BipartiteWindow, ButterflyKey, enumerate_young,
                               young_timestamps)


# --- canonical keys ------------------------------------------------------------

def test_key_canonical_form():
    window = BipartiteWindow()
    for i, j in (("b", "y"), ("b", "x"), ("a", "y"), ("a", "x")):
        window.add(i, j, 1)
    [key] = enumerate_young(window, {1})
    assert key == butterfly_key("b", "a", "y", "x")
    assert (key.i_lo, key.i_hi, key.j_lo, key.j_hi) == ("a", "b", "x", "y")


# --- youth suffix ---------------------------------------------------------------

def _young(order, x):
    """Young timestamps of a whole first-seen history."""
    ranks = first_seen_ranks(order)
    return young_timestamps(ranks, x, ranks)


def test_young_full_fraction_is_whole_history():
    history = [3, 1, 4, 1, 5]  # the profile deduplicates; ranks are unique
    assert _young([3, 1, 4, 5], 1.0) == {3, 1, 4, 5}


def test_young_quarter_of_eight():
    assert _young(range(1, 9), 0.25) == {7, 8}


def test_young_single_element_ceiling():
    assert _young([5], 0.25) == {5}


def test_young_empty_history():
    assert _young([], 0.25) == set()


def test_young_rejects_bad_fraction():
    with pytest.raises(ValueError):
        _young([1], 0.0)
    with pytest.raises(ValueError):
        _young([1], 1.5)


def test_young_tests_only_the_candidates():
    ranks = first_seen_ranks(range(1, 9))
    assert young_timestamps(ranks, 0.25, [2, 7, 7, 99]) == {7}
    assert young_timestamps(ranks, 0.25, []) == set()


# --- window bookkeeping ----------------------------------------------------------

def test_window_deduplicates_edges_but_tracks_touches():
    window = BipartiteWindow()
    assert window_edges(window) == set()
    window.add("a", "x", 1)
    assert window_edges(window) == {("a", "x")}
    window.add("a", "x", 9)  # repeated payload, still a touch
    assert window_edges(window) == {("a", "x")}
    assert window.j_last_tau["x"] == 9


def test_window_clear_is_total():
    window, young = fig5_window()
    window.clear()
    assert window_edges(window) == set() and not window.j_last_tau
    assert enumerate_young(window, young) == []


# --- enumeration -----------------------------------------------------------------

def _complete_window(ni, nj):
    window = BipartiteWindow()
    for a in range(ni):
        for b in range(nj):
            window.add(f"i{a}", f"j{b}", 1)
    return window


def test_complete_2x2_single_butterfly():
    window = _complete_window(2, 2)
    assert len(enumerate_young(window, {1})) == 1


def test_complete_3x2_three_butterflies():
    window = _complete_window(3, 2)
    keys = enumerate_young(window, {1})
    assert len(keys) == 3
    edges = window_edges(window)
    assert keys == brute_force_butterflies(edges, {j for _, j in edges})


def test_fig5_window_yields_exactly_the_eight():
    window, young = fig5_window()
    assert enumerate_young(window, young) == FIG5_BUTTERFLIES


def test_fig5_without_youth_filter_includes_j0_butterflies():
    window, _ = fig5_window()
    keys = enumerate_young(window, {1, 2})
    assert len(keys) == 10
    extra = [k for k in keys if "j0" in k.j_vertices]
    assert len(extra) == 2


def test_matches_brute_force_on_random_windows():
    for seed in range(120):
        rng = random.Random(seed)
        window = random_bipartite_window(rng)
        young = {2}
        young_js = {j for j, tau in window.j_last_tau.items() if tau in young}
        expected = brute_force_butterflies(window_edges(window), young_js)
        assert enumerate_young(window, young) == expected


def test_no_duplicate_keys():
    for seed in range(30):
        window = random_bipartite_window(random.Random(1000 + seed))
        keys = enumerate_young(window, {1, 2})
        assert len(keys) == len(set(keys))


def test_monotone_under_edge_addition():
    rng = random.Random(5)
    window = BipartiteWindow()
    previous: set[ButterflyKey] = set()
    for _ in range(300):
        window.add(f"i{rng.randint(0, 9)}", f"j{rng.randint(0, 9)}", 1)
        current = set(enumerate_young(window, {1}))
        assert previous <= current
        previous = current
