"""Burst-tumbled bipartite window and young-butterfly enumeration.

The window accumulates deduplicated edges between burst boundaries and is
cleared entirely after each projection. A butterfly is a (2,2)-biclique;
it is *young* when both of its right-partition vertices were last touched
at a timestamp inside the most recent x-fraction of seen unique timestamps
(x = 25% by default), ranked by when each timestamp was first seen.
Enumeration is wedge-based: every pair of young j-vertices contributes one
butterfly per pair of common i-neighbours.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .sgdp import count_threshold


class ButterflyKey(NamedTuple):
    """Canonical identity of one (2,2)-biclique {i_lo,i_hi} x {j_lo,j_hi}."""

    i_lo: str
    i_hi: str
    j_lo: str
    j_hi: str

    @property
    def j_vertices(self) -> tuple[str, str]:
        return (self.j_lo, self.j_hi)


class BipartiteWindow:
    """Edges of the current burst window as per-j neighbour sets.

    ``i_of_j`` maps each j-vertex in the window to its set of i-neighbours.
    ``add`` deduplicates (i, j) pairs but records every touch: the last
    timestamp at which a j-vertex appeared in any record decides its youth.
    For every j present in the window that last touch necessarily happened
    inside the window, so the map doubles as the stream-history view.
    """

    def __init__(self) -> None:
        self.j_last_tau: dict[str, int] = {}
        self.i_of_j: dict[str, set[str]] = {}

    def add(self, i: str, j: str, tau: int) -> None:
        """Record one arriving edge."""
        self.j_last_tau[j] = tau
        self.i_of_j.setdefault(j, set()).add(i)

    def clear(self) -> None:
        self.j_last_tau.clear()
        self.i_of_j.clear()


def young_timestamps(seen: dict[int, int], x: float, candidates) -> set[int]:
    """The timestamps among ``candidates`` that rank in the newest ceil(x*n).

    ``seen`` maps each of the n unique timestamps to its first-seen rank
    (0 for the oldest). A timestamp is young when its rank is at least
    n - ceil(x*n), which picks the same ceil(x*n)-suffix of the first-seen
    order at the cost of one lookup per candidate; a candidate never seen
    is not young. The ceiling is the exact decimal one of
    :func:`~sgdrift.sgdp.count_threshold`.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("x must be in (0, 1]")
    n = len(seen)
    cut = n - count_threshold(n, x)
    rank = seen.get
    return {tau for tau in candidates if rank(tau, -1) >= cut}


def enumerate_young(window: BipartiteWindow, young: set[int]) -> list[ButterflyKey]:
    """List every young butterfly in a closed window, in canonical order.

    For each pair of young j-vertices, the common i-neighbourhood is
    intersected and every i-pair inside it yields one key. Both pairs come
    from sorted, distinct lists, so each key is canonical as built and no
    key is built twice. Keys are built in j-pair order; the final sort puts
    them in canonical (i-pair first) order.
    """
    young_js = sorted(j for j, tau in window.j_last_tau.items() if tau in young)
    found: list[ButterflyKey] = []
    for j1, j2 in combinations(young_js, 2):
        common = window.i_of_j[j1] & window.i_of_j[j2]
        if len(common) < 2:
            continue
        for i1, i2 in combinations(sorted(common), 2):
            found.append(ButterflyKey(i1, i2, j1, j2))
    found.sort()
    return found
