"""Weighted graph of phase oscillators built from young butterflies.

Each young butterfly becomes a vertex carrying a phase, a natural
frequency, and a fixed-width integer identifier derived from its canonical
key. Vertices persist across windows (the graph is cumulative; only the
bipartite window tumbles). Two vertices are linked when their butterflies
share a j-vertex, with a static weight equal to the size of the sharing
neighbourhood at link time. Phases embed neighbourhoods: the phase of a
vertex is the sum of its neighbours' identifiers reduced modulo 2*pi, so
identical neighbourhoods hash to identical phases and isolated vertices
sit at phase zero; linking two vertices updates both their phases.

One coupled-oscillator integration step per window predicts the phase
changes under the attractive coupling sin(theta_n - theta_v), taking each
edge's sine once for both ends (bit-exact: sin is odd, rounding symmetric).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import insort

from .butterfly import BipartiteWindow, ButterflyKey, enumerate_young

TWO_PI = 2.0 * math.pi
STEP = 0.01


def butterfly_ident(key: ButterflyKey) -> int:
    """Fixed 32-bit identifier of a canonical butterfly key.

    Seed-free and stable across runs and platforms; distinct keys may
    collide, which is tolerated (identifiers only feed the phase embedding).
    """
    payload = "\x1f".join(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "big")


class OscillatorGraph:
    """Undirected weighted graph of oscillators over dense integer ids.

    ``vertices`` maps each butterfly key to its id; ids count up from 0 in
    insertion order and index the per-vertex lists: ``keys``, ``ident``,
    ``nbr_sum`` (the exact integer sum of the neighbours' identifiers),
    ``theta`` (that sum modulo 2*pi, updated by every link) and ``omega``.
    ``order`` lists the ids in canonical key order. ``edges`` holds each
    undirected edge once as ``(u, v, weight)``, in insertion order (edges are
    only ever added): per vertex, the order ``rk4_step`` sums its terms in.
    """

    def __init__(self) -> None:
        self.vertices: dict[ButterflyKey, int] = {}
        self.keys: list[ButterflyKey] = []
        self.ident: list[int] = []
        self.nbr_sum: list[int] = []
        self.theta: list[float] = []
        self.omega: list[float] = []
        self.edges: list[tuple[int, int, float]] = []
        self.order: list[int] = []
        self._by_j: dict[str, set[int]] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return len(self.edges)

    def _add_vertex(self, key: ButterflyKey) -> int:
        v = len(self.keys)
        self.vertices[key] = v
        self.keys.append(key)
        self.ident.append(butterfly_ident(key))
        self.nbr_sum.append(0)
        self.theta.append(0.0)
        self.omega.append(0.0)
        insort(self.order, v, key=self.keys.__getitem__)
        for j in key.j_vertices:
            self._by_j.setdefault(j, set()).add(v)
        return v

    def _add_edge(self, u: int, v: int, weight: int) -> None:
        """Link two ids that are not linked yet and update both phases."""
        self.edges.append((u, v, float(weight)))
        self.nbr_sum[u] += self.ident[v]
        self.nbr_sum[v] += self.ident[u]
        self.theta[u] = math.fmod(float(self.nbr_sum[u]), TWO_PI)
        self.theta[v] = math.fmod(float(self.nbr_sum[v]), TWO_PI)


def project(window: BipartiteWindow, graph: OscillatorGraph,
            young: set[int]) -> list[ButterflyKey]:
    """Fold a closed window's young butterflies into the oscillator graph.

    Butterflies are processed in canonical enumeration order. For each one,
    L is the set of butterflies already present in the graph that share at
    least one j-vertex with it, plus the butterfly itself; it is linked to
    every other member of L with static weight |L|. Existing edges keep the
    weight they were created with, and a butterfly re-derived from an
    identical key maps to its existing vertex. The window is discarded
    entirely afterwards (tumbling).
    """
    keys = enumerate_young(window, young)
    for key in keys:
        # Every vertex is linked to all sharers when it is inserted, so a
        # re-derived key has no unlinked sharer and adds nothing.
        if key in graph.vertices:
            continue
        sharers: set[int] = set()
        for j in key.j_vertices:
            sharers |= graph._by_j.get(j, set())
        v = graph._add_vertex(key)
        size = len(sharers) + 1
        # In key order, so edge insertion order (and with it floating-point
        # summation order downstream) never depends on hash seeding.
        for u in sorted(sharers, key=graph.keys.__getitem__):
            graph._add_edge(v, u, size)
    window.clear()
    return keys


def assign_phases(graph: OscillatorGraph, rng: random.Random,
                  sigma: float = 1.0) -> None:
    """Resample every vertex's frequency for the next integration step.

    Phases need no work here: each is the exact integer sum of neighbour
    identifiers reduced modulo 2*pi into [0, 2*pi), and the graph updates
    it whenever the vertex gains an edge. Frequencies are drawn from a
    zero-mean Gaussian with standard deviation ``sigma``, in canonical
    vertex order so runs are reproducible for a given seed.
    """
    omega, gauss = graph.omega, rng.gauss
    for v in graph.order:
        omega[v] = gauss(0.0, sigma)


def order_parameter(phases) -> float:
    """Global phase-coherence measure in [0, 1].

    1 means all phases coincide; symmetric phase arrangements cancel to 0.
    Undefined on an empty collection.
    """
    values = list(phases)
    n = len(values)
    if n == 0:
        raise ValueError("order parameter is undefined for zero phases")
    # A plain left-to-right loop: builtin sum() of floats is compensated
    # from CPython 3.12 on, which would change the bits between versions.
    s = c = 0.0
    for v in values:
        s += math.sin(v)
        c += math.cos(v)
    r = math.hypot(s, c) / n
    return min(r, 1.0)


def rk4_step(graph: OscillatorGraph) -> list[float]:
    """One classical 4th-order step of the coupled phase dynamics.

    d theta_v / dt = omega_v + sum_n w_vn * sin(theta_n - theta_v)

    Returns the predicted phase change of every vertex over one step of
    size ``STEP``, indexed by vertex id, without mutating the graph's phases.
    """
    theta0, omega, edges = graph.theta, graph.omega, graph.edges
    sin = math.sin

    def deriv(theta: list[float]) -> list[float]:
        out = omega.copy()
        for u, v, w in edges:
            p = w * sin(theta[v] - theta[u])
            out[u] += p
            out[v] -= p
        return out

    half = 0.5 * STEP
    k1 = deriv(theta0)
    k2 = deriv([t + half * k for t, k in zip(theta0, k1)])
    k3 = deriv([t + half * k for t, k in zip(theta0, k2)])
    k4 = deriv([t + STEP * k for t, k in zip(theta0, k3)])
    sixth = STEP / 6.0
    return [sixth * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]
