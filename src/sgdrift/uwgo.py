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
edge's sine once for both ends. That is bit-exact against each vertex
summing its own terms (sin is odd, rounding symmetric), up to the sign of
an exact zero, which no coherence sum sees. Work that a window leaves
unchanged is not redone, and the results stay bit-identical: each phase's
sine and cosine are taken when the phase is written, so the phase
coherence costs no trigonometry, and frequencies are drawn two per pair
of uniforms, exactly as ``random.Random.gauss`` draws them.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import insort
from itertools import islice

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
    ``theta`` (that sum modulo 2*pi, updated by every link), ``sin_theta``
    and ``cos_theta`` (its sine and cosine) and ``omega``. ``order`` lists
    the ids in canonical key order. ``edges`` holds each undirected edge
    once as ``(u, v, weight)``, in insertion order (edges are only ever
    added): per vertex, the order ``rk4_step`` sums its terms in.

    ``sin_theta`` and ``cos_theta`` follow only the phase writes that
    ``_add_edge`` makes, and ``coherence`` reads them alone. A caller that
    writes ``theta`` entries directly (as tests do) changes what
    ``rk4_step`` integrates but not what ``coherence`` returns.
    """

    def __init__(self) -> None:
        self.vertices: dict[ButterflyKey, int] = {}
        self.keys: list[ButterflyKey] = []
        self.ident: list[int] = []
        self.nbr_sum: list[int] = []
        self.theta: list[float] = []
        self.sin_theta: list[float] = []
        self.cos_theta: list[float] = []
        self.omega: list[float] = []
        self.edges: list[tuple[int, int, float]] = []
        self.order: list[int] = []
        self._by_j: dict[str, set[int]] = {}

    def __len__(self) -> int:
        return len(self.theta)

    def edge_count(self) -> int:
        return len(self.edges)

    def _add_vertex(self, key: ButterflyKey) -> int:
        v = len(self.keys)
        self.vertices[key] = v
        self.keys.append(key)
        self.ident.append(butterfly_ident(key))
        self.nbr_sum.append(0)
        self.theta.append(0.0)
        self.sin_theta.append(0.0)
        self.cos_theta.append(1.0)
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
        self._set_phase(u)
        self._set_phase(v)

    def _set_phase(self, x: int) -> None:
        theta = self.theta[x] = math.fmod(float(self.nbr_sum[x]), TWO_PI)
        self.sin_theta[x] = math.sin(theta)
        self.cos_theta[x] = math.cos(theta)

    def coherence(self) -> float:
        """``order_parameter`` of the phases in canonical order, from the cached sines.

        The same floats summed in the same order, so the bits are the same,
        as long as every phase was last written by ``_add_edge``.
        """
        sines, cosines = self.sin_theta, self.cos_theta
        s = c = 0.0
        for v in self.order:
            s += sines[v]
            c += cosines[v]
        return min(math.hypot(s, c) / len(self.order), 1.0)

    def prefix(self, n: int, m: int) -> "OscillatorGraph":
        """The graph as it stood when it held its first ``n`` vertices and ``m`` edges.

        Vertices and edges are append-only, so that graph is the first ``n``
        ids with ``edges[:m]``. Its neighbour sums are the current ones
        minus what ``edges[m:]`` added to them, in exact integer arithmetic,
        and only the phases those edges touched are reduced again. Its
        canonical order is ``order`` restricted to ids below ``n``, and its
        frequencies are zero. It is a graph to take the coherence of, to
        draw frequencies for and to integrate, not to project into, so it
        holds no keys or identifiers.
        """
        past = OscillatorGraph()
        past.edges = self.edges[:m]
        past.nbr_sum, past.theta = self.nbr_sum[:n], self.theta[:n]
        past.sin_theta, past.cos_theta = self.sin_theta[:n], self.cos_theta[:n]
        touched = set()
        for u, v, _ in islice(self.edges, m, None):
            if u < n:
                past.nbr_sum[u] -= self.ident[v]
                touched.add(u)
            if v < n:
                past.nbr_sum[v] -= self.ident[u]
                touched.add(v)
        for x in touched:
            past._set_phase(x)
        past.omega = [0.0] * n
        past.order = list(filter(n.__gt__, self.order))
        return past


def project(window: BipartiteWindow, graph: OscillatorGraph, young: set[int]) -> None:
    """Fold a closed window's young butterflies into the oscillator graph.

    Butterflies are processed in canonical enumeration order. For each one,
    L is the set of butterflies already present in the graph that share at
    least one j-vertex with it, plus the butterfly itself; it is linked to
    every other member of L with static weight |L|. Existing edges keep the
    weight they were created with, and a butterfly re-derived from an
    identical key maps to its existing vertex. The window is discarded
    entirely afterwards (tumbling).
    """
    for key in enumerate_young(window, young):
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


def assign_phases(graph: OscillatorGraph, rng: random.Random,
                  sigma: float = 1.0) -> None:
    """Resample every vertex's frequency for the next integration step.

    Phases need no work here: each is the exact integer sum of neighbour
    identifiers reduced modulo 2*pi into [0, 2*pi), and the graph updates
    it whenever the vertex gains an edge. Frequencies are drawn from a
    zero-mean Gaussian with standard deviation ``sigma``, in canonical
    vertex order so runs are reproducible for a given seed.

    The result, and the state ``rng`` is left in, are exactly those of one
    ``rng.gauss(0.0, sigma)`` call per vertex. ``Random.gauss`` (the same
    source on CPython 3.10-3.13) turns two uniforms into a cosine and a
    sine value, returns the first as ``0.0 + z * sigma`` and keeps the
    second in ``rng.gauss_next`` for the next call. The loop below does the
    same arithmetic inline, one pair of vertices per pair of uniforms,
    and leaves the ends to ``gauss`` itself: the first vertex spends a
    value kept from an earlier call, and an unpaired last vertex keeps its
    sine value for the next one.
    """
    omega, order, gauss, uniform = graph.omega, graph.order, rng.gauss, rng.random
    cos, sin, log, sqrt, tau = math.cos, math.sin, math.log, math.sqrt, TWO_PI
    start = 0
    if rng.gauss_next is not None and order:
        omega[order[0]] = gauss(0.0, sigma)
        start = 1
    stop = len(order) - (len(order) - start) % 2
    ids = islice(order, start, stop)
    for a, b in zip(ids, ids):
        x2pi = uniform() * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniform()))
        omega[a] = 0.0 + cos(x2pi) * g2rad * sigma
        omega[b] = 0.0 + sin(x2pi) * g2rad * sigma
    if stop < len(order):
        omega[order[stop]] = gauss(0.0, sigma)


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
    Each stage scatters one term per edge, in edge order: it adds
    p = w * sin(theta_v - theta_u) at u and subtracts it at v.
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
