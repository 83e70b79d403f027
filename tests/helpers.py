"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from statistics import fmean

from sgdrift.butterfly import BipartiteWindow, ButterflyKey
from sgdrift.genstream import GroundTruth
from sgdrift.harness import AfterLastReport, CdReport, EvalReport
from sgdrift.sgdp import SgdpState, cds_bursts, check_variant
from sgdrift.signals import DriftSignal, now_ms
from sgdrift.stream_model import (SGR, BurstProfile, SgrParseError, ingest_timestamp,
                                  parse_sgr)
from sgdrift.uwgo import STEP, OscillatorGraph

# Worked-example window: solid edges form eight butterflies connected
# through j-vertices; dotted edges participate in none (the two j0 edges
# would add two more butterflies, but j0 is stale). Vertex ids are padded
# so canonical enumeration order matches the narrative order v1..v8.
FIG5_SOLID = [
    ("i02", "j1"), ("i02", "j2"), ("i03", "j1"), ("i03", "j2"),
    ("i04", "j1"), ("i04", "j2"), ("i05", "j2"), ("i05", "j3"),
    ("i06", "j2"), ("i06", "j3"), ("i07", "j4"), ("i07", "j5"),
    ("i08", "j4"), ("i08", "j5"), ("i09", "j5"), ("i09", "j6"),
    ("i10", "j5"), ("i10", "j6"), ("i11", "j6"), ("i11", "j7"),
    ("i12", "j6"), ("i12", "j7"), ("i13", "j8"), ("i13", "j9"),
    ("i14", "j8"), ("i14", "j9"),
]
FIG5_DOTTED = [("i13", "j7"), ("i07", "j3"), ("i02", "j0"), ("i03", "j0")]

FIG5_STALE_TAU = 1
FIG5_YOUNG_TAU = 2


def butterfly_key(i1: str, i2: str, j1: str, j2: str) -> ButterflyKey:
    """The canonical key of the butterfly {i1, i2} x {j1, j2}: each pair sorted."""
    return ButterflyKey(*sorted((i1, i2)), *sorted((j1, j2)))


FIG5_BUTTERFLIES = [
    butterfly_key("i02", "i03", "j1", "j2"),
    butterfly_key("i02", "i04", "j1", "j2"),
    butterfly_key("i03", "i04", "j1", "j2"),
    butterfly_key("i05", "i06", "j2", "j3"),
    butterfly_key("i07", "i08", "j4", "j5"),
    butterfly_key("i09", "i10", "j5", "j6"),
    butterfly_key("i11", "i12", "j6", "j7"),
    butterfly_key("i13", "i14", "j8", "j9"),
]

# Expected projection: (v index pair, weight) per the worked example.
FIG5_EDGES = {
    (0, 1): 2, (0, 2): 3, (1, 2): 3,
    (0, 3): 4, (1, 3): 4, (2, 3): 4,
    (4, 5): 2, (5, 6): 2,
}


def fig5_window() -> tuple[BipartiteWindow, set[int]]:
    window = BipartiteWindow()
    for i, j in FIG5_SOLID:
        window.add(i, j, FIG5_YOUNG_TAU)
    for i, j in FIG5_DOTTED:
        window.add(i, j, FIG5_STALE_TAU if j == "j0" else FIG5_YOUNG_TAU)
    return window, {FIG5_YOUNG_TAU}


def first_seen_ranks(order) -> dict[int, int]:
    """The rank map a profile builds from unique timestamps in first-seen order."""
    return {tau: rank for rank, tau in enumerate(order)}


def window_edges(window: BipartiteWindow) -> set[tuple[str, str]]:
    """The window's (i, j) edge set, read back from its per-j neighbour sets."""
    return {(i, j) for j in window.j_last_tau for i in window.i_of_j[j]}


def brute_force_butterflies(edges: set[tuple[str, str]],
                            young_js: set[str]) -> list[ButterflyKey]:
    """Oracle: test every (i-pair, j-pair) four-subset for biclique closure."""
    i_vertices = sorted({i for i, _ in edges})
    j_vertices = sorted({j for _, j in edges})
    found = []
    for i1, i2 in combinations(i_vertices, 2):
        for j1, j2 in combinations(j_vertices, 2):
            if j1 not in young_js or j2 not in young_js:
                continue
            if ((i1, j1) in edges and (i1, j2) in edges
                    and (i2, j1) in edges and (i2, j2) in edges):
                found.append(butterfly_key(i1, i2, j1, j2))
    found.sort()
    return found


def random_bipartite_window(rng: random.Random, max_side: int = 15,
                            density_lo: float = 0.1,
                            density_hi: float = 0.5) -> BipartiteWindow:
    """Random window with <= 2*max_side vertices and a random youth split."""
    ni = rng.randint(2, max_side)
    nj = rng.randint(2, max_side)
    density = rng.uniform(density_lo, density_hi)
    window = BipartiteWindow()
    for a in range(ni):
        for b in range(nj):
            if rng.random() < density:
                # half the j-vertices are stamped stale
                window.add(f"i{a:02d}", f"j{b:02d}", 2 if b % 2 == 0 else 1)
    return window


def weighted_graph(weights: list[list[int]]) -> OscillatorGraph:
    """Oscillator graph built from a symmetric weight matrix, bypassing projection.

    Vertex k gets id k; every nonzero ``weights[a][b]`` with a < b becomes
    one edge, added in row-major order.
    """
    graph = OscillatorGraph()
    n = len(weights)
    for k in range(n):
        graph._add_vertex(butterfly_key(f"a{k}", f"b{k}", f"x{k}", f"y{k}"))
    for a in range(n):
        for b in range(a + 1, n):
            if weights[a][b]:
                graph._add_edge(a, b, weights[a][b])
    return graph


def unit_weights(n: int) -> list[list[int]]:
    """Weight matrix of the complete graph on n vertices with unit weights."""
    return [[int(a != b) for b in range(n)] for a in range(n)]


def adjacency(graph: OscillatorGraph) -> list[list[tuple[int, float]]]:
    """Per-vertex ``(neighbour id, weight)`` lists, in edge-insertion order."""
    links: list[list[tuple[int, float]]] = [[] for _ in range(len(graph))]
    for u, v, w in graph.edges:
        links[u].append((v, w))
        links[v].append((u, w))
    return links


def edge_weights(graph: OscillatorGraph) -> dict[tuple[ButterflyKey, ButterflyKey], float]:
    """Every edge once, as {(lower key, higher key): weight}."""
    keys = graph.keys
    return {(min(keys[u], keys[v]), max(keys[u], keys[v])): w for u, v, w in graph.edges}


def rk4_oracle(graph: OscillatorGraph) -> list[float]:
    """The per-vertex RK4 kernel: each vertex sums its own coupling terms.

    Vertex v starts from omega_v and adds w * sin(theta_n - theta_v) for
    its neighbours n in edge-insertion order, evaluating every edge's sine
    twice (once per end). The scatter-add kernel in ``rk4_step`` must equal
    it bit for bit, up to the sign of an exact zero: where two phases are
    equal, one end adds -0.0 where this oracle adds 0.0.
    """
    return rk4_per_vertex(graph.theta, graph.omega, adjacency(graph))


def rk4_per_vertex(theta0: list[float], omega: list[float],
                   links: list[list[tuple[int, float]]]) -> list[float]:
    """``rk4_oracle`` over plain lists: ``links[v]`` is v's (neighbour, weight) list."""
    sin = math.sin

    def deriv(theta: list[float]) -> list[float]:
        out = []
        for v, (base, edges) in enumerate(zip(omega, links)):
            tv = theta[v]
            for u, w in edges:
                base += w * sin(theta[u] - tv)
            out.append(base)
        return out

    half = 0.5 * STEP
    k1 = deriv(theta0)
    k2 = deriv([t + half * k for t, k in zip(theta0, k1)])
    k3 = deriv([t + half * k for t, k in zip(theta0, k2)])
    k4 = deriv([t + STEP * k for t, k in zip(theta0, k3)])
    sixth = STEP / 6.0
    return [sixth * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]


def rk4_reference(thetas: list[float], omegas: list[float],
                  weights: list[list[float]], h: float) -> list[float]:
    """Straight-line staged integrator over an adjacency matrix.

    Spells out the four stage equations one by one; independent of the
    graph-based implementation it checks.
    """
    n = len(thetas)

    k1 = [omegas[v] + sum(weights[v][u] * math.sin(thetas[u] - thetas[v])
                          for u in range(n) if weights[v][u])
          for v in range(n)]
    k2 = [omegas[v] + sum(weights[v][u] * math.sin(
            thetas[u] + 0.5 * h * k1[u] - thetas[v] - 0.5 * h * k1[v])
            for u in range(n) if weights[v][u])
          for v in range(n)]
    k3 = [omegas[v] + sum(weights[v][u] * math.sin(
            thetas[u] + 0.5 * h * k2[u] - thetas[v] - 0.5 * h * k2[v])
            for u in range(n) if weights[v][u])
          for v in range(n)]
    k4 = [omegas[v] + sum(weights[v][u] * math.sin(
            thetas[u] + h * k3[u] - thetas[v] - h * k3[v])
            for u in range(n) if weights[v][u])
          for v in range(n)]
    return [(h / 6.0) * (k1[v] + 2.0 * k2[v] + 2.0 * k3[v] + k4[v])
            for v in range(n)]


def order_parameter_oracle(phases) -> float:
    """Magnitude of the mean unit phasor, via complex arithmetic."""
    values = list(phases)
    total = sum(complex(math.cos(p), math.sin(p)) for p in values)
    return abs(total) / len(values)


def taus_to_records(taus, rng: random.Random | None = None):
    """Wrap a timestamp sequence into records with arbitrary payloads."""
    rng = rng or random.Random(0)
    return [SGR(f"u{rng.randint(0, 50)}", f"v{rng.randint(0, 50)}",
                round(rng.uniform(0.1, 5.0), 3), tau, t)
            for t, tau in enumerate(taus, start=1)]


# --- stream-model oracles -------------------------------------------------------

@dataclass
class Burst:
    """A maximal group of records sharing one (tau, arrival-time) pair."""

    tau: int
    arrival: int
    records: list[SGR]


def segment_bursts(records) -> list[Burst]:
    """Offline oracle: group (record, arrival) pairs into bursts.

    A burst is the maximal set of records sharing both the source timestamp
    and the arrival time; bursts are ordered by their first member's
    position in the input.
    """
    bursts: dict[tuple[int, int], Burst] = {}
    for record, arrival in records:
        key = (record.tau, arrival)
        burst = bursts.get(key)
        if burst is None:
            bursts[key] = Burst(record.tau, arrival, [record])
        else:
            burst.records.append(record)
    return list(bursts.values())


def parse_labeled_sgr(line: str, t: int) -> tuple[SGR, int] | None:
    """Parse the offline oracle format, which appends an arrival-time field."""
    stripped = line.strip()
    if not stripped:
        return None
    parts = stripped.split(",")
    if len(parts) != 5:
        raise SgrParseError(f"expected 5 fields, got {len(parts)}")
    record = parse_sgr(",".join(parts[:4]), t)
    assert record is not None
    try:
        arrival = int(parts[4].strip())
    except ValueError:
        raise SgrParseError(f"field 5 (arrival) is not an integer: {parts[4]!r}") from None
    return record, arrival


@dataclass
class ReferenceProfile:
    """Burst profile kept the literal way: a timestamp set plus a first-seen list."""

    current: int = 1
    average: float = 0.0
    maximum: int = 0
    closed: int = 0
    seen: set[int] = field(default_factory=set)
    order: list[int] = field(default_factory=list)


def reference_ingest(profile: ReferenceProfile, tau: int) -> tuple[bool, bool]:
    """The per-record update read literally; returns (new_timestamp, starts_window).

    The membership test and the burst count are evaluated against the
    pre-insert timestamp set, the average folds the current burst only on a
    new timestamp, and the timestamp is recorded afterwards in both branches.
    """
    closed_pre = len(profile.seen)
    is_new = tau not in profile.seen
    if not is_new:
        profile.current += 1
    else:
        profile.average = (profile.average * closed_pre + profile.current) / (closed_pre + 1)
        profile.current = 1
    if profile.current > profile.maximum:
        profile.maximum = profile.current
    starts_window = is_new and closed_pre > 1
    profile.seen.add(tau)
    if is_new:
        profile.order.append(tau)
    profile.closed = len(profile.seen)
    return is_new, starts_window


def reference_young(ordered_unique: list[int], x: float) -> set[int]:
    """Suffix of ceil(x*n) timestamps from the first-seen-order history."""
    if not 0.0 < x <= 1.0:
        raise ValueError("x must be in (0, 1]")
    n = len(ordered_unique)
    if n == 0:
        return set()
    fraction = Fraction(str(x))
    k = -((-n * fraction.numerator) // fraction.denominator)
    return set(ordered_unique[-k:])


def reference_parse_sgr(line: str, t: int) -> SGR | None:
    """Parse a stream line by stripping the line and then every field."""
    stripped = line.strip()
    if not stripped:
        return None
    parts = stripped.split(",")
    if len(parts) != 4:
        raise SgrParseError(f"expected 4 fields, got {len(parts)}")
    i, j, omega_s, tau_s = (p.strip() for p in parts)
    if not i:
        raise SgrParseError("field 1 (i) is empty")
    if not j:
        raise SgrParseError("field 2 (j) is empty")
    try:
        omega = float(omega_s)
    except ValueError:
        raise SgrParseError(f"field 3 (omega) is not a real number: {omega_s!r}") from None
    try:
        tau = int(tau_s)
    except ValueError:
        raise SgrParseError(f"field 4 (tau) is not an integer: {tau_s!r}") from None
    return SGR(i, j, omega, tau, t)


# --- predictor oracle ------------------------------------------------------------

def reference_sgdp_step(state: SgdpState, tau: int) -> list[DriftSignal]:
    """The predictor step that collects every signal of a window in a list.

    The window gate W - last_signal_window > average is re-read before each
    threshold factor, each factor runs its own one-factor check, and every
    factor that fires adds its signal. ``sgdp_step``, which reads the gate
    once and makes one check over the whole schedule, must give this list's
    only element, or None where the list is empty.
    """
    state.t += 1
    if not ingest_timestamp(state.profile, tau):
        return []
    profile = state.profile
    state.series.append(profile.average)
    fired: list[DriftSignal] = []
    for f in state.config.f_schedule:
        if len(state.series) - state.drift_windows[-1] > profile.average:
            signal = cds_bursts(profile.maximum, state.series, state.t,
                                state.drift_windows, (f,), state.config.variant)
            if signal is not None:
                fired.append(signal)
    return fired


# --- signal and drift-check oracles ------------------------------------------------
#
# The plain forms of the signal encoder and of sgdp's check arithmetic:
# ``json.dumps`` per call, one helper per formula, keyword construction and
# one generator pass per count. The shared encoder, the inlined S and the
# one-loop counts in ``signals`` and ``sgdp`` must give the same bytes,
# values and errors.

def _reference_fields(self) -> dict:
    return {"mode": self.mode, "t": self.t, "W": self.window, "params": self.params}


def reference_to_json(self) -> str:
    return json.dumps({**_reference_fields(self), "wall_ms": self.wall_ms}, sort_keys=True)


def reference_fingerprint(self) -> str:
    return json.dumps(_reference_fields(self), sort_keys=True)


def _digits_floor_log10(x: float) -> int:
    # floor(log10(x)) for x >= 1, computed exactly via the decimal digit count
    return len(str(int(x))) - 1


def reference_suffix_size(maximum: float, average: float, d: int,
                          variant: str = "default") -> int:
    check_variant(variant)
    if d < 1:
        raise ValueError("d must be at least 1")
    num = _digits_floor_log10(max(maximum, 100))
    den = _digits_floor_log10(max(average, 10))
    if _swapped(d, variant):
        num, den = den, num
    return max(1, -(-num // den))


def _swapped(d: int, variant: str) -> bool:
    # The parity of d on which the variant takes the reciprocal ratio.
    return (d % 2 == 0) == (variant == "default")


def reference_suffix_bound(maximum: float, d: int, variant: str = "default") -> int:
    if _swapped(d, variant):
        return 1
    return _digits_floor_log10(max(maximum, 100))


def _decimal(x: float) -> Fraction:
    return Fraction(str(x))


def reference_count_threshold(s: int, f: float) -> int:
    frac = _decimal(f)
    return -((-s * frac.numerator) // frac.denominator)


def reference_cds_bursts(maximum: float, series, t: int, drift_windows: list[int],
                         f_schedule, variant: str = "default") -> DriftSignal | None:
    average = series[-1]
    window = len(series)
    d = len(drift_windows)
    s = reference_suffix_size(maximum, average, d, variant)
    if window - 1 < s:
        return None
    suffix = series[-s - 1:-1]
    greater = sum(1 for x in suffix if x > average)
    less = sum(1 for x in suffix if x < average)
    hits = max(greater, less)
    for f in f_schedule:
        threshold = reference_count_threshold(s, f)
        if hits >= threshold:
            drift_windows.append(window)
            return DriftSignal(
                mode="sgdp", t=t, window=window, wall_ms=now_ms(),
                params={"f": f, "S": s, "threshold": threshold,
                        "greater": greater, "less": less, "average": average},
            )
    return None


# --- detector oracle -------------------------------------------------------------

def _ident(key) -> int:
    return int.from_bytes(hashlib.blake2b("\x1f".join(key).encode("utf-8"),
                                          digest_size=4).digest(), "big")


def _coherence(phases: list[float]) -> float:
    # Left to right, as the module promises: sum() is compensated from 3.12 on.
    s = c = 0.0
    for p in phases:
        s += math.sin(p)
        c += math.cos(p)
    return min(math.hypot(s, c) / len(phases), 1.0)


def reference_sgdd(records, x: float = 0.25, sigma: float = 1.0, seed: int = 0,
                   variant: str = "default"
                   ) -> tuple[list[DriftSignal], list[float], list[float]]:
    """sgdd read literally from its module docstring, one whole window at a time.

    Every window that the profile closes projects its young butterflies in
    canonical order: a new butterfly is linked, with weight |L|, to every
    butterfly already in the graph that shares a j-vertex with it. Then,
    from scratch: each phase is the sum of its neighbours' identifiers
    modulo 2*pi, every vertex draws ``rng.gauss(0.0, sigma)`` in canonical
    order, O1 is the coherence of the phases, and O2 that of one per-vertex
    RK4 step. An empty graph carries both values forward. C1-C3 are then
    applied as written. Returns the signals and the O1 and O2 series, in
    which every window holds its value. Only the profile and the key and
    signal types are shared with ``sgdrift``.
    """
    profile = BurstProfile()
    rng = random.Random(seed)
    window: dict[str, set[str]] = {}
    last_touch: dict[str, int] = {}
    keys: list[ButterflyKey] = []
    ident: dict[ButterflyKey, int] = {}
    links: dict[ButterflyKey, list[tuple[ButterflyKey, float]]] = {}
    o1: list[float] = []
    o2: list[float] = []
    drift = [0]
    signals = []
    for t, r in enumerate(records, start=1):
        starts = ingest_timestamp(profile, r.tau)
        window.setdefault(r.j, set()).add(r.i)
        last_touch[r.j] = r.tau
        if not starts:
            continue
        young = reference_young(list(profile.seen), x)
        young_js = {j for j, tau in last_touch.items() if tau in young}
        edges = {(i, j) for j, i_set in window.items() for i in i_set}
        for key in brute_force_butterflies(edges, young_js):
            if key in links:
                continue
            sharers = sorted(k for k in keys if set(k.j_vertices) & set(key.j_vertices))
            links[key] = []
            for other in sharers:
                links[key].append((other, float(len(sharers) + 1)))
                links[other].append((key, float(len(sharers) + 1)))
            keys.append(key)
            ident[key] = _ident(key)
        window.clear()
        last_touch.clear()
        if keys:
            canonical = sorted(keys)
            theta = [math.fmod(float(sum(ident[n] for n, _ in links[k])), 2.0 * math.pi)
                     for k in canonical]
            omega = [rng.gauss(0.0, sigma) for _ in canonical]
            pos = {k: p for p, k in enumerate(canonical)}
            adjacent = [[(pos[n], w) for n, w in links[k]] for k in canonical]
            o1.append(_coherence(theta))
            o2.append(_coherence(rk4_per_vertex(theta, omega, adjacent)))
        else:
            o1.append(o1[-1] if o1 else 0.0)
            o2.append(o2[-1] if o2 else 0.0)
        w, d = len(o1), len(drift)
        num = len(str(int(max(profile.maximum, 100)))) - 1
        den = len(str(int(max(profile.average, 10)))) - 1
        if (d % 2 == 0) == (variant == "default"):
            num, den = den, num
        s = max(1, math.ceil(Fraction(num, den)))
        sprime = max(1, math.ceil(Fraction(s, d)))
        if w - 1 < s:
            continue
        more = sum(1 for v in o2[w - 1 - s:w - 1] if v > o2[w - 1])
        less = sum(1 for v in o2[w - 1 - s:w - 1] if v < o2[w - 1])
        mu1 = fmean(o1[w - 1 - sprime:w - 1])
        c1 = abs(mu1 - o1[w - 1]) < 10.0 ** -(d + 2)
        c2 = more >= sprime or less >= sprime
        c3 = w - drift[-1] > 10
        if c1 and c2 and c3:
            drift.append(w)
            signals.append(DriftSignal(
                mode="sgdd", t=t, window=w, wall_ms=0.0,
                params={"alpha": d + 2, "S": s, "S_prime": sprime, "mu1": mu1,
                        "more": more, "less": less, "O1": o1[w - 1], "O2": o2[w - 1]}))
    return signals, o1, o2


def _reference_bucketize(signals: list[DriftSignal], truth: GroundTruth
                         ) -> tuple[list[list[DriftSignal]], list[DriftSignal]]:
    """Per-drift signal lists by a literal walk: drift i takes (c_{i-1}, c_i]."""
    cds = list(truth.cd_indices)
    buckets: list[list[DriftSignal]] = [[] for _ in cds]
    trailing: list[DriftSignal] = []
    previous = 0
    for signal in signals:
        if signal.t < previous:
            raise ValueError("signals must be sorted by record index")
        previous = signal.t
    bounds = [0] + cds
    position = 0
    for signal in signals:
        while position < len(cds) and signal.t > bounds[position + 1]:
            position += 1
        if position < len(cds):
            buckets[position].append(signal)
        else:
            trailing.append(signal)
    return buckets, trailing


def reference_distances(signals: list[DriftSignal], truth: GroundTruth,
                        drift_interval: int | None = None) -> EvalReport:
    """``harness.distances`` built from per-drift bucket lists, the oracle it must match."""
    if drift_interval is not None and drift_interval <= 0:
        raise ValueError("drift interval must be positive")
    if any(b <= a for a, b in zip(truth.cd_indices, truth.cd_indices[1:])):
        raise ValueError("ground-truth indices must be strictly increasing")
    buckets, trailing = _reference_bucketize(signals, truth)
    report = EvalReport()
    if not truth.cd_indices:  # no drift: every signal is a false alarm
        report.false_positives = len(trailing)
        return report
    for c, bucket in zip(truth.cd_indices, buckets):
        cd = CdReport(index=c, count=len(bucket))
        if bucket:
            cd.first_t = bucket[0].t
            cd.last_t = bucket[-1].t
            cd.d_first = c - cd.first_t
            cd.d_last = c - cd.last_t
        else:
            report.false_negatives.append(c)
        report.per_cd.append(cd)
    last_cd = truth.cd_indices[-1]
    if trailing:
        report.after_last = AfterLastReport(
            count=len(trailing),
            d_first=trailing[0].t - last_cd,
            d_last=trailing[-1].t - last_cd,
        )
    if drift_interval is not None:
        report.false_positives = sum(1 for s in trailing
                                     if s.t > last_cd + drift_interval)
    return report


# --- generator oracles ----------------------------------------------------------

class ReferenceRecentGraph:
    """The generator's recent graph rebuilt from every retained burst on each open.

    The rebuild fixes the order the generator draws from: ``edges`` and each
    adjacency list in retained-edge order, and ``i_of_j``'s keys by first
    occurrence among the retained edges.
    """

    def __init__(self, beta: int) -> None:
        self._bursts: deque[list[tuple[str, str]]] = deque(maxlen=beta)
        self.i_of_j: dict[str, list[str]] = {}
        self.j_of_i: dict[str, list[str]] = {}
        self.edges: list[tuple[str, str]] = []

    def open_burst(self) -> None:
        self._bursts.append([])
        self.edges = [e for burst in self._bursts for e in burst]
        self.i_of_j = {}
        self.j_of_i = {}
        for i, j in self.edges:
            self.i_of_j.setdefault(j, []).append(i)
            self.j_of_i.setdefault(i, []).append(j)

    def add(self, i: str, j: str) -> None:
        self._bursts[-1].append((i, j))
        self.edges.append((i, j))
        self.i_of_j.setdefault(j, []).append(i)
        self.j_of_i.setdefault(i, []).append(j)
