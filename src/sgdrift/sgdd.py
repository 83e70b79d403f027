"""Drift detection from butterfly interconnectivity.

Each burst boundary closes the bipartite window, projects its young
butterflies into the cumulative oscillator graph, re-deriving the phases
of the vertices it links, and resamples frequencies. Two series are then
appended: the phase coherence of the graph (O1) and the coherence of the
phase changes predicted by one integration step (O2). A drift is signalled
when the phase structure is steady while the predicted changes show a
local extremum, and the last signal lies more than ten windows back:

  C1: |mean(last S' values of O1 before window W) - O1[W]| < 10**-(d+2)
  C2: among the last S values of O2 before window W, at least S' are
      strictly greater than O2[W] or at least S' are strictly less
  C3: W - last signalled window > 10

S adapts to the burst-size extremes and S' = max(1, ceil(S/d)) shrinks as
detections accumulate. The raw (1-d)*S reading of S' is not offered: it is
at most 0 for every d >= 1, so the O1 suffix would be empty, C1 could
never hold and the detector would never signal.

C1 caps sgdd at 321 signals: from alpha = d + 2 of about 16 on its
tolerance is below O1's float resolution, so it holds only by exact
equality, and at d = 322 ``10.0 ** -324 == 0.0``, so it never holds again
(an 80k-record gradual stream gets its last signal at t = 29,717).

Windows that close while the graph is still empty record 0 for O1 and O2
(the graph only grows, so every earlier window was empty too), so both
series hold one value per closed window and their length is the window
index. A signal's ``t`` is the ``t`` of the record that closed its window.

Only O2 needs the frequencies and the integration, and a check reads O2
only where C3 and C1 hold: ``cdc_butterfly`` tests C3, then C1 (``o1``
alone), and reads ``o2`` last, at most S windows back. Both series follow
one rule: a window with a non-empty graph appends ``None`` to ``o1`` and
``o2``, and every window records in ``sizes`` its graph's size and the
draws before it, from which ``graph.prefix`` gives its graph (the live one
if it has not grown since) and ``rebuild_o2`` its O2 at any time. Each
value is computed only inside the check that reads it, oldest first: the
check fills the placeholders of the slice it reads, its own window last,
so it integrates at most S + 1 windows, and every value computed is read.
Edges only arrive with new vertices and phases depend on the edges alone,
so windows with one vertex count share one O1: a window whose graph did
not grow copies the window before's ``o1`` entry, value or placeholder,
and the fill copies the value it has just taken, so a check takes at most
S' + 1 coherences, one per vertex count in its slice.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from statistics import fmean

from .butterfly import BipartiteWindow, young_timestamps
from .sgdp import check_variant, suffix_size
from .signals import DriftSignal, now_ms
# Imported under this name, which perfbench/tracer.py wraps.
from .stream_model import BurstProfile, SGR, ingest_timestamp as ingest
from .uwgo import OscillatorGraph, assign_phases, order_parameter, project, rk4_step

# Uniforms skipped per getrandbits call when ``_seek`` brings an RNG ahead:
# enough to spread the call's overhead (a uniform costs about the same from
# 1,024 to a million per call), few enough that each call's integer stays
# at 32 KB however long the seek.
REPLAY_CHUNK = 1 << 12


@dataclass
class SgddConfig:
    x: float = 0.25
    sigma: float = 1.0
    seed: int = 0
    variant: str = "default"

    def __post_init__(self) -> None:
        if not 0.0 < self.x <= 1.0:
            raise ValueError("youth fraction x must be in (0, 1]")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):  # 0 stays legal
            raise ValueError("frequency spread sigma must be finite and non-negative")
        if self.seed < 0:  # Random(-s) seeds like Random(s)
            raise ValueError("seed must be non-negative")
        check_variant(self.variant)


@dataclass
class SgddState:
    """Detector state for one stream, built from its config alone.

    ``o1`` and ``o2`` hold ``None`` for a window with a non-empty graph
    whose O1 or O2 nothing has read yet (an ``o1`` entry copied from the
    window before, whose graph was the same, may be a value).
    ``sizes`` is the per-window history: ``(V, E, G)`` per closed window,
    its graph's vertex and edge counts and G, the frequencies drawn before
    it (the previous window's G + V). ``cursor`` is ``(rng, at)``: an RNG
    seeded with ``config.seed`` that has made ``at`` Gaussian draws, where
    the last window ``rebuild_o2`` computed ends.
    No record count is kept: a signal's ``t`` is its record's.
    """

    config: SgddConfig = field(default_factory=SgddConfig)
    profile: BurstProfile = field(default_factory=BurstProfile, init=False)
    window_graph: BipartiteWindow = field(default_factory=BipartiteWindow, init=False)
    graph: OscillatorGraph = field(default_factory=OscillatorGraph, init=False)
    o1: list[float | None] = field(default_factory=list, init=False)
    o2: list[float | None] = field(default_factory=list, init=False)
    drift_windows: list[int] = field(default_factory=lambda: [0], init=False)
    sizes: list[tuple[int, int, int]] = field(default_factory=list, init=False)
    cursor: tuple[random.Random, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cursor = (random.Random(self.config.seed), 0)


def sprime_length(s: int, d: int) -> int:
    """Shorter suffix length for the steadiness and extremum conditions."""
    return max(1, -(-s // d))


def cdc_butterfly(maximum: float, average: float, o1: list[float | None],
                  o2: list[float | None], t: int, drift_windows: list[int],
                  variant: str = "default",
                  fill: Callable[[list, int, int], None] | None = None) -> DriftSignal | None:
    """Drift check over the coherence series for the current window.

    ``o1``/``o2`` hold one value per closed window (element 0 belongs to
    window 1), so the current window W is ``len(o1)``; the values at W are
    the comparison anchors and the suffixes are drawn from the windows
    before W. Fewer than S preceding windows is insufficient evidence, not
    an error. C3 is tested first, then C1, which reads ``o1`` only, and
    ``o2`` is read only when both hold. ``fill(series, first, stop)``, if
    given, is called just before each read with the slice it covers: for
    ``o1`` once C3 holds, for ``o2`` once C1 holds too. Without ``fill``,
    both slices must already hold values, not ``None``. On a signal the
    window is appended to the drift log, which tightens C1 (the precision
    exponent is d+2) for later checks.
    """
    window = len(o1)
    if window - drift_windows[-1] <= 10:
        return None
    d = len(drift_windows)
    s = suffix_size(maximum, average, d, variant)
    sprime = sprime_length(s, d)
    prior = window - 1
    # S' <= S, so enough O2 history is enough O1 history too.
    if prior < s:
        return None
    alpha = d + 2
    if fill is not None:
        fill(o1, prior - sprime, window)
    current_o1 = o1[prior]
    mu1 = fmean(o1[prior - sprime:prior])
    if not abs(mu1 - current_o1) < 10.0 ** (-alpha):
        return None
    if fill is not None:
        fill(o2, prior - s, window)
    current_o2 = o2[prior]
    suffix = o2[prior - s:prior]
    more = sum(1 for v in suffix if v > current_o2)
    less = sum(1 for v in suffix if v < current_o2)
    if less >= sprime or more >= sprime:
        drift_windows.append(window)
        return DriftSignal("sgdd", t, window, now_ms(),
                           {"alpha": alpha, "S": s, "S_prime": sprime, "mu1": mu1,
                            "more": more, "less": less, "O1": current_o1, "O2": current_o2})
    return None


def rebuild_o2(state: SgddState, index: int) -> float:
    """Compute window ``index``'s O2, store it at ``state.o2[index]`` and return it.

    Every window's O2 is computed here, from ``state.graph.prefix(V, E)``
    (the live graph itself if it has not grown since) and the Gaussian
    draws G to G + V of an RNG seeded with ``config.seed``: the state's
    cursor seeks forward to G and stays where V's draws end.
    ``sgdd_step`` rebuilds windows oldest first, so only a window behind
    the cursor seeds a fresh RNG: a library caller's order, or a check that
    reads an unfilled window before the last check's slice, which needs its
    S two or more above that check's. A fresh RNG seeks from draw 0, O(G)
    uniforms, so rebuilding newest first is quadratic in the stream.
    """
    n, m, g = state.sizes[index]
    graph = state.graph.prefix(n, m)
    rng, at = state.cursor
    if at > g:
        rng, at = random.Random(state.config.seed), 0
    _seek(rng, at, g)
    assign_phases(graph, rng, state.config.sigma)
    delta = rk4_step(graph)
    value = state.o2[index] = order_parameter([delta[v] for v in graph.order])
    state.cursor = (rng, g + n)
    return value


def _seek(rng: random.Random, at: int, g: int) -> None:
    """Bring ``rng`` from ``at`` Gaussian draws since its seeding to ``g >= at``.

    After g draws ``Random.gauss`` has taken g + g % 2 uniforms, two 32-bit
    words each, and holds ``gauss_next`` iff g is odd: so skip the whole
    pairs, then draw an odd g's last pair for real.
    """
    if g == at:
        return
    skip = g - g % 2 - at - at % 2
    for done in range(0, skip, REPLAY_CHUNK):
        rng.getrandbits(64 * min(REPLAY_CHUNK, skip - done))
    rng.gauss_next = None
    if g % 2:
        rng.gauss(0.0, 1.0)


def sgdd_step(state: SgddState, r: SGR) -> DriftSignal | None:
    """Advance the detector by one record.

    The record's edge joins the window before the boundary test, so a
    closed window includes the first record of the burst that closed it.
    The boundary timestamp is recorded before projection and therefore
    participates in the young suffix.
    """
    starts_window = ingest(state.profile, r.tau)
    window_graph = state.window_graph
    window_graph.add(r.i, r.j, r.tau)
    if not starts_window:
        return None
    graph, profile, o1, o2, sizes = state.graph, state.profile, state.o1, state.o2, state.sizes
    young = young_timestamps(profile.seen, state.config.x,
                             window_graph.j_last_tau.values())
    # Only project changes the graph, so its size now is the last window's V.
    before, _, drawn = sizes[-1] if sizes else (0, 0, 0)
    project(window_graph, graph, young)
    # Edges only arrive with new vertices and phases depend on the edges
    # alone, so an unchanged vertex count means an unchanged O1.
    o1.append(o1[-1] if o1 and len(graph) == before else None if graph.vertices else 0.0)
    o2.append(None if graph.vertices else 0.0)
    sizes.append((len(graph), graph.edge_count(), drawn + before))

    def fill(series: list[float | None], first: int, stop: int) -> None:
        for k in range(first, stop):
            if series[k] is None:
                n, m, _ = sizes[k]
                same = k and o1[k - 1] is not None and sizes[k - 1][0] == n
                series[k] = (rebuild_o2(state, k) if series is o2 else o1[k - 1] if same
                             else graph.prefix(n, m).coherence())

    return cdc_butterfly(profile.maximum, profile.average, o1, o2, r.t,
                         state.drift_windows, state.config.variant, fill)


def run_sgdd(records, config: SgddConfig | None = None) -> list[DriftSignal]:
    """Run the detector over an iterable of records."""
    state = SgddState(config=config or SgddConfig())
    return [s for r in records if (s := sgdd_step(state, r)) is not None]
