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

Windows that close while the graph is still empty record 0 for O1 and O2
(the graph only grows, so every earlier window was empty too), so both
series hold one value per closed window and their length is the window
index.

Only O2 needs the frequencies and the integration, and C3 at a later
window depends only on its index and the last signalled window L. A check
reads O2 no further back than S windows, and S never exceeds
floor(log10(max(maximum, 100))). So a window W with W + that bound <= L + 10
integrates nothing: it advances the RNG exactly as its draws would, appends
``None`` to ``o2`` and records what rebuilding its O2 would take. Every
other window with a non-empty graph draws and integrates. Should S outgrow
the bound, a check that passes C3 and reaches a skipped window has that
O2 rebuilt first (``rebuild_o2``). ``cdc_butterfly`` tests C3 before it
reads either series. O1 is recomputed whenever the graph grew, so ``o1``
holds a value for every window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import fmean

from .butterfly import BipartiteWindow, young_timestamps
from .sgdp import check_variant, suffix_bound, suffix_size
from .signals import DriftSignal, now_ms
from .stream_model import BurstProfile, SGR, ingest
from .uwgo import (OscillatorGraph, assign_phases, order_parameter, project, rk4_step,
                  skip_frequencies)

# Uniforms skipped per getrandbits call when rebuild_o2 replays the RNG.
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
        check_variant(self.variant)


@dataclass
class SgddState:
    """Detector state for one stream.

    ``o2`` holds ``None`` for a skipped window. ``skipped`` maps its index
    in ``o2`` to ``(V, E, uniforms, gauss_next)``: the graph's vertex and
    edge counts, the uniforms drawn since ``rng_start`` before its draws,
    and the ``gauss_next`` value the RNG carried into them. ``rng_start``
    is the RNG's state when the detector was created.
    """

    config: SgddConfig = field(default_factory=SgddConfig)
    profile: BurstProfile = field(default_factory=BurstProfile)
    window_graph: BipartiteWindow = field(default_factory=BipartiteWindow)
    graph: OscillatorGraph = field(default_factory=OscillatorGraph)
    o1: list[float] = field(default_factory=list)
    o2: list[float | None] = field(default_factory=list)
    drift_windows: list[int] = field(default_factory=lambda: [0])
    t: int = 0
    rng: random.Random = None  # type: ignore[assignment]
    skipped: dict[int, tuple[int, int, int, float | None]] = field(
        default_factory=dict, init=False)
    uniforms: int = field(default=0, init=False)
    rng_start: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = random.Random(self.config.seed)
        self.rng_start = self.rng.getstate()


def sprime_length(s: int, d: int) -> int:
    """Shorter suffix length for the steadiness and extremum conditions."""
    return max(1, -(-s // d))


def cdc_butterfly(maximum: float, average: float, o1: list[float], o2: list[float],
                  t: int, drift_windows: list[int],
                  variant: str = "default") -> DriftSignal | None:
    """Drift check over the coherence series for the current window.

    ``o1``/``o2`` hold one value per closed window (element 0 belongs to
    window 1), so the current window W is ``len(o1)``; the values at W are
    the comparison anchors and the suffixes are drawn from the windows
    before W. Fewer than S preceding windows is insufficient evidence, not
    an error. C3 is tested first, and the series are read only when it
    holds. On a signal the window is appended to the drift log, which
    tightens C1 (the precision exponent is d+2) for later checks.
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
    current_o1 = o1[prior]
    current_o2 = o2[prior]
    suffix = o2[prior - s:prior]
    more = sum(1 for v in suffix if v > current_o2)
    less = sum(1 for v in suffix if v < current_o2)
    alpha = d + 2
    extremum = less >= sprime or more >= sprime
    mu1 = fmean(o1[prior - sprime:prior])
    steady = abs(mu1 - current_o1) < 10.0 ** (-alpha)
    if extremum and steady:
        drift_windows.append(window)
        return DriftSignal(
            mode="sgdd", t=t, window=window, wall_ms=now_ms(),
            params={"alpha": alpha, "S": s, "S_prime": sprime, "mu1": mu1,
                    "more": more, "less": less, "O1": current_o1, "O2": current_o2},
        )
    return None


def rebuild_o2(state: SgddState, index: int) -> float:
    """Compute the O2 of a skipped window, store it at ``state.o2[index]`` and return it.

    The graph as it stood then is ``graph.prefix(V, E)``. Its frequencies
    are drawn from a fresh RNG set to ``rng_start`` and advanced past the
    uniforms drawn before that window, carrying the same ``gauss_next``, so
    every draw, and with it the value, is the one the window would have made.
    """
    n, m, uniforms, carried = state.skipped.pop(index)
    past = state.graph.prefix(n, m)
    rng = random.Random()
    rng.setstate(state.rng_start)
    for done in range(0, uniforms, REPLAY_CHUNK):
        rng.getrandbits(64 * min(REPLAY_CHUNK, uniforms - done))
    rng.gauss_next = carried
    assign_phases(past, rng, state.config.sigma)
    delta = rk4_step(past)
    state.o2[index] = value = order_parameter([delta[v] for v in past.order])
    return value


def sgdd_step(state: SgddState, r: SGR) -> DriftSignal | None:
    """Advance the detector by one record.

    The record's edge joins the window before the boundary test, so a
    closed window includes the first record of the burst that closed it.
    The boundary timestamp is recorded before projection and therefore
    participates in the young suffix.
    """
    state.t += 1
    starts_window = ingest(state.profile, r)
    window_graph = state.window_graph
    window_graph.add(r.i, r.j, r.tau)
    if not starts_window:
        return None
    graph, profile, o1, o2 = state.graph, state.profile, state.o1, state.o2
    young = young_timestamps(profile.seen, state.config.x,
                             window_graph.j_last_tau.values())
    size_before = len(graph)
    project(window_graph, graph, young)
    # Edges only arrive with new vertices and phases depend on the edges
    # alone, so an unchanged vertex count means an unchanged O1.
    if len(graph) != size_before:
        o1.append(order_parameter([graph.theta[v] for v in graph.order]))
    else:
        o1.append(o1[-1] if o1 else 0.0)
    window = len(o1)
    last = state.drift_windows[-1]
    if not graph.vertices:
        o2.append(0.0)
    elif window + suffix_bound(profile.maximum) <= last + 10:
        state.skipped[window - 1] = (len(graph), graph.edge_count(), state.uniforms,
                                     state.rng.gauss_next)
        state.uniforms += skip_frequencies(graph, state.rng)
        o2.append(None)
    else:
        state.uniforms += assign_phases(graph, state.rng, state.config.sigma)
        delta = rk4_step(graph)
        o2.append(order_parameter([delta[v] for v in graph.order]))
    if window - last > 10:
        # The check reads O2 back to S windows before this one; S may have
        # outgrown the bound some of them were skipped under.
        s = suffix_size(profile.maximum, profile.average, len(state.drift_windows),
                        state.config.variant)
        for k in range(max(0, window - 1 - s), window):
            if o2[k] is None:
                rebuild_o2(state, k)
    return cdc_butterfly(profile.maximum, profile.average, o1, o2, state.t,
                         state.drift_windows, state.config.variant)


def run_sgdd(records, config: SgddConfig | None = None) -> list[DriftSignal]:
    """Run the detector over an iterable of records."""
    state = SgddState(config=config or SgddConfig())
    return [s for r in records if (s := sgdd_step(state, r)) is not None]
