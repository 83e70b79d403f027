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

Windows that close while the graph is still empty carry the previous O1/O2
values forward (0 for the first), so both series hold one value per
closed window and their length is the window index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from statistics import fmean

from .butterfly import BipartiteWindow, young_timestamps
from .sgdp import check_variant, suffix_size
from .signals import DriftSignal, now_ms
from .stream_model import BurstProfile, SGR, ingest
from .uwgo import OscillatorGraph, assign_phases, order_parameter, project, rk4_step


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
    """Detector state for one stream."""

    config: SgddConfig = field(default_factory=SgddConfig)
    profile: BurstProfile = field(default_factory=BurstProfile)
    window_graph: BipartiteWindow = field(default_factory=BipartiteWindow)
    graph: OscillatorGraph = field(default_factory=OscillatorGraph)
    o1: list[float] = field(default_factory=list)
    o2: list[float] = field(default_factory=list)
    drift_windows: list[int] = field(default_factory=lambda: [0])
    t: int = 0
    rng: random.Random = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = random.Random(self.config.seed)


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
    an error. On a signal the window is appended to the drift log, which
    tightens C1 (the precision exponent is d+2) for later checks.
    """
    window = len(o1)
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
    spaced = window - drift_windows[-1] > 10
    if extremum and steady and spaced:
        drift_windows.append(window)
        return DriftSignal(
            mode="sgdd", t=t, window=window, wall_ms=now_ms(),
            params={"alpha": alpha, "S": s, "S_prime": sprime, "mu1": mu1,
                    "more": more, "less": less, "O1": current_o1, "O2": current_o2},
        )
    return None


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
    graph = state.graph
    young = young_timestamps(state.profile.seen, state.config.x,
                             window_graph.j_last_tau.values())
    size_before = len(graph)
    project(window_graph, graph, young)
    assign_phases(graph, state.rng, state.config.sigma)
    if graph.vertices:
        # Edges only arrive with new vertices and phases depend on the
        # edges alone, so an unchanged vertex count means an unchanged O1.
        if len(graph) != size_before:
            o1_value = order_parameter([graph.theta[v] for v in graph.order])
        else:
            o1_value = state.o1[-1]
        delta = rk4_step(graph)
        o2_value = order_parameter([delta[v] for v in graph.order])
    else:
        o1_value = state.o1[-1] if state.o1 else 0.0
        o2_value = state.o2[-1] if state.o2 else 0.0
    state.o1.append(o1_value)
    state.o2.append(o2_value)
    return cdc_butterfly(state.profile.maximum, state.profile.average,
                         state.o1, state.o2, state.t, state.drift_windows,
                         state.config.variant)


def run_sgdd(records, config: SgddConfig | None = None) -> list[DriftSignal]:
    """Run the detector over an iterable of records."""
    state = SgddState(config=config or SgddConfig())
    return [s for r in records if (s := sgdd_step(state, r)) is not None]
