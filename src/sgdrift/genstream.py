"""Synthetic bursty bipartite stream generator with injected drifts.

The generator emits bursts of edges, one fresh timestamp per burst. Each
burst's size and wiring depend on two regime parameters: the connection
probability rho and the random-walk length range [l_min, l_max]. With
probability rho a burst move stamps a complete (2,2)-biclique whose
j-vertices are found by a short wedge walk over the recently generated
graph (closing wedges into butterflies inside the burst); otherwise a
fresh vertex is attached. Larger rho and longer walks give larger bursts
and denser butterfly closure.

The drift timeline is one list of segments, each an end index, the
parameters in force up to it and whether its end is a drift. The first
``prefix_len`` records are generated under a distinct regime 0, standing
in for a real-world prefix, so the switch to the schedule's parameters is
a genuine generative change and counts as the first drift. Each later
segment ends where the schedule changes parameters, at multiples of the
drift interval, and the last one at ``n``. A change inside the prefix
still ends a segment but is no drift; its parameters hold from the prefix
end. Bursts are clipped to their segment's end, so none straddles a
change. Ground truth lists the index of the last record of every drift
segment, which is every segment but the last and those inside the prefix.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .stream_model import SGR

PATTERNS = ("gradual", "recurring")

# Parameter plateaus the schedules alternate between, and the regime-0
# defaults used for the stand-in prefix.
BASE_PARAMS = (0.4, 1, 4)
RAISED_PARAMS = (0.6, 3, 4)
PREFIX_PARAMS = (0.3, 1, 2)


@dataclass(frozen=True)
class GeneratorConfig:
    """Regime-0 parameters plus the knobs shared by every regime.

    ``beta`` is the recency horizon (bursts) for walk targets and ``m`` the
    per-burst batch size feeding the burst-size draw; both shift scale, not
    the characteristic patterns.
    """

    rho: float = PREFIX_PARAMS[0]
    l_min: int = PREFIX_PARAMS[1]
    l_max: int = PREFIX_PARAMS[2]
    beta: int = 5
    m: int = 10
    seed: int = 0
    prefix_len: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if not 1 <= self.l_min <= self.l_max:
            raise ValueError("walk range must satisfy 1 <= l_min <= l_max")
        if self.beta < 1 or self.m < 1:
            raise ValueError("beta and m must be positive")
        if self.prefix_len < 0:
            raise ValueError("prefix_len must be non-negative")


@dataclass(frozen=True)
class DriftSchedule:
    """Where the schedule changes parameters, over the record index axis.

    ``changes`` holds ``(index, (rho, l_min, l_max))`` pairs in index order:
    records after ``index`` are generated under those parameters, and
    before the first change under ``BASE_PARAMS``. The gradual pattern
    changes at 2, 3 and 4 drift intervals (raised, base, raised); the
    recurring pattern at 2 and 3 (raised, then back to base).
    """

    changes: tuple[tuple[int, tuple[float, int, int]], ...]

    @classmethod
    def make(cls, pattern: str, delta_r: int) -> "DriftSchedule":
        if pattern not in PATTERNS:
            raise ValueError(f"unknown drift pattern: {pattern!r}")
        if delta_r <= 0:
            raise ValueError("drift interval must be positive")
        plateaus = [RAISED_PARAMS, BASE_PARAMS, RAISED_PARAMS]
        if pattern == "recurring":
            plateaus.pop()
        return cls(tuple((k * delta_r, p) for k, p in enumerate(plateaus, start=2)))


@dataclass(frozen=True)
class GroundTruth:
    """Drift positions: record indices and the timestamps at those indices."""

    cd_indices: tuple[int, ...]
    cd_timestamps: tuple[int, ...]


class _RecentGraph:
    """Edges of the last ``beta`` bursts, with adjacency for wedge walks."""

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


class _Emitter:
    def __init__(self, config: GeneratorConfig, schedule: DriftSchedule, n: int):
        if n <= config.prefix_len:
            raise ValueError("n must exceed the prefix length")
        self.config = config
        self.rng = random.Random(config.seed)
        self.recent = _RecentGraph(config.beta)
        self.next_i = self.next_j = 0
        # Walk the schedule's plateaus, splitting the one the prefix ends in.
        # A change inside the prefix still ends a segment, but not a drift.
        p = config.prefix_len
        prefix = (config.rho, config.l_min, config.l_max)
        self.segments: list[tuple[int, tuple[float, int, int], bool]] = []
        start, params = 0, BASE_PARAMS
        for end, following in [*(c for c in schedule.changes if c[0] < n), (n, None)]:
            if start < p < end:
                self.segments.append((p, prefix, True))
            self.segments.append((end, prefix if end <= p else params, p <= end < n))
            start, params = end, following

    def _fresh_i(self) -> str:
        self.next_i += 1
        return f"u{self.next_i}"

    def _fresh_j(self) -> str:
        self.next_j += 1
        return f"v{self.next_j}"

    def _walk_j(self, start_j: str, length: int) -> str:
        current = start_j
        for _ in range(length):
            fans = self.recent.i_of_j.get(current)
            if not fans:
                break
            anchor = self.rng.choice(fans)
            current = self.rng.choice(self.recent.j_of_i[anchor])
        return current

    def _stamp_edges(self, rho: float, l_min: int, l_max: int) -> list[tuple[str, str]]:
        # Complete biclique between two i-vertices and two walk-related
        # j-vertices; emitted inside one burst so the motif is whole within
        # a single detector window.
        if self.recent.edges:
            i_a, j_a = self.rng.choice(self.recent.edges)
            if self.rng.random() >= rho:
                i_a = self._fresh_i()
            j_b = self._walk_j(j_a, self.rng.randint(l_min, l_max))
            if j_b == j_a:
                j_b = self._fresh_j()
        else:
            i_a, j_a, j_b = self._fresh_i(), self._fresh_j(), self._fresh_j()
        i_b = self._fresh_i()
        return [(i_a, j_a), (i_a, j_b), (i_b, j_a), (i_b, j_b)]

    def _attach_edge(self) -> tuple[str, str]:
        i = self._fresh_i()
        if self.recent.i_of_j and self.rng.random() < 0.5:
            return (i, self.rng.choice(list(self.recent.i_of_j)))
        return (i, self._fresh_j())

    def run(self, sink) -> GroundTruth:
        """Feed every record to ``sink`` in order and return the ground truth."""
        rng = self.rng
        m = self.config.m
        t = tau = 0
        marks: list[tuple[int, int]] = []
        for end, (rho, l_min, l_max), is_drift in self.segments:
            while t < end:
                budget = min(end - t, 1 + sum(rng.random() < rho for _ in range(m))
                             + rng.randint(l_min, l_max))
                tau += 1
                self.recent.open_burst()
                while budget > 0:
                    if rng.random() < rho:
                        edges = self._stamp_edges(rho, l_min, l_max)[:budget]
                    else:
                        edges = [self._attach_edge()]
                    for i, j in edges:
                        t += 1
                        budget -= 1
                        self.recent.add(i, j)
                        sink(SGR(i, j, 1.0, tau, t))
            if is_drift:
                marks.append((t, tau))
        return GroundTruth(tuple(i for i, _ in marks), tuple(ts for _, ts in marks))


def generate(config: GeneratorConfig, schedule: DriftSchedule,
             n: int) -> tuple[list[SGR], GroundTruth]:
    """Generate ``n`` records in memory along with their ground truth.

    Drift indices are the prefix length (if positive) plus every schedule
    change strictly between it and ``n``. Output is a pure function of
    (config, schedule, n).
    """
    records: list[SGR] = []
    truth = _Emitter(config, schedule, n).run(records.append)
    return records, truth


def format_sgr(record: SGR) -> str:
    return f"{record.i},{record.j},{record.omega!r},{record.tau}"


def generate_to_files(config: GeneratorConfig, schedule: DriftSchedule, n: int,
                      stream_path, truth_path) -> GroundTruth:
    """Stream ``n`` generated records to a text file plus a truth file.

    The stream file holds one ``i,j,omega,tau`` line per record and the
    truth file one ``index,tau`` line per drift. ``n`` is checked against
    the prefix length before either file is opened.
    """
    emitter = _Emitter(config, schedule, n)
    with open(stream_path, "w", encoding="utf-8") as stream:
        truth = emitter.run(lambda r: stream.write(format_sgr(r) + "\n"))
    with open(truth_path, "w", encoding="utf-8") as out:
        for index, ts in zip(truth.cd_indices, truth.cd_timestamps):
            out.write(f"{index},{ts}\n")
    return truth


def read_ground_truth(path, delimiter: str = ",") -> GroundTruth:
    """Read a truth file; a bad line or non-increasing index is a ``ValueError``.

    An empty ``delimiter`` is a ``ValueError`` raised before the file opens.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    indices: list[int] = []
    timestamps: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                index, tau = map(int, line.split(delimiter))
            except ValueError:
                raise ValueError(f"truth line {lineno}: expected index{delimiter}tau "
                                 f"(two integers), got {line!r}") from None
            if indices and index <= indices[-1]:
                raise ValueError(f"truth line {lineno}: index {index} does not increase")
            indices.append(index)
            timestamps.append(tau)
    return GroundTruth(tuple(indices), tuple(timestamps))
