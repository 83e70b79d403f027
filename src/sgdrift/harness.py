"""Ground-truth evaluation of drift signals.

Signals are attributed to the next upcoming drift: for drift i at record
index c_i the bucket is (c_{i-1}, c_i], and the report carries the record
count distance from the earliest and latest signal in the bucket to c_i.
Record-count distances are reproducible across runs; wall-clock distances
vary, so the repeated-execution protocol scores each run once, aggregates
ms distances as mean and standard deviation over the runs, and hard-fails
if a run's record-count report (fp included) differs from the first's.

Signals after the last drift are reported separately; when the drift
interval is known, a trailing signal more than one full interval past the
last drift counts as a false positive. Drifts whose bucket is empty are
false negatives. With no drift at all (an empty truth file), every signal
is a false positive. ``periodic_null`` and ``random_null`` are null
detectors, matched to a detector's signal count.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field, asdict
from statistics import fmean, stdev

from .genstream import GroundTruth
from .signals import DriftSignal


class DeterminismError(RuntimeError):
    """Record-count distances differed across repeated runs."""


@dataclass
class CdReport:
    """Distances for one drift: record counts plus optional ms statistics."""

    index: int
    count: int = 0
    first_t: int | None = None
    last_t: int | None = None
    d_first: int | None = None
    d_last: int | None = None
    ms_first_mean: float | None = None
    ms_first_std: float | None = None
    ms_last_mean: float | None = None
    ms_last_std: float | None = None


@dataclass
class AfterLastReport:
    """Signals past the final drift, measured forward from it."""

    count: int = 0
    d_first: int | None = None
    d_last: int | None = None


@dataclass
class EvalReport:
    per_cd: list[CdReport] = field(default_factory=list)
    false_negatives: list[int] = field(default_factory=list)
    after_last: AfterLastReport = field(default_factory=AfterLastReport)
    false_positives: int = 0
    runs: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        """Tab-separated table with one 'ms/SGR' cell pair per drift."""
        header: list[str] = []
        cells: list[str] = []
        for k, cd in enumerate(self.per_cd, start=1):
            header += [f"d_{k}f", f"d_{k}l"]
            cells.append(_cell(cd.ms_first_mean, cd.d_first))
            cells.append(_cell(cd.ms_last_mean, cd.d_last))
        header += ["after_f", "after_l"]
        cells.append(_cell(None, self.after_last.d_first))
        cells.append(_cell(None, self.after_last.d_last))
        header += ["fp", "fn"]
        cells += [str(self.false_positives), str(len(self.false_negatives))]
        return "\t".join(header) + "\n" + "\t".join(cells) + "\n"


def _cell(ms: float | None, sgr: int | None) -> str:
    if sgr is None:
        return ""
    ms_part = f"{ms:.2f}" if ms is not None else "-"
    return f"{ms_part}/{sgr}"


def distances(signals: list[DriftSignal], truth: GroundTruth,
              drift_interval: int | None = None) -> EvalReport:
    """Score one signal list against ground truth (record counts only).

    One pass over the record indices ``ts``: drift c's bucket ends at
    ``bisect_right(ts, c)``, and the signals past the last bucket trail.
    """
    check_drift_interval(drift_interval)
    cds = truth.cd_indices
    if any(b <= a for a, b in zip(cds, cds[1:])):
        raise ValueError("ground-truth indices must be strictly increasing")
    ts = [signal.t for signal in signals]
    if any(b < a for a, b in zip([0, *ts], ts)):
        raise ValueError("signals must be sorted by record index")
    report = EvalReport()
    if not cds:
        report.false_positives = len(ts)
        return report
    lo = 0
    for c in cds:
        hi = bisect_right(ts, c, lo)
        cd = CdReport(index=c, count=hi - lo)
        if hi > lo:
            cd.first_t, cd.last_t = ts[lo], ts[hi - 1]
            cd.d_first, cd.d_last = c - cd.first_t, c - cd.last_t
        else:
            report.false_negatives.append(c)
        report.per_cd.append(cd)
        lo = hi
    last_cd = cds[-1]
    if lo < len(ts):
        report.after_last = AfterLastReport(len(ts) - lo, ts[lo] - last_cd, ts[-1] - last_cd)
    if drift_interval is not None:
        report.false_positives = len(ts) - bisect_right(ts, last_cd + drift_interval, lo)
    return report


def _check_null(count: int, n: int) -> None:
    if not 0 <= count <= n:
        raise ValueError("a null needs 0 <= count <= n signals")


def periodic_null(count: int, n: int) -> list[DriftSignal]:
    """``count`` signals evenly spaced over records 1 to ``n``, the last at ``n``."""
    _check_null(count, n)
    return [DriftSignal("periodic", k * n // count, k, 0.0) for k in range(1, count + 1)]


def random_null(count: int, n: int, seed: int) -> list[DriftSignal]:
    """``count`` signals at distinct records from 1 to ``n``, drawn by ``Random(seed)``."""
    _check_null(count, n)
    ts = sorted(random.Random(seed).sample(range(1, n + 1), count))
    return [DriftSignal("random", t, k, 0.0) for k, t in enumerate(ts, start=1)]


def check_drift_interval(drift_interval: int | None) -> None:
    if drift_interval is not None and drift_interval <= 0:
        raise ValueError("drift interval must be positive")


def check_runs(runs: int, batches: int) -> None:
    if runs < 1 or batches < 1 or runs % batches:
        raise ValueError("runs must be a positive multiple of batches")


def repeated_timing(runner, truth: GroundTruth, runs: int, batches: int,
                    drift_interval: int | None = None) -> EvalReport:
    """Run a detector end to end ``runs`` times and aggregate ms distances.

    ``runner`` executes one full detection pass and returns
    ``(signals, cd_wall_ms)`` where ``cd_wall_ms[i]`` is the wall-clock
    time (ms) at which the i-th ground-truth drift record was ingested.
    Runs are grouped into ``batches`` equal batches executed sequentially,
    each preceded by one discarded warmup pass to absorb caching effects,
    so ``runner`` is called ``runs + batches`` times in all.

    Each run is scored once, by :func:`distances`; a run whose record-count
    report (fp included) differs from the first run's raises :class:`DeterminismError`.
    """
    check_runs(runs, batches)
    check_drift_interval(drift_interval)
    per_batch = runs // batches
    reference: EvalReport | None = None
    ms_first: list[list[float]] = [[] for _ in truth.cd_indices]
    ms_last: list[list[float]] = [[] for _ in truth.cd_indices]
    for _ in range(batches):
        runner()
        for _ in range(per_batch):
            signals, cd_wall_ms = runner()
            report = distances(signals, truth, drift_interval)
            if reference is None:
                reference = report
            elif report != reference:  # the ms fields are still None on both
                raise DeterminismError(
                    "record-count distances changed between repeated runs")
            lo = 0  # the buckets are consecutive slices of the t-sorted signals
            for k, cd in enumerate(report.per_cd):
                if cd.count:
                    ms_first[k].append(cd_wall_ms[k] - signals[lo].wall_ms)
                    ms_last[k].append(cd_wall_ms[k] - signals[lo + cd.count - 1].wall_ms)
                lo += cd.count
    assert reference is not None
    for k, cd in enumerate(reference.per_cd):
        if ms_first[k]:
            cd.ms_first_mean = fmean(ms_first[k])
            cd.ms_first_std = stdev(ms_first[k]) if len(ms_first[k]) > 1 else 0.0
            cd.ms_last_mean = fmean(ms_last[k])
            cd.ms_last_std = stdev(ms_last[k]) if len(ms_last[k]) > 1 else 0.0
    reference.runs = runs
    return reference
