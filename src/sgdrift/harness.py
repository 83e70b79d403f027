"""Ground-truth evaluation of drift signals.

Signals are attributed to the next upcoming drift: for drift i at record
index c_i the bucket is (c_{i-1}, c_i], and the report carries the record
count distance from the earliest and latest signal in the bucket to c_i.
Record-count distances are reproducible across runs; wall-clock distances
vary, so the repeated-execution protocol aggregates them as mean and
standard deviation over many runs while hard-failing if the record-count
distances ever differ between runs.

Signals after the last drift are reported separately; when the drift
interval is known, a trailing signal more than one full interval past the
last drift counts as a false positive. Drifts whose bucket is empty are
false negatives.
"""

from __future__ import annotations

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


def _bucketize(signals: list[DriftSignal],
               truth: GroundTruth) -> tuple[list[list[DriftSignal]], list[DriftSignal]]:
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


def distances(signals: list[DriftSignal], truth: GroundTruth,
              drift_interval: int | None = None) -> EvalReport:
    """Score one signal list against ground truth (record counts only)."""
    check_drift_interval(drift_interval)
    if not truth.cd_indices:
        raise ValueError("ground truth is empty, nothing to score")
    if any(b <= a for a, b in zip(truth.cd_indices, truth.cd_indices[1:])):
        raise ValueError("ground-truth indices must be strictly increasing")
    buckets, trailing = _bucketize(signals, truth)
    report = EvalReport()
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


def _sgr_fingerprint(report: EvalReport) -> tuple:
    per_cd = tuple((cd.index, cd.count, cd.first_t, cd.last_t) for cd in report.per_cd)
    return (per_cd, tuple(report.false_negatives),
            (report.after_last.count, report.after_last.d_first, report.after_last.d_last))


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

    Record-count distances must be identical across all runs; a mismatch
    raises :class:`DeterminismError`.
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
            elif _sgr_fingerprint(report) != _sgr_fingerprint(reference):
                raise DeterminismError(
                    "record-count distances changed between repeated runs")
            buckets, _ = _bucketize(signals, truth)
            for k, bucket in enumerate(buckets):
                if bucket:
                    ms_first[k].append(cd_wall_ms[k] - bucket[0].wall_ms)
                    ms_last[k].append(cd_wall_ms[k] - bucket[-1].wall_ms)
    assert reference is not None
    for k, cd in enumerate(reference.per_cd):
        if ms_first[k]:
            cd.ms_first_mean = fmean(ms_first[k])
            cd.ms_first_std = stdev(ms_first[k]) if len(ms_first[k]) > 1 else 0.0
            cd.ms_last_mean = fmean(ms_last[k])
            cd.ms_last_std = stdev(ms_last[k]) if len(ms_last[k]) > 1 else 0.0
    reference.runs = runs
    return reference
