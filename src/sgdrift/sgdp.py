"""Payload-free drift prediction from the burst-size time-series.

The predictor reads nothing but the generation timestamp of each record.
Every new timestamp closes a burst, appends the updated average burst size
to a series, and opens a window; the drift check then compares the current
average against the suffix of values that preceded it, whose length S
adapts to the seen burst sizes. A signal fires when enough of those
preceding values sit strictly above or strictly below the current average,
where "enough" is the dynamic threshold ceil(S * f).

A gate keeps signals apart: a window may only be checked when its distance
from the last signalled window exceeds the current average burst size.
Each window emits at most one signal, from the first factor that fires.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .signals import DriftSignal, now_ms
from .stream_model import BurstProfile, ingest_timestamp

# Factor schedule from the reference procedure; in practice almost all
# signals fire at f=0.3, which is the shipped default.
FULL_F_SCHEDULE: tuple[float, ...] = (1.0, 0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6, 0.5)
DEFAULT_F_SCHEDULE: tuple[float, ...] = (0.3,)

VARIANTS = ("default", "appendix")


def check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown suffix-size variant: {variant!r}")


def _digits_floor_log10(x: float) -> int:
    # floor(log10(x)) for x >= 1, computed exactly via the decimal digit count
    return len(str(int(x))) - 1


def suffix_size(maximum: float, average: float, d: int, variant: str = "default") -> int:
    """Adaptive suffix length from the burst-size extremes.

    The base ratio is floor(log10(max(maximum, 100))) over
    floor(log10(max(average, 10))). The ``default`` variant raises it to
    (-1)**(d+1) and the ``appendix`` variant to (-1)**d, where ``d`` is the
    size of the drift-window log; the result is rounded up and clamped to
    at least 1.
    """
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


def suffix_bound(maximum: float, d: int, variant: str = "default") -> int:
    """The largest S that ``suffix_size`` gives at this burst maximum and d.

    The average never exceeds the maximum, so the reciprocal ratio is at
    most 1 and S is 1 on the parity of d that takes it. On the other
    parity S is at most floor(log10(max(maximum, 100))), whatever the
    average.
    """
    if _swapped(d, variant):
        return 1
    return _digits_floor_log10(max(maximum, 100))


@lru_cache(maxsize=128)
def _decimal(x: float) -> Fraction:
    return Fraction(str(x))


def count_threshold(s: int, f: float) -> int:
    """ceil(S * f) over the decimal value of ``f``, so 0.07 never overshoots."""
    frac = _decimal(f)
    return -((-s * frac.numerator) // frac.denominator)


@dataclass
class SgdpConfig:
    f_schedule: tuple[float, ...] = DEFAULT_F_SCHEDULE
    variant: str = "default"

    def __post_init__(self) -> None:
        if not self.f_schedule or not all(0.0 < f <= 1.0 for f in self.f_schedule):
            raise ValueError("threshold factors must lie in (0, 1]")
        check_variant(self.variant)


@dataclass
class SgdpState:
    """Predictor state for one stream, built from its config alone.

    ``series`` holds one average burst size per window as a packed array of
    doubles, 8 bytes a window instead of a list's pointer plus float object;
    its length is the index of the newest window.
    """

    config: SgdpConfig = field(default_factory=SgdpConfig)
    profile: BurstProfile = field(default_factory=BurstProfile, init=False)
    series: array = field(default_factory=lambda: array("d"), init=False)
    drift_windows: list[int] = field(default_factory=lambda: [0], init=False)
    t: int = field(default=0, init=False)


def cds_bursts(maximum: float, series: Sequence[float], t: int, drift_windows: list[int],
               f_schedule: Sequence[float], variant: str = "default") -> DriftSignal | None:
    """Drift check over the burst-size series, one call per window.

    The series holds one average per window, so its length is the current
    window's index and its newest element, appended by the caller just
    before the check, is the current average; the examined suffix is the S
    values that precede it. Counts how many suffix elements are strictly
    greater and strictly less than the current average (ties count toward
    neither), then tries ``f_schedule`` in order: the first factor whose
    ceil(S * f) a count reaches emits the signal, and the window is
    appended to the drift log. Fewer than S preceding values is
    insufficient evidence, not an error.
    """
    average = series[-1]
    window = len(series)
    d = len(drift_windows)
    s = suffix_size(maximum, average, d, variant)
    if window - 1 < s:
        return None
    suffix = series[-s - 1:-1]
    greater = sum(1 for x in suffix if x > average)
    less = sum(1 for x in suffix if x < average)
    hits = max(greater, less)
    for f in f_schedule:
        threshold = count_threshold(s, f)
        if hits >= threshold:
            drift_windows.append(window)
            return DriftSignal(
                mode="sgdp", t=t, window=window, wall_ms=now_ms(),
                params={"f": f, "S": s, "threshold": threshold,
                        "greater": greater, "less": less, "average": average},
            )
    return None


def sgdp_step(state: SgdpState, tau: int) -> DriftSignal | None:
    """Advance the predictor by one record, identified by its timestamp only.

    Returns None unless the record starts a window. A window start appends
    the updated average to the series; if the gate W - last_signal_window >
    average holds, one drift check then tries the threshold factors in
    schedule order and returns the first signal.
    """
    state.t += 1
    if not ingest_timestamp(state.profile, tau):
        return None
    profile = state.profile
    state.series.append(profile.average)
    if len(state.series) - state.drift_windows[-1] <= profile.average:
        return None
    return cds_bursts(profile.maximum, state.series, state.t, state.drift_windows,
                      state.config.f_schedule, state.config.variant)


def run_sgdp(taus, config: SgdpConfig | None = None) -> list[DriftSignal]:
    """Run the predictor over an iterable of timestamps."""
    state = SgdpState(config=config or SgdpConfig())
    return [s for tau in taus if (s := sgdp_step(state, tau)) is not None]
