"""Streaming graph records and the online burstiness profile.

A stream is an unbounded sequence of timestamped weighted edges. Records
carrying the same source timestamp arrive together as a burst; the profile
tracks the current burst size, the running average and maximum of closed
burst sizes, and the first-seen rank of every timestamp seen so far. Both
detectors drive their burst-adaptive windows off the window-start flag
that ingestion returns.

One deliberate quirk is preserved from the underlying update rule: the
average folds in a closed burst only when a *new* timestamp arrives, so the
final partial burst at stream end is never folded in (there is no flush).
A late arrival of an already-seen timestamp increments the current burst
counter rather than reopening the original burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class SgrParseError(ValueError):
    """Raised when a stream line cannot be parsed into a record."""


class SGR(NamedTuple):
    """One streaming graph record: an edge plus its source timestamp.

    ``i`` and ``j`` are opaque vertex tokens from the left and right
    partitions. ``tau`` is assigned by the data source and may repeat,
    decrease, or jump (late arrivals are legal). ``t`` is the 1-based
    arrival index assigned at ingestion and strictly increases.
    """

    i: str
    j: str
    omega: float
    tau: int
    t: int


@dataclass
class BurstProfile:
    """Online burstiness state, mutated by :func:`ingest_timestamp`.

    ``seen`` maps every timestamp observed to its first-seen rank (0, 1,
    ...); its insertion order is the first-seen order that the
    young-butterfly filter reads. It grows without bound.
    """

    current: int = field(default=1, init=False)
    average: float = field(default=0.0, init=False)
    maximum: int = field(default=0, init=False)
    seen: dict[int, int] = field(default_factory=dict, init=False)


def ingest_timestamp(profile: BurstProfile, tau: int) -> bool:
    """Advance the profile with one record's timestamp.

    Returns True when the record starts a window: its timestamp is unseen
    and at least two timestamps were already known, a burst boundary that
    both detectors treat as a window close. A seen timestamp only extends
    the current burst; a new one folds the current burst into the average
    (against the pre-insert count) and opens a burst of one.
    """
    seen = profile.seen
    if tau in seen:
        current = profile.current + 1
        profile.current = current
        if current > profile.maximum:
            profile.maximum = current
        return False
    closed = len(seen)
    profile.average = (profile.average * closed + profile.current) / (closed + 1)
    profile.current = 1
    if profile.maximum < 1:
        profile.maximum = 1
    seen[tau] = closed
    return closed > 1


def parse_sgr(line: str, t: int, delimiter: str = ",") -> SGR | None:
    """Parse one delimited stream line into a record with arrival index ``t``.

    Returns None for blank lines (skip signal). Raises :class:`SgrParseError`
    naming the offending field otherwise. Surrounding whitespace is
    dropped from the line and from every field.
    """
    stripped = line.strip()
    if not stripped:
        return None
    parts = stripped.split(delimiter)
    if len(parts) != 4:
        raise SgrParseError(f"expected 4 fields, got {len(parts)}")
    i, j, omega_s, tau_s = parts
    i = i.strip()
    if not i:
        raise SgrParseError("field 1 (i) is empty")
    j = j.strip()
    if not j:
        raise SgrParseError("field 2 (j) is empty")
    # float() and int() ignore surrounding whitespace themselves, so only a
    # failed conversion pays for the strip.
    try:
        omega = float(omega_s)
    except ValueError:
        omega = _convert_stripped(float, omega_s, "field 3 (omega) is not a real number")
    try:
        tau = int(tau_s)
    except ValueError:
        tau = _convert_stripped(int, tau_s, "field 4 (tau) is not an integer")
    return SGR(i, j, omega, tau, t)


def _convert_stripped(kind, text: str, message: str):
    # str.strip() also drops the separators U+001C..U+001F, which float()
    # and int() keep, so a field padded with them converts only here.
    text = text.strip()
    try:
        return kind(text)
    except ValueError:
        raise SgrParseError(f"{message}: {text!r}") from None
