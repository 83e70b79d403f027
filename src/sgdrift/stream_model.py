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
    young-butterfly filter reads. It grows without bound, and with it
    sgdp's state: about 10 bytes per record on generated streams
    (``tracemalloc``: 2.3 MB at 200k records, 10.0 MB at 1M).
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


# The record built without the Python-level __new__ that NamedTuple generates,
# at about half its cost.
_new_tuple = tuple.__new__


# The parse_sgr slots. Each starts as a pair its conversion gives, so no
# text that fails to convert is ever taken as converted.
_tau_slot = ("0", 0)
_omega_slot = ("1.0", 1.0)


def parse_sgr(line: str, t: int, delimiter: str = ",") -> SGR | None:
    """Parse one delimited stream line into a record with arrival index ``t``.

    Returns None for blank lines (skip signal). Raises :class:`SgrParseError`
    naming the offending field otherwise. Surrounding whitespace is
    dropped from the line and from every field.

    The raw line is split once. A record of four fields with non-empty ids
    converts its timestamp and weight only when their text differs from
    the last text converted; two module-level slots, one per field, keep
    that text and its value. The slots hold only conversions that
    succeeded, and each is one tuple swapped whole, so threads parsing
    different streams never read a value of the wrong text. A reused weight
    is the very float object parsed before, so two ``nan`` records compare
    equal as tuples (identity comes before ``==``). Every other line is
    stripped before it is split.
    """
    global _tau_slot, _omega_slot
    # A ValueError here is a wrong field count, an empty delimiter or a
    # failed conversion, whose outcome the strip-first path below gives.
    try:
        i, j, omega_s, tau_s = line.split(delimiter)
        i = i.strip()
        j = j.strip()
        if i and j:
            text, omega = _omega_slot
            if omega_s != text:
                omega = float(omega_s)
                _omega_slot = (omega_s, omega)
            text, tau = _tau_slot
            if tau_s != text:
                tau = int(tau_s)
                _tau_slot = (tau_s, tau)
            return _new_tuple(SGR, (i, j, omega, tau, t))
    except ValueError:
        pass
    # Edge whitespace that holds the delimiter makes the raw split's first
    # or last field blank, or adds one, and sends the line here. float()
    # and int() accept only whitespace that str.strip() drops, so a line
    # whose edges hold no delimiter gets the record the raw split gives.
    stripped = line.strip()
    if not stripped:
        return None
    parts = stripped.split(delimiter)
    if len(parts) != 4:
        raise SgrParseError(f"expected 4 fields, got {len(parts)}")
    i, j, omega_s, tau_s = (part.strip() for part in parts)
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
    return _new_tuple(SGR, (i, j, omega, tau, t))
