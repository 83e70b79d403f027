"""Drift signal records and their JSON-lines wire form."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


# One encoder for every signal; json.dumps(..., sort_keys=True) builds this
# one anew on each call.
_encode = json.JSONEncoder(sort_keys=True).encode


def now_ms() -> float:
    """Wall-clock milliseconds since the epoch."""
    return time.time() * 1000.0


@dataclass(frozen=True)
class DriftSignal:
    """One emitted drift event.

    ``t`` (record index) and ``window`` are reproducible across runs on
    identical input; ``wall_ms`` is the emission wall-clock time and is not.
    ``params`` carries the triggering values (threshold factor or precision
    exponent, suffix length, and the suffix statistics).
    """

    mode: str
    t: int
    window: int
    wall_ms: float
    params: dict = field(default_factory=dict)

    def _fields(self) -> dict:
        return {"mode": self.mode, "t": self.t, "W": self.window, "params": self.params}

    def to_json(self) -> str:
        fields = self._fields()
        fields["wall_ms"] = self.wall_ms
        return _encode(fields)

    def fingerprint(self) -> str:
        """Canonical serialization without the wall-clock field.

        Two runs over identical input produce byte-identical fingerprints.
        """
        return _encode(self._fields())

    @classmethod
    def from_json(cls, line: str) -> "DriftSignal":
        """Parse one line of :meth:`to_json`; a malformed line is a ``ValueError``."""
        obj = json.loads(line)
        if not (isinstance(obj, dict) and isinstance(obj.get("mode"), str)
                and all(type(obj.get(key)) is int and obj[key] >= 1 for key in ("t", "W"))):
            raise ValueError(f"expected an object with a string mode and integer t and W >= 1 "
                             f"(records and windows count from 1), got {line!r}")
        return cls(mode=obj["mode"], t=obj["t"], window=obj["W"],
                   wall_ms=obj.get("wall_ms", 0.0), params=obj.get("params", {}))
