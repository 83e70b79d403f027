"""Drift signal records and their JSON-lines wire form."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

# The C encoder that json.dumps(..., sort_keys=True) builds per call, built once; no
# markers, so no state is shared. CPython >= 3.10 ships _json: no Python fallback.
_encoder = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                          ": ", ", ", True, False, True)


def now_ms() -> float:
    """Wall-clock milliseconds since the epoch."""
    return time.time() * 1000.0


@dataclass(slots=True)
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
        """``json.dumps(..., sort_keys=True)``'s bytes, but a ``params`` that
        contains itself raises ``RecursionError``, not ``ValueError``."""
        fields = self._fields()
        fields["wall_ms"] = self.wall_ms
        return "".join(_encoder(fields, 0))

    def fingerprint(self) -> str:
        """Canonical serialization without the wall-clock field.

        Two runs over identical input produce byte-identical fingerprints.
        """
        return "".join(_encoder(self._fields(), 0))

    @classmethod
    def from_json(cls, line: str) -> "DriftSignal":
        """Parse one line of :meth:`to_json`; a malformed line is a ``ValueError``."""
        obj = json.loads(line)
        if not (isinstance(obj, dict) and isinstance(obj.get("mode"), str)
                and all(type(obj.get(key)) is int and obj[key] >= 1 for key in ("t", "W"))
                and type(obj.setdefault("wall_ms", 0.0)) in (int, float)
                and type(obj.setdefault("params", {})) is dict):
            raise ValueError(f"expected an object with a string mode, integer t and W >= 1 "
                             f"(counted from 1), a number wall_ms, object params: {line!r}")
        return cls(mode=obj["mode"], t=obj["t"], window=obj["W"],
                   wall_ms=obj["wall_ms"], params=obj["params"])
