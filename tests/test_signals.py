import json

import pytest

from sgdrift.signals import DriftSignal


def test_json_round_trip():
    signal = DriftSignal("sgdp", 42, 7, 123.5, {"f": 0.3, "S": 2})
    again = DriftSignal.from_json(signal.to_json())
    assert again == signal


def test_wire_keys():
    obj = json.loads(DriftSignal("sgdd", 1, 2, 3.0, {}).to_json())
    assert set(obj) == {"mode", "t", "W", "wall_ms", "params"}


def test_fingerprint_excludes_wall_clock():
    a = DriftSignal("sgdp", 42, 7, 1.0, {"f": 0.3})
    b = DriftSignal("sgdp", 42, 7, 99.0, {"f": 0.3})
    assert a.fingerprint() == b.fingerprint()
    assert a.to_json() != b.to_json()


@pytest.mark.parametrize("line", ['{"t": 5, "W": 1}', "[1, 2]", '"t"',
                                  '{"mode": "sgdp", "t": "5", "W": 1}',
                                  '{"mode": "sgdp", "t": 5, "W": 1.0}',
                                  '{"mode": "sgdp", "t": true, "W": 1}',
                                  '{"mode": "sgdp", "t": 0, "W": 1}',
                                  '{"mode": "sgdp", "t": -5, "W": 1}',
                                  '{"mode": "sgdp", "t": 5, "W": 0}'])
def test_from_json_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        DriftSignal.from_json(line)
