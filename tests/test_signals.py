import json
import math

import pytest

from helpers import reference_fingerprint, reference_to_json
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
                                  '{"mode": "sgdp", "t": 5, "W": 0}',
                                  # A wall_ms or params that to_json never writes.
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": "x", "params": 5}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": "x"}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": true}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": null}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": [1.0]}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "params": 5}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "params": [1]}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "params": "f"}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "params": null}'])
def test_from_json_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        DriftSignal.from_json(line)


@pytest.mark.parametrize("line, wall_ms, params", [
    ('{"mode": "sgdp", "t": 1, "W": 1}', 0.0, {}),
    ('{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": 7, "params": {"S": 2}}', 7, {"S": 2}),
    ('{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": -1.5e300}', -1.5e300, {}),
])
def test_from_json_accepts_what_to_json_writes_and_defaults(line, wall_ms, params):
    signal = DriftSignal.from_json(line)
    assert (signal.wall_ms, signal.params) == (wall_ms, params)
    assert DriftSignal.from_json(signal.to_json()) == signal


def _reference(signal):
    return reference_to_json(signal), reference_fingerprint(signal)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"x", 1j])
def test_unencodable_params_raise_like_json_dumps(bad):
    signal = DriftSignal("sgdp", 3, 2, 1.5, {"S": 2, "bad": bad})
    for encode, reference in ((signal.to_json, reference_to_json),
                              (signal.fingerprint, reference_fingerprint)):
        with pytest.raises(TypeError) as expected:
            reference(signal)
        with pytest.raises(TypeError) as raised:
            encode()
        assert str(raised.value) == str(expected.value)
    # A failed encode leaves nothing behind for the next signal.
    after = DriftSignal("sgdd", 9, 4, 2.5, {"O1": 0.5, "nested": [{"b": 1, "a": None}]})
    assert (after.to_json(), after.fingerprint()) == _reference(after)


def test_no_json_encoder_is_built_per_signal(monkeypatch):
    signals = [DriftSignal("sgdp", 42, 7, 123.5, {"f": 0.3, "S": 2, "average": math.inf}),
               DriftSignal("sgdd→é", 1, 2, math.nan, {"nested": {"b": [1, 2.5], "a": "ü"}})]
    expected = [_reference(signal) for signal in signals]

    def built(*args, **kwargs):
        raise AssertionError("a JSONEncoder encoded a signal")
    monkeypatch.setattr(json.JSONEncoder, "encode", built)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", built)
    assert [(s.to_json(), s.fingerprint()) for s in signals] == expected


def test_params_that_contain_themselves_raise_recursion_error():
    # json.dumps finds the cycle through its markers dict and raises
    # ValueError; the shared encoder keeps no markers and recurses instead.
    params = {"S": 2}
    params["self"] = params
    signal = DriftSignal("sgdp", 1, 1, 0.0, params)
    with pytest.raises(ValueError, match="Circular reference"):
        reference_to_json(signal)
    for encode in (signal.to_json, signal.fingerprint):
        with pytest.raises(RecursionError):
            encode()
