"""Metamorphic relations: rewrites of a stream's text that leave signals in place.

A detector of a change in the generative source should not move when the
stream is rewritten into an equivalent copy of the same source. Each
stream here goes to the detectors as text, through ``cli._detect_stream``
(the path ``detect`` takes, parser included), and a signal's position is
its ``(mode, t, window)``. Three relations hold today: a strictly
increasing remap of the timestamps leaves both detectors' positions
unchanged, so does any weight text, and renaming the vertices leaves
sgdp's unchanged (it reads only timestamps). sgdd still depends on vertex
names, through the hashed butterfly identifiers and the string order of
its keys; one stream pins that as a known failure until ROADMAP item 11
makes sgdd name-free. The order of records inside a burst is no such
rewrite: the record that opens a burst joins the window it closes (see
the README's "Semantics worth knowing").
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdrift.cli import _detect_stream, _detector_configs, build_parser
from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate
from test_properties import _detector_stream, detector_bursts


def _positions(lines, mode):
    args = build_parser().parse_args(["detect", "--mode", mode, "--input", "-"])
    return [(s.mode, s.t, s.window)
            for s in _detect_stream(lines, args, _detector_configs(args))]


def _text(records, i=str, j=str, omega=repr, tau=str):
    return [f"{i(r.i)},{j(r.j)},{omega(r.omega)},{tau(r.tau)}\n" for r in records]


@settings(max_examples=25, deadline=None)
@given(detector_bursts, st.integers(-10**12, 10**12),
       st.lists(st.integers(1, 10**9), min_size=1, max_size=5))
def test_increasing_tau_remap_keeps_both_detectors(bursts, start, gaps):
    records = _detector_stream(bursts)
    taus = sorted({r.tau for r in records})
    remap = dict(zip(taus, itertools.accumulate(itertools.cycle(gaps), initial=start)))
    assert (_positions(_text(records, tau=remap.__getitem__), "both")
            == _positions(_text(records), "both"))


# Any weight text the parser accepts: finite, infinite and NaN floats in
# their own spelling or another, with padding.
omega_texts = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.integers(-10**6, 10**6).map(str),
                        st.sampled_from([" 2.50 ", "+1e3", "-0", "inf", "-NaN", "1_0.5"]))


@settings(max_examples=25, deadline=None)
@given(detector_bursts, st.lists(omega_texts, min_size=1, max_size=8))
def test_any_omega_text_keeps_both_detectors(bursts, texts):
    records = _detector_stream(bursts)
    lines = [f"{r.i},{r.j},{text},{r.tau}\n" for r, text in zip(records, itertools.cycle(texts))]
    assert _positions(lines, "both") == _positions(_text(records), "both")


@settings(max_examples=25, deadline=None)
@given(detector_bursts, st.randoms(use_true_random=False))
def test_renaming_vertices_keeps_sgdp(bursts, rng):
    records = _detector_stream(bursts)
    names = sorted({r.i for r in records} | {r.j for r in records})
    fresh = rng.sample(range(10 * len(names)), len(names))
    rename = {name: f"v{k}" for name, k in zip(names, fresh)}.__getitem__
    assert (_positions(_text(records, i=rename, j=rename), "sgdp")
            == _positions(_text(records), "sgdp"))


@pytest.mark.xfail(strict=True, reason="sgdd hashes vertex names into butterfly identifiers "
                                       "and orders its keys by name (ROADMAP item 11)")
def test_renaming_vertices_keeps_sgdd():
    # Prefixing every name keeps every string order the same, so only the
    # hashed identifiers change; two of the eight signals move a window
    # earlier (20 -> 19 and 31 -> 30).
    records, _ = generate(GeneratorConfig(seed=6, prefix_len=200),
                          DriftSchedule.make("gradual", 200), 1000)
    prefixed = "x{}".format
    assert (_positions(_text(records, i=prefixed, j=prefixed), "sgdd")
            == _positions(_text(records), "sgdd"))
