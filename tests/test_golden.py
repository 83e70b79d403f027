"""Golden signal fingerprints on fixed generated streams.

Each case pins the sha256 of the newline-joined ``DriftSignal.fingerprint()``
list a detector emits on one generated stream. Any change to signal
positions or to the bits of a triggering value changes a digest, so a
refactor or optimisation that must keep the signals byte-identical keeps
this file unchanged. The sgdd streams run past fifteen detections, where
C1's tolerance 10**-(d+2) is below float resolution and only exact O1
equality passes it. The non-default cases pin the full factor schedule and
the ``appendix`` suffix-size variant, whose fingerprints differ from the
default run's on the same stream.
"""

import hashlib

import pytest

from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate
from sgdrift.sgdd import SgddConfig, run_sgdd
from sgdrift.sgdp import FULL_F_SCHEDULE, SgdpConfig, run_sgdp


def _digest(signals):
    text = "\n".join(s.fingerprint() for s in signals)
    return len(signals), hashlib.sha256(text.encode("utf-8")).hexdigest()


SGDD_GOLDEN = {
    ("recurring", 3): (29, "f64d017143e18d3f22576674929771c65958cd6f08797431dc8699f6d8a58266"),
    ("recurring", 8): (31, "ed7dbb63fb065d0be73f5aebc5e9a9d2615a602be263707b93ff075e436a3958"),
    ("gradual", 3): (23, "e5160855eb0e88715f6cb3e5d21f9f72786ce488d81dc3cf8010c79abc9de487"),
    ("gradual", 8): (22, "a643bec49027a9141bcc0b20d0d5d2086daf7b7627439a30e3bc926bd0a69f69"),
}

SGDD_APPENDIX_GOLDEN = (23, "709248422bc2e82d9ce8b0b9686e31a8aed52d12a23f16ed5d65f62118cb8ad4")

SGDP_GOLDEN = (309, "4ca1359f1a37bd5fab3ad912de9c2adb38280b1871e18c37eeb616e83c8f16f4")

SGDP_NONDEFAULT_GOLDEN = {
    "full-schedule": (SgdpConfig(f_schedule=FULL_F_SCHEDULE),
                      (309, "1965fd3b1a5ba219ee8ac41f7129949907e9a9b390149611c2e26b8afcccbe22")),
    "appendix": (SgdpConfig(variant="appendix"),
                 (309, "df8a551496dc5f77936863af1caef4d1c704426a8a9303c59687c4bdc1badc42")),
}


def _sgdp_golden_taus():
    records, _ = generate(GeneratorConfig(seed=7, prefix_len=1000),
                          DriftSchedule.make("gradual", 4000), 20000)
    return [r.tau for r in records]


@pytest.mark.parametrize("pattern,seed", sorted(SGDD_GOLDEN))
def test_sgdd_fingerprints_are_golden(pattern, seed):
    records, _ = generate(GeneratorConfig(seed=seed, prefix_len=500),
                          DriftSchedule.make(pattern, 500), 3000)
    assert _digest(run_sgdd(records, SgddConfig(seed=seed))) == SGDD_GOLDEN[(pattern, seed)]


def test_sgdd_appendix_fingerprints_are_golden():
    records, _ = generate(GeneratorConfig(seed=3, prefix_len=500),
                          DriftSchedule.make("gradual", 500), 3000)
    signals = run_sgdd(records, SgddConfig(seed=3, variant="appendix"))
    assert _digest(signals) == SGDD_APPENDIX_GOLDEN


def test_sgdp_fingerprints_are_golden():
    assert _digest(run_sgdp(_sgdp_golden_taus())) == SGDP_GOLDEN


@pytest.mark.parametrize("name", sorted(SGDP_NONDEFAULT_GOLDEN))
def test_sgdp_nondefault_fingerprints_are_golden(name):
    config, expected = SGDP_NONDEFAULT_GOLDEN[name]
    assert _digest(run_sgdp(_sgdp_golden_taus(), config)) == expected
