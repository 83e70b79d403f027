"""Golden generator output: the exact bytes ``generate_to_files`` writes.

Each case pins the drift indices and the sha256 of the stream file and the
truth file for one (config, schedule, n). Any change to the random draws,
the burst sizes, the drift marks or the text format changes a digest, so a
rewrite of the generator that must keep its streams byte-identical keeps
this file unchanged. Besides both patterns at two seeds, three edge cases
pin the drift timeline: no prefix, a prefix that runs past a schedule
change (that change is not a drift), and a first change at ``n`` (no
change inside the stream but the prefix end).
"""

import hashlib

import pytest

from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate_to_files

# name: (config kwargs, pattern, delta, n, drift indices, stream sha256, truth sha256)
GOLDEN_STREAMS = {
    "gradual-seed0": (dict(seed=0, prefix_len=300), "gradual", 400, 2500,
                      (300, 800, 1200, 1600),
                      "5e651967eb0efe4d754cbbf5b72f54ae34d5614bcb8ec18e867993fb4325ff2c",
                      "5be9a6ac9bbbf378f7d7242de54ca88718eef8232dff3089c715f2230cea112d"),
    "gradual-seed1": (dict(seed=1, prefix_len=300), "gradual", 400, 2500,
                      (300, 800, 1200, 1600),
                      "f60e944f476f6fdbe33a517d959f57455b0e9ccc2ca4cc32f0a2683838e6ea99",
                      "fc6b7c8d3d06811cea1e795073e09e84e6c8e72e0312acb262226a52a00373bc"),
    "recurring-seed0": (dict(seed=0, prefix_len=300), "recurring", 400, 2500,
                        (300, 800, 1200),
                        "47cdece053d107d61ba8bc330b4468d7f6d8d350a2cc5320c8248d139e7bed24",
                        "8ef1c44af02b5ac08034cbc8cdffe3d87c8034442419255afe2ccb98acdcbc7b"),
    "recurring-seed1": (dict(seed=1, prefix_len=300), "recurring", 400, 2500,
                        (300, 800, 1200),
                        "26785a268cb67f697b7bf4d394742b2c723476fcf901c1425a1858a7b6027dc9",
                        "4a9ee8ea85bb484b097006db502261faf69eabd47473f60913e44a3fc5b1f7e1"),
    "no-prefix": (dict(seed=2, prefix_len=0), "gradual", 300, 1500,
                  (600, 900, 1200),
                  "c4fe20a4bdac9e18fe76f0a764b6d0b408246669acbfbf1dfda35e5da6ffd4f0",
                  "a0edbf114ca5858ccf33d38228db7f26437647136175664d2251b75e386ab9b0"),
    "prefix-past-change": (dict(seed=1, prefix_len=5, m=2), "gradual", 2, 10,
                           (5, 6, 8),
                           "afce457ef28fc0561dff7bd0e9ed695b98a2d8d97b58f6922647d4f059995771",
                           "c3e37f9e1f8cc43950250b8905fdba20c3b31bce8cd9ea81b46702a3e155c034"),
    "change-at-n": (dict(seed=3, prefix_len=100, m=2), "recurring", 400, 800,
                    (100,),
                    "f8b5480e518ff729bf765ed9e2f8a1684aba1165d7336edd23f13ab5f15ad7de",
                    "1f90b3c3699332335e4b319010fbee9ce2cbb3a3d87cd78fa7b55773faf741ac"),
    "gradual-seed7-long": (dict(seed=7), "gradual", 4000, 20000,
                           (1000, 8000, 12000, 16000),
                           "1ec4fffe2990aaa4f87d23ada000b5d4948e3ea6fb7a5af480d07749663335f4",
                           "48c234123a149e6adb7591b6f676e03549416dd4e0181f7912c2e4a77be629dc"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_generated_files_are_golden(name, tmp_path):
    kwargs, pattern, delta, n, indices, stream_sha, truth_sha = GOLDEN_STREAMS[name]
    stream, truth_file = tmp_path / "s.stream", tmp_path / "s.truth"
    truth = generate_to_files(GeneratorConfig(**kwargs), DriftSchedule.make(pattern, delta),
                              n, stream, truth_file)
    assert truth.cd_indices == indices
    assert (_sha256(stream), _sha256(truth_file)) == (stream_sha, truth_sha)
