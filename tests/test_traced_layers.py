"""Every layer the benchmark traces is reached by the CLI.

The benchmark's tracer replaces module attributes that the CLI and the
detectors look up at call time. A refactor that stops calling one of them
would leave its layer at 0% in the benchmark without failing it; here it
fails, because every traced layer must record at least one call over
``detect --mode both`` and ``eval`` on one generated stream.
"""

import sys
from pathlib import Path

from sgdrift import cli, sgdd, sgdp, signals, uwgo
from sgdrift.genstream import DriftSchedule, GeneratorConfig, generate_to_files

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import LayerProbe, SpanRecorder, instrumentation, patched  # noqa: E402

MODULES = {"cli": cli, "sgdp": sgdp, "sgdd": sgdd, "uwgo": uwgo, "signals": signals}


def test_every_traced_layer_is_called(tmp_path, capsys):
    stream, truth = tmp_path / "g.stream", tmp_path / "g.truth"
    generate_to_files(GeneratorConfig(seed=3, prefix_len=500),
                      DriftSchedule.make("gradual", 500), 3000, stream, truth)
    out = tmp_path / "signals.jsonl"
    recorder, probe = SpanRecorder(), LayerProbe()
    traced_main = recorder.wrap("cli", cli.main)
    with patched(instrumentation(recorder, probe, MODULES)):
        assert traced_main(["detect", "--mode", "both", "--input", str(stream),
                            "--out", str(out)]) == 0
        assert traced_main(["eval", "--signals", str(out), "--truth", str(truth),
                            "--delta", "500", "--out", str(tmp_path / "eval")]) == 0
    _, _, calls = recorder.totals()
    assert {name: calls[name] for name in recorder.names if not calls[name]} == {}
    assert probe.projections and probe.found and probe.graph is not None
