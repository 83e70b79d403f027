import io
import json
import os
import sys
from pathlib import Path

import pytest

from sgdrift import cli
from sgdrift.cli import _detect_stream, _detector_configs, build_parser, main
from sgdrift.genstream import (DriftSchedule, GeneratorConfig, generate_to_files,
                               read_ground_truth)
from sgdrift.harness import DeterminismError
from sgdrift.sgdd import run_sgdd
from sgdrift.sgdp import FULL_F_SCHEDULE, SgdpConfig, run_sgdp
from sgdrift.signals import DriftSignal
from sgdrift.stream_model import parse_sgr
from test_golden import SGDD_GOLDEN, _digest
from test_readme import _flags


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    return code


def generate_small(tmp_path, name="demo", seed=3, n=1200, delta=300, prefix=150):
    code = main(["generate", "--pattern", "gradual", "--delta", str(delta),
                 "--n", str(n), "--seed", str(seed), "--prefix-len", str(prefix),
                 "--out", str(tmp_path), "--name", name])
    assert code == 0
    return tmp_path / f"{name}.stream", tmp_path / f"{name}.truth"


# --- generate --------------------------------------------------------------------

def test_generate_writes_stream_truth_and_manifest(tmp_path):
    stream, truth_file = generate_small(tmp_path)
    assert stream.exists() and truth_file.exists()
    truth = read_ground_truth(truth_file)
    assert truth.cd_indices[0] == 150
    manifest = json.loads((tmp_path / "manifest_generate.json").read_text())
    assert manifest["subcommand"] == "generate"
    assert manifest["args"]["seed"] == 3


def test_generate_is_reproducible(tmp_path):
    a, _ = generate_small(tmp_path / "a")
    b, _ = generate_small(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()


def test_generate_missing_pattern_is_usage_error(capsys):
    assert main(["generate", "--delta", "10", "--n", "100"]) == 1
    assert "usage error" in capsys.readouterr().err


# A value other than the base run's for each flag that shapes a stream.
ALTERED = {"--delta": "250", "--n": "2100", "--seed": "1", "--m": "3"}


@pytest.mark.parametrize("prefix", [0, 200])
@pytest.mark.parametrize("flag", sorted(_flags("generate")
                                        - {"--out", "--name", "--pattern", "--batch"}))
def test_every_generate_knob_shapes_the_stream(tmp_path, flag, prefix):
    # A flag missing from ALTERED fails here, so a new knob must show its effect.
    altered = str(prefix + 150) if flag == "--prefix-len" else ALTERED[flag]

    def written(directory, knobs):
        argv = [word for pair in knobs.items() for word in pair]
        assert main(["generate", "--pattern", "gradual", *argv, "--name", "g",
                     "--out", str(directory)]) == 0
        return (directory / "g.stream").read_bytes(), (directory / "g.truth").read_bytes()

    base = {"--delta": "300", "--n": "2000", "--prefix-len": str(prefix)}
    assert written(tmp_path / "altered", {**base, flag: altered}) != \
        written(tmp_path / "base", base)


def test_generate_batch_emits_stream_family(tmp_path):
    code = main(["generate", "--batch", "--delta", "60",
                 "--n", "400", "--seed", "1", "--prefix-len", "50",
                 "--out", str(tmp_path)])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.stream"))
    assert len(names) == 20
    assert "R_11.stream" in names and "G_25.stream" in names


# --- detect ----------------------------------------------------------------------

def test_detect_constant_stream_emits_nothing(tmp_path, capsys):
    stream = tmp_path / "flat.stream"
    stream.write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 200)))
    code = main(["detect", "--mode", "sgdp", "--input", str(stream)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_detect_stdin_pipeline(tmp_path, capsys):
    text = "".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 50))
    code = run_cli(["detect", "--mode", "sgdp", "--input", "-"], stdin_text=text)
    assert code == 0


def test_detect_both_modes_interleaved(tmp_path, capsys):
    stream, _ = generate_small(tmp_path)
    out_file = tmp_path / "signals.jsonl"
    code = main(["detect", "--mode", "both", "--input", str(stream),
                 "--out", str(out_file), "--seed", "5"])
    assert code == 0
    signals = [DriftSignal.from_json(line)
               for line in out_file.read_text().splitlines()]
    modes = {s.mode for s in signals}
    assert modes == {"sgdp", "sgdd"}
    for mode in modes:
        ts = [s.t for s in signals if s.mode == mode]
        assert ts == sorted(ts)
    assert (tmp_path / "manifest_detect.json").exists()


def test_detect_both_feeds_each_detector_its_single_mode_input(tmp_path):
    # The golden ("recurring", 3) stream, written to disk and read back by
    # the CLI: sgdd must reproduce its golden digest while sgdp runs beside
    # it, and sgdp must match a run on the bare timestamps.
    stream, truth = tmp_path / "g.stream", tmp_path / "g.truth"
    generate_to_files(GeneratorConfig(seed=3, prefix_len=500),
                      DriftSchedule.make("recurring", 500), 3000, stream, truth)
    out_file = tmp_path / "signals.jsonl"
    assert main(["detect", "--mode", "both", "--seed", "3", "--input", str(stream),
                 "--out", str(out_file)]) == 0
    signals = [DriftSignal.from_json(line) for line in out_file.read_text().splitlines()]
    sgdd = [s for s in signals if s.mode == "sgdd"]
    assert _digest(sgdd) == SGDD_GOLDEN[("recurring", 3)]
    with open(stream, encoding="utf-8") as handle:
        expected = run_sgdp(int(line.rsplit(",", 1)[1]) for line in handle)
    assert [s.fingerprint() for s in signals if s.mode == "sgdp"] == \
        [s.fingerprint() for s in expected]


def test_detect_stream_assigns_arrival_in_line_order():
    args = build_parser().parse_args(["detect", "--mode", "sgdp", "--input", "-"])
    records = []
    list(_detect_stream(["1,2,1.0,10", "", "3,4,1.0,11", "  "], args, _detector_configs(args),
                        records.append))
    assert [r.t for r in records] == [1, 2]
    assert [r.tau for r in records] == [10, 11]


def test_detect_rejects_removed_sprime_flag(capsys):
    assert main(["detect", "--mode", "sgdd", "--input", "-", "--sprime", "literal"]) == 1
    assert "usage error" in capsys.readouterr().err


# Each case rejects one flag value or combination and names the output file
# it would write and the message that names it; every case runs in a
# directory that holds g.stream, g.truth, sig.jsonl and report.json, and no
# case may start a detector run or create or change that file.
TIME_INPUT = "--input must name a stream file that every run re-reads, not -"
REJECTED_FLAGS = {
    "detect-x": (["detect", "--mode", "sgdd", "--x", "1.5", "--input", "g.stream",
                  "--out", "sig.jsonl"], "sig.jsonl", "youth fraction x must be in (0, 1]"),
    "detect-seed-negative": (["detect", "--mode", "sgdd", "--seed", "-3", "--input",
                              "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                             "seed must be non-negative"),
    "detect-sigma-nan": (["detect", "--mode", "sgdd", "--sigma", "nan", "--input",
                          "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                         "frequency spread sigma must be finite and non-negative"),
    "detect-sigma-inf": (["detect", "--mode", "both", "--sigma", "inf", "--input",
                          "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                         "frequency spread sigma must be finite and non-negative"),
    "detect-f-schedule": (["detect", "--mode", "both", "--f-schedule", "1.5",
                           "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                          "threshold factors must lie in (0, 1]"),
    "detect-f-schedule-bad": (["detect", "--mode", "sgdp", "--f-schedule", "0.3,x",
                               "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                              "bad f schedule: '0.3,x'"),
    "detect-f-schedule-empty": (["detect", "--mode", "sgdp", "--f-schedule", ",",
                                 "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                                "bad f schedule: ','"),
    # An empty field is an error, not a field to drop.
    "detect-f-schedule-empty-field": (["detect", "--mode", "sgdp", "--f-schedule", "0.3,,0.5",
                                       "--input", "g.stream", "--out", "sig.jsonl"],
                                      "sig.jsonl", "bad f schedule: '0.3,,0.5'"),
    "detect-f-schedule-trailing-comma": (["detect", "--mode", "sgdp", "--f-schedule", "0.3,",
                                          "--input", "g.stream", "--out", "sig.jsonl"],
                                         "sig.jsonl", "bad f schedule: '0.3,'"),
    # Every knob is checked whatever --mode, so a value only the other
    # detector reads is rejected too.
    "detect-sgdp-x": (["detect", "--mode", "sgdp", "--x", "1.5", "--input", "g.stream",
                       "--out", "sig.jsonl"], "sig.jsonl",
                      "youth fraction x must be in (0, 1]"),
    "detect-sgdd-f-schedule": (["detect", "--mode", "sgdd", "--f-schedule", "7", "--input",
                                "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                               "threshold factors must lie in (0, 1]"),
    "detect-sigma-negative": (["detect", "--mode", "sgdd", "--sigma", "-1", "--input",
                               "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                              "frequency spread sigma must be finite and non-negative"),
    "time-x": (["time", "--mode", "sgdd", "--x", "1.5", "--repeat", "1",
                "--batches", "1", "--truth", "g.truth", "--input", "g.stream",
                "--out", "."], "report.json", "youth fraction x must be in (0, 1]"),
    "time-not-multiple": (["time", "--mode", "sgdp", "--repeat", "5", "--batches", "2",
                           "--truth", "g.truth", "--input", "g.stream", "--out", "."],
                          "report.json",
                          "--repeat 5 must be a positive multiple of --batches 2"),
    "time-repeat-zero": (["time", "--mode", "sgdp", "--repeat", "0", "--batches", "1",
                          "--truth", "g.truth", "--input", "g.stream", "--out", "."],
                         "report.json",
                         "--repeat 0 must be a positive multiple of --batches 1"),
    # The message names the default --batches that the user never set.
    "time-repeat-below-default-batches": (
        ["time", "--mode", "sgdp", "--repeat", "3", "--truth", "g.truth", "--input",
         "g.stream", "--out", "."], "report.json",
        "--repeat 3 must be a positive multiple of --batches 10"),
    # Each subcommand accepts only the flags its run reads, and requires the
    # files and the detector that it does read, before it reads --truth.
    "eval-without-signals": (["eval", "--truth", "g.truth", "--out", "."], "report.json",
                             "the following arguments are required: --signals"),
    "eval-without-signals-missing-truth": (
        ["eval", "--truth", "missing.truth", "--out", "."], "report.json",
        "the following arguments are required: --signals"),
    "eval-repeat": (["eval", "--signals", "sig.jsonl", "--repeat", "1", "--batches", "1",
                     "--truth", "g.truth", "--input", "g.stream", "--out", "."],
                    "report.json",
                    "unrecognized arguments: --repeat 1 --batches 1 --input g.stream"),
    "eval-input": (["eval", "--signals", "sig.jsonl", "--truth", "no.truth",
                    "--input", "g.stream", "--out", "."], "report.json",
                   "unrecognized arguments: --input g.stream"),
    "eval-x": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth", "--x", "9",
                "--out", "."], "report.json", "unrecognized arguments: --x 9"),
    "eval-mode": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth", "--mode", "sgdd",
                   "--out", "."], "report.json", "unrecognized arguments: --mode sgdd"),
    "eval-batches": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth", "--batches",
                      "3", "--out", "."], "report.json", "unrecognized arguments: --batches 3"),
    "time-without-mode": (["time", "--repeat", "1", "--batches", "1", "--truth", "no.truth",
                           "--input", "g.stream", "--out", "."], "report.json",
                          "the following arguments are required: --mode"),
    "time-without-input": (["time", "--mode", "sgdp", "--repeat", "1", "--batches", "1",
                            "--truth", "no.truth", "--out", "."], "report.json",
                           "the following arguments are required: --input"),
    "time-without-repeat": (["time", "--mode", "sgdp", "--batches", "1", "--truth",
                             "no.truth", "--input", "g.stream", "--out", "."], "report.json",
                            "the following arguments are required: --repeat"),
    "time-signals": (["time", "--mode", "sgdp", "--signals", "sig.jsonl", "--repeat", "1",
                      "--batches", "1", "--truth", "g.truth", "--input", "g.stream",
                      "--out", "."], "report.json",
                     "unrecognized arguments: --signals sig.jsonl"),
    # Stream and truth files are comma-separated; no subcommand takes a delimiter.
    "detect-delimiter": (["detect", "--mode", "sgdp", "--delimiter", ",", "--input",
                          "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                         "unrecognized arguments: --delimiter ,"),
    "eval-delimiter": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                        "--delimiter", ",", "--out", "."], "report.json",
                       "unrecognized arguments: --delimiter ,"),
    "time-delimiter": (["time", "--mode", "sgdp", "--repeat", "1", "--batches", "1",
                        "--delimiter", ",", "--truth", "g.truth", "--input", "g.stream",
                        "--out", "."], "report.json", "unrecognized arguments: --delimiter ,"),
    "eval-delta-zero": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                         "--delta", "0", "--out", "."], "report.json",
                        "drift interval must be positive"),
    "eval-delta-negative": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                             "--delta", "-5", "--out", "."], "report.json",
                            "drift interval must be positive"),
    "time-delta-negative": (["time", "--mode", "sgdp", "--repeat", "1", "--batches", "1",
                             "--delta", "-5", "--truth", "g.truth", "--input", "g.stream",
                             "--out", "."], "report.json", "drift interval must be positive"),
    # Rejected before the truth file, which is missing here, is opened.
    "time-stdin": (["time", "--mode", "sgdp", "--repeat", "1", "--batches", "1", "--truth",
                    "no.truth", "--input", "-", "--out", "."], "report.json", TIME_INPUT),
    "time-empty-input": (["time", "--mode", "sgdp", "--repeat", "1", "--batches", "1",
                          "--truth", "no.truth", "--input", "", "--out", "."], "report.json",
                         TIME_INPUT),
    "generate-n-below-prefix": (["generate", "--pattern", "gradual", "--delta", "100",
                                 "--n", "500", "--name", "g", "--out", "."], "g.stream",
                                "n must exceed the prefix length"),
    "generate-seed-negative": (["generate", "--pattern", "gradual", "--delta", "100",
                                "--n", "1500", "--seed", "-3", "--name", "g", "--out", "."],
                               "g.stream", "prefix_len and seed must be non-negative"),
    "generate-m-zero": (["generate", "--pattern", "gradual", "--delta", "100", "--n", "1500",
                         "--m", "0", "--name", "g", "--out", "."], "g.stream",
                        "m must be positive"),
    # An empty name would fall back to the default basename.
    "generate-empty-name": (["generate", "--pattern", "gradual", "--delta", "100", "--n",
                             "1500", "--name", "", "--out", "."], "G_100_0.stream",
                            "--name must not be empty"),
    # A name with a path separator would write outside --out, or into a
    # folder of it that does not exist.
    "generate-name-parent": (["generate", "--pattern", "gradual", "--delta", "100", "--n",
                              "1500", "--name", "../escaped", "--out", "o"], "escaped.stream",
                             "--name is a basename inside --out, so it takes no path separator"),
    "generate-name-subdir": (["generate", "--pattern", "gradual", "--delta", "100", "--n",
                              "1500", "--name", "sub/g", "--out", "o"], "o/sub/g.stream",
                             "--name is a basename inside --out, so it takes no path separator"),
    # Every regime is a constant, so no flag sets one.
    **{f"generate-{flag[2:]}": (["generate", "--pattern", "gradual", "--delta", "100",
                                 "--n", "1500", flag, value, "--name", "g", "--out", "."],
                                "g.stream", f"unrecognized arguments: {flag} {value}")
       for flag, value in (("--rho", "0.5"), ("--lmin", "2"), ("--lmax", "3"),
                           ("--beta", "4"))},
    "generate-batch-pattern": (["generate", "--batch", "--pattern", "recurring", "--delta",
                                "100", "--n", "1500", "--out", "."], "R_11.stream",
                               "argument --pattern: not allowed with argument --batch"),
    "generate-batch-name": (["generate", "--batch", "--delta", "100", "--n", "1500",
                             "--name", "g", "--out", "."], "R_11.stream",
                            "--batch names its twenty streams itself, so it takes no --name"),
}


@pytest.mark.parametrize("argv,output,message", REJECTED_FLAGS.values(), ids=REJECTED_FLAGS)
def test_rejected_flag_is_usage_error_and_leaves_output_untouched(
        tmp_path, capsys, monkeypatch, argv, output, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sgdrift.cli._detect_stream",
                        lambda *args: pytest.fail("detector ran"))
    (tmp_path / "g.stream").write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 9)))
    (tmp_path / "g.truth").write_text("4,4\n")
    (tmp_path / "sig.jsonl").write_text("earlier signals\n")
    (tmp_path / "report.json").write_text("{}\n")
    path = tmp_path / output
    before = path.read_bytes() if path.exists() else None
    assert main(argv) == 1
    assert f"usage error: {message}\n" in capsys.readouterr().err
    assert (path.read_bytes() if path.exists() else None) == before


@pytest.mark.parametrize("case", ["generate-name-parent", "generate-name-subdir"])
def test_generate_name_with_a_separator_creates_no_out_dir(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    argv, _, _ = REJECTED_FLAGS[case]
    assert main(argv) == 1
    assert list(tmp_path.iterdir()) == []


def test_full_f_schedule_flag_runs_the_library_full_schedule(tmp_path):
    stream, _ = generate_small(tmp_path)
    out_file = tmp_path / "signals.jsonl"
    assert main(["detect", "--mode", "sgdp", "--f-schedule", "full", "--input", str(stream),
                 "--out", str(out_file)]) == 0
    with open(stream, encoding="utf-8") as handle:
        expected = run_sgdp((int(line.rsplit(",", 1)[1]) for line in handle),
                            SgdpConfig(FULL_F_SCHEDULE))
    assert expected
    assert [DriftSignal.from_json(line).fingerprint()
            for line in out_file.read_text().splitlines()] == \
        [s.fingerprint() for s in expected]


def _outputs_without_seed_flags(directory):
    """Stream bytes and sgdd signal fingerprints of a run that sets no seed."""
    assert main(["generate", "--pattern", "gradual", "--delta", "300", "--n", "1200",
                 "--prefix-len", "150", "--out", str(directory), "--name", "g"]) == 0
    signals = directory / "signals.jsonl"
    assert main(["detect", "--mode", "sgdd", "--input", str(directory / "g.stream"),
                 "--out", str(signals)]) == 0
    return ((directory / "g.stream").read_bytes(),
            [DriftSignal.from_json(line).fingerprint()
             for line in signals.read_text().splitlines()])


@pytest.mark.parametrize("value", ["5", ""], ids=["five", "blank"])
def test_seed_environment_variable_changes_nothing(tmp_path, monkeypatch, value):
    unset = _outputs_without_seed_flags(tmp_path / "unset")
    assert unset[1], "sgdd must signal, or its seed is untested"
    monkeypatch.setenv("SGDRIFT_SEED", value)
    assert _outputs_without_seed_flags(tmp_path / "set") == unset


def test_library_and_cli_sgdd_share_a_default_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--pattern", "recurring", "--delta", "500", "--n", "3000"]) == 0
    generate_to_files(GeneratorConfig(), DriftSchedule.make("recurring", 500), 3000,
                      tmp_path / "lib.stream", tmp_path / "lib.truth")
    assert (tmp_path / "R_500_0.stream").read_bytes() == (tmp_path / "lib.stream").read_bytes()
    assert (tmp_path / "R_500_0.truth").read_bytes() == (tmp_path / "lib.truth").read_bytes()

    stream, truth = tmp_path / "g.stream", tmp_path / "g.truth"
    generate_to_files(GeneratorConfig(seed=3, prefix_len=500),
                      DriftSchedule.make("recurring", 500), 3000, stream, truth)
    out_file = tmp_path / "signals.jsonl"
    assert main(["detect", "--mode", "sgdd", "--input", str(stream),
                 "--out", str(out_file)]) == 0
    cli = [DriftSignal.from_json(line).fingerprint()
           for line in out_file.read_text().splitlines()]
    with open(stream, encoding="utf-8") as handle:
        records = [parse_sgr(line, t) for t, line in enumerate(handle, start=1)]
    first = [s.fingerprint() for s in run_sgdd(records)]
    second = [s.fingerprint() for s in run_sgdd(records)]
    assert cli and first == second == cli


def test_detect_missing_input_leaves_existing_output(tmp_path, capsys):
    out_file = tmp_path / "sig.jsonl"
    out_file.write_text("earlier signals\n")
    assert main(["detect", "--mode", "sgdp", "--input", str(tmp_path / "missing.stream"),
                 "--out", str(out_file)]) == 2
    assert "data error:" in capsys.readouterr().err
    assert out_file.read_text() == "earlier signals\n"


def test_detect_out_naming_the_input_is_usage_error(tmp_path, capsys):
    stream, _ = generate_small(tmp_path)
    before = stream.read_bytes()
    assert main(["detect", "--mode", "sgdp", "--input", str(stream),
                 "--out", str(tmp_path / "." / stream.name)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert stream.read_bytes() == before


def test_detect_writes_no_manifest_beside_a_device(tmp_path):
    # The link lives in tmp_path, so a manifest written beside --out would
    # land there too, not in the device's own directory.
    stream, _ = generate_small(tmp_path)
    sink = tmp_path / "discard"
    sink.symlink_to(os.devnull)
    assert main(["detect", "--mode", "sgdp", "--input", str(stream), "--out", str(sink)]) == 0
    assert not (tmp_path / "manifest_detect.json").exists()
    assert main(["detect", "--mode", "sgdp", "--input", str(stream),
                 "--out", str(tmp_path / "signals.jsonl")]) == 0
    assert (tmp_path / "manifest_detect.json").exists()


def test_detect_malformed_line_aborts_with_line_number(tmp_path, capsys):
    stream = tmp_path / "bad.stream"
    stream.write_text("u1,v1,1.0,1\nnot a record\n")
    code = main(["detect", "--mode", "sgdp", "--input", str(stream)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_detect_skip_mode_tolerates_garbage(tmp_path, capsys):
    stream = tmp_path / "bad.stream"
    stream.write_text("u1,v1,1.0,1\nnot a record\nu2,v2,1.0,2\n")
    code = main(["detect", "--mode", "sgdp", "--input", str(stream),
                 "--on-error", "skip"])
    assert code == 0


def test_detect_reproducible_across_invocations(tmp_path, capsys):
    stream, _ = generate_small(tmp_path)
    outputs = []
    for k in range(2):
        out_file = tmp_path / f"s{k}.jsonl"
        main(["detect", "--mode", "both", "--input", str(stream),
              "--out", str(out_file), "--seed", "9"])
        signals = [DriftSignal.from_json(line)
                   for line in out_file.read_text().splitlines()]
        outputs.append([s.fingerprint() for s in signals])
    assert outputs[0] == outputs[1]


# --- eval ------------------------------------------------------------------------

def test_eval_offline_fixture(tmp_path, capsys):
    signals = tmp_path / "signals.jsonl"
    signals.write_text(
        DriftSignal("sgdp", 900, 90, 1.0).to_json() + "\n"
        + DriftSignal("sgdp", 995, 99, 2.0).to_json() + "\n")
    truth = tmp_path / "t.truth"
    truth.write_text("1000,50\n")
    code = main(["eval", "--signals", str(signals), "--truth", str(truth),
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_cd"][0]["d_first"] == 100
    assert report["per_cd"][0]["d_last"] == 5
    assert (tmp_path / "report.tsv").exists()
    assert "d_1f" in capsys.readouterr().out
    # The manifest records only the flags that scoring reads.
    manifest = json.loads((tmp_path / "manifest_eval.json").read_text())
    assert set(manifest["args"]) == {"command", "signals", "truth", "delta", "out"}


def test_eval_empty_truth_scores_every_signal_as_a_false_positive(tmp_path, capsys):
    # A drift-free stream's truth file is empty; offline eval scores it.
    signals = tmp_path / "signals.jsonl"
    signals.write_text("".join(DriftSignal("sgdp", t, t, 0.0).to_json() + "\n"
                               for t in (5, 40)))
    truth = tmp_path / "t.truth"
    truth.write_text("")
    for delta in ([], ["--delta", "10"]):
        code = main(["eval", "--signals", str(signals), "--truth", str(truth),
                     "--out", str(tmp_path), *delta])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["per_cd"], report["false_negatives"], report["false_positives"]) == \
            ([], [], 2)
        assert capsys.readouterr().out.splitlines()[-1].split("\t") == ["", "", "2", "0"]


def test_time_runs_the_timing_protocol(tmp_path, capsys):
    stream, truth_file = generate_small(tmp_path, n=900, delta=250, prefix=100)
    code = main(["time", "--truth", str(truth_file), "--input", str(stream),
                 "--mode", "sgdp", "--repeat", "4", "--batches", "2",
                 "--delta", "250", "--out", str(tmp_path / "rep")])
    assert code == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["runs"] == 4
    timed = [cd for cd in report["per_cd"] if cd["ms_first_mean"] is not None]
    assert timed, "at least one drift should carry timing statistics"
    manifest = json.loads((tmp_path / "rep" / "manifest_time.json").read_text())
    assert (manifest["subcommand"], manifest["args"]["repeat"]) == ("time", 4)


def test_time_nondeterminism_is_data_error(tmp_path, capsys, monkeypatch):
    def changed(*args, **kwargs):
        raise DeterminismError("record-count distances changed between repeated runs")

    monkeypatch.setattr(cli, "repeated_timing", changed)
    stream, truth = generate_small(tmp_path, n=900, delta=250, prefix=100)
    assert main(["time", "--mode", "sgdp", "--truth", str(truth), "--input", str(stream),
                 "--repeat", "1", "--batches", "1", "--out", str(tmp_path / "rep")]) == 2
    assert ("data error: record-count distances changed between repeated runs\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "rep").exists()


def test_eval_malformed_truth_line_is_data_error_naming_it(tmp_path, capsys):
    signals = tmp_path / "signals.jsonl"
    signals.write_text("")
    truth = tmp_path / "t.truth"
    truth.write_text("1000,50\n2000\n")
    assert main(["eval", "--signals", str(signals), "--truth", str(truth),
                 "--out", str(tmp_path)]) == 2
    assert "data error: truth line 2: expected index,tau" in capsys.readouterr().err


@pytest.mark.parametrize("truth_text", ["2,2\n2,2\n", "3,3\n\n2,2\n"],
                         ids=["repeated", "decreasing"])
@pytest.mark.parametrize("run", [["eval", "--signals", "signals.jsonl"],
                                 ["time", "--mode", "sgdp", "--input", "s.stream", "--repeat",
                                  "1", "--batches", "1"]],
                         ids=["eval", "time"])
def test_eval_non_increasing_truth_index_is_data_error_naming_it(tmp_path, capsys, monkeypatch,
                                                                 truth_text, run):
    monkeypatch.chdir(tmp_path)
    Path("signals.jsonl").write_text("")
    Path("s.stream").write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 5)))
    Path("t.truth").write_text(truth_text)
    assert main([*run, "--truth", "t.truth", "--out", "rep"]) == 2
    line = truth_text.count("\n")
    assert f"data error: truth line {line}: index 2 does not increase" in capsys.readouterr().err
    assert not Path("rep").exists()


@pytest.mark.parametrize("run", [["eval", "--signals", "signals.jsonl"],
                                 ["time", "--mode", "sgdp", "--input", "s.stream", "--repeat",
                                  "1", "--batches", "1"]],
                         ids=["eval", "time"])
def test_eval_truth_index_below_one_is_data_error_naming_it(tmp_path, capsys, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    Path("signals.jsonl").write_text(DriftSignal("sgdp", 4, 1, 1.0).to_json() + "\n")
    Path("s.stream").write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 9)))
    Path("t.truth").write_text("-3,2\n0,5\n")
    assert main([*run, "--truth", "t.truth", "--out", "rep"]) == 2
    assert "data error: truth line 1: index -3 is below 1" in capsys.readouterr().err
    assert not Path("rep").exists()


def _report_signals(report):
    """The record-count part of a report, which repeated runs must agree on."""
    return ([(cd["index"], cd["count"], cd["first_t"], cd["last_t"])
             for cd in report["per_cd"]],
            report["false_negatives"], report["after_last"])


@pytest.mark.parametrize("mode,knob", [("sgdd", ["--x", "0.5"]),
                                       ("sgdp", ["--f-schedule", "0.8"])])
def test_time_honours_detector_knobs(tmp_path, capsys, mode, knob):
    stream, truth_file = generate_small(tmp_path, n=900, delta=250, prefix=100)
    reports = {}
    for name, extra in (("default", []), ("knob", knob)):
        signals = tmp_path / f"{name}.jsonl"
        assert main(["detect", "--mode", mode, "--input", str(stream),
                     "--out", str(signals), *extra]) == 0
        assert main(["eval", "--signals", str(signals), "--truth", str(truth_file),
                     "--out", str(tmp_path / name)]) == 0
        reports[name] = json.loads((tmp_path / name / "report.json").read_text())
    assert _report_signals(reports["knob"]) != _report_signals(reports["default"])
    assert main(["time", "--truth", str(truth_file), "--input", str(stream),
                 "--mode", mode, "--repeat", "1", "--batches", "1",
                 "--out", str(tmp_path / "rep"), *knob]) == 0
    repeated = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert _report_signals(repeated) == _report_signals(reports["knob"])


def test_time_malformed_line_reports_line_number(tmp_path, capsys):
    stream = tmp_path / "bad.stream"
    stream.write_text("u1,v1,1.0,1\nnot a record\n")
    truth = tmp_path / "t.truth"
    truth.write_text("1,1\n")
    code = main(["time", "--mode", "sgdp", "--truth", str(truth), "--input", str(stream),
                 "--repeat", "1", "--batches", "1", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_time_drift_past_stream_end_is_data_error(tmp_path, capsys):
    stream, truth_file = generate_small(tmp_path, n=900, delta=250, prefix=100)
    last = read_ground_truth(truth_file).cd_indices[-1]
    cut = tmp_path / "cut.stream"
    cut.write_text("".join(stream.read_text().splitlines(keepends=True)[:last - 100]))
    code = main(["time", "--mode", "sgdp", "--truth", str(truth_file), "--input", str(cut),
                 "--repeat", "1", "--batches", "1", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert f"data error: truth drift index {last} is no record of" in capsys.readouterr().err
    assert not (tmp_path / "rep" / "report.json").exists()


@pytest.mark.parametrize("line", ['{"t": 5}', "[1,2]", '{"mode": "sgdp", "t": "5", "W": 1}',
                                  "not json", '{"mode": "sgdp", "t": 0, "W": 1}',
                                  '{"mode": "sgdp", "t": -5, "W": 1}',
                                  '{"mode": "sgdp", "t": 5, "W": 0}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": "x", "params": {}}',
                                  '{"mode": "sgdp", "t": 1, "W": 1, "wall_ms": 1.0, "params": 5}'])
def test_eval_malformed_signal_line_is_data_error_naming_it(tmp_path, capsys, line):
    signals = tmp_path / "signals.jsonl"
    signals.write_text(DriftSignal("sgdp", 900, 90, 1.0).to_json() + "\n" + line + "\n")
    truth = tmp_path / "t.truth"
    truth.write_text("1000,50\n")
    assert main(["eval", "--signals", str(signals), "--truth", str(truth),
                 "--out", str(tmp_path / "rep")]) == 2
    assert "data error: signals line 2:" in capsys.readouterr().err
    assert not (tmp_path / "rep" / "report.json").exists()
