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


def test_generate_batch_emits_stream_family(tmp_path):
    code = main(["generate", "--pattern", "gradual", "--batch", "--delta", "60",
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


# Each case rejects one flag value and names the output file it would write
# and the message that names the value; every case runs in a directory that
# holds g.stream, g.truth and that file, and no case may start a detector run.
REJECTED_FLAGS = {
    "detect-x": (["detect", "--mode", "sgdd", "--x", "1.5", "--input", "g.stream",
                  "--out", "sig.jsonl"], "sig.jsonl", "youth fraction x must be in (0, 1]"),
    "detect-seed-negative": (["detect", "--mode", "sgdd", "--seed", "-3", "--input",
                              "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                             "seed must be non-negative"),
    "detect-sigma-nan": (["detect", "--mode", "sgdd", "--sigma", "nan", "--input",
                          "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                         "frequency spread sigma must be finite"),
    "detect-sigma-inf": (["detect", "--mode", "both", "--sigma", "inf", "--input",
                          "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                         "frequency spread sigma must be finite"),
    "detect-f-schedule": (["detect", "--mode", "both", "--f-schedule", "1.5",
                           "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                          "threshold factors must lie in (0, 1]"),
    "detect-f-schedule-bad": (["detect", "--mode", "sgdp", "--f-schedule", "0.3,x",
                               "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                              "bad f schedule: '0.3,x'"),
    "detect-f-schedule-empty": (["detect", "--mode", "sgdp", "--f-schedule", ",",
                                 "--input", "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                                "f schedule is empty"),
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
    "eval-repeat-x": (["eval", "--mode", "sgdd", "--x", "1.5", "--repeat", "1",
                       "--batches", "1", "--truth", "g.truth", "--input", "g.stream",
                       "--out", "."], "report.json", "youth fraction x must be in (0, 1]"),
    "eval-repeat-not-multiple": (["eval", "--repeat", "5", "--batches", "2", "--truth",
                                  "g.truth", "--input", "g.stream", "--out", "."],
                                 "report.json", "runs must be a positive multiple of batches"),
    "eval-repeat-zero": (["eval", "--repeat", "0", "--batches", "1", "--truth", "g.truth",
                          "--input", "g.stream", "--out", "."], "report.json",
                         "runs must be a positive multiple of batches"),
    "eval-offline-without-signals": (["eval", "--truth", "g.truth", "--out", "."],
                                     "report.json", "offline eval needs --signals"),
    # eval checks its flags before it reads --truth.
    "eval-offline-without-signals-missing-truth": (
        ["eval", "--truth", "missing.truth", "--out", "."], "report.json",
        "offline eval needs --signals"),
    "eval-offline-x": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth", "--x", "9",
                        "--out", "."], "report.json", "youth fraction x must be in (0, 1]"),
    "detect-empty-delimiter": (["detect", "--mode", "sgdp", "--delimiter", "", "--input",
                                "g.stream", "--out", "sig.jsonl"], "sig.jsonl",
                               "argument --delimiter: delimiter must not be empty"),
    "eval-empty-delimiter": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                              "--delimiter", "", "--out", "."], "report.json",
                             "argument --delimiter: delimiter must not be empty"),
    "eval-delta-zero": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                         "--delta", "0", "--out", "."], "report.json",
                        "drift interval must be positive"),
    "eval-delta-negative": (["eval", "--signals", "sig.jsonl", "--truth", "g.truth",
                             "--delta", "-5", "--out", "."], "report.json",
                            "drift interval must be positive"),
    "eval-repeat-delta-negative": (["eval", "--repeat", "1", "--batches", "1", "--delta",
                                    "-5", "--truth", "g.truth", "--input", "g.stream",
                                    "--out", "."], "report.json",
                                   "drift interval must be positive"),
    # Rejected before the truth file, which is missing here, is opened.
    "eval-repeat-stdin": (["eval", "--repeat", "1", "--batches", "1", "--truth", "no.truth",
                           "--input", "-", "--out", "."], "report.json",
                          "--repeat needs --input: a stream file every run re-reads, not -"),
    "generate-n-below-prefix": (["generate", "--pattern", "gradual", "--delta", "100",
                                 "--n", "500", "--name", "g", "--out", "."], "g.stream",
                                "n must exceed the prefix length"),
    "generate-seed-negative": (["generate", "--pattern", "gradual", "--delta", "100",
                                "--n", "1500", "--seed", "-3", "--name", "g", "--out", "."],
                               "g.stream", "prefix_len and seed must be non-negative"),
    "generate-rho": (["generate", "--pattern", "gradual", "--delta", "100", "--n", "1500",
                      "--rho", "1.5", "--name", "g", "--out", "."], "g.stream",
                     "rho must be in (0, 1)"),
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
    before = (tmp_path / output).read_bytes()
    assert main(argv) == 1
    assert f"usage error: {message}\n" in capsys.readouterr().err
    assert (tmp_path / output).read_bytes() == before


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


def test_eval_repeat_timing_protocol(tmp_path, capsys):
    stream, truth_file = generate_small(tmp_path, n=900, delta=250, prefix=100)
    code = main(["eval", "--truth", str(truth_file), "--input", str(stream),
                 "--mode", "sgdp", "--repeat", "4", "--batches", "2",
                 "--delta", "250", "--out", str(tmp_path / "rep")])
    assert code == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["runs"] == 4
    timed = [cd for cd in report["per_cd"] if cd["ms_first_mean"] is not None]
    assert timed, "at least one drift should carry timing statistics"


def test_eval_repeat_without_input_is_usage_error(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("100,1\n")
    code = main(["eval", "--truth", str(truth), "--repeat", "4", "--batches", "1"])
    assert code == 1
    assert "usage error: --repeat needs --input" in capsys.readouterr().err


def test_eval_repeat_nondeterminism_is_data_error(tmp_path, capsys, monkeypatch):
    def changed(*args, **kwargs):
        raise DeterminismError("record-count distances changed between repeated runs")

    monkeypatch.setattr(cli, "repeated_timing", changed)
    stream, truth = generate_small(tmp_path, n=900, delta=250, prefix=100)
    assert main(["eval", "--truth", str(truth), "--input", str(stream), "--repeat", "1",
                 "--batches", "1", "--out", str(tmp_path / "rep")]) == 2
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
@pytest.mark.parametrize("run", [["--signals", "signals.jsonl"],
                                 ["--input", "s.stream", "--repeat", "1", "--batches", "1"]],
                         ids=["offline", "repeat"])
def test_eval_non_increasing_truth_index_is_data_error_naming_it(tmp_path, capsys, monkeypatch,
                                                                 truth_text, run):
    monkeypatch.chdir(tmp_path)
    Path("signals.jsonl").write_text("")
    Path("s.stream").write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 5)))
    Path("t.truth").write_text(truth_text)
    assert main(["eval", "--truth", "t.truth", "--out", "rep", *run]) == 2
    line = truth_text.count("\n")
    assert f"data error: truth line {line}: index 2 does not increase" in capsys.readouterr().err
    assert not Path("rep").exists()


@pytest.mark.parametrize("run", [["--signals", "signals.jsonl"],
                                 ["--input", "s.stream", "--repeat", "1", "--batches", "1"]],
                         ids=["offline", "repeat"])
def test_eval_truth_index_below_one_is_data_error_naming_it(tmp_path, capsys, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    Path("signals.jsonl").write_text(DriftSignal("sgdp", 4, 1, 1.0).to_json() + "\n")
    Path("s.stream").write_text("".join(f"u{k},v{k},1.0,{k}\n" for k in range(1, 9)))
    Path("t.truth").write_text("-3,2\n0,5\n")
    assert main(["eval", "--truth", "t.truth", "--out", "rep", *run]) == 2
    assert "data error: truth line 1: index -3 is below 1" in capsys.readouterr().err
    assert not Path("rep").exists()


def _report_signals(report):
    """The record-count part of a report, which repeated runs must agree on."""
    return ([(cd["index"], cd["count"], cd["first_t"], cd["last_t"])
             for cd in report["per_cd"]],
            report["false_negatives"], report["after_last"])


@pytest.mark.parametrize("mode,knob", [("sgdd", ["--x", "0.5"]),
                                       ("sgdp", ["--f-schedule", "0.8"])])
def test_eval_repeat_honours_detector_knobs(tmp_path, capsys, mode, knob):
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
    assert main(["eval", "--truth", str(truth_file), "--input", str(stream),
                 "--mode", mode, "--repeat", "1", "--batches", "1",
                 "--out", str(tmp_path / "rep"), *knob]) == 0
    repeated = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert _report_signals(repeated) == _report_signals(reports["knob"])


def test_eval_repeat_malformed_line_reports_line_number(tmp_path, capsys):
    stream = tmp_path / "bad.stream"
    stream.write_text("u1,v1,1.0,1\nnot a record\n")
    truth = tmp_path / "t.truth"
    truth.write_text("1,1\n")
    code = main(["eval", "--truth", str(truth), "--input", str(stream),
                 "--repeat", "1", "--batches", "1", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_eval_repeat_drift_past_stream_end_is_data_error(tmp_path, capsys):
    stream, truth_file = generate_small(tmp_path, n=900, delta=250, prefix=100)
    last = read_ground_truth(truth_file).cd_indices[-1]
    cut = tmp_path / "cut.stream"
    cut.write_text("".join(stream.read_text().splitlines(keepends=True)[:last - 100]))
    code = main(["eval", "--truth", str(truth_file), "--input", str(cut),
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
