"""Command-line front end: generate, detect, eval, time.

``eval`` scores a signal file; ``time`` runs the repeated-execution
protocol, re-running one detector. Each accepts only the flags it reads.

Every run that writes a file also writes a manifest next to it, with
every parsed flag and the tool version, sufficient to re-run the command
bit-identically (timing fields excepted). ``detect`` writes its manifest
only when ``--out`` is a regular file: ``--out -`` writes to stdout, and a
device such as ``/dev/null`` or a pipe gets no manifest beside it.
Signals are serialized as JSON lines so downstream consumers can tail
them live.

Exit codes: 0 success, 1 usage error (also a flag value the library
rejects, whatever ``--mode``, or ``generate --batch --name`` or a
``--name`` that is empty or holds a path separator, found before any file
is read or opened), 2
data error: any ``ValueError``, ``OSError`` or ``DeterminismError`` raised
after the usage checks, 141 the reader of an output pipe closed it early
(what a shell reports for a writer that SIGPIPE ended; nothing is printed).
Every default that a config class declares is read from that class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .genstream import (DriftSchedule, GeneratorConfig, PATTERNS,
                        generate_to_files, read_ground_truth)
from .harness import (DeterminismError, check_drift_interval, check_runs, distances,
                      repeated_timing)
from .sgdd import SgddConfig, SgddState, sgdd_step
from .sgdp import (DEFAULT_F_SCHEDULE, FULL_F_SCHEDULE, VARIANTS, SgdpConfig, SgdpState,
                   sgdp_step)
from .signals import DriftSignal, now_ms
from .stream_model import SgrParseError, parse_sgr


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_f_schedule(text: str) -> tuple[float, ...]:
    if text == "full":
        return FULL_F_SCHEDULE
    if text == "default":
        return DEFAULT_F_SCHEDULE
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad f schedule: {text!r}") from None


def _write_manifest(directory: Path, args, **extra) -> None:
    manifest = {
        "tool": "sgdrift",
        "version": __version__,
        "subcommand": args.command,
        "args": {**vars(args), **extra},
        "written_at_ms": now_ms(),
    }
    path = directory / f"manifest_{args.command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
                    encoding="utf-8")


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    """Detector knobs, shared by every subcommand that runs a detector."""
    parser.add_argument("--f-schedule", default="default",
                        help="'default' (0.3), 'full', or comma-separated factors")
    parser.add_argument("--x", type=float, default=SgddConfig.x)
    parser.add_argument("--sigma", type=float, default=SgddConfig.sigma)
    parser.add_argument("--seed", type=int, default=SgddConfig.seed)
    parser.add_argument("--variant", choices=VARIANTS, default=SgddConfig.variant)
    parser.add_argument("--on-error", choices=("abort", "skip"), default="abort")


def build_parser() -> _Parser:
    parser = _Parser(prog="sgdrift",
                     description="Concept-drift prediction and detection "
                                 "for streaming bipartite graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a drifting stream")
    family = gen.add_mutually_exclusive_group(required=True)
    family.add_argument("--pattern", choices=PATTERNS, help="the drift pattern of one stream")
    family.add_argument("--batch", action="store_true",
                        help="emit the full R/G stream family instead of one stream")
    gen.add_argument("--delta", type=int, required=True, help="drift interval in records")
    gen.add_argument("--n", type=int, required=True, help="total records")
    gen.add_argument("--seed", type=int, default=GeneratorConfig.seed)
    gen.add_argument("--prefix-len", type=int, default=GeneratorConfig.prefix_len)
    gen.add_argument("--m", type=int, default=GeneratorConfig.m)
    gen.add_argument("--out", type=Path, default=Path("."), help="output directory")
    gen.add_argument("--name", default=None, help="basename for stream/truth files")

    det = sub.add_parser("detect", help="run detectors over a stream")
    det.add_argument("--mode", choices=("sgdp", "sgdd", "both"), required=True)
    det.add_argument("--input", required=True, help="stream file, or - for stdin")
    det.add_argument("--out", default="-", help="signal file (JSON lines), or - for stdout")
    _add_detector_args(det)

    ev = sub.add_parser("eval", help="score a signal file against ground truth")
    ev.add_argument("--signals", required=True, help="signal file from detect")

    tm = sub.add_parser("time", help="run the repeated-execution timing protocol")
    tm.add_argument("--mode", choices=("sgdp", "sgdd"), required=True)
    tm.add_argument("--input", required=True, help="stream file that every run re-reads, not -")
    tm.add_argument("--repeat", type=int, required=True, help="number of executions")
    tm.add_argument("--batches", type=int, default=10)
    for scorer in (ev, tm):
        scorer.add_argument("--truth", required=True, help="ground-truth file from generate")
        scorer.add_argument("--delta", type=int, default=None,
                            help="drift interval for false-positive attribution")
        scorer.add_argument("--out", type=Path, default=Path("."), help="output directory")
    _add_detector_args(tm)
    return parser


def _cmd_generate(args) -> int:
    schedule_args = []
    if args.batch:
        if args.name is not None:
            raise UsageError("--batch names its twenty streams itself, so it takes no --name")
        for pattern, letter in (("recurring", "R"), ("gradual", "G")):
            for a, delta in ((1, args.delta), (2, 2 * args.delta)):
                for b in range(1, 6):
                    name = f"{letter}_{a}{b}"
                    seed = args.seed * 1000 + (0 if letter == "R" else 500) + a * 10 + b
                    schedule_args.append((pattern, delta, name, seed))
    elif args.name == "":
        raise UsageError("--name must not be empty")
    elif {"/", os.sep, os.altsep} & set(args.name or ""):
        raise UsageError("--name is a basename inside --out, so it takes no path separator")
    else:
        name = args.name or f"{args.pattern[0].upper()}_{args.delta}_{args.seed}"
        schedule_args.append((args.pattern, args.delta, name, args.seed))
    out_dir: Path = args.out
    # No input is read, so a rejected value is a flag's, found before a file opens.
    try:
        jobs = [(GeneratorConfig(m=args.m, seed=seed, prefix_len=args.prefix_len),
                 DriftSchedule.make(pattern, delta), name)
                for pattern, delta, name, seed in schedule_args]
        out_dir.mkdir(parents=True, exist_ok=True)
        for config, schedule, name in jobs:
            truth = generate_to_files(config, schedule, args.n, out_dir / f"{name}.stream",
                                      out_dir / f"{name}.truth")
            print(f"{name}: {args.n} records, drifts at {list(truth.cd_indices)}",
                  file=sys.stderr)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_manifest(out_dir, args, names=[name for _, _, name in jobs])
    return 0


def _detector_configs(args) -> tuple[SgdpConfig, SgddConfig]:
    """Both detectors' configs from the knob flags, whatever ``args.mode``; call it first."""
    try:
        return (SgdpConfig(_parse_f_schedule(args.f_schedule), args.variant),
                SgddConfig(args.x, args.sigma, args.seed, args.variant))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _detect_stream(lines, args, configs, on_record=None):
    """Parse ``lines``, feed every record to fresh detectors and yield their signals.

    ``args.mode`` picks the detectors, built from ``configs`` (the pair of
    ``_detector_configs``); both ``detect`` and every ``time`` run go
    through here. ``on_record`` (if given) sees each record after the
    detectors have consumed it and their signals have been yielded.
    """
    sgdp_config, sgdd_config = configs
    sgdp_state = SgdpState(config=sgdp_config) if args.mode != "sgdd" else None
    sgdd_state = SgddState(config=sgdd_config) if args.mode != "sgdp" else None
    skip_errors = args.on_error == "skip"
    t = 0
    for lineno, line in enumerate(lines, start=1):
        try:
            record = parse_sgr(line, t + 1)
        except SgrParseError as exc:
            if skip_errors:
                continue
            raise ValueError(f"line {lineno}: {exc}") from None
        if record is None:
            continue
        t += 1
        if sgdp_state is not None and (signal := sgdp_step(sgdp_state, record.tau)):
            yield signal
        if sgdd_state is not None and (signal := sgdd_step(sgdd_state, record)):
            yield signal
        if on_record is not None:
            on_record(record)


def _cmd_detect(args) -> int:
    configs = _detector_configs(args)
    if ("-" not in (args.input, args.out) and os.path.exists(args.out)
            and os.path.samefile(args.input, args.out)):
        raise UsageError("--out names the --input file, which it would truncate unread")
    # The input opens first, so a missing one leaves an existing --out untouched.
    with (nullcontext(sys.stdin) if args.input == "-"
          else open(args.input, encoding="utf-8")) as source, \
         (nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as sink:
        for signal in _detect_stream(source, args, configs):
            print(signal.to_json(), file=sink, flush=sink is sys.stdout)
    if args.out != "-" and os.path.isfile(args.out):
        _write_manifest(Path(args.out).parent, args)
    return 0


def _read_signals(path: str) -> list[DriftSignal]:
    signals = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                try:
                    signals.append(DriftSignal.from_json(line))
                except ValueError as exc:
                    raise ValueError(f"signals line {lineno}: {exc}") from None
    return signals


def _timing_runner(args, configs, truth):
    def run():
        cd_wall = dict.fromkeys(truth.cd_indices)

        def stamp(record):
            if record.t in cd_wall:
                cd_wall[record.t] = now_ms()

        with open(args.input, encoding="utf-8") as handle:
            signals = list(_detect_stream(handle, args, configs, stamp))
        for index, wall in cd_wall.items():
            if wall is None:
                raise ValueError(f"truth drift index {index} is no record of {args.input}")
        return signals, list(cd_wall.values())

    return run


def _write_report(args, report) -> None:
    """Write ``report`` to ``--out`` (JSON, table, manifest) and the table to stdout."""
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    table = report.to_table()
    (out_dir / "report.tsv").write_text(table, encoding="utf-8")
    print(table, end="")
    _write_manifest(out_dir, args)


def _cmd_eval(args) -> int:
    try:
        check_drift_interval(args.delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    truth = read_ground_truth(args.truth)
    _write_report(args, distances(_read_signals(args.signals), truth, args.delta))
    return 0


def _cmd_time(args) -> int:
    configs = _detector_configs(args)
    try:
        check_drift_interval(args.delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        check_runs(args.repeat, args.batches)
    except ValueError:
        raise UsageError(f"--repeat {args.repeat} must be a positive multiple of "
                         f"--batches {args.batches}") from None
    if args.input in ("", "-"):
        raise UsageError("--input must name a stream file that every run re-reads, not -")
    truth = read_ground_truth(args.truth)
    _write_report(args, repeated_timing(_timing_runner(args, configs, truth), truth,
                                        runs=args.repeat, batches=args.batches,
                                        drift_interval=args.delta))
    return 0


def main(argv=None) -> int:
    commands = {"generate": _cmd_generate, "detect": _cmd_detect, "eval": _cmd_eval,
                "time": _cmd_time}
    try:
        args = build_parser().parse_args(argv)
        status = commands[args.command](args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader stopped early, which is its right. Send what stdout
        # still buffers to the null device, so the flush at exit fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DeterminismError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
