#!/usr/bin/env python3
"""Layered benchmark of ``sgdrift detect``, stdlib only, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sgdp-long --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

A run generates its workload's stream and truth files from ``--seed`` with
``sgdrift.genstream`` (several times; the median is ``setup_s``). It then
replays the stream through ``sgdrift.cli.main(["detect", ...])`` in-process,
repetition after repetition, until ``--seconds`` are used: a closed loop with
one caller that reads the file as fast as the program asks for lines. The
detector knobs stay at their CLI defaults. Each repetition's signal file is
read back and its ``DriftSignal.fingerprint()`` list hashed; a repetition
fails when it raises, exits non-zero, emits signals out of ``t`` order, or
when its digest differs from the reference stored in ``digests.json`` for
this workload and seed (for a seed with none stored, from the first
repetition's). ``eval`` then scores the last signal file against the truth.

The stream reaches the program through the line iterator that ``detect
--input -`` reads. The iterator times each window's decision: from handing
over the line of a window-closing record (a first-seen timestamp after at
least two known ones, found from the timestamps during set-up) until the
program asks for the next line. It also stamps the cumulative detect time
after 1/4 and 1/2 of the records, which with the full time gives the
log-log growth exponent of one repetition.

Every time the benchmark reports is read from a reference clock (see
``hostspeed.py``): wall time corrected for the shared host's speed, which
is sampled every 10 ms while set-up and detect run. The wall times are kept
beside them in the result file.

With ``--trace 1`` repetitions alternate untraced and traced. Traced ones
record a span for every call into the layers (see ``tracer.py``) and give
the per-layer metrics, as shares of the traced repetitions' wall time (the
spans are wall-clock); ``trace.overhead_ratio`` is the traced over the
untraced time of those pairs. The spans of the last traced repetition
are written to ``.perfbench/spans/``.

Every run writes ``.perfbench/results/<workload>-seed<seed>-trace<k>.json``
with what ties it to its run (Python, nproc, sgdrift version, git commit,
input sha256s, workload seed, detector knobs). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the run's error rate.

``--smoke`` runs every workload at a tiny size in both trace modes, checks
that every metric named in ``BENCHMARK.json`` is printed with its unit, and
checks that a perturbed signal file trips the digest gate.

``--record-digest`` stores the run's digests as the reference for its
workload and seed, provided its repetitions agree and are ordered.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from hostspeed import ReferenceClock
from tracer import LayerProbe, SpanRecorder, instrumentation, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 15
# The highest percentile with at least ten window samples beyond it on every
# workload at its full size (sgdd-dense has the fewest: about 7,700 a pass).
TAIL_Q = 0.99
CLOCK = time.perf_counter


@dataclass(frozen=True)
class Workload:
    mode: str
    n: int  # records per stream
    instances: int  # independent streams per run, generated from sub-seeds
    smoke_n: int

    @property
    def delta(self) -> int:
        """Drift interval: n/5 puts three drifts after the regime-0 prefix."""
        return self.n // 5

    def smoke(self) -> "Workload":
        return replace(self, n=self.smoke_n, instances=min(self.instances, 2))


# The graph layers' cost varies a lot from stream to stream, since a stream's
# graph size depends on its seed; so sgdd-dense replays a family of
# independent streams (like the paper's five instances per configuration)
# and reports over the whole family.
WORKLOADS = {
    "sgdp-long": Workload(mode="sgdp", n=200_000, instances=1, smoke_n=3_000),
    "sgdd-dense": Workload(mode="sgdd", n=5_000, instances=12, smoke_n=1_500),
}

# Detect-path layers reported as their share of traced detect wall time; the
# self share is the time not covered by the layer's child spans.
BUSY_SHARES = ("stream_model.parse", "stream_model.ingest", "sgdp.check",
               "butterfly.young", "butterfly.enumerate", "uwgo.phases", "uwgo.order",
               "uwgo.rk4", "sgdd.check", "signals.emit")
SELF_SHARES = ("sgdp.step", "sgdd.step", "uwgo.project", "cli")


class SetupError(RuntimeError):
    pass


def load_sgdrift() -> dict:
    """Import sgdrift from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "sgdrift" / "__init__.py").is_file():
        raise SetupError(f"no sgdrift sources under {src}")
    sys.path.insert(0, str(src))
    import sgdrift
    from sgdrift import cli, genstream, sgdd, sgdp, signals, uwgo
    if Path(sgdrift.__file__).resolve().parent != (src / "sgdrift").resolve():
        raise SetupError(f"imported sgdrift from {sgdrift.__file__}, not {src}")
    return {"sgdrift": sgdrift, "cli": cli, "genstream": genstream, "sgdp": sgdp,
            "sgdd": sgdd, "uwgo": uwgo, "signals": signals}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- set-up -----------------------------------------------------------------

@dataclass
class Instance:
    seed: int
    config: object
    stream: Path
    truth: Path
    signals: Path
    marks: list


def synthesize(mods, workload: Workload, seed: int, work: Path, now):
    """Generate every stream and truth file of the family, several times.

    Returns the instances and the seconds (of the clock ``now``) each full
    generation took.
    """
    gen = mods["genstream"]
    schedule = gen.DriftSchedule.make("gradual", workload.delta)
    instances = []
    for k in range(workload.instances):
        sub_seed = seed * 100 + k
        config = gen.GeneratorConfig(seed=sub_seed)
        folder = work / f"instance{k}"
        folder.mkdir(parents=True)
        instances.append(Instance(sub_seed, config, folder / "input.stream",
                                  folder / "input.truth", folder / "signals.jsonl", []))
    times: list[float] = []
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
        start = now()
        for inst in instances:
            gen.generate_to_files(inst.config, schedule, workload.n, inst.stream, inst.truth)
        times.append(now() - start)
    for inst in instances:
        inst.marks = line_marks(inst.stream, workload.n)
    return instances, times


def line_marks(stream: Path, n: int) -> list[tuple[int, bool, bool]]:
    """(line number, closes a window, is a growth checkpoint), in line order.

    A record closes a window when its timestamp is new and at least two
    timestamps were seen before it.
    """
    checkpoints = {n // 4, n // 2}
    seen: set[str] = set()
    marks = []
    with open(stream, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            tau = line.rsplit(",", 1)[1]
            closing = tau not in seen and len(seen) >= 2
            seen.add(tau)
            if closing or lineno in checkpoints:
                marks.append((lineno, closing, lineno in checkpoints))
    return marks


# --- measurement --------------------------------------------------------------

def timed_lines(handle, marks, window_s: list, checkpoint_t: list, now):
    """Yield the stream's lines, timing the decision after each marked line."""
    lines = iter(handle)
    position = 0
    for lineno, closing, checkpoint in marks:
        yield from islice(lines, lineno - 1 - position)
        line = next(lines)
        start = now()
        yield line
        end = now()
        if closing:
            window_s.append(end - start)
        if checkpoint:
            checkpoint_t.append(end)
        position = lineno
    yield from lines


@dataclass
class Rep:
    instance: int
    seconds: float  # reference seconds (see hostspeed.py)
    wall: float  # wall-clock seconds
    windows: array  # seconds per window decision
    checkpoints: list  # cumulative seconds after n/4, n/2 and n records
    ok: bool
    counts: dict | None = None


def detect_once(main, mode: str, k: int, inst: Instance, now) -> Rep:
    """One closed-loop replay of an instance's stream through the CLI.

    Times are read from ``now``; the wall time is kept beside them."""
    argv = ["detect", "--mode", mode, "--input", "-", "--out", str(inst.signals)]
    windows = array("f")  # float32 halves what the kept samples add to peak RSS
    stamps: list[float] = []
    gc.collect()
    saved = sys.stdin
    with open(inst.stream, encoding="utf-8") as handle:
        sys.stdin = timed_lines(handle, inst.marks, windows, stamps, now)
        try:
            wall_start, start = CLOCK(), now()
            code = main(argv)
            seconds, wall = now() - start, CLOCK() - wall_start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Rep(k, 0.0, 0.0, [], [], ok=False)
        finally:
            sys.stdin = saved
    if code != 0:
        print(f"detect exited with {code}", file=sys.stderr)
    return Rep(k, seconds, wall, windows, [s - start for s in stamps] + [seconds],
               ok=code == 0)


def check_signals(path: Path, modes: set[str], expected: str | None, DriftSignal):
    """Digest the signal file's fingerprints and check it; returns
    (digest, signals per mode, problem or None)."""
    fingerprints = []
    counts = dict.fromkeys(sorted(modes), 0)
    problem = None
    last_t = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            signal = DriftSignal.from_json(line)
            if signal.mode not in modes:
                problem = problem or f"unexpected {signal.mode} signal"
            elif signal.t < last_t:
                problem = problem or f"signal at t={signal.t} after t={last_t}"
            counts[signal.mode] = counts.get(signal.mode, 0) + 1
            last_t = signal.t
            fingerprints.append(signal.fingerprint())
    digest = hashlib.sha256("\n".join(fingerprints).encode("utf-8")).hexdigest()
    if expected is not None and digest != expected:
        problem = problem or "fingerprint digest differs from the reference"
    return digest, counts, problem


def growth_exponent(n: int, checkpoints: list[float]) -> float:
    """Least-squares slope of log(cumulative time) over log(records)."""
    xs = [math.log(k) for k in (n // 4, n // 2, n)]
    ys = [math.log(t) for t in checkpoints]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stored_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


# --- one run ----------------------------------------------------------------

def run(mods, name: str, workload: Workload, seed: int, seconds: float,
        trace: bool, reference: list[str] | None) -> dict:
    """Set up, then replay the family's streams in turn while another replay
    fits in ``seconds``, after at least one pass over the family. With
    ``trace`` each replay is followed by a traced replay of the same stream.
    The host's speed is sampled during both (see ``hostspeed.py``)."""
    cli = mods["cli"]
    DriftSignal = mods["signals"].DriftSignal
    work = OUT / "work" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    clock = ReferenceClock()
    now = clock.now
    with clock.running():
        instances, setup_times = synthesize(mods, workload, seed, work, now)
        if reference is not None and len(reference) != len(instances):
            raise RuntimeError(f"{len(reference)} reference digests for {len(instances)} streams")
        expected = list(reference) if reference else [None] * len(instances)
        recorder, probe = SpanRecorder(), LayerProbe()
        traced_main = recorder.wrap("cli", cli.main)
        replacements = instrumentation(recorder, probe, mods)
        untraced: list[Rep] = []
        traced: list[Rep] = []
        layer_busy: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        layer_calls: dict[str, int] = {}
        graphs: list[tuple[int, int]] = []
        found = changed = projections = 0
        problems: list[str] = []

        def checked(rep: Rep) -> Rep:
            if rep.ok:
                digest, rep.counts, problem = check_signals(
                    instances[rep.instance].signals, {workload.mode},
                    expected[rep.instance], DriftSignal)
                expected[rep.instance] = expected[rep.instance] or digest
                if problem:
                    rep.ok = False
                    problems.append(f"instance {rep.instance}: {problem}")
            return rep

        family = len(instances)
        started = CLOCK()
        while True:
            k = len(untraced) % family
            lap = CLOCK()
            untraced.append(checked(detect_once(cli.main, workload.mode, k, instances[k], now)))
            if trace:
                recorder.clear()
                probe.reset()
                with patched(replacements):
                    traced.append(checked(
                        detect_once(traced_main, workload.mode, k, instances[k], now)))
                busy, own, calls = recorder.totals()
                for table, values in ((layer_busy, busy), (layer_self, own)):
                    for layer, value in values.items():
                        table[layer] = table.get(layer, 0.0) + value
                if len(traced) <= family:  # counts cover one pass over the family
                    for layer, value in calls.items():
                        layer_calls[layer] = layer_calls.get(layer, 0) + value
                    found += probe.found
                    changed += probe.changed
                    projections += probe.projections
                    if probe.graph is not None:
                        graphs.append((len(probe.graph), probe.graph.edge_count()))
            elapsed, lap = CLOCK() - started, CLOCK() - lap
            if len(untraced) >= family and elapsed + lap > seconds:
                break
    passes = len(untraced) // family
    # Read before the bookkeeping below allocates: the peak of set-up and detect.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    eval_spans = SpanRecorder()
    with redirect_stdout(io.StringIO()), patched(
            [(cli, "distances", eval_spans.wrap("harness.eval", cli.distances))]):
        eval_codes = [cli.main(["eval", "--signals", str(inst.signals),
                                "--truth", str(inst.truth), "--delta", str(workload.delta),
                                "--out", str(inst.signals.parent / "eval")])
                      for inst in instances]
    for k, code in enumerate(eval_codes):
        if code != 0:
            problems.append(f"instance {k}: eval exited with {code}")

    reps = untraced + traced
    attempted = len(reps) + len(eval_codes)
    failed = sum(not rep.ok for rep in reps) + sum(code != 0 for code in eval_codes)
    good = [rep for rep in untraced if rep.ok]
    if not good or (trace and not any(rep.ok for rep in traced)):
        raise RuntimeError("no detect repetition succeeded: " + "; ".join(problems))
    counts: dict[str, int] = {}
    for rep in untraced[:family]:
        for mode, count in (rep.counts or {}).items():
            counts[mode] = counts.get(mode, 0) + count
    if not trace:
        times: dict[int, list[float]] = {}
        for rep in good:
            times.setdefault(rep.instance, []).append(rep.seconds)
        # Each stream counts once, at the median of its replays; window
        # samples come from whole passes so every stream weighs the same.
        detect_rps = (workload.n * len(times)
                      / sum(statistics.median(t) for t in times.values()))
        windows = [w for rep in untraced[:passes * family] if rep.ok for w in rep.windows]
        metrics = {
            "detect_rps": (detect_rps, "1/s"),
            "window_ms_p50": (1e3 * percentile(windows, 0.50), "ms"),
            "window_ms_p99": (1e3 * percentile(windows, TAIL_Q), "ms"),
            "detect_growth_exp": (statistics.median(
                growth_exponent(workload.n, rep.checkpoints) for rep in good), "exponent"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        samples = {"window_samples": len(windows),
                   "window_samples_beyond_tail":
                       len(windows) - math.ceil(TAIL_Q * len(windows))}
    else:
        # Spans are wall-clock, and so is the time they are a share of.
        traced_wall = sum(rep.wall for rep in traced)
        metrics = {}
        for layer in BUSY_SHARES:
            metrics[f"{layer}.busy_pct"] = (100 * layer_busy.get(layer, 0.0) / traced_wall, "%")
        for layer in SELF_SHARES:
            metrics[f"{layer}.self_pct"] = (100 * layer_self.get(layer, 0.0) / traced_wall, "%")
        checks = layer_calls.get("sgdp.check", 0)
        metrics.update({
            "stream_model.ingest.calls":
                (layer_calls.get("stream_model.ingest", 0), "count"),
            "sgdp.check.calls": (checks, "count"),
            "sgdp.signals": (counts.get("sgdp", 0), "count"),
            "sgdp.fire_ratio": (counts.get("sgdp", 0) / checks if checks else 0.0, "ratio"),
            "sgdd.windows": (layer_calls.get("sgdd.check", 0), "count"),
            "sgdd.signals": (counts.get("sgdd", 0), "count"),
            "butterfly.found": (found, "count"),
            "uwgo.graph_changed_ratio":
                (changed / projections if projections else 0.0, "ratio"),
            "uwgo.V_end": (statistics.fmean(v for v, _ in graphs) if graphs else 0, "count"),
            "uwgo.E_end": (statistics.fmean(e for _, e in graphs) if graphs else 0, "count"),
            "genstream.rps": (workload.n * len(instances) / statistics.median(setup_times),
                              "1/s"),
            "harness.eval.busy_s": (eval_spans.totals()[0].get("harness.eval", 0.0), "s"),
            "trace.overhead_ratio": (sum(rep.seconds for rep in traced)
                                     / sum(rep.seconds for rep in untraced), "ratio"),
        })
        samples = {
            "traced_reps": len(traced),
            "layer_busy_s_per_rep": {k: v / len(traced) for k, v in sorted(layer_busy.items())},
            "layer_self_s_per_rep": {k: v / len(traced) for k, v in sorted(layer_self.items())},
            "layer_calls_per_pass": dict(sorted(layer_calls.items())),
        }
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{name}-seed{seed}.jsonl.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as handle:
            samples["spans_written"] = recorder.write(
                handle, f"{name}-seed{seed}-instance{len(instances) - 1}-detect")
        samples["spans_file"] = str(spans_path.relative_to(ROOT))

    knobs = vars(cli.build_parser().parse_args(
        ["detect", "--mode", workload.mode, "--input", "-"]))
    for key in ("command", "input", "out"):
        knobs.pop(key, None)
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "sgdrift_version": mods["sgdrift"].__version__,
        "git_commit": git_commit(),
        "inputs": [{"seed": inst.seed, "records": workload.n, "delta": workload.delta,
                    "generator": vars(inst.config),
                    "stream_sha256": sha256_file(inst.stream),
                    "truth_sha256": sha256_file(inst.truth)} for inst in instances],
        "detector_knobs": knobs,
        "passes": passes,
        "host_speed": clock.summary(),
        "detect_reps_s": [rep.seconds for rep in untraced],
        "detect_reps_wall_s": [rep.wall for rep in untraced],
        "traced_reps_s": [rep.seconds for rep in traced],
        "setup_reps_s": setup_times,
        "signal_digests": expected, "reference_digests": reference,
        "signals": counts,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "problems": problems,
        **samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']!r} {metric['unit']}")
    for key in ("passes", "traced_reps", "window_samples",
                "window_samples_beyond_tail", "attempted", "failed", "problems"):
        if key in result:
            print(f"# {key}: {result[key]}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))


# --- smoke ------------------------------------------------------------------

def smoke(mods, record: bool) -> int:
    """Tiny run of every workload in both trace modes, plus a gate check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    digests = stored_digests()
    refs = digests.setdefault("smoke", {})
    failures = []
    for name, workload in WORKLOADS.items():
        tiny = workload.smoke()
        if record:
            refs[name] = reference_run(mods, name, tiny)[1]
        for trace in (0, 1):
            result = run(mods, f"smoke-{name}", tiny, 0, 0.0, bool(trace),
                         refs.get(name))
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != wanted[trace]:
                failures.append(f"{name} trace {trace}: metrics {sorted(printed)} "
                                f"!= BENCHMARK.json {sorted(wanted[trace])}")
            if result["failed"]:
                failures.append(f"{name} trace {trace}: {result['problems']}")
            print(f"smoke {name} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
        failures += gate_trips(mods, name, tiny, refs.get(name))
    if record and not failures:
        write_digests(digests)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke ok" if not failures else f"smoke failed ({len(failures)})")
    return 1 if failures else 0


def reference_run(mods, name: str, workload: Workload):
    """Seed-0 detect of every instance, reading the stream files directly.

    Returns the signal files and their digests.
    """
    work = OUT / "work" / f"gate-{name}"
    shutil.rmtree(work, ignore_errors=True)
    instances, _ = synthesize(mods, workload, 0, work, CLOCK)
    digests = []
    for inst in instances:
        code = mods["cli"].main(["detect", "--mode", workload.mode,
                                 "--input", str(inst.stream), "--out", str(inst.signals)])
        if code != 0:
            raise RuntimeError(f"{name}: detect exited with {code}")
        digest, _, problem = check_signals(inst.signals, {workload.mode}, None,
                                           mods["signals"].DriftSignal)
        if problem:
            raise RuntimeError(f"{name}: {problem}")
        digests.append(digest)
    return [inst.signals for inst in instances], digests


def gate_trips(mods, name: str, workload: Workload, reference: list | None) -> list[str]:
    """Perturb a real signal file and check that the digest gate rejects it."""
    DriftSignal = mods["signals"].DriftSignal
    paths, digests = reference_run(mods, name, workload)
    failures = []
    if digests != reference:
        failures.append(f"{name}: unperturbed output differs from the stored reference")
    signals_path, digest = paths[0], digests[0]
    lines = signals_path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        return failures + [f"{name}: too few signals to perturb"]
    shifted = json.loads(lines[-1])
    shifted["t"] += 1
    earlier = json.loads(lines[-1])
    earlier["t"] = json.loads(lines[-2])["t"] - 1
    cases = (("shifted t", lines[:-1] + [json.dumps(shifted)], digest),
             ("dropped signal", lines[:-1], digest),
             ("out of t order", lines[:-1] + [json.dumps(earlier)], None))
    for label, perturbed, expected in cases:
        signals_path.write_text("\n".join(perturbed) + "\n", encoding="utf-8")
        if check_signals(signals_path, {workload.mode}, expected, DriftSignal)[2] is None:
            failures.append(f"{name}: {label} passed the gate")
    print(f"gate {name}: {len(lines)} signals, "
          f"{'every perturbation rejected' if not failures else 'FAILED'}")
    shutil.rmtree(OUT / "work" / f"gate-{name}", ignore_errors=True)
    return failures


def write_digests(digests: dict) -> None:
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


# --- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks metrics and the digest gate")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's signal digest as the seed's reference")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # Detector knobs at their CLI defaults: drop environment overrides.
    for key in [k for k in os.environ if k.startswith("SGDRIFT_")]:
        del os.environ[key]
    try:
        mods = load_sgdrift()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(mods, args.record_digest)

    digests = stored_digests()
    reference = None if args.record_digest else \
        digests.get(args.workload, {}).get(str(args.seed))
    result = run(mods, args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, bool(args.trace), reference)
    if args.record_digest:
        if result["failed"]:
            print("not recording: the run failed", file=sys.stderr)
            return 1
        digests.setdefault(args.workload, {})[str(args.seed)] = result["signal_digests"]
        write_digests(digests)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
