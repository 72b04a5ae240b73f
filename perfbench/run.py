"""meterfuse benchmark: seeded corpora, timed CLI runs, output checks, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload fullres|fleet|evaluate --seed N --seconds S --trace 0|1

One run builds the workload's corpus with `meterfuse.synth` (the timed
set-up, repeated after every round), and runs the workload's CLI
command(s) in a closed loop from this one process: each `meterfuse` invocation is a subprocess of
its own, started only after the previous one exited, until S seconds have
passed (at least MIN_ROUNDS rounds).  Every output is checked against
computations made apart from the program (see checks.py), and every
invocation after the first must reproduce the first one's outputs byte for
byte.

--trace 0 reports the end-to-end metrics: the median wall time and peak
RSS of one invocation, and the median set-up time.  --trace 1 alternates
untraced and traced invocations (child.py) and reports per-layer
metrics; layers the workload's own command never calls are timed on a
companion command over the same corpus (pipeline <-> evaluate).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one CLI
invocation or one output check; a non-zero exit or a failed check counts
as failed and the run goes on to its end.
"""

from __future__ import annotations

import os

# One invocation at a time, each on one thread: no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_ROUNDS = 2
IMPORT_SAMPLES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

CHILD = [sys.executable, str(HERE / "child.py")]
IMPORT_PROBE = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import meterfuse.cli; print(time.perf_counter() - t)",
]


@dataclass(frozen=True)
class Workload:
    build: str  # corpus builder in corpus.py
    primary: str  # "pipeline" or "evaluate"
    ion_step: int
    hist_step: int
    radius: int
    top_n: int
    exact: bool  # radius covers every lattice, so distances are exact


WORKLOADS = {
    "fullres": Workload("build_fullres", "pipeline", 1, 1, 1, 4, exact=False),
    # radius 24 >= the 24-point ION series puts every pair on dtw_exact
    "fleet": Workload("build_fleet", "pipeline", 1, 10, 24, 8, exact=True),
    "evaluate": Workload("build_fleet", "evaluate", 1, 10, 24, 8, exact=True),
}


@dataclass(frozen=True)
class Command:
    kind: str  # "pipeline", "zero-run" or "gaussian"
    args: list[str]


def commands(w: Workload, manifest: Path, truth: dict, which: str) -> list[Command]:
    if which == "pipeline":
        return [Command("pipeline", [
            "pipeline", "--manifest", str(manifest), "--hist-step", str(w.hist_step),
            "--ion-step", str(w.ion_step), "--radius", str(w.radius), "--top-n", str(w.top_n),
        ])]
    e = truth["evaluate"]
    base = [
        "evaluate", "--manifest", str(manifest), "--series", e["series"], "--at", str(e["at"]),
        "--duration-ms", str(e["duration_ms"]), "--seed", str(e["seed"]),
        "--noise-count", str(e["noise_count"]), "--sigma", repr(e["sigma"]),
    ]
    return [Command(kind, [*base, "--kind", kind]) for kind in ("zero-run", "gaussian")]


class Run:
    """Counts operations and spawns one child process at a time."""

    def __init__(self, work: Path, deadline: float, setup: Setup):
        self.work = work
        self.deadline = deadline
        self.setup = setup
        self.attempted = 0
        self.failed = 0

    def between_rounds(self):
        self.setup(self.work / "corpus-again")

    def check(self, name: str, fn):
        self.attempted += 1
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - a check that raises has failed
            self.failed += 1
            print(f"check failed: {name}: {type(e).__name__}: {e}", file=sys.stderr)

    def invoke(self, cmd: Command, out: Path, spans: Path | None = None) -> tuple[float, float] | None:
        """Run cmd in child.py writing into a fresh out dir; (wall s, peak RSS MB) or None on failure."""
        self.attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        hwm = self.work / "child.hwm"
        hwm.unlink(missing_ok=True)
        argv = [*CHILD, str(hwm), str(spans or "-"), *cmd.args, "--out", str(out)]
        code, wall = spawn(argv, self.work / "child.log", self.deadline - time.monotonic())
        if code != 0:
            self.failed += 1
            log = (self.work / "child.log").read_text(errors="replace")[-2000:]
            print(f"invocation failed ({code}): {' '.join(argv)}\n{log}", file=sys.stderr)
            return None
        return wall, int(hwm.read_text()) / 1024.0


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log_path: Path, timeout: float) -> tuple[int, float]:
    """Run argv to completion, killing it after timeout; exit code and wall seconds."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env())
        # A blocking wait returns at exit; Popen.wait(timeout) would poll
        # and add up to 50 ms to the wall time.
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    return proc.returncode, wall


def outputs(out: Path) -> dict[str, bytes]:
    """Every output file except the .meta sidecars, which hold wall-clock timing."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.endswith(".meta.json")}


def same_outputs(ref: Path, out: Path):
    a, b = outputs(ref), outputs(out)
    assert a.keys() == b.keys(), f"file sets differ: {sorted(a)} vs {sorted(b)}"
    differ = [name for name in a if a[name] != b[name]]
    assert not differ, f"outputs differ from the first invocation: {differ}"


def output_checks(run: Run, cmd: Command, out: Path, inputs, w: Workload):
    if cmd.kind == "pipeline":
        named = checks.pipeline_checks(out, inputs, (w.ion_step, w.hist_step), w.exact)
    else:
        named = checks.evaluate_checks(out, inputs, cmd.kind)
    for name, fn in named:
        run.check(name, fn)


class Setup:
    """Builds and writes the workload's corpus; each call is one timed set-up sample.

    main() sets up once before the loop and the loops set up again after
    every round, so the samples span the whole run rather than one moment
    of it.
    """

    def __init__(self, w: Workload, seed: int):
        import corpus

        self.corpus = corpus
        self.build = getattr(corpus, w.build)
        self.seed = seed
        self.totals: list[float] = []
        self.writes: list[float] = []

    def __call__(self, corpus_dir: Path) -> Path:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        start = time.perf_counter()
        built, truth = self.build(self.seed)
        mid = time.perf_counter()
        manifest = self.corpus.write(built, truth, corpus_dir)
        end = time.perf_counter()
        self.totals.append(end - start)
        self.writes.append(end - mid)
        return manifest


def round_of(run: Run, cmds: list[Command], tag: str, spans: bool = False) -> list[dict]:
    """One invocation of each command, writing into out/<kind>/<tag>.

    Returns a record per successful invocation: kind, out, wall, rss and,
    when ``spans`` runs it under child.py, the span document.  Every
    tag but "first" is checked byte for byte against the "first" outputs.
    """
    records = []
    for cmd in cmds:
        out = run.work / "out" / cmd.kind / tag
        span_path = run.work / f"spans.{cmd.kind}.json" if spans else None
        if span_path:
            span_path.unlink(missing_ok=True)
        result = run.invoke(cmd, out, span_path)
        if tag != "first":
            first = run.work / "out" / cmd.kind / "first"
            run.check(f"identical_{cmd.kind}_{tag}", lambda f=first, o=out: same_outputs(f, o))
        if result:
            record = {"kind": cmd.kind, "out": out, "wall": result[0], "rss": result[1]}
            if span_path:
                record.update(json.loads(span_path.read_text()))
            records.append(record)
    return records


def keep_going(run: Run, rounds: int, stop: float, reserve: float) -> bool:
    """At least MIN_ROUNDS rounds, then more until stop, leaving reserve seconds of the budget."""
    now = time.monotonic()
    return rounds < MIN_ROUNDS or (now < stop and now < run.deadline - reserve)


def timed(run: Run, cmds: list[Command], seconds: float, w: Workload, inputs) -> list[dict]:
    """Closed loop over whole rounds of cmds, then the output checks on the first round."""
    stop = time.monotonic() + seconds
    records = round_of(run, cmds, "first")
    rounds = 1
    while keep_going(run, rounds, stop, reserve=60):
        run.between_rounds()
        records += round_of(run, cmds, "again")
        rounds += 1
    for cmd in cmds:
        output_checks(run, cmd, run.work / "out" / cmd.kind / "first", inputs, w)
    return records


def trace_run(run: Run, w: Workload, manifest: Path, truth: dict, seconds: float, inputs) -> dict:
    primary = commands(w, manifest, truth, w.primary)
    other = commands(w, manifest, truth, "evaluate" if w.primary == "pipeline" else "pipeline")
    untraced = timed(run, primary, 0.0, w, inputs)
    primary_docs: list[dict] = []
    stop = time.monotonic() + seconds
    rounds = 0
    while keep_going(run, rounds, stop, reserve=90):
        run.between_rounds()
        primary_docs += round_of(run, primary, "traced", spans=True)
        untraced += round_of(run, primary, "again")
        rounds += 1
    companion_docs = round_of(run, other, "first", spans=True)
    for cmd in other:
        output_checks(run, cmd, run.work / "out" / cmd.kind / "first", inputs, w)

    def layer(name: str) -> float:
        for docs in (primary_docs, companion_docs):
            values = [d["seconds"][name] for d in docs if name in d["seconds"]]
            if values:
                return statistics.median(values)
        raise RuntimeError(f"no traced call reached layer {name!r}")

    ingest_s = layer("ingest")
    rows = statistics.median(d["rows"] for d in primary_docs)
    dtw_s = layer("dtw")
    overhead = statistics.median(d["wall"] for d in primary_docs) - statistics.median(
        d["wall"] for d in untraced)
    print(f"tracing overhead: {overhead:.4f} s per invocation (traced minus untraced median wall)")

    pipeline_doc = next(d for d in primary_docs + companion_docs if d["kind"] == "pipeline")
    cells, pair_s, peak_mb = dtw_pass(run, w, inputs, pipeline_doc["out"])
    run.check("trace_spikes_flagged", lambda: checks.spikes_flagged(inputs.truth, pipeline_doc["flagged"]))

    return {
        "ingest.s": (ingest_s, "s"),
        "ingest.rows_per_s": (rows / ingest_s, "rows/s"),
        "sampling.s": (layer("sampling"), "s"),
        "dtw.s": (dtw_s, "s"),
        "dtw.cells": (cells, "count"),
        "dtw.cells_per_s": (cells / dtw_s, "cells/s"),
        "dtw.pair_s": (pair_s, "s"),
        "dtw.peak_alloc_mb": (peak_mb, "MB"),
        "merge.s": (layer("merge"), "s"),
        "detectors.rolling_average_s": (layer("detectors.rolling_average"), "s"),
        "detectors.autoregression_s": (layer("detectors.autoregression"), "s"),
        "detectors.level_shift_s": (layer("detectors.level_shift"), "s"),
        "analysis.s": (layer("analysis"), "s"),
        "injection.s": (layer("injection"), "s"),
        "cli.import_s": (import_seconds(run), "s"),
    }


def dtw_pass(run: Run, w: Workload, inputs, pipeline_out: Path) -> tuple[int, float, float]:
    """Call fastdtw on every pair's sampled inputs: cells, median pair seconds, peak MB.

    Checks that each distance equals matches.csv and that each warp path
    is valid and accumulates to its distance.  The peak allocation of one
    call on the largest pair is measured in a pass of its own, because
    tracemalloc slows the call it watches.
    """
    from meterfuse.dtw import Metric, fastdtw

    listed = {(ion, hist): d for _, ion, hist, d in checks.read_matches(pipeline_out)}
    cells, times, wrong_distance, bad_paths = 0, [], [], []
    largest = None
    for ion in inputs.names("ION"):
        for hist in inputs.names("HIST"):
            a = inputs.series(ion)[1][:: w.ion_step]
            b = inputs.series(hist)[1][:: w.hist_step]
            start = time.perf_counter()
            result = fastdtw(a, b, radius=w.radius, metric=Metric.L2)
            times.append(time.perf_counter() - start)
            cells += result.cells_evaluated
            if result.distance != listed.get((ion, hist)):
                wrong_distance.append((ion, hist))
            pairs = np.asarray(result.path.pairs, dtype=np.int64).reshape(-1, 2)
            if not (checks.valid_path(pairs, len(a), len(b)) and checks.close(
                    checks.path_cost(a, b, pairs), result.distance)):
                bad_paths.append((ion, hist))
            if largest is None or len(a) * len(b) > len(largest[0]) * len(largest[1]):
                largest = (a, b)

    def distances_equal():
        assert not wrong_distance, f"fastdtw distance differs from matches.csv for {wrong_distance}"

    def paths_valid():
        assert not bad_paths, f"invalid path or path cost != distance for {bad_paths}"

    run.check("trace_distances_equal_matches", distances_equal)
    run.check("trace_paths_valid", paths_valid)

    a, b = largest
    tracemalloc.start()
    try:
        fastdtw(a, b, radius=w.radius, metric=Metric.L2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cells, statistics.median(times), peak / 2**20


def import_seconds(run: Run) -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(IMPORT_PROBE, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(run.deadline - time.monotonic(), 1.0))
        if done.returncode != 0:
            raise RuntimeError(f"import meterfuse.cli failed: {done.stderr[-2000:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "meterfuse" / "cli.py").is_file():
        print(f"error: no meterfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meterfuse

    if Path(meterfuse.__file__).resolve().parent != (SRC / "meterfuse").resolve():
        print(f"error: imported meterfuse from {meterfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import meterfuse.cli  # noqa: F401 - compiles the bytecode every child then loads
    w = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = Setup(w, args.seed)
    run = Run(work, deadline, setup)

    manifest = setup(work / "corpus")
    truth = json.loads((manifest.parent / "truth.json").read_text())
    inputs = checks.Inputs(manifest)

    if args.trace:
        metrics = trace_run(run, w, manifest, truth, args.seconds, inputs)
        metrics["synth.write_s"] = (statistics.median(setup.writes), "s")
    else:
        records = timed(run, commands(w, manifest, truth, w.primary), args.seconds, w, inputs)
        if not records:
            print("error: every invocation failed", file=sys.stderr)
            return 1
        walls = sorted(r["wall"] for r in records)
        print(f"{args.workload}: {len(walls)} invocations, wall s: {' '.join(f'{x:.4f}' for x in walls)}")
        print(f"{args.workload}: {len(setup.totals)} set-ups, s: {' '.join(f'{x:.4f}' for x in sorted(setup.totals))}")
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(r["rss"] for r in records), "MB"),
            "setup_s": (statistics.median(setup.totals), "s"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(f"{args.workload}: attempted {run.attempted} operations, failed {run.failed}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
