"""Byte-for-byte outputs of four CLI runs on the `synth --seed 7` demo corpus.

tests/golden/<run>/ holds every deterministic output of one run (the
timing-bearing .meta sidecars are left out).  A change that moves any of
these bytes must say why.  Regenerate every directory from RUNS with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

import meterfuse
from meterfuse import cli
from meterfuse.cli import main
from meterfuse.detectors import DETECTORS, DetectorKind

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "pipeline": ["pipeline", "--recipe", "step", "--hist-step", "100", "--ion-step", "2",
                 "--top-n", "4"],
    "detect": ["detect", "--series", "HIST-44-S"],
    # full resolution: the only run whose lattices have rows wide enough to scan
    "match": ["match", "--recipe", "step", "--hist-step", "1", "--ion-step", "1"],
    "evaluate": ["evaluate", "--series", "HIST-44-S", "--kind", "gaussian", "--seed", "3"],
}


def _synth_demo(out: Path) -> Path:
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


def _argv(run: str, demo: Path, out: Path) -> list[str]:
    """The CLI arguments of RUNS[run] on the demo corpus, writing into out."""
    argv = RUNS[run]
    return [argv[0], "--manifest", str(demo / "manifest.json"), "--out", str(out), *argv[1:]]


def _run(run: str, demo: Path, out: Path) -> list[str]:
    """Run RUNS[run] on the demo corpus into out; the names of its deterministic outputs."""
    assert main(_argv(run, demo, out)) == 0
    return sorted(p.name for p in out.iterdir() if ".meta." not in p.name)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    return _synth_demo(tmp_path_factory.mktemp("demo"))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_bytes(demo_dir, tmp_path, run):
    out = tmp_path / run
    written = _run(run, demo_dir, out)
    expected = sorted(p.name for p in (GOLDEN / run).iterdir())
    assert written == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / run / name).read_bytes(), name


def test_pipeline_detects_each_distinct_series_once(demo_dir, tmp_path, monkeypatch):
    # one line per call, appended by the CLI process and by the worker it forks
    log = tmp_path / "calls.log"
    run_detector = cli.run_detector

    def counted(params, series, *args):
        result = run_detector(params, series, *args)
        with open(log, "a") as f:
            f.write(f"{result.series_name}\t{params.kind.value}\n")
        return result

    monkeypatch.setattr(cli, "run_detector", counted)
    out = tmp_path / "out"
    _run("pipeline", demo_dir, out)
    lines = log.read_text().splitlines()
    calls = Counter((name, DetectorKind(kind)) for name, kind in (line.split("\t") for line in lines))
    report = (out / "report.json").read_bytes()
    pairs = [(p["ion"], p["hist"]) for p in json.loads(report)["pairs"]]
    ions, hists = {ion for ion, _ in pairs}, {hist for _, hist in pairs}
    assert len(ions) + len(hists) < 2 * len(pairs)  # ranks 3 and 4 pair series of ranks 1 and 2
    views = ions | hists | {f"{ion}+{hist}" for ion, hist in pairs}
    assert calls == Counter({(view, kind): 1 for view in views for kind in DETECTORS})
    assert report == (GOLDEN / "pipeline" / "report.json").read_bytes()


def test_commands_never_import_numpy_ma(demo_dir, tmp_path):
    # np.median and np.percentile import numpy.ma on first use (about 15 ms
    # and 0.7 MB); the detectors select their order statistics themselves.
    script = """
import json, sys
from meterfuse.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    runs = [_argv(run, demo_dir, tmp_path / run) for run in ("pipeline", "detect", "evaluate")]
    src = str(Path(meterfuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def regenerate():
    """Rewrite every tests/golden/<run>/ with the outputs test_outputs_match_golden_bytes reads."""
    with tempfile.TemporaryDirectory() as tmp:
        demo = _synth_demo(Path(tmp) / "demo")
        written = {run: _run(run, demo, Path(tmp) / run) for run in RUNS}  # all run before any write
        for run, names in written.items():
            shutil.rmtree(GOLDEN / run, ignore_errors=True)
            (GOLDEN / run).mkdir(parents=True)
            for name in names:
                shutil.copyfile(Path(tmp) / run / name, GOLDEN / run / name)


if __name__ == "__main__":
    regenerate()
