"""Byte-for-byte outputs of four CLI runs on the `synth --seed 7` demo corpus.

tests/golden/<run>/ holds every deterministic output of one run (the
timing-bearing .meta sidecars are left out).  DIGESTS pins the series
writer: the SHA-256 of every file `synth --seed 7` writes and of the
`injected.csv` of INJECT.  A change that moves any of these bytes must
say why.  Regenerate every directory from RUNS, and DIGESTS in this
file, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import meterfuse
from meterfuse import cli
from meterfuse.cli import main
from meterfuse.detectors import DETECTORS

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "pipeline": ["pipeline", "--recipe", "step", "--hist-step", "100", "--ion-step", "2",
                 "--top-n", "4"],
    "detect": ["detect", "--series", "HIST-44-S"],
    # full resolution: the only run whose lattices have rows wide enough to scan
    "match": ["match", "--recipe", "step", "--hist-step", "1", "--ion-step", "1"],
    "evaluate": ["evaluate", "--series", "HIST-44-S", "--kind", "gaussian", "--seed", "3"],
}
INJECT = ["inject", "--series", "HIST-44-S", "--kind", "gaussian", "--seed", "3"]

# regenerate() rewrites this block
DIGESTS = {
    "inject/injected.csv": "863ebdc725ad043b8ac9f3724bcb5f897cc14e67fcfba53792cd786e5ba05568",
    "synth/HIST-23-S.csv": "b103538d414fda85734cdeb49afaf85db19426be9ca2796d425394aeb774e8a9",
    "synth/HIST-40-S.csv": "eebe0d7b41e7223c6dc4f0dc2bd0047e1efd616cb037c61fa650001caa621a1d",
    "synth/HIST-44-S.csv": "fe3ac4b1dc0d139a1705167ac486298d30e56ff59e9222183ed91baeeda1b7e8",
    "synth/ION-4-3472.csv": "4abe15a4b84f1e5ea141b6ac57df5616abce2881764a3501bce74e49d6ecb874",
    "synth/ION-5-139.csv": "6c2b954af3258310195757a05e18615f75137eab60f96711fa77dc6ef3d1a99e",
    "synth/manifest.json": "4718b58eca246fdadfa4106b9371b60584b1059649971c45548e108c5277ba58",
}


def _synth_demo(out: Path) -> Path:
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


def _argv(argv: list[str], demo: Path, out: Path) -> list[str]:
    """The CLI arguments of argv, one of RUNS or INJECT, on the demo corpus, writing into out."""
    return [argv[0], "--manifest", str(demo / "manifest.json"), "--out", str(out), *argv[1:]]


def _run(run: str, demo: Path, out: Path) -> list[str]:
    """Run RUNS[run] on the demo corpus into out; the names of its deterministic outputs."""
    assert main(_argv(RUNS[run], demo, out)) == 0
    return sorted(p.name for p in out.iterdir() if ".meta." not in p.name)


def _digests(demo: Path, out: Path) -> dict[str, str]:
    """SHA-256 of every file synth wrote into demo and of INJECT's injected.csv, written into out."""
    assert main(_argv(INJECT, demo, out)) == 0
    files = {f"synth/{p.name}": p for p in demo.iterdir() if p.is_file()}  # not the parse cache
    files["inject/injected.csv"] = out / "injected.csv"
    return {key: hashlib.sha256(p.read_bytes()).hexdigest() for key, p in sorted(files.items())}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    return _synth_demo(tmp_path_factory.mktemp("demo"))


def test_synth_and_inject_match_golden_digests(tmp_path):
    assert _digests(_synth_demo(tmp_path / "demo"), tmp_path / "inject") == DIGESTS


@pytest.mark.parametrize("cpus", [1, 2])
def test_synth_matches_golden_digests_on_one_and_two_cpus(tmp_path, monkeypatch, cpus):
    # write_outputs renders series files on every usable CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    demo = _synth_demo(tmp_path / "demo")
    digests = {f"synth/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in demo.iterdir()}
    assert digests == {key: value for key, value in DIGESTS.items() if key.startswith("synth/")}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_bytes(demo_dir, tmp_path, run):
    out = tmp_path / run
    written = _run(run, demo_dir, out)
    expected = sorted(p.name for p in (GOLDEN / run).iterdir())
    assert written == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / run / name).read_bytes(), name


def test_pipeline_detects_each_distinct_series_once(demo_dir, tmp_path, monkeypatch):
    # one (view, detector) per call, in call order
    calls = []
    run_detector = cli.run_detector

    def logged(params, series, *args):
        result = run_detector(params, series, *args)
        calls.append((result.series_name, params.kind))
        return result

    monkeypatch.setattr(cli, "run_detector", logged)
    out = tmp_path / "out"
    _run("pipeline", demo_dir, out)
    report = (out / "report.json").read_bytes()
    pairs = [(p["ion"], p["hist"]) for p in json.loads(report)["pairs"]]
    ions, hists = {ion for ion, _ in pairs}, {hist for _, hist in pairs}
    assert len(ions) + len(hists) < 2 * len(pairs)  # ranks 3 and 4 pair series of ranks 1 and 2
    # each distinct view once, pair by pair: the ION and HIST series the
    # first time a pair holds them, then the pair's merged view
    order = []
    for ion, hist in pairs:
        order += [s for s in (ion, hist) if s not in order] + [f"{ion}+{hist}"]
    assert calls == [(view, kind) for view in order for kind in DETECTORS]
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
    runs = [_argv(RUNS[run], demo_dir, tmp_path / run) for run in ("pipeline", "detect", "evaluate")]
    src = str(Path(meterfuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def regenerate():
    """Rewrite every tests/golden/<run>/, and DIGESTS, with what the golden tests read."""
    with tempfile.TemporaryDirectory() as tmp:
        demo = _synth_demo(Path(tmp) / "demo")
        digests = _digests(demo, Path(tmp) / "inject")
        written = {run: _run(run, demo, Path(tmp) / run) for run in RUNS}  # all run before any write
        for run, names in written.items():
            shutil.rmtree(GOLDEN / run, ignore_errors=True)
            (GOLDEN / run).mkdir(parents=True)
            for name in names:
                shutil.copyfile(Path(tmp) / run / name, GOLDEN / run / name)
    block = "".join(f'    "{key}": "{digest}",\n' for key, digest in digests.items())
    source = Path(__file__).read_text()
    source = re.sub(r"^DIGESTS = \{\n.*?^\}\n", lambda _: "DIGESTS = {\n" + block + "}\n", source,
                    count=1, flags=re.M | re.S)
    Path(__file__).write_text(source)


if __name__ == "__main__":
    regenerate()
