"""Byte-for-byte outputs of four CLI runs on the `synth --seed 7` demo corpus.

tests/golden/<run>/ holds every deterministic output of one run (the
timing-bearing .meta sidecars are left out).  A change that moves any of
these bytes must say why.  Regenerate every directory from RUNS with

    PYTHONPATH=src python tests/test_golden.py
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from meterfuse.cli import main

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


def _run(run: str, demo: Path, out: Path) -> list[str]:
    """Run RUNS[run] on the demo corpus into out; the names of its deterministic outputs."""
    argv = RUNS[run]
    assert main([argv[0], "--manifest", str(demo / "manifest.json"), "--out", str(out),
                 *argv[1:]]) == 0
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
