"""Byte-for-byte outputs of three CLI runs on the `synth --seed 7` demo corpus.

tests/golden/<run>/ holds every deterministic output of one run (the
timing-bearing .meta sidecars are left out).  A change that moves any of
these bytes must say why; regenerate a directory by running the same
argv into it.
"""

from pathlib import Path

import pytest

from meterfuse.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "pipeline": ["pipeline", "--recipe", "step", "--hist-step", "100", "--ion-step", "2",
                 "--top-n", "4"],
    "detect": ["detect", "--series", "HIST-44-S"],
    "evaluate": ["evaluate", "--series", "HIST-44-S", "--kind", "gaussian", "--seed", "3"],
}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--out", str(out), "--seed", "7"]) == 0
    return out


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_bytes(demo_dir, tmp_path, run):
    argv = RUNS[run]
    out = tmp_path / run
    assert main([argv[0], "--manifest", str(demo_dir / "manifest.json"), "--out", str(out),
                 *argv[1:]]) == 0
    expected = sorted(p.name for p in (GOLDEN / run).iterdir())
    written = sorted(p.name for p in out.iterdir() if ".meta." not in p.name)
    assert written == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / run / name).read_bytes(), name
