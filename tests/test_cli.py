import json
import re
from pathlib import Path

import numpy as np
import pytest

from meterfuse import (
    DetectorKind,
    DetectorParams,
    SamplingKind,
    SamplingRecipe,
    default_params,
    evaluate,
    fastdtw,
    inject_gaussian_noise,
    inject_zero_run,
    load_corpus,
    load_manifest,
    run_detector,
)
from meterfuse.cli import _detector_params, _recipe, build_parser, cmd_match, cmd_report, main
from meterfuse.errors import InvalidArgument, IoError
from meterfuse.sampling import apply_recipe
from meterfuse.synth import demo_corpus

from conftest import mkvalues


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small synthetic corpus: one day at 5 s, hourly low-frequency twins."""
    out = tmp_path_factory.mktemp("corpus")
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            "7",
            "--hist-points",
            "2400",
            "--ion-cadence-ms",
            "600000",
        ]
    )
    assert rc == 0
    return out


def _manifest(corpus_dir) -> str:
    return str(corpus_dir / "manifest.json")


MATCH_FLAGS = ["--recipe", "step", "--hist-step", "20", "--ion-step", "1"]
FAST_DETECTORS = ["--ar-order", "5", "--ra-window", "5", "--ls-window", "3"]


def test_synth_writes_manifest_and_series(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert len(manifest["entries"]) == 5
    for entry in manifest["entries"]:
        assert (corpus_dir / entry["path"]).exists()


def test_ingest_reports_counts(corpus_dir, capsys):
    rc = main(["ingest", "--manifest", _manifest(corpus_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 ION series, 3 HIST series" in out


def test_match_outputs_and_top_ten(corpus_dir, tmp_path, capsys):
    out = tmp_path / "match"
    rc = main(["match", "--manifest", _manifest(corpus_dir), "--out", str(out), *MATCH_FLAGS])
    assert rc == 0
    lines = (out / "matches.csv").read_text().strip().split("\n")
    assert lines[0] == "rank,ion_name,hist_name,distance"
    assert len(lines) == 1 + 6  # 2 ION x 3 HIST
    assert lines[1].startswith("1,")
    meta = json.loads((out / "matches.meta.json").read_text())
    assert meta["pairs"] == 6
    assert meta["elapsed_seconds"] >= 0
    assert "rank" in capsys.readouterr().out

    # cells evaluated: per pair in rank order, and their total
    corpus = load_corpus(load_manifest(_manifest(corpus_dir)))
    recipe = SamplingRecipe(SamplingKind.STEP_SIZE, hist_step=20, ion_step=1)
    expected = []
    for row in lines[1:]:
        _, ion, hist, _ = row.split(",")
        a = apply_recipe(corpus.get(ion), recipe).v
        b = apply_recipe(corpus.get(hist), recipe).v
        expected.append({"ion_name": ion, "hist_name": hist,
                         "cells": fastdtw(a, b, radius=meta["radius"]).cells_evaluated})
    assert meta["pair_cells_evaluated"] == expected
    assert meta["cells_evaluated"] == sum(e["cells"] for e in expected) > 0


def test_match_ranks_true_twins_first(corpus_dir, tmp_path):
    out = tmp_path / "match"
    main(["match", "--manifest", _manifest(corpus_dir), "--out", str(out), *MATCH_FLAGS])
    rows = (out / "matches.csv").read_text().strip().split("\n")[1:]
    top_two = {tuple(r.split(",")[1:3]) for r in rows[:2]}
    assert top_two == {("ION-4-3472", "HIST-40-S"), ("ION-5-139", "HIST-44-S")}


def test_match_date_range_recipe(corpus_dir, tmp_path):
    out = tmp_path / "match-range"
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    first_file = corpus_dir / manifest["entries"][0]["path"]
    start = int(first_file.read_text().split("\n")[1].split(",")[0])
    rc = main(
        [
            "match",
            "--manifest",
            _manifest(corpus_dir),
            "--out",
            str(out),
            "--recipe",
            "date-range",
            "--range-start",
            str(start),
            "--range-end",
            str(start + 3 * 3_600_000),  # a three-hour window
            "--hist-step",
            "10",
            "--ion-step",
            "1",
        ]
    )
    assert rc == 0
    meta = json.loads((out / "matches.meta.json").read_text())
    assert meta["recipe"]["kind"] == "date-range"
    assert meta["pairs"] == 6


def test_match_alternate_metric_and_normalization(corpus_dir, tmp_path):
    out = tmp_path / "match-l1"
    rc = main(
        [
            "match",
            "--manifest",
            _manifest(corpus_dir),
            "--out",
            str(out),
            "--metric",
            "l1",
            "--radius",
            "2",
            "--z-normalize",
            *MATCH_FLAGS,
        ]
    )
    assert rc == 0
    meta = json.loads((out / "matches.meta.json").read_text())
    assert meta["metric"] == "l1"
    assert meta["z_normalize"] is True
    assert meta["radius"] == 2


def test_pipeline_outputs(corpus_dir, tmp_path):
    out = tmp_path / "pipe"
    rc = main(
        [
            "pipeline",
            "--manifest",
            _manifest(corpus_dir),
            "--out",
            str(out),
            "--top-n",
            "2",
            *MATCH_FLAGS,
            *FAST_DETECTORS,
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["pairs"]) == 2
    for pair in report["pairs"]:
        assert set(pair["detectors"]) == {"rolling_average", "autoregression", "level_shift"}
        assert set(pair["stats"]) == {"ion", "hist", "merged"}
        merged_count = pair["stats"]["merged"]["count"]
        assert merged_count == pair["stats"]["ion"]["count"] + pair["stats"]["hist"]["count"]
    csv_lines = (out / "report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "pair_rank,measurement_name,rolling_average,autoregression,level_shift"
    assert len(csv_lines) == 1 + 2 * 3


def test_pipeline_top_n_saturates_with_warning(corpus_dir, tmp_path, capsys):
    out = tmp_path / "pipe"
    rc = main(
        [
            "pipeline",
            "--manifest",
            _manifest(corpus_dir),
            "--out",
            str(out),
            "--top-n",
            "99",
            *MATCH_FLAGS,
            *FAST_DETECTORS,
        ]
    )
    assert rc == 0
    assert "top-n" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert len(report["pairs"]) == 6


def test_pipeline_deterministic_bytes(corpus_dir, tmp_path):
    args = [
        "pipeline",
        "--manifest",
        _manifest(corpus_dir),
        "--seed",
        "3",
        "--top-n",
        "2",
        *MATCH_FLAGS,
        *FAST_DETECTORS,
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "matches.csv").read_bytes() == (out_b / "matches.csv").read_bytes()


def test_detect_writes_per_detector_csv(corpus_dir, tmp_path):
    out = tmp_path / "det"
    rc = main(
        [
            "detect",
            "--manifest",
            _manifest(corpus_dir),
            "--series",
            "HIST-40-S",
            "--out",
            str(out),
            *FAST_DETECTORS,
        ]
    )
    assert rc == 0
    for tag in ("ra", "ar", "ls"):
        lines = (out / f"anomalies.{tag}.csv").read_text().strip().split("\n")
        assert lines[0] == "index,timestamp,value,score"
    counts = json.loads((out / "detect.json").read_text())["counts"]
    assert counts["rolling_average"] > 0  # the planted spikes


def test_inject_writes_series_and_label(corpus_dir, tmp_path):
    out = tmp_path / "inj"
    rc = main(
        [
            "inject",
            "--manifest",
            _manifest(corpus_dir),
            "--series",
            "HIST-40-S",
            "--kind",
            "zero-run",
            "--duration-ms",
            "7000",
            "--out",
            str(out),
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    label = json.loads((out / "label.json").read_text())
    assert label["kind"] == "DOS_ZERO_RUN"
    assert len(label["indices"]) >= 1
    assert (out / "injected.csv").exists()


def test_evaluate_writes_scores(corpus_dir, tmp_path):
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--manifest",
            _manifest(corpus_dir),
            "--series",
            "HIST-40-S",
            "--kind",
            "gaussian",
            "--noise-count",
            "15",
            "--sigma",
            "500",
            "--out",
            str(out),
            "--seed",
            "5",
            *FAST_DETECTORS,
        ]
    )
    assert rc == 0
    for tag in ("ra", "ar", "ls"):
        doc = json.loads((out / f"eval.{tag}.json").read_text())
        assert set(doc) == {
            "true_positives",
            "false_positives",
            "false_negatives",
            "precision",
            "recall",
            "f1",
        }


def test_pipeline_all_constant_corpus_reports_zero_counts(tmp_path):
    from meterfuse import Corpus, SystemTag
    from meterfuse.synth import constant_series, write_corpus

    corpus = Corpus()
    for name, system, value, n, cadence in [
        ("ION-1", SystemTag.ION, 5.0, 30, 600_000),
        ("ION-2", SystemTag.ION, 0.0, 30, 600_000),
        ("HIST-1", SystemTag.HIST, 5.0, 2400, 5_000),
        ("HIST-2", SystemTag.HIST, 0.0, 2400, 5_000),
    ]:
        s = constant_series(name, system, value, n, cadence)
        corpus.series_by_id[s.id] = s
    manifest = write_corpus(corpus, tmp_path / "flat")

    # top 2 = the zero-distance twin pairs; a merged pair of equal
    # constants stays constant, so every count must be zero
    out = tmp_path / "pipe"
    rc = main(
        [
            "pipeline",
            "--manifest",
            str(manifest),
            "--out",
            str(out),
            "--top-n",
            "2",
            *MATCH_FLAGS,
            *FAST_DETECTORS,
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["pairs"]) == 2
    assert {(p["ion"], p["hist"]) for p in report["pairs"]} == {
        ("ION-1", "HIST-1"),
        ("ION-2", "HIST-2"),
    }
    for pair in report["pairs"]:
        for row in pair["detectors"].values():
            assert (row["ion"], row["hist"], row["merged"]) == (0, 0, 0)


def test_report_rebuilds_csv(corpus_dir, tmp_path):
    out = tmp_path / "pipe"
    main(
        [
            "pipeline",
            "--manifest",
            _manifest(corpus_dir),
            "--out",
            str(out),
            "--top-n",
            "1",
            *MATCH_FLAGS,
            *FAST_DETECTORS,
        ]
    )
    before = (out / "report.csv").read_text()
    (out / "report.csv").unlink()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "report.csv").read_text() == before


def test_unknown_series_lists_available(corpus_dir, tmp_path, capsys):
    rc = main(
        [
            "detect",
            "--manifest",
            _manifest(corpus_dir),
            "--series",
            "NOPE",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "NOPE" in err and "HIST-40-S" in err


def test_missing_manifest_exits_nonzero(tmp_path, capsys):
    rc = main(["match", "--manifest", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--radius", "-1", "--hist-step", "100"], "radius must be >= 0, got -1"),
        (["--recipe", "first-n", "--n-points", "0"], "n_points must be >= 1, got 0"),
    ],
    ids=["negative-radius", "zero-n-points"],
)
def test_out_of_range_match_argument_is_typed_error(corpus_dir, tmp_path, capsys, flags, named):
    argv = ["match", "--manifest", _manifest(corpus_dir), "--out", str(tmp_path / "o"), *flags]
    with pytest.raises(InvalidArgument, match=named):  # a MeterFuseError, not the catch-all
        cmd_match(build_parser().parse_args(argv))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "o").exists()


def _scored_with_slack(s, slack):
    _, label = inject_zero_run(s, int(s.t[10]), 1000)
    return evaluate(run_detector(default_params(DetectorKind.ROLLING_AVERAGE), s), label, slack)


@pytest.mark.parametrize(
    "command, flags, named, library_call",
    [
        ("detect", ["--ar-order", "0"], "autoregression order_p must be >= 1, got 0",
         lambda s: DetectorParams(DetectorKind.AR, order_p=0)),
        ("pipeline", ["--ls-window", "0"], "level_shift window_w must be >= 1, got 0",
         lambda s: DetectorParams(DetectorKind.LEVEL_SHIFT, window_w=0)),
        ("evaluate", ["--ra-k", "0"], "rolling_average threshold_k must be > 0, got 0.0",
         lambda s: DetectorParams(DetectorKind.ROLLING_AVERAGE, threshold_k=0.0)),
        ("inject", ["--duration-ms", "0"], "duration_ms must be > 0, got 0",
         lambda s: inject_zero_run(s, int(s.t[0]), 0)),
        ("inject", ["--kind", "gaussian", "--noise-count", "0"],
         "noise count n must be >= 1, got 0", lambda s: inject_gaussian_noise(s, 0, 1.0, 0)),
        ("inject", ["--kind", "gaussian", "--sigma", "-1"], "sigma must be >= 0, got -1.0",
         lambda s: inject_gaussian_noise(s, 1, -1.0, 0)),
        ("evaluate", ["--slack", "-1"], "slack must be >= 0, got -1",
         lambda s: _scored_with_slack(s, -1)),
        ("synth", ["--spikes", "-1"], "spike_count must be >= 0, got -1",
         lambda s: demo_corpus(spike_count=-1)),
        ("synth", ["--hist-cadence-ms", "0"], "hist_cadence_ms must be >= 1, got 0",
         lambda s: demo_corpus(hist_cadence_ms=0)),
        ("synth", ["--ion-cadence-ms", "0"], "ion_cadence_ms must be >= 1, got 0",
         lambda s: demo_corpus(ion_cadence_ms=0)),
        ("synth", ["--hist-points", "0"], "hist_points must be >= 1, got 0",
         lambda s: demo_corpus(hist_points=0)),
        ("synth", ["--hist-points", "-1"], "hist_points must be >= 1, got -1",
         lambda s: demo_corpus(hist_points=-1)),
        ("synth", ["--spike-magnitude", "nan"], "spike_magnitude must be finite, got nan",
         lambda s: demo_corpus(spike_magnitude=float("nan"))),
        ("synth", ["--spike-magnitude", "inf"], "spike_magnitude must be finite, got inf",
         lambda s: demo_corpus(spike_magnitude=float("inf"))),
    ],
    ids=["ar-order", "ls-window", "ra-k", "duration-ms", "noise-count", "sigma", "slack",
         "spikes", "hist-cadence-ms", "ion-cadence-ms", "hist-points-0", "hist-points-neg",
         "spike-magnitude-nan", "spike-magnitude-inf"],
)
def test_out_of_range_argument_is_typed_error(
    corpus_dir, tmp_path, capsys, command, flags, named, library_call
):
    argv = [command, "--out", str(tmp_path / "o"), *flags]
    if command != "synth":
        argv += ["--manifest", _manifest(corpus_dir)]
    if command in ("detect", "inject", "evaluate"):
        argv += ["--series", "HIST-44-S"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "o").exists()
    with pytest.raises(InvalidArgument, match=re.escape(named)):
        library_call(mkvalues(np.zeros(100), name="HIST-44-S"))


def test_overflowing_warped_cost_is_typed_error(tmp_path, capsys):
    # finite spikes whose squared difference from the ION level overflows float64
    assert main(["synth", "--out", str(tmp_path / "c"), "--spike-magnitude", "1e200"]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    argv = ["match", "--manifest", str(tmp_path / "c" / "manifest.json"),
            "--hist-step", "1", "--ion-step", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: warped cost overflows float64 for pair (ION-4-3472, HIST-40-S)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["pipeline"], "ION-4-3472"),
        (["detect", "--series", "HIST-44-S"], "HIST-44-S"),
        (["evaluate", "--series", "HIST-44-S", "--duration-ms", "7000"], "HIST-44-S"),
    ],
    ids=["pipeline", "detect", "evaluate"],
)
def test_too_short_series_is_named(tmp_path, capsys, argv, entry):
    # 10 HIST points, and one hourly ION point: too short for the default windows
    assert main(["synth", "--out", str(tmp_path / "c"), "--hist-points", "10"]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, "--manifest", str(tmp_path / "c" / "manifest.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: [a-zA-Z() 0-9]+ needs .* samples, got \d+ \(entry {entry}\)\n", err)
    assert not out.exists()


def test_failure_removes_partial_outputs(corpus_dir, tmp_path):
    out = tmp_path / "fail"
    # the oversized AR order fails detection, so no output may be written,
    # label.json included.
    rc = main(
        [
            "evaluate",
            "--manifest",
            _manifest(corpus_dir),
            "--series",
            "HIST-40-S",
            "--kind",
            "zero-run",
            "--duration-ms",
            "7000",
            "--ar-order",
            "999999",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["detect", "pipeline", "evaluate"])
def test_detector_flags_default_to_default_params(command):
    args = build_parser().parse_args([command, "--manifest", "m.json", "--out", "o",
                                      *(["--series", "S"] if command != "pipeline" else [])])
    assert _detector_params(args) == {kind: default_params(kind) for kind in DetectorKind}


def test_detector_flags_set_their_fields():
    args = build_parser().parse_args([
        "detect", "--manifest", "m.json", "--series", "S", "--out", "o",
        "--ar-order", "5", "--ar-k", "2.5", "--ra-window", "7", "--ra-k", "2.0",
        "--ls-window", "3", "--ls-k", "4.0",
    ])
    params = _detector_params(args)
    ar, ra, ls = (params[k] for k in (DetectorKind.AR, DetectorKind.ROLLING_AVERAGE,
                                      DetectorKind.LEVEL_SHIFT))
    assert (ar.order_p, ar.threshold_k) == (5, 2.5)
    assert (ra.window_w, ra.threshold_k) == (7, 2.0)
    assert (ls.window_w, ls.threshold_k) == (3, 4.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--manifest", "m.json", "--series", "S", "--out", "o", "--hist-step", "5"],
        ["match", "--manifest", "m.json", "--out", "o", "--seed", "1"],
    ],
    ids=["detect-hist-step", "match-seed"],
)
def test_flags_a_command_never_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_single_series_commands_ignore_broken_unrelated_entry(corpus_dir, tmp_path, capsys):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    for entry in manifest["entries"]:
        entry["path"] = str(corpus_dir / entry["path"])
    broken = {"system": "HIST", "name": "HIST-broken", "path": str(tmp_path / "missing.csv")}
    manifest["entries"].append(broken)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))

    base = ["--manifest", str(path), "--series", "HIST-40-S"]
    assert main(["detect", *base, "--out", str(tmp_path / "det"), *FAST_DETECTORS]) == 0
    assert main(["inject", *base, "--duration-ms", "7000", "--out", str(tmp_path / "inj")]) == 0
    assert main(["evaluate", *base, "--duration-ms", "7000", "--out", str(tmp_path / "ev"),
                 *FAST_DETECTORS]) == 0
    # commands over the whole corpus still fail on it
    assert main(["ingest", "--manifest", str(path)]) == 1
    capsys.readouterr()
    # an unknown name lists every manifest entry, the broken one included
    assert main(["detect", "--manifest", str(path), "--series", "NOPE",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "HIST-40-S" in err and "HIST-broken" in err


def test_manifest_error_names_entry_index(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [{"system": "ION", "path": "a.csv"}]}))
    assert main(["ingest", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert "missing key 'name'" in err and "(entry 0)" in err


@pytest.mark.parametrize("content", [None, "{not json", '{"no_pairs": []}'],
                         ids=["missing", "unparseable", "no-pairs"])
def test_report_without_readable_report_json_is_io_error(tmp_path, content):
    out = tmp_path / "out"
    if content is not None:
        out.mkdir()
        (out / "report.json").write_text(content)
    args = build_parser().parse_args(["report", "--out", str(out)])
    with pytest.raises(IoError) as exc:
        cmd_report(args)
    assert str(out / "report.json") in str(exc.value)


def test_report_does_not_create_out_dir(tmp_path, capsys):
    out = tmp_path / "nodir"
    assert main(["report", "--out", str(out)]) == 1
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["match", "pipeline"])
def test_recipe_flags_default_to_sampling_recipe(command):
    args = build_parser().parse_args([command, "--manifest", "m.json", "--out", "o"])
    assert _recipe(args) == SamplingRecipe(SamplingKind.STEP_SIZE)


def _pipeline(corpus_dir, out, *extra) -> int:
    return main(["pipeline", "--manifest", _manifest(corpus_dir), "--out", str(out),
                 "--top-n", "2", *MATCH_FLAGS, *FAST_DETECTORS, *extra])


def _snapshot(out) -> dict:
    """Every entry of out: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def _fail_nth_write(monkeypatch, n, exc):
    """Make the n-th Path.write_text call write half its text, then raise exc."""
    real = Path.write_text
    calls = []

    def write_text(self, text, *args, **kwargs):
        calls.append(self)
        if len(calls) == n:
            real(self, text[: len(text) // 2], *args, **kwargs)
            raise exc
        return real(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)


def test_failed_rerun_leaves_previous_outputs(corpus_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "pipe"
    assert _pipeline(corpus_dir, out) == 0
    before = _snapshot(out)
    assert sorted(before) == ["matches.csv", "matches.meta.json", "report.csv", "report.json"]

    _fail_nth_write(monkeypatch, 3, OSError("disk full"))
    # a different hist step and top-n change every output of the rerun
    assert _pipeline(corpus_dir, out, "--hist-step", "10", "--top-n", "1") == 1
    assert "disk full" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_interrupted_rerun_leaves_previous_outputs(corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "pipe"
    assert _pipeline(corpus_dir, out) == 0
    before = _snapshot(out)

    _fail_nth_write(monkeypatch, 3, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        _pipeline(corpus_dir, out, "--hist-step", "10", "--top-n", "1")
    assert _snapshot(out) == before


def test_output_name_that_is_a_directory_fails_before_writing(corpus_dir, tmp_path, capsys):
    out = tmp_path / "pipe"
    assert _pipeline(corpus_dir, out) == 0
    (out / "report.csv").unlink()
    (out / "report.csv").mkdir()
    before = _snapshot(out)

    assert _pipeline(corpus_dir, out, "--hist-step", "10", "--top-n", "1") == 1
    assert "cannot write" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_failed_synth_leaves_no_files(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    _fail_nth_write(monkeypatch, 3, OSError("disk full"))
    assert main(["synth", "--out", str(out), "--hist-points", "100"]) == 1
    assert not out.exists() or not any(out.iterdir())
