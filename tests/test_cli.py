import argparse
import csv
import inspect
import json
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from meterfuse import (
    Corpus,
    DetectorKind,
    DetectorParams,
    Metric,
    SamplingKind,
    SamplingRecipe,
    default_params,
    evaluate,
    fastdtw,
    inject_gaussian_noise,
    inject_zero_run,
    load_corpus,
    load_manifest,
    match_all,
    run_detector,
    SystemTag,
    TimeSeries,
)
from meterfuse import cli, dtw
from meterfuse.cli import _detector_params, _out_dir, _recipe, build_parser, cmd_report, main
from meterfuse.errors import EmptyWindow, InvalidArgument, IoError, TooShort
from meterfuse.ingest import series_to_csv, write_outputs
from meterfuse.merge import MergedSeries
from meterfuse.model import check_seed
from meterfuse.sampling import apply_recipe
from meterfuse.synth import (
    add_spikes, constant_series, corpus_files, demo_corpus, random_walk_series, write_corpus,
)

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


def test_synth_whose_timestamps_wrap_negative_writes_nothing(tmp_path, capsys):
    # 20 samples 1e18 ms apart pass int64's end, where int64 arithmetic would
    # wrap them below 0: the builder refuses the first series it builds
    out = tmp_path / "demo"
    cadence = str(10**18)
    argv = ["synth", "--out", str(out), "--hist-points", "20", "--hist-cadence-ms", cadence,
            "--ion-cadence-ms", cadence]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: sample 19 at a 1000000000000000000 ms cadence falls at 19000001600000000000, "
        "past int64 (entry HIST-23-S)\n"
    )
    assert not out.exists()


def test_synth_defaults_are_demo_corpus_defaults(tmp_path):
    out = tmp_path / "demo"
    assert main(["synth", "--out", str(out)]) == 0
    files = corpus_files(demo_corpus())
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    texts = {name: v if isinstance(v, str) else series_to_csv(v) for name, v in files.items()}
    # one flag per file: pytest's diff of two day-long CSVs takes minutes
    assert [name for name, text in texts.items() if (out / name).read_text() != text] == []


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


def test_match_first_n_recipe_ranks_the_first_n_samples(corpus_dir, tmp_path):
    # 12 of each series' samples: 12 of ION's 20 and of HIST's 2,400
    out = tmp_path / "match-first-n"
    assert main(["match", "--manifest", _manifest(corpus_dir), "--out", str(out),
                 "--recipe", "first-n", "--n-points", "12"]) == 0
    corpus = load_corpus(load_manifest(_manifest(corpus_dir)))
    first = Corpus({mid: TimeSeries(mid, s.t[:12], s.v[:12])
                    for mid, s in corpus.series_by_id.items()})
    run = match_all(first.partition(SystemTag.ION), first.partition(SystemTag.HIST))
    assert (out / "matches.csv").read_text().splitlines()[1:] == [
        f"{r.rank},{r.ion_id.name},{r.hist_id.name},{r.distance!r}" for r in run.results
    ]
    meta = json.loads((out / "matches.meta.json").read_text())
    assert (meta["recipe"]["kind"], meta["recipe"]["n_points"]) == ("first-n", 12)


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
    # each kind's size under the name it has for that kind, and nothing else
    assert report["detector_params"] == {
        "rolling_average": {"window_w": 5, "threshold_k": 3.0},
        "autoregression": {"order_p": 5, "threshold_k": 3.0},
        "level_shift": {"window_w": 3, "threshold_k": 6.0},
    }
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


def _header_only(tmp_path) -> str:
    """A manifest of one HIST series, HIST-E, whose file holds only its header."""
    (tmp_path / "E.csv").write_text("timestamp,value\n", encoding="utf-8")
    entry = {"system": "HIST", "name": "HIST-E", "path": "E.csv"}
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    return str(tmp_path / "manifest.json")


def test_inject_into_header_only_series_is_typed_and_named(tmp_path, capsys):
    manifest = _header_only(tmp_path)
    for command in ("inject", "evaluate"):
        for kind in ("zero-run", "gaussian"):
            argv = [command, "--manifest", manifest, "--series", "HIST-E",
                    "--kind", kind, "--out", str(tmp_path / "o")]
            args = build_parser().parse_args(argv)
            with pytest.raises(EmptyWindow) as exc:
                args.func(args)
            assert exc.value.entry == "HIST-E"
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: series is empty (entry HIST-E)\n"
    assert not (tmp_path / "o").exists()


def test_detect_on_header_only_series_is_too_short_and_named(tmp_path, capsys):
    # the noise floor of no values is 0, and the first detector then refuses the series
    argv = ["detect", "--manifest", _header_only(tmp_path), "--series", "HIST-E",
            "--out", str(tmp_path / "o")]
    args = build_parser().parse_args(argv)
    with pytest.raises(TooShort) as exc:
        args.func(args)
    assert exc.value.entry == "HIST-E"
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: rolling average needs more than 10 samples, got 0 (entry HIST-E)\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["inject", "evaluate"])
def test_noise_count_past_series_length_names_entry(corpus_dir, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--manifest", _manifest(corpus_dir), "--series", "HIST-44-S",
                 "--kind", "gaussian", "--noise-count", "2401", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: requested 2401 injections into 2400 samples (entry HIST-44-S)\n"
    assert not out.exists()


def test_evaluate_default_slack_is_each_detectors_size(corpus_dir, tmp_path, capsys):
    rc = main([
        "evaluate", "--manifest", _manifest(corpus_dir), "--series", "HIST-40-S",
        "--out", str(tmp_path / "eval"), "--ar-order", "4", "--ra-window", "7", "--ls-window", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for name, slack in (("autoregression", 4), ("rolling_average", 7), ("level_shift", 3)):
        assert re.search(rf"^{name}: .* \(slack {slack}\)$", out, re.M), (name, out)


def test_pipeline_all_constant_corpus_reports_zero_counts(tmp_path):
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


@pytest.mark.parametrize("name", ['Feeder 4, "kW"', "Feeder 4\nkW", "Feeder 4\r\nkW"],
                         ids=["comma-quote", "line-break", "crlf"])
def test_tables_quote_names_that_need_it(corpus_dir, tmp_path, name):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    for entry in manifest["entries"]:
        entry["path"] = str(corpus_dir / entry["path"])
        if entry["name"] == "HIST-44-S":
            entry["name"] = name
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    names = {entry["name"] for entry in manifest["entries"]}
    base = ["--manifest", str(path), *MATCH_FLAGS]
    match, pipe = tmp_path / "match", tmp_path / "pipe"
    assert main(["match", *base, "--out", str(match)]) == 0
    # every pair, so every name reaches report.csv
    assert main(["pipeline", *base, "--top-n", "6", *FAST_DETECTORS, "--out", str(pipe)]) == 0

    def rows(table: Path) -> list[list[str]]:
        with open(table, newline="", encoding="utf-8") as f:
            header, *body = csv.reader(f)
        assert {len(row) for row in body} == {len(header)}
        return body

    for matches in (rows(match / "matches.csv"), rows(pipe / "matches.csv")):
        assert {row[1] for row in matches} | {row[2] for row in matches} == names
    report = rows(pipe / "report.csv")
    ion, hist, merged = ([row[1] for row in report[i::3]] for i in range(3))
    assert set(ion) | set(hist) == names
    assert merged == [f"{a}+{b}" for a, b in zip(ion, hist)]
    before = (pipe / "report.csv").read_bytes()
    (pipe / "report.csv").unlink()
    assert main(["report", "--out", str(pipe)]) == 0
    assert (pipe / "report.csv").read_bytes() == before


@pytest.mark.parametrize("name, shown", [("Feeder 4\rkW", r"Feeder 4\rkW"), ("Feeder 4\nkW", r"Feeder 4\nkW"),
                                         ("F\t4\x1b[2J\x85", r"F\t4\x1b[2J\x85")],
                         ids=["bare-cr", "line-feed", "tab-escape-nel"])
def test_error_naming_an_entry_is_one_line(corpus_dir, tmp_path, capsys, name, shown):
    # a bare CR is refused by name; the others fail on a missing file, named by entry
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    manifest["entries"][0].update(name=name, path=str(tmp_path / "missing.csv"))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["ingest", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" (entry {shown})\n")
    assert err.count("\n") == 1 and not re.search(r"[\x00-\x09\x0b-\x1f\x7f-\x9f]", err)


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
    assert "NOPE" in err and "'HIST-40-S'" in err
    assert err.endswith("(entry NOPE)\n")


def test_missing_manifest_exits_nonzero(tmp_path, capsys):
    rc = main(["match", "--manifest", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["match", "--radius", "-1", "--hist-step", "100"], "radius must be >= 0, got -1"),
        (["match", "--recipe", "first-n", "--n-points", "0"], "n_points must be >= 1, got 0"),
        (["pipeline", "--top-n", "0"], "--top-n must be >= 1, got 0"),
        (["match", "--hist-step", "0"], "hist_step must be >= 1, got 0"),
        (["pipeline", "--ion-step", "0"], "ion_step must be >= 1, got 0"),
    ],
    ids=["negative-radius", "zero-n-points", "zero-top-n", "zero-hist-step", "zero-ion-step"],
)
def test_out_of_range_match_argument_is_typed_error(corpus_dir, tmp_path, capsys, flags, named):
    command, *flags = flags
    argv = [command, "--manifest", _manifest(corpus_dir), "--out", str(tmp_path / "o"), *flags]
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidArgument, match=named):  # a MeterFuseError, not the catch-all
        args.func(args)
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
         lambda s: DetectorParams(DetectorKind.AR, size=0, threshold_k=3.0)),
        ("pipeline", ["--ls-window", "0"], "level_shift window_w must be >= 1, got 0",
         lambda s: DetectorParams(DetectorKind.LEVEL_SHIFT, size=0, threshold_k=3.0)),
        ("evaluate", ["--ra-k", "0"], "rolling_average threshold_k must be > 0, got 0.0",
         lambda s: DetectorParams(DetectorKind.ROLLING_AVERAGE, size=10, threshold_k=0.0)),
        ("pipeline", ["--ra-k", "nan"], "rolling_average threshold_k must be finite, got nan",
         lambda s: DetectorParams(DetectorKind.ROLLING_AVERAGE, size=10, threshold_k=float("nan"))),
        ("pipeline", ["--ls-k", "inf"], "level_shift threshold_k must be finite, got inf",
         lambda s: DetectorParams(DetectorKind.LEVEL_SHIFT, size=5, threshold_k=float("inf"))),
        ("inject", ["--duration-ms", "0"], "duration_ms must be > 0, got 0",
         lambda s: inject_zero_run(s, int(s.t[0]), 0)),
        ("inject", ["--kind", "gaussian", "--noise-count", "0"],
         "noise count n must be >= 1, got 0", lambda s: inject_gaussian_noise(s, 0, 1.0, 0)),
        ("inject", ["--kind", "gaussian", "--sigma", "-1"], "sigma must be >= 0, got -1.0",
         lambda s: inject_gaussian_noise(s, 1, -1.0, 0)),
        ("inject", ["--kind", "gaussian", "--sigma", "nan"], "sigma must be finite, got nan",
         lambda s: inject_gaussian_noise(s, 1, float("nan"), 0)),
        ("evaluate", ["--kind", "gaussian", "--sigma", "inf"], "sigma must be finite, got inf",
         lambda s: inject_gaussian_noise(s, 1, float("inf"), 0)),
        ("evaluate", ["--slack", "-1"], "slack must be >= 0, got -1",
         lambda s: _scored_with_slack(s, -1)),
        ("synth", ["--spikes", "-1"], "spike_count must be >= 0, got -1",
         lambda s: demo_corpus(spike_count=-1)),
        ("synth", ["--hist-cadence-ms", "0"], "hist_cadence_ms must be >= 1, got 0",
         lambda s: demo_corpus(hist_cadence_ms=0)),
        ("synth", ["--ion-cadence-ms", "0"], "ion_cadence_ms must be >= 1, got 0",
         lambda s: demo_corpus(ion_cadence_ms=0)),
        ("synth", ["--ion-cadence-ms", "7000"],
         "ion_cadence_ms must be a whole multiple of hist_cadence_ms 5000, got 7000",
         lambda s: demo_corpus(hist_cadence_ms=5000, ion_cadence_ms=7000)),
        ("synth", ["--ion-cadence-ms", "1"],
         "ion_cadence_ms must be a whole multiple of hist_cadence_ms 5000, got 1",
         lambda s: demo_corpus(ion_cadence_ms=1)),
        ("synth", ["--hist-points", "0"], "hist_points must be >= 1, got 0",
         lambda s: demo_corpus(hist_points=0)),
        ("synth", ["--hist-points", "-1"], "hist_points must be >= 1, got -1",
         lambda s: demo_corpus(hist_points=-1)),
        ("synth", ["--spike-magnitude", "nan"], "spike_magnitude must be finite, got nan",
         lambda s: demo_corpus(spike_magnitude=float("nan"))),
        ("synth", ["--spike-magnitude", "inf"], "spike_magnitude must be finite, got inf",
         lambda s: demo_corpus(spike_magnitude=float("inf"))),
        ("synth", ["--out", ""], "--out must not be empty", lambda s: _out_dir("")),
        ("synth", ["--seed", "-1"], "seed must be >= 0, got -1", lambda s: demo_corpus(seed=-1)),
        ("synth", ["--seed", "-1"], "seed must be >= 0, got -1",
         lambda s: random_walk_series("W", SystemTag.HIST, 10, 1000, -1)),
        ("synth", ["--seed", "-1"], "seed must be >= 0, got -1",
         lambda s: add_spikes(s, 1, 1.0, -1)),
        ("inject", ["--kind", "gaussian", "--seed", "-1"], "seed must be >= 0, got -1",
         lambda s: inject_gaussian_noise(s, 1, 1.0, -1)),
        ("evaluate", ["--kind", "zero-run", "--seed", "-1"], "seed must be >= 0, got -1",
         lambda s: check_seed(-1)),
    ],
    ids=["ar-order", "ls-window", "ra-k", "ra-k-nan", "ls-k-inf", "duration-ms", "noise-count",
         "sigma", "sigma-nan", "sigma-inf", "slack",
         "spikes", "hist-cadence-ms", "ion-cadence-ms", "ion-cadence-ms-7000",
         "ion-cadence-ms-1", "hist-points-0", "hist-points-neg",
         "spike-magnitude-nan", "spike-magnitude-inf", "out-empty",
         "synth-seed", "random-walk-seed", "add-spikes-seed", "inject-seed", "evaluate-seed"],
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


@pytest.mark.parametrize("command", ["inject", "evaluate"])
def test_overflowing_noise_draw_names_entry(corpus_dir, tmp_path, capfd, command):
    # sigma 1e308 is finite, but draws beyond 1.8 sigma overflow float64;
    # nothing reaches the detectors, so LAPACK prints nothing either
    out = tmp_path / "o"
    assert main([command, "--manifest", _manifest(corpus_dir), "--out", str(out),
                 "--series", "HIST-44-S", "--kind", "gaussian", "--sigma", "1e308"]) == 1
    err = capfd.readouterr().err
    assert re.fullmatch(r"error: non-finite value at sample index \d+ \(entry HIST-44-S\)\n", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "evaluate"])
def test_detector_overflow_is_one_typed_line_naming_entry(tmp_path, capfd, command):
    # spikes of 1.7e308 are finite, but the AR fit's triangle overflows:
    # LAPACK printed to stdout and lstsq raised an untyped LinAlgError
    corpus = tmp_path / "big"
    assert main(["synth", "--out", str(corpus), "--seed", "7", "--hist-points", "2000",
                 "--spike-magnitude", "1.7e308"]) == 0
    capfd.readouterr()
    out = tmp_path / "o"
    assert main([command, "--manifest", str(corpus / "manifest.json"),
                 "--series", "HIST-40-S", "--out", str(out)]) == 1
    stdout, err = capfd.readouterr()
    assert stdout == ""
    assert re.fullmatch(r"error: [^\n]*\(entry HIST-40-S\)\n", err)
    assert not out.exists()


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
    assert (ar.size, ar.threshold_k) == (5, 2.5)
    assert (ra.size, ra.threshold_k) == (7, 2.0)
    assert (ls.size, ls.threshold_k) == (3, 4.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--manifest", "m.json", "--series", "S", "--out", "o", "--hist-step", "5"],
        ["match", "--manifest", "m.json", "--out", "o", "--seed", "1"],
        ["pipeline", "--manifest", "m.json", "--out", "o", "--seed", "1"],
    ],
    ids=["detect-hist-step", "match-seed", "pipeline-seed"],
)
def test_flags_a_command_never_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def _subcommands(parser) -> dict:
    """Each subcommand's parser, by name, in the order they were added."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _every_flag(p) -> list[str]:
    """Every flag of the subcommand parser p, each given a value of its type."""
    argv = []
    for action in p._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        argv.append(action.option_strings[0])
        if isinstance(action, argparse._StoreTrueAction):
            continue
        if action.choices:
            argv.append(action.choices[-1])
        else:
            argv.append({int: "3", float: "2.5"}.get(action.type, "x"))
    return argv


def test_a_command_parses_alike_with_only_its_own_flags():
    full = build_parser()
    for command, p in _subcommands(full).items():
        required = [flag for a in p._actions if a.required for flag in (a.option_strings[0], "x")]
        for argv in ([command, *required], [command, *_every_flag(p)]):
            assert build_parser(command).parse_args(argv) == full.parse_args(argv), argv


def test_help_lists_every_subcommand(capsys):
    assert len(_subcommands(build_parser())) == 8
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    names = "{synth,ingest,match,detect,pipeline,inject,evaluate,report}"
    assert names in capsys.readouterr().out


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
    # commands over the whole corpus still fail on it, and name it
    assert main(["ingest", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {broken['path']}: ")
    assert err.endswith(" (entry HIST-broken)\n")
    # an unknown name lists every manifest entry, the broken one included
    assert main(["detect", "--manifest", str(path), "--series", "NOPE",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "HIST-40-S" in err and "HIST-broken" in err


@pytest.mark.parametrize("extra", [[], ["--z-normalize"]], ids=["raw", "z-normalized"])
def test_empty_sampled_series_names_entry(corpus_dir, tmp_path, capsys, extra):
    # a window between two hourly ION samples holds HIST samples only
    start = 1_600_000_000_000 + 5_000
    out = tmp_path / "o"
    assert main(["match", "--manifest", _manifest(corpus_dir), "--out", str(out),
                 "--recipe", "date-range", "--range-start", str(start),
                 "--range-end", str(start + 60_000), *extra]) == 1
    assert capsys.readouterr().err == "error: sampled series is empty (entry ION-4-3472)\n"
    assert not out.exists()


def test_manifest_error_names_entry_index(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": [{"system": "ION", "path": "a.csv"}]}))
    assert main(["ingest", "--manifest", str(path)]) == 1
    err = capsys.readouterr().err
    assert "missing key 'name'" in err and "(entry 0)" in err


@pytest.mark.parametrize("command", [["ingest"], ["inject", "--series", "X"]],
                         ids=["ingest", "inject"])
def test_name_shared_across_systems_is_rejected(tmp_path, capsys, command):
    (tmp_path / "x.csv").write_text("timestamp,value\n1000,1\n2000,2\n3000,3\n")
    entries = [{"system": system, "name": "X", "path": "x.csv"} for system in ("ION", "HIST")]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "out"
    assert main([*command, "--manifest", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "duplicate measurement id 'X'" in err and "(entry X)" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["match", "pipeline"])
def test_dtw_flags_default_to_match_all(command):
    args = build_parser().parse_args([command, "--manifest", "m.json", "--out", "o"])
    defaults = inspect.signature(match_all).parameters
    assert (args.radius, Metric(args.metric), args.z_normalize) == tuple(
        defaults[name].default for name in ("radius", "metric", "normalize")
    )


def _pipeline(corpus_dir, out, *extra) -> int:
    return main(["pipeline", "--manifest", _manifest(corpus_dir), "--out", str(out),
                 "--top-n", "2", *MATCH_FLAGS, *FAST_DETECTORS, *extra])


def _view_name(series) -> str:
    return series.name if isinstance(series, MergedSeries) else series.id.name


def _no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("failure", ["raises", "exits", "cannot fork"])
def test_failed_worker_gives_the_serial_first_error(
    corpus_dir, tmp_path, monkeypatch, capsys, failure
):
    # Each pair's ION series, then its HIST series (each the first time a
    # pair holds it), then its merged view, all in the CLI process: a
    # detector that raises or exits in any other process, or an os.fork
    # that cannot start one, changes no error line.  A failing merged view
    # whose series both passed needs the patched _detect: real detectors
    # fail only on length, and a merged view is as long as its two series.
    assert _pipeline(corpus_dir, tmp_path / "ok", "--top-n", "4") == 0
    report = json.loads((tmp_path / "ok" / "report.json").read_text())
    pairs = [(p["ion"], p["hist"]) for p in report["pairs"]]
    later = next(name for pair in pairs[1:] for name in pair if name not in pairs[0])
    first_merged = "+".join(pairs[0])
    parent, detect = os.getpid(), cli._detect
    failing = set()

    def fails(params, series):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("detected outside the CLI process")
            os._exit(3)
        if _view_name(series) in failing:
            raise TooShort(f"{_view_name(series)} fails")
        return detect(params, series)

    monkeypatch.setattr(cli, "_detect", fails)
    if failure == "cannot fork":
        monkeypatch.setattr(os, "fork", _no_fork)
    # rank 1's merged view comes before every series first met after rank 1
    for failing_views in ({first_merged, later}, {first_merged}):
        failing.clear()
        failing.update(failing_views)
        capsys.readouterr()
        assert _pipeline(corpus_dir, tmp_path / "o", "--top-n", "4") == 1
        assert capsys.readouterr().err == f"error: {first_merged} fails\n"
        assert not (tmp_path / "o").exists()


def test_too_short_series_of_a_later_pair_fails_alike_on_one_and_two_cpus(tmp_path, capsys):
    # The detectors run unpatched: rank 2's ION series has 8 samples, too
    # few for the default 10-sample rolling average, while rank 1's views
    # are all long enough.  Only `write_outputs` reads the CPU count, for
    # series files; CI runs the same corpus with all CPUs and under
    # `taskset -c 0` and compares the lines.
    corpus = Corpus()
    for name, system, value, n, cadence in [
        ("ION-1", SystemTag.ION, 5.0, 30, 600_000),
        ("ION-2", SystemTag.ION, 0.1, 8, 600_000),
        ("HIST-1", SystemTag.HIST, 5.0, 2400, 5_000),
        ("HIST-2", SystemTag.HIST, 0.0, 2400, 5_000),
    ]:
        s = constant_series(name, system, value, n, cadence)
        corpus.series_by_id[s.id] = s
    manifest = write_corpus(corpus, tmp_path / "c")
    assert main(["match", "--manifest", str(manifest), "--out", str(tmp_path / "m"),
                 *MATCH_FLAGS]) == 0
    ranked = (tmp_path / "m" / "matches.csv").read_text().splitlines()[1:3]
    assert [row.split(",")[1:3] for row in ranked] == [["ION-1", "HIST-1"], ["ION-2", "HIST-2"]]
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["pipeline", "--manifest", str(manifest), "--out", str(out),
                 "--top-n", "2", *MATCH_FLAGS]) == 1
    assert capsys.readouterr().err == (
        "error: rolling average needs more than 10 samples, got 8 (entry ION-2)\n"
    )
    assert not out.exists()


def _track_held_series(monkeypatch, corpus_dir):
    """Hold weak references to every series cli's load_corpus returns.

    Returns a function naming the loaded series still alive, the names
    alive at each match_all call, and the names of the ION entries, which
    --ion-step 1 does not thin.
    """
    loaded, at_ranking = [], []
    load, rank = cli.load_corpus, dtw.match_all

    def tracked(*args):
        corpus = load(*args)
        loaded.extend(weakref.ref(s) for s in corpus.series_by_id.values())
        return corpus

    def alive() -> set[str]:
        return {s.id.name for s in (ref() for ref in loaded) if s is not None}

    def ranking(*args, **kwargs):
        at_ranking.append(alive())
        return rank(*args, **kwargs)

    monkeypatch.setattr(cli, "load_corpus", tracked)
    monkeypatch.setattr(dtw, "match_all", ranking)
    entries = load_manifest(_manifest(corpus_dir)).entries
    return alive, at_ranking, {e.id.name for e in entries if e.id.system is SystemTag.ION}


@pytest.mark.parametrize("top_n", [1, 2])
def test_pipeline_detects_holding_only_the_top_pairs_series(
    corpus_dir, tmp_path, monkeypatch, top_n
):
    # Ranking holds no series that --hist-step 20 thins at full resolution,
    # and each detection holds only the series of the pair it reports.
    alive, at_ranking, ion_names = _track_held_series(monkeypatch, corpus_dir)
    at_detect = []
    detect = cli._detect

    def recorded(params, series):
        at_detect.append((_view_name(series), alive()))
        return detect(params, series)

    monkeypatch.setattr(cli, "_detect", recorded)
    assert _pipeline(corpus_dir, tmp_path / "o", "--top-n", str(top_n)) == 0
    pairs = json.loads((tmp_path / "o" / "report.json").read_text())["pairs"]
    assert len(pairs) == top_n
    assert len(at_ranking) == 1 and at_ranking[0] <= ion_names
    reported = 0  # pairs whose merged view has been detected
    for name, held in at_detect:
        ion, hist = pairs[reported]["ion"], pairs[reported]["hist"]
        assert held <= {ion, hist}
        if name == f"{ion}+{hist}":
            reported += 1
        else:
            assert name in held
    assert reported == top_n


def test_match_ranks_holding_no_thinned_series_at_full_resolution(
    corpus_dir, tmp_path, monkeypatch
):
    alive, at_ranking, ion_names = _track_held_series(monkeypatch, corpus_dir)
    assert main(["match", "--manifest", _manifest(corpus_dir), "--out", str(tmp_path / "m"),
                 *MATCH_FLAGS]) == 0
    assert len(at_ranking) == 1 and at_ranking[0] <= ion_names
    assert alive() == set()


@pytest.mark.parametrize("edit", ["same length", "longer"])
def test_series_file_rewritten_after_ranking_fails_the_pipeline(
    tmp_path, monkeypatch, capsys, edit
):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--hist-points", "2400",
                 "--ion-cadence-ms", "600000"]) == 0
    rank, rewritten = dtw.match_all, []

    def rewrite_rank_1_hist(*args, **kwargs):
        run = rank(*args, **kwargs)
        path = corpus / f"{run.results[0].hist_id.name}.csv"
        text = path.read_text(encoding="utf-8")
        if edit == "same length":  # another last digit: only the CRC-32 tells
            text = text[:-2] + ("2" if text[-2] == "1" else "1") + "\n"
        else:
            text += text.splitlines()[-1] + "\n"
        path.write_text(text, encoding="utf-8")
        rewritten.append(run.results[0].hist_id.name)
        return run

    monkeypatch.setattr(dtw, "match_all", rewrite_rank_1_hist)
    capsys.readouterr()
    assert _pipeline(corpus, tmp_path / "o") == 1
    (hist,) = rewritten
    assert capsys.readouterr().err == (
        f"error: cannot reload {corpus / hist}.csv: its bytes changed since it was first"
        f" loaded (entry {hist})\n"
    )
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["synth", "pipeline", "report"])
def test_failed_write_prints_no_success_line(corpus_dir, tmp_path, capsys, command):
    # an output name that is a directory fails the write, after the command ran
    out = tmp_path / "out"
    if command == "synth":
        (out / "manifest.json").mkdir(parents=True)
        argv = ["synth", "--out", str(out), "--hist-points", "50"]
    else:
        assert _pipeline(corpus_dir, out) == 0
        (out / "report.csv").unlink()
        (out / "report.csv").mkdir()
        argv = ["pipeline", "--manifest", _manifest(corpus_dir), "--out", str(out),
                "--top-n", "2", *MATCH_FLAGS, *FAST_DETECTORS]
        if command == "report":
            argv = ["report", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_out_under_a_regular_file_is_a_typed_write_error(corpus_dir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "sub"
    argv = ["synth", "--hist-points", "50"]
    if command == "pipeline":
        argv = ["pipeline", "--manifest", _manifest(corpus_dir), "--top-n", "2",
                *MATCH_FLAGS, *FAST_DETECTORS]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: cannot write {re.escape(str(out))}: [^\n]*\n", captured.err)
    assert blocker.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [blocker]
    with pytest.raises(ChildProcessError):  # no worker left running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert list((corpus_dir / ".meterfuse-cache").glob(".*.tmp")) == []


def test_success_line_follows_the_write(tmp_path, capsys, monkeypatch):
    out = tmp_path / "corpus"
    real = write_outputs

    def write_then_say(*args):
        real(*args)
        print("written")

    monkeypatch.setattr(cli, "write_outputs", write_then_say)
    assert main(["synth", "--out", str(out), "--hist-points", "50"]) == 0
    assert capsys.readouterr().out == f"written\nwrote 5 series and {out / 'manifest.json'}\n"
