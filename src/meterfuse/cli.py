"""Command-line front end tying the pipeline together.

Subcommands: synth, ingest, match, detect, pipeline, inject, evaluate,
report.  Every output lands under --out with a fixed filename
(matches.csv, matches.meta.json, report.json, report.csv,
eval.<detector>.json, ...); the directory is created at the first write.
A command exits 0 only when all of its outputs were written; on failure,
partially written files are removed.  All commands are deterministic for
given flags; wall-clock timing appears only in the .meta sidecars.

Each command takes only the flags it reads: sampling and DTW flags on
match and pipeline, detector flags on detect, pipeline and evaluate,
--seed on synth, inject and evaluate (and pipeline, where it is
accepted but unused).  Detector flags default to
`detectors.default_params`.  detect, inject and evaluate load only the
manifest entry named by --series.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, detectors, injection, synth
from .detectors import DetectorKind, DetectorParams, default_params, run_detector
from .dtw import MatchRun, Metric, match_all
from .errors import IoError, MeterFuseError
from .ingest import Corpus, load_corpus, load_manifest, series_to_csv
from .merge import merge_pair
from .model import SystemTag, TimeSeries
from .sampling import SamplingKind, SamplingRecipe


class _Outputs:
    """Tracks files written by one command so failures can clean up."""

    def __init__(self, out_dir: str | Path | None):
        self.dir = Path(out_dir) if out_dir else None
        self.created: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        assert self.dir is not None, "command requires --out"
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self.created.append(path)
        return path

    def cleanup(self):
        for path in self.created:
            path.unlink(missing_ok=True)


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _detector_flags(kind: DetectorKind) -> dict[str, str]:
    """argparse dest -> DetectorParams field of one detector's flags (--ar-order, --ar-k, ...)."""
    tag = analysis.DETECTOR_COLUMNS[kind]
    size = ("order", "order_p") if kind is DetectorKind.AR else ("window", "window_w")
    return {f"{tag}_{size[0]}": size[1], f"{tag}_k": "threshold_k"}


def _detector_params(args) -> dict[DetectorKind, DetectorParams]:
    return {
        kind: replace(
            default_params(kind),
            **{field: getattr(args, dest) for dest, field in _detector_flags(kind).items()},
        )
        for kind in analysis.DETECTOR_COLUMNS
    }


def _load_series(args) -> TimeSeries:
    """Load only the manifest entry named by --series."""
    return load_corpus(load_manifest(args.manifest).select(args.series)).get(args.series)


def _run_match(args) -> tuple[Corpus, MatchRun, dict[str, str]]:
    """Rank every cross-system pair; returns the corpus, the run and the matches.* texts."""
    recipe = SamplingRecipe(
        kind=SamplingKind(args.recipe),
        hist_step=args.hist_step,
        ion_step=args.ion_step,
        n_points=args.n_points,
        range_start=args.range_start,
        range_end=args.range_end,
    )
    corpus = load_corpus(load_manifest(args.manifest))
    run = match_all(
        corpus.partition(SystemTag.ION),
        corpus.partition(SystemTag.HIST),
        recipe,
        radius=args.radius,
        metric=Metric(args.metric),
        normalize=args.z_normalize,
    )
    lines = ["rank,ion_name,hist_name,distance"]
    for r in run.results:
        lines.append(f"{r.rank},{r.ion_id.name},{r.hist_id.name},{r.distance!r}")
    meta = {
        "recipe": {**asdict(recipe), "kind": recipe.kind.value},
        "radius": args.radius,
        "metric": args.metric,
        "z_normalize": args.z_normalize,
        "pairs": len(run.results),
        "elapsed_seconds": run.elapsed_seconds,
        "cells_evaluated": run.cells_evaluated,
        "pair_cells_evaluated": [
            {"ion_name": r.ion_id.name, "hist_name": r.hist_id.name, "cells": r.cells_evaluated}
            for r in run.results
        ],
    }
    files = {"matches.csv": "\n".join(lines) + "\n", "matches.meta.json": _json(meta)}
    return corpus, run, files


def cmd_match(args, outputs: _Outputs) -> int:
    _, run, files = _run_match(args)
    for name, text in files.items():
        outputs.write_text(name, text)

    print("rank  distance      ion            hist")
    for r in run.results[:10]:
        print(f"{r.rank:<5d} {r.distance:<13.6g} {r.ion_id.name:<14s} {r.hist_id.name}")
    print(f"match loop: {run.elapsed_seconds:.3f} s over {len(run.results)} pairs")
    return 0


def cmd_pipeline(args, outputs: _Outputs) -> int:
    if args.top_n < 1:
        raise MeterFuseError("--top-n must be >= 1")
    params = _detector_params(args)
    corpus, run, files = _run_match(args)

    top_n = args.top_n
    if top_n > len(run.results):
        print(
            f"warning: top-n {top_n} exceeds {len(run.results)} pairs; using all",
            file=sys.stderr,
        )
        top_n = len(run.results)
    top = run.results[:top_n]

    pair_docs = []
    for match in top:
        ion = corpus.series_by_id[match.ion_id]
        hist = corpus.series_by_id[match.hist_id]
        merged = merge_pair(ion, hist)
        sets = {
            kind: (run_detector(p, ion), run_detector(p, hist), run_detector(p, merged))
            for kind, p in params.items()
        }
        report = analysis.build_report(ion.id.name, hist.id.name, sets)
        doc = analysis.report_to_dict(report)
        doc["rank"] = match.rank
        doc["distance"] = match.distance
        doc["stats"] = {
            "ion": asdict(analysis.describe(ion)),
            "hist": asdict(analysis.describe(hist)),
            "merged": asdict(analysis.describe(merged)),
        }
        pair_docs.append(doc)

    report_doc = {
        "detector_params": {
            kind.value: {f: v for f, v in asdict(p).items() if f != "kind"}
            for kind, p in params.items()
        },
        "top_n": top_n,
        "pairs": pair_docs,
    }
    files["report.json"] = _json(report_doc)
    files["report.csv"] = analysis.report_csv(pair_docs)
    for name, text in files.items():
        outputs.write_text(name, text)
    print(f"pipeline: {len(top)} pairs reported to {outputs.dir}")
    return 0


def cmd_detect(args, outputs: _Outputs) -> int:
    params = _detector_params(args)
    series = _load_series(args)
    counts = {}
    for kind, tag in analysis.DETECTOR_COLUMNS.items():
        result = run_detector(params[kind], series)
        outputs.write_text(f"anomalies.{tag}.csv", detectors.anomalies_to_csv(result, series))
        counts[kind.value] = result.count
    outputs.write_text("detect.json", _json({"series": args.series, "counts": counts}))
    for name, count in counts.items():
        print(f"{name}: {count} anomalies")
    return 0


def _inject(args, series: TimeSeries) -> tuple[TimeSeries, injection.InjectionLabel]:
    if args.kind == "zero-run":
        at = args.at if args.at is not None else int(series.t[len(series) // 2])
        duration = args.duration_ms
        if duration is None:
            duration = injection.draw_zero_run_duration_ms(np.random.default_rng(args.seed))
        return injection.inject_zero_run(series, at, duration)
    return injection.inject_gaussian_noise(series, args.noise_count, args.sigma, args.seed)


def cmd_inject(args, outputs: _Outputs) -> int:
    injected, label = _inject(args, _load_series(args))
    outputs.write_text("injected.csv", series_to_csv(injected))
    outputs.write_text("label.json", injection.label_to_json(label))
    print(f"injected {label.kind.value} into {args.series}: {len(label.affected)} samples")
    return 0


def cmd_evaluate(args, outputs: _Outputs) -> int:
    params = _detector_params(args)
    injected, label = _inject(args, _load_series(args))

    outputs.write_text("label.json", injection.label_to_json(label))
    for kind, tag in analysis.DETECTOR_COLUMNS.items():
        p = params[kind]
        result = run_detector(p, injected)
        slack = args.slack
        if slack is None:
            slack = p.order_p if kind is DetectorKind.AR else p.window_w
        score = injection.evaluate(result, label, slack=slack)
        outputs.write_text(f"eval.{tag}.json", injection.score_to_json(score))
        print(
            f"{kind.value}: precision {score.precision:.3f} recall {score.recall:.3f} "
            f"f1 {score.f1:.3f} (slack {slack})"
        )
    return 0


def cmd_ingest(args, outputs: _Outputs) -> int:
    corpus = load_corpus(load_manifest(args.manifest))
    ion = corpus.partition(SystemTag.ION)
    hist = corpus.partition(SystemTag.HIST)
    summary = {
        "entries": {s.id.name: len(s) for part in (ion, hist) for s in part},
        "ion_series": len(ion),
        "hist_series": len(hist),
    }
    if outputs.dir:
        outputs.write_text("ingest.json", _json(summary))
    for name, count in sorted(summary["entries"].items()):
        print(f"{name}: {count} samples")
    print(f"{len(ion)} ION series, {len(hist)} HIST series")
    return 0


def cmd_synth(args, outputs: _Outputs) -> int:
    corpus = synth.demo_corpus(
        seed=args.seed,
        hist_points=args.hist_points,
        spike_count=args.spikes,
        spike_magnitude=args.spike_magnitude,
        hist_cadence_ms=args.hist_cadence_ms,
        ion_cadence_ms=args.ion_cadence_ms,
    )
    manifest_path = synth.write_corpus(corpus, outputs.dir)
    print(f"wrote {len(corpus)} series and {manifest_path}")
    return 0


def cmd_report(args, outputs: _Outputs) -> int:
    report_path = outputs.dir / "report.json"
    try:
        text = analysis.report_csv(json.loads(report_path.read_text(encoding="utf-8"))["pairs"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise IoError(str(report_path), e) from None
    outputs.write_text("report.csv", text)
    print(f"rebuilt report.csv from {report_path}")
    return 0


def _add_recipe_flags(p: argparse.ArgumentParser):
    p.add_argument("--recipe", choices=["step", "first-n", "date-range"], default="step")
    p.add_argument("--hist-step", type=int, default=1)
    p.add_argument("--ion-step", type=int, default=1)
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--range-start", type=int, default=0)
    p.add_argument("--range-end", type=int, default=0)


def _add_dtw_flags(p: argparse.ArgumentParser):
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--metric", choices=["l1", "l2"], default="l2")
    p.add_argument("--z-normalize", action="store_true")


def _add_detector_flags(p: argparse.ArgumentParser):
    for kind in analysis.DETECTOR_COLUMNS:
        defaults = default_params(kind)
        for dest, field in _detector_flags(kind).items():
            default = getattr(defaults, field)
            p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)


def _add_injection_flags(p: argparse.ArgumentParser):
    p.add_argument("--series", required=True, help="measurement name to inject into")
    p.add_argument("--kind", choices=["zero-run", "gaussian"], default="zero-run")
    p.add_argument("--at", type=int, default=None, help="zero-run start (epoch ms)")
    p.add_argument("--duration-ms", type=int, default=None)
    p.add_argument("--noise-count", type=int, default=10)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfuse",
        description="Match, merge, and scan overlapping two-system meter series for anomalies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str, *flag_sets, manifest: bool = True,
            out_required: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", required=out_required, help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True)
        for add_flags in flag_sets:
            add_flags(p)
        return p

    p = add("synth", cmd_synth, "generate a synthetic two-system corpus", manifest=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hist-points", type=int, default=17_280)
    p.add_argument("--spikes", type=int, default=20)
    p.add_argument("--spike-magnitude", type=float, default=100.0)
    p.add_argument("--hist-cadence-ms", type=int, default=synth.HIST_CADENCE_MS)
    p.add_argument("--ion-cadence-ms", type=int, default=synth.ION_CADENCE_MS)

    add("ingest", cmd_ingest, "load and validate a corpus", out_required=False)
    add("match", cmd_match, "rank all cross-system pairs by warped distance",
        _add_recipe_flags, _add_dtw_flags)

    p = add("detect", cmd_detect, "run all detectors on one series", _add_detector_flags)
    p.add_argument("--series", required=True)

    p = add("pipeline", cmd_pipeline, "match, merge, and compare anomaly counts",
            _add_recipe_flags, _add_dtw_flags, _add_detector_flags)
    p.add_argument("--top-n", type=int, default=4)
    # the pipeline draws no randomness; --seed is accepted for existing scripts
    p.add_argument("--seed", type=int, default=0)

    add("inject", cmd_inject, "inject a labeled synthetic attack into one series",
        _add_injection_flags)
    p = add("evaluate", cmd_evaluate, "inject, detect, and score every detector",
            _add_injection_flags, _add_detector_flags)
    p.add_argument("--slack", type=int, default=None, help="index slack (default: detector window)")

    add("report", cmd_report, "rebuild report.csv from an existing report.json", manifest=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outputs = _Outputs(args.out)
    try:
        return args.func(args, outputs)
    except MeterFuseError as e:
        outputs.cleanup()
        entry = f" (entry {e.entry})" if e.entry is not None else ""
        print(f"error: {e}{entry}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        outputs.cleanup()
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
