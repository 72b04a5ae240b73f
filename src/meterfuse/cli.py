"""Command-line front end tying the pipeline together.

Subcommands: synth, ingest, match, detect, pipeline, inject, evaluate,
report.  Every output lands under --out with a fixed filename
(matches.csv, matches.meta.json, report.json, report.csv,
eval.<detector>.json, ...).  A command exits 0 only when all of its
outputs were written; on failure, partially written files are removed.
All commands are deterministic for a given config and seed; wall-clock
timing appears only in the .meta sidecars.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, detectors, injection, synth
from .detectors import DetectorKind, DetectorParams, run_detector
from .dtw import MatchRun, Metric, match_all
from .errors import MeterFuseError
from .ingest import Corpus, load_corpus, load_manifest, series_to_csv
from .merge import merge_pair
from .model import SystemTag, TimeSeries
from .sampling import SamplingKind, SamplingRecipe

_DETECTOR_FILE_TAGS = {
    DetectorKind.ROLLING_AVERAGE: "ra",
    DetectorKind.AR: "ar",
    DetectorKind.LEVEL_SHIFT: "ls",
}


@dataclass
class RunConfig:
    """Everything a pipeline run needs besides the corpus itself."""

    manifest: Path
    out: Path | None
    recipe: SamplingRecipe
    radius: int
    metric: Metric
    z_normalize: bool
    top_n: int
    detector_params: dict[DetectorKind, DetectorParams]
    seed: int


class _Outputs:
    """Tracks files written by one command so failures can clean up."""

    def __init__(self, out_dir: str | Path | None):
        self.dir = Path(out_dir) if out_dir else None
        self.created: list[Path] = []
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        assert self.dir is not None, "command requires --out"
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        self.created.append(path)
        return path

    def cleanup(self):
        for path in self.created:
            path.unlink(missing_ok=True)


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _recipe_from_args(args) -> SamplingRecipe:
    return SamplingRecipe(
        kind=SamplingKind(args.recipe),
        hist_step=args.hist_step,
        ion_step=args.ion_step,
        n_points=args.n_points,
        range_start=args.range_start,
        range_end=args.range_end,
    )


def _detector_params_from_args(args) -> dict[DetectorKind, DetectorParams]:
    # match/ingest parsers do not carry detector flags; fall back to defaults
    return detectors.params_grid(
        ar=DetectorParams(
            DetectorKind.AR,
            order_p=getattr(args, "ar_order", 10),
            threshold_k=getattr(args, "ar_k", 3.0),
        ),
        ls=DetectorParams(
            DetectorKind.LEVEL_SHIFT,
            window_w=getattr(args, "ls_window", 5),
            threshold_k=getattr(args, "ls_k", 6.0),
        ),
        ra=DetectorParams(
            DetectorKind.ROLLING_AVERAGE,
            window_w=getattr(args, "ra_window", 10),
            threshold_k=getattr(args, "ra_k", 3.0),
        ),
    )


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        manifest=Path(args.manifest),
        out=Path(args.out) if getattr(args, "out", None) else None,
        recipe=_recipe_from_args(args),
        radius=args.radius,
        metric=Metric(args.metric),
        z_normalize=args.z_normalize,
        top_n=getattr(args, "top_n", 4),
        detector_params=_detector_params_from_args(args),
        seed=args.seed,
    )


def _find_series(corpus: Corpus, name: str) -> TimeSeries:
    series = corpus.get(name)
    if series is None:
        available = ", ".join(sorted(m.name for m in corpus.series_by_id))
        raise MeterFuseError(f"no series named {name!r}; available: {available}")
    return series


def _run_match(config: RunConfig, corpus: Corpus) -> MatchRun:
    return match_all(
        corpus.partition(SystemTag.ION),
        corpus.partition(SystemTag.HIST),
        config.recipe,
        radius=config.radius,
        metric=config.metric,
        normalize=config.z_normalize,
    )


def _matches_csv(run: MatchRun) -> str:
    lines = ["rank,ion_name,hist_name,distance"]
    for r in run.results:
        lines.append(f"{r.rank},{r.ion_id.name},{r.hist_id.name},{r.distance!r}")
    return "\n".join(lines) + "\n"


def _match_meta(config: RunConfig, run: MatchRun) -> dict:
    recipe = config.recipe
    return {
        "recipe": {
            "kind": recipe.kind.value,
            "hist_step": recipe.hist_step,
            "ion_step": recipe.ion_step,
            "n_points": recipe.n_points,
            "range_start": recipe.range_start,
            "range_end": recipe.range_end,
        },
        "radius": config.radius,
        "metric": config.metric.value,
        "z_normalize": config.z_normalize,
        "pairs": len(run.results),
        "elapsed_seconds": run.elapsed_seconds,
        "cells_evaluated": run.cells_evaluated,
        "pair_cells_evaluated": [
            {"ion_name": r.ion_id.name, "hist_name": r.hist_id.name, "cells": r.cells_evaluated}
            for r in run.results
        ],
    }


def cmd_match(args, outputs: _Outputs) -> int:
    config = _config_from_args(args)
    corpus = load_corpus(load_manifest(config.manifest))
    run = _run_match(config, corpus)

    outputs.write_text("matches.csv", _matches_csv(run))
    outputs.write_text("matches.meta.json", _json(_match_meta(config, run)))

    print("rank  distance      ion            hist")
    for r in run.results[:10]:
        print(f"{r.rank:<5d} {r.distance:<13.6g} {r.ion_id.name:<14s} {r.hist_id.name}")
    print(f"match loop: {run.elapsed_seconds:.3f} s over {len(run.results)} pairs")
    return 0


def _stats_dict(s) -> dict:
    st = analysis.describe(s)
    return {"count": st.count, "mean": st.mean, "std": st.std, "min": st.min, "max": st.max}


def cmd_pipeline(args, outputs: _Outputs) -> int:
    config = _config_from_args(args)
    corpus = load_corpus(load_manifest(config.manifest))
    run = _run_match(config, corpus)

    top_n = config.top_n
    if top_n > len(run.results):
        print(
            f"warning: top-n {top_n} exceeds {len(run.results)} pairs; using all",
            file=sys.stderr,
        )
        top_n = len(run.results)
    top = run.results[:top_n]

    pair_docs = []
    csv_rows: list[list[str]] = []
    for match in top:
        ion = corpus.series_by_id[match.ion_id]
        hist = corpus.series_by_id[match.hist_id]
        merged = merge_pair(ion, hist)
        sets = {}
        for kind, params in config.detector_params.items():
            sets[kind] = (
                run_detector(params, ion),
                run_detector(params, hist),
                run_detector(params, merged),
            )
        report = analysis.build_report(ion.id.name, hist.id.name, sets)
        doc = analysis.report_to_dict(report)
        doc["rank"] = match.rank
        doc["distance"] = match.distance
        doc["stats"] = {
            "ion": _stats_dict(ion),
            "hist": _stats_dict(hist),
            "merged": _stats_dict(merged),
        }
        pair_docs.append(doc)
        for row in analysis.report_csv_rows(report):
            csv_rows.append([str(match.rank), *row])

    report_doc = {
        "detector_params": {
            kind.value: {
                "order_p": p.order_p,
                "window_w": p.window_w,
                "threshold_k": p.threshold_k,
                "use_std": p.use_std,
            }
            for kind, p in config.detector_params.items()
        },
        "top_n": top_n,
        "pairs": pair_docs,
    }

    csv_lines = ["pair_rank,measurement_name,rolling_average,autoregression,level_shift"]
    csv_lines += [",".join(row) for row in csv_rows]

    outputs.write_text("matches.csv", _matches_csv(run))
    outputs.write_text("matches.meta.json", _json(_match_meta(config, run)))
    outputs.write_text("report.json", _json(report_doc))
    outputs.write_text("report.csv", "\n".join(csv_lines) + "\n")
    print(f"pipeline: {len(top)} pairs reported to {outputs.dir}")
    return 0


def cmd_detect(args, outputs: _Outputs) -> int:
    config = _config_from_args(args)
    corpus = load_corpus(load_manifest(config.manifest))
    series = _find_series(corpus, args.series)
    counts = {}
    for kind, params in config.detector_params.items():
        result = run_detector(params, series)
        tag = _DETECTOR_FILE_TAGS[kind]
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
    corpus = load_corpus(load_manifest(Path(args.manifest)))
    series = _find_series(corpus, args.series)
    injected, label = _inject(args, series)
    outputs.write_text("injected.csv", series_to_csv(injected))
    outputs.write_text("label.json", injection.label_to_json(label))
    print(f"injected {label.kind.value} into {args.series}: {len(label.affected)} samples")
    return 0


def cmd_evaluate(args, outputs: _Outputs) -> int:
    config = _config_from_args(args)
    corpus = load_corpus(load_manifest(config.manifest))
    series = _find_series(corpus, args.series)
    injected, label = _inject(args, series)

    outputs.write_text("label.json", injection.label_to_json(label))
    for kind, params in config.detector_params.items():
        result = run_detector(params, injected)
        slack = args.slack
        if slack is None:
            slack = params.order_p if kind is DetectorKind.AR else params.window_w
        score = injection.evaluate(result, label, slack=slack)
        tag = _DETECTOR_FILE_TAGS[kind]
        outputs.write_text(f"eval.{tag}.json", injection.score_to_json(score))
        print(
            f"{kind.value}: precision {score.precision:.3f} recall {score.recall:.3f} "
            f"f1 {score.f1:.3f} (slack {slack})"
        )
    return 0


def cmd_ingest(args, outputs: _Outputs) -> int:
    corpus = load_corpus(load_manifest(Path(args.manifest)))
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
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    lines = ["pair_rank,measurement_name,rolling_average,autoregression,level_shift"]
    for pair in doc["pairs"]:
        dets = pair["detectors"]

        def counts(view: str) -> str:
            return ",".join(
                str(dets[kind][view])
                for kind in ("rolling_average", "autoregression", "level_shift")
            )

        rank = pair["rank"]
        lines.append(f"{rank},{pair['ion']},{counts('ion')}")
        lines.append(f"{rank},{pair['hist']},{counts('hist')}")
        lines.append(f"{rank},{pair['ion']}+{pair['hist']},{counts('merged')}")
    outputs.write_text("report.csv", "\n".join(lines) + "\n")
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
    p.add_argument("--ar-order", type=int, default=10)
    p.add_argument("--ar-k", type=float, default=3.0)
    p.add_argument("--ra-window", type=int, default=10)
    p.add_argument("--ra-k", type=float, default=3.0)
    p.add_argument("--ls-window", type=int, default=5)
    p.add_argument("--ls-k", type=float, default=6.0)


def _add_injection_flags(p: argparse.ArgumentParser):
    p.add_argument("--series", required=True, help="measurement name to inject into")
    p.add_argument("--kind", choices=["zero-run", "gaussian"], default="zero-run")
    p.add_argument("--at", type=int, default=None, help="zero-run start (epoch ms)")
    p.add_argument("--duration-ms", type=int, default=None)
    p.add_argument("--noise-count", type=int, default=10)
    p.add_argument("--sigma", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfuse",
        description="Match, merge, and scan overlapping two-system meter series for anomalies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str, out_required: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0)
        if out_required:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="output directory")
        return p

    p = add("synth", cmd_synth, "generate a synthetic two-system corpus")
    p.add_argument("--hist-points", type=int, default=17_280)
    p.add_argument("--spikes", type=int, default=20)
    p.add_argument("--spike-magnitude", type=float, default=100.0)
    p.add_argument("--hist-cadence-ms", type=int, default=synth.HIST_CADENCE_MS)
    p.add_argument("--ion-cadence-ms", type=int, default=synth.ION_CADENCE_MS)

    p = add("ingest", cmd_ingest, "load and validate a corpus", out_required=False)
    p.add_argument("--manifest", required=True)

    p = add("match", cmd_match, "rank all cross-system pairs by warped distance")
    p.add_argument("--manifest", required=True)
    _add_recipe_flags(p)
    _add_dtw_flags(p)

    p = add("detect", cmd_detect, "run all detectors on one series")
    p.add_argument("--manifest", required=True)
    p.add_argument("--series", required=True)
    _add_recipe_flags(p)
    _add_dtw_flags(p)
    _add_detector_flags(p)

    p = add("pipeline", cmd_pipeline, "match, merge, and compare anomaly counts")
    p.add_argument("--manifest", required=True)
    p.add_argument("--top-n", type=int, default=4)
    _add_recipe_flags(p)
    _add_dtw_flags(p)
    _add_detector_flags(p)

    p = add("inject", cmd_inject, "inject a labeled synthetic attack into one series")
    p.add_argument("--manifest", required=True)
    _add_injection_flags(p)

    p = add("evaluate", cmd_evaluate, "inject, detect, and score every detector")
    p.add_argument("--manifest", required=True)
    _add_injection_flags(p)
    p.add_argument("--slack", type=int, default=None, help="index slack (default: detector window)")
    _add_recipe_flags(p)
    _add_dtw_flags(p)
    _add_detector_flags(p)

    add("report", cmd_report, "rebuild report.csv from an existing report.json")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "top_n", 1) < 1:
        print("error: --top-n must be >= 1", file=sys.stderr)
        return 1
    outputs = _Outputs(getattr(args, "out", None))
    try:
        return args.func(args, outputs)
    except MeterFuseError as e:
        outputs.cleanup()
        entry = f" (entry {e.entry})" if e.entry else ""
        print(f"error: {e}{entry}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        outputs.cleanup()
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
