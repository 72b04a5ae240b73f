"""Command-line front end tying the pipeline together.

Subcommands: synth, ingest, match, detect, pipeline, inject, evaluate,
report.  Each command returns its outputs by fixed filename
(matches.csv, matches.meta.json, report.json, report.csv,
eval.<detector>.json, ...), and `main` writes them under --out: all of
them, or none and the files already there are left as they were.  All
commands are deterministic for given flags; wall-clock timing appears
only in the .meta sidecars.

Each command takes only the flags it reads: sampling and DTW flags on
match and pipeline, detector flags on detect, pipeline and evaluate,
--seed on synth, inject and evaluate.  Detector flags default to
`detectors.default_params`.  detect, inject and evaluate load only the
manifest entry named by --series.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, detectors, injection, synth
from .detectors import DETECTORS, DetectorKind, DetectorParams, default_params, run_detector
from .dtw import MatchRun, Metric, match_all
from .errors import EmptyWindow, InvalidArgument, IoError, MeterFuseError, TooFewSamples, naming
from .ingest import Corpus, json_text, load_corpus, load_manifest, series_to_csv, write_outputs
from .merge import merge_pair
from .model import SystemTag, TimeSeries
from .sampling import SamplingKind, SamplingRecipe


# SamplingRecipe fields with a --flag of the same name; --recipe sets `kind`.
_RECIPE_FIELDS = [f for f in fields(SamplingRecipe) if f.name != "kind"]

# demo_corpus parameters, each with a synth --flag of the same name (spike_count: --spikes)
# that defaults to the parameter's default; --radius and --metric default to match_all's.
_SYNTH_PARAMS = inspect.signature(synth.demo_corpus).parameters
_MATCH_PARAMS = inspect.signature(match_all).parameters


def _detector_flags(kind: DetectorKind) -> dict[str, str]:
    """argparse dest -> DetectorParams field of one detector's flags (--ar-order, --ar-k, ...).

    The size flag is named after what the size means: --ar-order for order_p,
    --ra-window for window_w.
    """
    spec = DETECTORS[kind]
    return {f"{spec.tag}_{spec.size.split('_')[0]}": "size", f"{spec.tag}_k": "threshold_k"}


def _detector_params(args) -> dict[DetectorKind, DetectorParams]:
    return {
        kind: replace(
            default_params(kind),
            **{field: getattr(args, dest) for dest, field in _detector_flags(kind).items()},
        )
        for kind in DETECTORS
    }


def _recipe(args) -> SamplingRecipe:
    return SamplingRecipe(
        SamplingKind(args.recipe), **{f.name: getattr(args, f.name) for f in _RECIPE_FIELDS}
    )


def _load_series(args) -> TimeSeries:
    """Load only the manifest entry named by --series."""
    return load_corpus(load_manifest(args.manifest).select(args.series)).get(args.series)


def _run_match(args) -> tuple[Corpus, MatchRun, dict[str, str]]:
    """Rank every cross-system pair; returns the corpus, the run and the matches.* texts."""
    recipe = _recipe(args)
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
    files = {"matches.csv": "\n".join(lines) + "\n", "matches.meta.json": json_text(meta)}
    return corpus, run, files


def cmd_match(args) -> dict[str, str]:
    _, run, files = _run_match(args)
    print("rank  distance      ion            hist")
    for r in run.results[:10]:
        print(f"{r.rank:<5d} {r.distance:<13.6g} {r.ion_id.name:<14s} {r.hist_id.name}")
    print(f"match loop: {run.elapsed_seconds:.3f} s over {len(run.results)} pairs")
    return files


def cmd_pipeline(args) -> dict[str, str]:
    if args.top_n < 1:
        raise InvalidArgument(f"--top-n must be >= 1, got {args.top_n}")
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
        pair_docs.append(analysis.build_report(match, ion, hist, merged, sets))

    report_doc = {
        "detector_params": {
            kind.value: {DETECTORS[kind].size: p.size, "threshold_k": p.threshold_k}
            for kind, p in params.items()
        },
        "top_n": top_n,
        "pairs": pair_docs,
    }
    files["report.json"] = json_text(report_doc)
    files["report.csv"] = analysis.report_csv(pair_docs)
    print(f"pipeline: {len(top)} pairs reported to {Path(args.out)}")
    return files


def cmd_detect(args) -> dict[str, str]:
    params = _detector_params(args)
    series = _load_series(args)
    files, counts = {}, {}
    for kind, spec in DETECTORS.items():
        result = run_detector(params[kind], series)
        files[f"anomalies.{spec.tag}.csv"] = detectors.anomalies_to_csv(result, series)
        counts[kind.value] = result.count
    files["detect.json"] = json_text({"series": args.series, "counts": counts})
    for name, count in counts.items():
        print(f"{name}: {count} anomalies")
    return files


def _inject(args, series: TimeSeries) -> tuple[TimeSeries, injection.InjectionLabel]:
    """Inject --kind into the --series entry; EmptyWindow and TooFewSamples name the entry."""
    with naming(args.series, EmptyWindow, TooFewSamples):
        if len(series) == 0:  # before the zero run's default --at reads the middle sample
            raise EmptyWindow("series is empty")
        if args.kind == "zero-run":
            at = args.at if args.at is not None else int(series.t[len(series) // 2])
            duration = args.duration_ms
            if duration is None:
                duration = injection.draw_zero_run_duration_ms(np.random.default_rng(args.seed))
            return injection.inject_zero_run(series, at, duration)
        return injection.inject_gaussian_noise(series, args.noise_count, args.sigma, args.seed)


def cmd_inject(args) -> dict[str, str]:
    injected, label = _inject(args, _load_series(args))
    print(f"injected {label.kind.value} into {args.series}: {len(label.affected)} samples")
    return {"injected.csv": series_to_csv(injected), "label.json": injection.label_to_json(label)}


def cmd_evaluate(args) -> dict[str, str]:
    params = _detector_params(args)
    injected, label = _inject(args, _load_series(args))

    files = {"label.json": injection.label_to_json(label)}
    for kind, spec in DETECTORS.items():
        p = params[kind]
        result = run_detector(p, injected)
        slack = p.size if args.slack is None else args.slack
        score = injection.evaluate(result, label, slack=slack)
        files[f"eval.{spec.tag}.json"] = json_text(asdict(score))
        print(
            f"{kind.value}: precision {score.precision:.3f} recall {score.recall:.3f} "
            f"f1 {score.f1:.3f} (slack {slack})"
        )
    return files


def cmd_ingest(args) -> dict[str, str]:
    corpus = load_corpus(load_manifest(args.manifest))
    ion = corpus.partition(SystemTag.ION)
    hist = corpus.partition(SystemTag.HIST)
    summary = {
        "entries": {s.id.name: len(s) for part in (ion, hist) for s in part},
        "ion_series": len(ion),
        "hist_series": len(hist),
    }
    for name, count in sorted(summary["entries"].items()):
        print(f"{name}: {count} samples")
    print(f"{len(ion)} ION series, {len(hist)} HIST series")
    return {"ingest.json": json_text(summary)}


def cmd_synth(args) -> dict[str, str]:
    corpus = synth.demo_corpus(**{name: getattr(args, name) for name in _SYNTH_PARAMS})
    print(f"wrote {len(corpus)} series and {Path(args.out) / 'manifest.json'}")
    return synth.corpus_files(corpus)


def cmd_report(args) -> dict[str, str]:
    report_path = Path(args.out) / "report.json"
    try:
        text = analysis.report_csv(json.loads(report_path.read_text(encoding="utf-8"))["pairs"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise IoError(str(report_path), e) from None
    print(f"rebuilt report.csv from {report_path}")
    return {"report.csv": text}


def _add_recipe_flags(p: argparse.ArgumentParser):
    p.add_argument("--recipe", choices=[k.value for k in SamplingKind],
                   default=SamplingKind.STEP_SIZE.value)
    for f in _RECIPE_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _add_dtw_flags(p: argparse.ArgumentParser):
    p.add_argument("--radius", type=int, default=_MATCH_PARAMS["radius"].default)
    p.add_argument("--metric", choices=[m.value for m in Metric],
                   default=_MATCH_PARAMS["metric"].default.value)
    p.add_argument("--z-normalize", action="store_true")


def _add_detector_flags(p: argparse.ArgumentParser):
    for kind in DETECTORS:
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
    for name, param in _SYNTH_PARAMS.items():
        flag = "--spikes" if name == "spike_count" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, type=type(param.default), default=param.default)

    add("ingest", cmd_ingest, "load and validate a corpus", out_required=False)
    add("match", cmd_match, "rank all cross-system pairs by warped distance",
        _add_recipe_flags, _add_dtw_flags)

    p = add("detect", cmd_detect, "run all detectors on one series", _add_detector_flags)
    p.add_argument("--series", required=True)

    p = add("pipeline", cmd_pipeline, "match, merge, and compare anomaly counts",
            _add_recipe_flags, _add_dtw_flags, _add_detector_flags)
    p.add_argument("--top-n", type=int, default=4)

    add("inject", cmd_inject, "inject a labeled synthetic attack into one series",
        _add_injection_flags)
    p = add("evaluate", cmd_evaluate, "inject, detect, and score every detector",
            _add_injection_flags, _add_detector_flags)
    p.add_argument("--slack", type=int, default=None, help="index slack (default: detector window)")

    add("report", cmd_report, "rebuild report.csv from an existing report.json", manifest=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        files = args.func(args)
        if args.out:  # optional only for ingest
            write_outputs(Path(args.out), files)
    except MeterFuseError as e:
        entry = f" (entry {e.entry})" if e.entry is not None else ""
        print(f"error: {e}{entry}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
