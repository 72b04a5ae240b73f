"""Command-line front end tying the pipeline together.

Subcommands: synth, ingest, match, detect, pipeline, inject, evaluate,
report.  Each command returns its outputs by fixed filename
(matches.csv, matches.meta.json, report.json, report.csv,
eval.<detector>.json, ...) and the line, if any, that says they were
written.  `main` writes them under --out: all of them, or none and the
files already there are left as they were.  It prints that line only
once the write has succeeded.  All
commands are deterministic for given flags; wall-clock timing appears
only in the .meta sidecars.

--out is not the only directory written: loading a manifest (ingest,
match, detect, pipeline, inject, evaluate) also writes the parse cache,
.meterfuse-cache/, beside the series files (`ingest` module docstring).
No output depends on it, and a directory that cannot be written gets none.

pipeline detects pair by pair, in rank order: the pair's ION series and
then its HIST series, each only the first time a top pair holds it, then
the pair's merged view.  The first error in that order is the one raised.
What match and pipeline hold: ranking loads one entry at a time and keeps
only its sample (`_sampled`), so it holds the sampled corpus, never the
whole corpus at full resolution.  pipeline then loads each top pair's two
entries again, at full resolution, and frees them and their merged view
before the next pair, so detection holds one pair.  A reload that finds
other bytes than were ranked is an IoError naming the entry.  The parse
cache makes the reload a cache read; a corpus whose directory cannot be
written parses each top pair's files a second time.

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
from .detectors import (
    DETECTORS, AnomalySet, DetectorKind, DetectorParams, default_params, run_detector,
)
from .dtw import MatchRun, Metric, match_all
from .errors import (
    EmptyWindow, InvalidArgument, IoError, MeterFuseError, NonFiniteValue, TooFewSamples, naming,
)
from .ingest import (
    Corpus, CorpusManifest, ManifestEntry, json_text, load_corpus, load_manifest, series_to_csv,
    write_outputs,
)
from .merge import MergedSeries, merge_pair
from .model import MeasurementId, SystemTag, TimeSeries
from .sampling import SamplingKind, SamplingRecipe, apply_recipe


# SamplingRecipe fields with a --flag of the same name; --recipe sets `kind`.
_RECIPE_FIELDS = [f for f in fields(SamplingRecipe) if f.name != "kind"]

# demo_corpus parameters, each with a synth --flag of the same name (spike_count: --spikes)
# that defaults to the parameter's default; --radius and --metric default to match_all's.
_SYNTH_PARAMS = inspect.signature(synth.demo_corpus).parameters
_MATCH_PARAMS = inspect.signature(match_all).parameters

# A command's outputs by file name (text, or a series for `write_outputs` to render),
# and the line to print once they are written.
Outputs = tuple[dict[str, str | TimeSeries], str | None]


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


def _sampled(
    entry: ManifestEntry, recipe: SamplingRecipe, digests: dict[str, tuple[int, int]]
) -> TimeSeries:
    """The entry's series as ranking reads it: loaded, then sampled by the recipe.

    A sample shorter than the series is copied, since a view would keep
    the full arrays alive; an unthinned series is returned as loaded.
    """
    series = load_corpus(CorpusManifest((entry,)), digests).series_by_id[entry.id]
    sample = apply_recipe(series, recipe)
    if len(sample) == len(series):
        return series
    return TimeSeries(sample.id, sample.t.copy(), sample.v.copy())


def _run_match(
    args, digests: dict[str, tuple[int, int]]
) -> tuple[MatchRun, CorpusManifest, dict[str, str]]:
    """Rank every cross-system pair on the entries' samples.

    Returns the run, the manifest and the matches.* texts.  Only the
    sampled corpus is held while ranking.  ``digests`` receives each
    entry's file digest (`load_corpus`), so a later load of an entry
    fails if its file has changed since it was ranked.
    """
    recipe = _recipe(args)
    manifest = load_manifest(args.manifest)
    corpus = Corpus({e.id: _sampled(e, recipe, digests) for e in manifest.entries})
    run = match_all(
        corpus.partition(SystemTag.ION),
        corpus.partition(SystemTag.HIST),
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
    return run, manifest, files


def cmd_match(args) -> Outputs:
    run, _, files = _run_match(args, {})
    print("rank  distance      ion            hist")
    for r in run.results[:10]:
        print(f"{r.rank:<5d} {r.distance:<13.6g} {r.ion_id.name:<14s} {r.hist_id.name}")
    print(f"match loop: {run.elapsed_seconds:.3f} s over {len(run.results)} pairs")
    return files, None


def cmd_pipeline(args) -> Outputs:
    if args.top_n < 1:
        raise InvalidArgument(f"--top-n must be >= 1, got {args.top_n}")
    params = _detector_params(args)
    digests: dict[str, tuple[int, int]] = {}
    run, manifest, files = _run_match(args, digests)
    top = run.results[: args.top_n]
    if len(top) < args.top_n:
        print(
            f"warning: top-n {args.top_n} exceeds {len(run.results)} pairs; using all",
            file=sys.stderr,
        )

    def view(s: TimeSeries | MergedSeries):
        return _detect(params, s), analysis.describe(s)

    # each series' detector sets and summary, once however many top pairs hold it
    seen: dict[MeasurementId, tuple[dict[DetectorKind, AnomalySet], analysis.SummaryStats]] = {}
    entries = {e.id: e for e in manifest.entries}

    def pair_doc(match) -> dict:
        """The pair's report entry; its series and merged view are freed on return."""
        pair = load_corpus(CorpusManifest((entries[match.ion_id], entries[match.hist_id])), digests)
        ion, hist = pair.series_by_id[match.ion_id], pair.series_by_id[match.hist_id]
        for s in (ion, hist):
            if s.id not in seen:
                seen[s.id] = view(s)
        views = (seen[ion.id], seen[hist.id], view(merge_pair(ion, hist)))
        sets = {kind: tuple(found[kind] for found, _ in views) for kind in params}
        return analysis.build_report(match, sets, [stats for _, stats in views])

    pair_docs = [pair_doc(match) for match in top]

    report_doc = {
        "detector_params": {
            kind.value: {DETECTORS[kind].size: p.size, "threshold_k": p.threshold_k}
            for kind, p in params.items()
        },
        "top_n": len(top),
        "pairs": pair_docs,
    }
    files["report.json"] = json_text(report_doc)
    files["report.csv"] = analysis.report_csv(pair_docs)
    return files, f"pipeline: {len(top)} pairs reported to {Path(args.out)}"


def _detect(
    params: dict[DetectorKind, DetectorParams], series: TimeSeries | MergedSeries
) -> dict[DetectorKind, AnomalySet]:
    """Every detector's run on one series, in DETECTORS order, with its noise floor computed once."""
    floor = detectors.noise_floor(series.v)
    return {kind: run_detector(params[kind], series, floor) for kind in DETECTORS}


def cmd_detect(args) -> Outputs:
    series = _load_series(args)
    files, counts = {}, {}
    for kind, result in _detect(_detector_params(args), series).items():
        spec = DETECTORS[kind]
        files[f"anomalies.{spec.tag}.csv"] = detectors.anomalies_to_csv(result, series)
        counts[kind.value] = result.count
    files["detect.json"] = json_text({"series": args.series, "counts": counts})
    for name, count in counts.items():
        print(f"{name}: {count} anomalies")
    return files, None


def _inject(args, series: TimeSeries) -> tuple[TimeSeries, injection.InjectionLabel]:
    """Inject --kind into --series; EmptyWindow, TooFewSamples and NonFiniteValue name it."""
    with naming(args.series, EmptyWindow, TooFewSamples, NonFiniteValue):
        if len(series) == 0:  # before the zero run's default --at reads the middle sample
            raise EmptyWindow("series is empty")
        if args.kind == "zero-run":
            at = args.at if args.at is not None else int(series.t[len(series) // 2])
            duration = args.duration_ms
            if duration is None:
                duration = injection.draw_zero_run_duration_ms(np.random.default_rng(args.seed))
            return injection.inject_zero_run(series, at, duration)
        return injection.inject_gaussian_noise(series, args.noise_count, args.sigma, args.seed)


def cmd_inject(args) -> Outputs:
    injected, label = _inject(args, _load_series(args))
    print(f"injected {label.kind.value} into {args.series}: {len(label.affected)} samples")
    files = {"injected.csv": series_to_csv(injected), "label.json": injection.label_to_json(label)}
    return files, None


def cmd_evaluate(args) -> Outputs:
    params = _detector_params(args)
    injected, label = _inject(args, _load_series(args))

    files = {"label.json": injection.label_to_json(label)}
    for kind, result in _detect(params, injected).items():
        spec, p = DETECTORS[kind], params[kind]
        slack = p.size if args.slack is None else args.slack
        score = injection.evaluate(result, label, slack=slack)
        files[f"eval.{spec.tag}.json"] = json_text(asdict(score))
        print(
            f"{kind.value}: precision {score.precision:.3f} recall {score.recall:.3f} "
            f"f1 {score.f1:.3f} (slack {slack})"
        )
    return files, None


def cmd_ingest(args) -> Outputs:
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
    return {"ingest.json": json_text(summary)}, None


def cmd_synth(args) -> Outputs:
    corpus = synth.demo_corpus(**{name: getattr(args, name) for name in _SYNTH_PARAMS})
    written = f"wrote {len(corpus)} series and {Path(args.out) / 'manifest.json'}"
    return synth.corpus_files(corpus), written


def cmd_report(args) -> Outputs:
    report_path = Path(args.out) / "report.json"
    try:
        text = analysis.report_csv(json.loads(report_path.read_text(encoding="utf-8"))["pairs"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise IoError(str(report_path), e) from None
    return {"report.csv": text}, f"rebuilt report.csv from {report_path}"


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
        files, written = args.func(args)
        if args.out:  # optional only for ingest
            write_outputs(Path(args.out), files)
        if written:
            print(written)
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
