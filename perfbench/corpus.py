"""Seeded corpora for the benchmark workloads, with their ground truth.

Every series comes from `meterfuse.synth`'s public builders and is written
with `synth.write_corpus`.  Next to the manifest goes ``truth.json``: the
ION -> HIST twin map, the planted spike indices of each spiky HIST series,
and the injection arguments the ``evaluate`` commands pass.

* ``fullres`` follows the shape of `synth.demo_corpus` over two days of
  5-second samples: a flat and a drifting baseline, each with a spiky HIST
  copy and an hourly ION subsample, plus an unrelated HIST random walk.
* ``fleet`` holds one day of 5-second samples for 8 twin pairs, each a
  line at its own level (100 apart) with a spiky HIST copy and an hourly
  ION subsample, and 16 HIST distractors: 8 lines at the levels halfway
  between the twins and 8 random walks.  A distractor line starts 40-60
  units from the nearest ION level, and its slope relative to that ION
  moves the gap by at most 35 over the day; the walks leave the origin by
  ~100.  A twin's distance comes only from the few spikes that survive
  sampling, so each ION's twin is its nearest HIST series.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from meterfuse import synth
from meterfuse.ingest import Corpus
from meterfuse.model import SystemTag, TimeSeries

FULLRES_POINTS = 34_560  # two days at 5 s
FLEET_POINTS = 17_280  # one day at 5 s
FLEET_PAIRS = 8
FLEET_LEVEL_GAP = 100.0
SPIKES = 20
SPIKE_MAGNITUDE = 100.0
HOURLY = synth.ION_CADENCE_MS // synth.HIST_CADENCE_MS


def _spikes(clean: TimeSeries, spiky: TimeSeries) -> list[int]:
    return [int(i) for i in np.nonzero(spiky.v != clean.v)[0]]


def _evaluate_args(rng: np.random.Generator, series: TimeSeries) -> dict:
    n = len(series)
    return {
        "series": series.id.name,
        "at": int(series.t[int(rng.integers(n // 4, 3 * n // 4))]),
        "duration_ms": int(rng.integers(6_000, 8_001)),
        "seed": int(rng.integers(0, 2**31)),
        "noise_count": 20,
        "sigma": 5.0,
    }


def build_fullres(seed: int) -> tuple[Corpus, dict]:
    n, cadence = FULLRES_POINTS, synth.HIST_CADENCE_MS
    flat = synth.constant_series("HIST-40-S", SystemTag.HIST, 0.0, n, cadence)
    drift = synth.line_series("HIST-44-S", SystemTag.HIST, 10.0, 0.001, n, cadence)
    spiky_flat = synth.add_spikes(flat, SPIKES, SPIKE_MAGNITUDE, seed)
    spiky_drift = synth.add_spikes(drift, SPIKES, SPIKE_MAGNITUDE, seed + 1)
    walk = synth.random_walk_series("HIST-23-S", SystemTag.HIST, n, cadence, seed + 2, step_sigma=5.0)
    series = [
        synth.subsample_every(flat, HOURLY, "ION-4-3472", SystemTag.ION),
        synth.subsample_every(drift, HOURLY, "ION-5-139", SystemTag.ION),
        spiky_flat,
        spiky_drift,
        walk,
    ]
    truth = {
        "twins": {"ION-4-3472": "HIST-40-S", "ION-5-139": "HIST-44-S"},
        "spikes": {
            "HIST-40-S": _spikes(flat, spiky_flat),
            "HIST-44-S": _spikes(drift, spiky_drift),
        },
        "evaluate": _evaluate_args(np.random.default_rng([seed, 2]), spiky_drift),
    }
    return _corpus(series), truth


def build_fleet(seed: int) -> tuple[Corpus, dict]:
    n, cadence = FLEET_POINTS, synth.HIST_CADENCE_MS
    rng = np.random.default_rng([seed, 1])
    series, twins, spikes = [], {}, {}
    for k in range(FLEET_PAIRS):
        base = synth.line_series(
            f"HIST-T{k:02d}", SystemTag.HIST,
            FLEET_LEVEL_GAP * k + rng.uniform(0.0, 10.0), rng.uniform(-1e-3, 1e-3), n, cadence,
        )
        spiky = synth.add_spikes(base, SPIKES, SPIKE_MAGNITUDE, int(rng.integers(0, 2**31)))
        ion = synth.subsample_every(base, HOURLY, f"ION-T{k:02d}", SystemTag.ION)
        series += [ion, spiky]
        twins[ion.id.name] = spiky.id.name
        spikes[spiky.id.name] = _spikes(base, spiky)
    for k in range(FLEET_PAIRS):
        series.append(synth.line_series(
            f"HIST-D{k:02d}", SystemTag.HIST,
            FLEET_LEVEL_GAP * (k + 0.5) + rng.uniform(0.0, 10.0), rng.uniform(-1e-3, 1e-3), n, cadence,
        ))
        series.append(synth.random_walk_series(
            f"HIST-W{k:02d}", SystemTag.HIST, n, cadence,
            int(rng.integers(0, 2**31)), step_sigma=rng.uniform(0.5, 2.0),
        ))
    target = series[2 * int(rng.integers(FLEET_PAIRS)) + 1]
    truth = {"twins": twins, "spikes": spikes, "evaluate": _evaluate_args(rng, target)}
    return _corpus(series), truth


def _corpus(series: list[TimeSeries]) -> Corpus:
    corpus = Corpus()
    for s in series:
        corpus.series_by_id[s.id] = s
    return corpus


def write(corpus: Corpus, truth: dict, out_dir: Path) -> Path:
    """Write the corpus and its truth.json; returns the manifest path."""
    manifest = synth.write_corpus(corpus, out_dir)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return manifest
