"""Synthetic two-system corpora for tests, demos, and benchmarks.

Real historian/meter exports are not distributable, so these builders
produce the same shape: a high-frequency side sampled every few seconds
and a low-frequency side sampled hourly, where some low-frequency series
are clean subsamples of a high-frequency counterpart.  Spikes are
planted at seeded positions to give detectors something to find.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DuplicateId, InvalidArgument
from .ingest import ColumnMap, Corpus, ManifestEntry, json_text, series_to_csv, write_outputs
from .model import MeasurementId, SystemTag, TimeSeries

START_EPOCH_MS = 1_600_000_000_000
HIST_CADENCE_MS = 5_000
ION_CADENCE_MS = 3_600_000


def constant_series(
    name: str,
    system: SystemTag,
    value: float,
    n: int,
    cadence_ms: int,
) -> TimeSeries:
    t = START_EPOCH_MS + cadence_ms * np.arange(n, dtype=np.int64)
    return TimeSeries(MeasurementId(system, name), t, np.full(n, value))


def line_series(
    name: str,
    system: SystemTag,
    intercept: float,
    slope_per_step: float,
    n: int,
    cadence_ms: int,
) -> TimeSeries:
    t = START_EPOCH_MS + cadence_ms * np.arange(n, dtype=np.int64)
    v = intercept + slope_per_step * np.arange(n, dtype=np.float64)
    return TimeSeries(MeasurementId(system, name), t, v)


def random_walk_series(
    name: str,
    system: SystemTag,
    n: int,
    cadence_ms: int,
    seed: int,
    step_sigma: float = 1.0,
) -> TimeSeries:
    rng = np.random.default_rng(seed)
    t = START_EPOCH_MS + cadence_ms * np.arange(n, dtype=np.int64)
    v = np.cumsum(rng.normal(0.0, step_sigma, size=n))
    return TimeSeries(MeasurementId(system, name), t, v)


def add_spikes(s: TimeSeries, n_spikes: int, magnitude: float, seed: int) -> TimeSeries:
    """Plant n isolated single-sample spikes at seeded positions."""
    rng = np.random.default_rng(seed)
    positions = rng.choice(len(s), size=min(n_spikes, len(s)), replace=False)
    v = s.v.copy()
    v[positions] += magnitude
    return s.with_values(v)


def subsample_every(s: TimeSeries, k: int, name: str, system: SystemTag) -> TimeSeries:
    """Every k-th sample under a new identity (the low-frequency twin)."""
    return TimeSeries(MeasurementId(system, name), s.t[::k], s.v[::k])


def demo_corpus(
    seed: int = 7,
    hist_points: int = 17_280,
    spike_count: int = 20,
    spike_magnitude: float = 100.0,
    hist_cadence_ms: int = HIST_CADENCE_MS,
    ion_cadence_ms: int = ION_CADENCE_MS,
) -> Corpus:
    """Two ION and three HIST series with known overlap structure.

    ION-4-3472 is the hourly subsample of the clean baseline behind the
    spiky HIST-40-S, and ION-5-139 is the subsample of a drifting line
    behind HIST-44-S; HIST-23-S is an unrelated random walk.  The
    default size is one day of 5-second samples.
    """
    if hist_points < 1:
        raise InvalidArgument(f"hist_points must be >= 1, got {hist_points}")
    if spike_count < 0:
        raise InvalidArgument(f"spike_count must be >= 0, got {spike_count}")
    if not np.isfinite(spike_magnitude):
        raise InvalidArgument(f"spike_magnitude must be finite, got {spike_magnitude}")
    for name, cadence in (("hist_cadence_ms", hist_cadence_ms), ("ion_cadence_ms", ion_cadence_ms)):
        if cadence < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {cadence}")
    every = max(1, ion_cadence_ms // hist_cadence_ms)

    flat = constant_series("base-flat", SystemTag.HIST, 0.0, hist_points, hist_cadence_ms)
    drift = line_series("base-drift", SystemTag.HIST, 10.0, 0.001, hist_points, hist_cadence_ms)

    hist_a = add_spikes(flat, spike_count, spike_magnitude, seed)
    hist_a = TimeSeries(MeasurementId(SystemTag.HIST, "HIST-40-S"), hist_a.t, hist_a.v)
    hist_b = add_spikes(drift, spike_count, spike_magnitude, seed + 1)
    hist_b = TimeSeries(MeasurementId(SystemTag.HIST, "HIST-44-S"), hist_b.t, hist_b.v)
    hist_c = random_walk_series(
        "HIST-23-S", SystemTag.HIST, hist_points, hist_cadence_ms, seed + 2, step_sigma=5.0
    )

    ion_a = subsample_every(flat, every, "ION-4-3472", SystemTag.ION)
    ion_b = subsample_every(drift, every, "ION-5-139", SystemTag.ION)

    corpus = Corpus()
    for s in (ion_a, ion_b, hist_a, hist_b, hist_c):
        corpus.series_by_id[s.id] = s
    return corpus


def corpus_files(corpus: Corpus) -> dict[str, str]:
    """One CSV per series plus ``manifest.json``, as file name -> text.

    A file is named after its series, so a name held under both systems
    raises DuplicateId.
    """
    files = {}
    entries = []
    for mid in sorted(corpus.series_by_id, key=lambda m: m.name):
        filename = f"{mid.name}.csv"
        if filename in files:
            raise DuplicateId(mid.name)
        files[filename] = series_to_csv(corpus.series_by_id[mid])
        entries.append(
            {
                "system": mid.system.value,
                "name": mid.name,
                "path": filename,
                "time_column": ColumnMap.time_column,
                "value_column": ColumnMap.value_column,
                "time_format": ManifestEntry.time_format.value,
            }
        )
    files["manifest.json"] = json_text({"entries": entries})
    return files


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write one CSV per series plus a manifest, all or none; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_outputs(out, corpus_files(corpus))
    return out / "manifest.json"
