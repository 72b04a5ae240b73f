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

from .errors import DuplicateId, InvalidArgument, naming
from .ingest import Corpus, ManifestEntry, manifest_text, write_outputs
from .model import MeasurementId, SystemTag, TimeSeries, check_seed

START_EPOCH_MS = 1_600_000_000_000
HIST_CADENCE_MS = 5_000
ION_CADENCE_MS = 3_600_000


def _timestamps(name: str, n: int, cadence_ms: int) -> np.ndarray:
    """n int64 epoch millis cadence_ms apart from START_EPOCH_MS, refused if the last passes int64."""
    last = START_EPOCH_MS + int(cadence_ms) * (n - 1)
    if last >= 2**63:
        with naming(name):
            raise InvalidArgument(f"sample {n - 1} at a {cadence_ms} ms cadence falls at {last}, past int64")
    return START_EPOCH_MS + cadence_ms * np.arange(n, dtype=np.int64)


def constant_series(
    name: str,
    system: SystemTag,
    value: float,
    n: int,
    cadence_ms: int,
) -> TimeSeries:
    t = _timestamps(name, n, cadence_ms)
    return TimeSeries(MeasurementId(system, name), t, np.full(n, value))


def line_series(
    name: str,
    system: SystemTag,
    intercept: float,
    slope_per_step: float,
    n: int,
    cadence_ms: int,
) -> TimeSeries:
    t = _timestamps(name, n, cadence_ms)
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
    rng = np.random.default_rng(check_seed(seed))
    t = _timestamps(name, n, cadence_ms)
    v = np.cumsum(rng.normal(0.0, step_sigma, size=n))
    return TimeSeries(MeasurementId(system, name), t, v)


def add_spikes(s: TimeSeries, n_spikes: int, magnitude: float, seed: int) -> TimeSeries:
    """Plant n isolated single-sample spikes at seeded positions."""
    rng = np.random.default_rng(check_seed(seed))
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
    check_seed(seed)
    if hist_points < 1:
        raise InvalidArgument(f"hist_points must be >= 1, got {hist_points}")
    if spike_count < 0:
        raise InvalidArgument(f"spike_count must be >= 0, got {spike_count}")
    if not np.isfinite(spike_magnitude):
        raise InvalidArgument(f"spike_magnitude must be finite, got {spike_magnitude}")
    for name, cadence in (("hist_cadence_ms", hist_cadence_ms), ("ion_cadence_ms", ion_cadence_ms)):
        if cadence < 1:
            raise InvalidArgument(f"{name} must be >= 1, got {cadence}")
    if ion_cadence_ms % hist_cadence_ms:  # ION samples every `every`-th HIST sample
        raise InvalidArgument(f"ion_cadence_ms must be a whole multiple of hist_cadence_ms"
                              f" {hist_cadence_ms}, got {ion_cadence_ms}")
    every = ion_cadence_ms // hist_cadence_ms

    # the first file by name is built first, so a cadence past int64 names it
    hist_c = random_walk_series(
        "HIST-23-S", SystemTag.HIST, hist_points, hist_cadence_ms, seed + 2, step_sigma=5.0
    )
    flat = constant_series("HIST-40-S", SystemTag.HIST, 0.0, hist_points, hist_cadence_ms)
    drift = line_series("HIST-44-S", SystemTag.HIST, 10.0, 0.001, hist_points, hist_cadence_ms)

    hist_a = add_spikes(flat, spike_count, spike_magnitude, seed)
    hist_b = add_spikes(drift, spike_count, spike_magnitude, seed + 1)

    ion_a = subsample_every(flat, every, "ION-4-3472", SystemTag.ION)
    ion_b = subsample_every(drift, every, "ION-5-139", SystemTag.ION)

    corpus = Corpus()
    for s in (ion_a, ion_b, hist_a, hist_b, hist_c):
        corpus.series_by_id[s.id] = s
    return corpus


def corpus_files(corpus: Corpus) -> dict[str, TimeSeries | str]:
    """One CSV per series plus ``manifest.json``, as `ingest.write_outputs` takes them.

    Each file name maps to its series, which write_outputs renders with
    `ingest.series_to_csv`, and ``manifest.json`` to its text.  A file is
    named after its series, so a name held under both systems raises
    DuplicateId.
    """
    files = {}
    entries = []
    for mid in sorted(corpus.series_by_id, key=lambda m: m.name):
        filename = f"{mid.name}.csv"
        if filename in files:
            raise DuplicateId(mid.name)
        files[filename] = corpus.series_by_id[mid]
        entries.append(ManifestEntry(mid, filename))
    files["manifest.json"] = manifest_text(entries)
    return files


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write one CSV per series plus a manifest, all or none; returns the manifest path."""
    out = Path(out_dir)
    write_outputs(out, corpus_files(corpus))
    return out / "manifest.json"
