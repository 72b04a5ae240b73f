"""Combining a matched cross-system pair into one time series.

The merge is a lossless timestamp-sorted union: no values are altered,
nothing is resampled or deduplicated, and on equal timestamps the ION
sample is placed before the HIST sample.  Per-sample origin tags make
the merge exactly invertible and let anomalies found on a merged series
be attributed to a source system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MeasurementId, TimeSeries, sorted_by_time, value_eq

FROM_ION = 0
FROM_HIST = 1

ORIGIN_NAMES = {FROM_ION: "ION", FROM_HIST: "HIST"}


@dataclass(frozen=True, eq=False)
class MergedSeries:
    """Union of an ION/HIST pair with per-sample origin tags."""

    ion_id: MeasurementId
    hist_id: MeasurementId
    t: np.ndarray
    v: np.ndarray
    origin: np.ndarray  # FROM_ION / FROM_HIST per sample

    def __post_init__(self):
        for name in ("t", "v", "origin"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def name(self) -> str:
        return f"{self.ion_id.name}+{self.hist_id.name}"

    def __len__(self) -> int:
        return len(self.t)

    __eq__ = value_eq


def merge_pair(ion: TimeSeries, hist: TimeSeries) -> MergedSeries:
    """Timestamp-sorted union of the two series.

    len(merged) == len(ion) + len(hist) always.  The result is a stable
    sort of the ION samples followed by the HIST samples: ION before HIST
    on equal timestamps, and each input's order kept among its own equal
    timestamps.  Each side is sorted stably first (a sorted side as it
    is); then ION sample i goes to its place among the HIST samples,
    before any equal one, plus the i ION samples before it, and the HIST
    samples fill the rest in order.  So beyond its output the merge holds
    one index per ION sample.
    """
    ion, hist = sorted_by_time(ion), sorted_by_time(hist)
    n = len(ion) + len(hist)
    at = np.searchsorted(hist.t, ion.t, "left") + np.arange(len(ion))
    origin = np.full(n, FROM_HIST, dtype=np.uint8)
    origin[at] = FROM_ION
    from_hist = origin.view(np.bool_)  # FROM_HIST is 1 and FROM_ION 0
    t, v = np.empty(n, np.int64), np.empty(n, np.float64)
    t[at], t[from_hist] = ion.t, hist.t
    v[at], v[from_hist] = ion.v, hist.v
    return MergedSeries(ion.id, hist.id, t, v, origin)


def split(merged: MergedSeries) -> tuple[TimeSeries, TimeSeries]:
    """Recover the two original series exactly."""
    ion_mask = merged.origin == FROM_ION
    hist_mask = ~ion_mask
    ion = TimeSeries(merged.ion_id, merged.t[ion_mask], merged.v[ion_mask])
    hist = TimeSeries(merged.hist_id, merged.t[hist_mask], merged.v[hist_mask])
    return ion, hist

