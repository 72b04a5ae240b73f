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

from .model import MeasurementId, TimeSeries

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, MergedSeries):
            return NotImplemented
        return (
            self.ion_id == other.ion_id
            and self.hist_id == other.hist_id
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.origin, other.origin)
        )


def merge_pair(ion: TimeSeries, hist: TimeSeries) -> MergedSeries:
    """Timestamp-sorted union of the two series.

    len(merged) == len(ion) + len(hist) always; a stable sort with the
    ION block first realizes the ION-before-HIST tie-break and preserves
    each input's internal order.
    """
    t = np.concatenate([ion.t, hist.t])
    v = np.concatenate([ion.v, hist.v])
    origin = np.concatenate(
        [
            np.full(len(ion), FROM_ION, dtype=np.uint8),
            np.full(len(hist), FROM_HIST, dtype=np.uint8),
        ]
    )
    order = np.argsort(t, kind="stable")
    return MergedSeries(ion.id, hist.id, t[order], v[order], origin[order])


def split(merged: MergedSeries) -> tuple[TimeSeries, TimeSeries]:
    """Recover the two original series exactly."""
    ion_mask = merged.origin == FROM_ION
    hist_mask = ~ion_mask
    ion = TimeSeries(merged.ion_id, merged.t[ion_mask], merged.v[ion_mask])
    hist = TimeSeries(merged.hist_id, merged.t[hist_mask], merged.v[hist_mask])
    return ion, hist

