"""Concatenate-and-argsort merge, kept as a reference for the in-place one.

`merge_pair` is the earlier implementation of `meterfuse.merge.merge_pair`:
it concatenates the ION and HIST samples, in that order, and applies one
stable `argsort` of the timestamps to the times, values and origin tags.
So its ION-before-HIST tie-break and its within-side order are plain to
see; the in-place merge must give the same arrays, bit for bit.
"""

from __future__ import annotations

import numpy as np

from meterfuse.merge import FROM_HIST, FROM_ION, MergedSeries
from meterfuse.model import TimeSeries


def merge_pair(ion: TimeSeries, hist: TimeSeries) -> MergedSeries:
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
