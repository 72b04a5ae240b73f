import tracemalloc

import numpy as np
import pytest

from meterfuse import MeasurementId, SystemTag, TimeSeries


def mkseries(pairs, name="ION-test", system=SystemTag.ION) -> TimeSeries:
    return TimeSeries.from_samples(MeasurementId(system, name), pairs)


def mkvalues(values, name="HIST-test", system=SystemTag.HIST, cadence=1000, start=0) -> TimeSeries:
    values = np.asarray(values, dtype=np.float64)
    t = start + cadence * np.arange(len(values), dtype=np.int64)
    return TimeSeries(MeasurementId(system, name), t, values)


def traced_peak(f, *args) -> int:
    """Bytes ``f(*args)`` allocates at its peak, as tracemalloc traces them, after one untraced call."""
    f(*args)  # numpy's first-call set-up, and a cache's first fill, are not the call's
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
