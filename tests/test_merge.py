import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meterfuse import MeasurementId, SystemTag, TimeSeries, describe, merge_pair, split, validate_series
from meterfuse.merge import FROM_HIST, FROM_ION, MergedSeries

import reference_merge
from conftest import mkseries, mkvalues, traced_peak


def ion_series(pairs, name="ION-A"):
    return validate_series(mkseries(pairs, name=name, system=SystemTag.ION))


def hist_series(pairs, name="HIST-B"):
    return validate_series(mkseries(pairs, name=name, system=SystemTag.HIST))


def test_interleave():
    m = merge_pair(ion_series([(1, 0.0)]), hist_series([(2, 5.0), (3, 5.0)]))
    assert list(zip(m.t, m.v, m.origin)) == [(1, 0.0, FROM_ION), (2, 5.0, FROM_HIST), (3, 5.0, FROM_HIST)]
    assert m.name == "ION-A+HIST-B"


def test_merged_series_value_equality():
    ion, hist = ion_series([(1, 0.0), (3, 1.0)]), hist_series([(2, 5.0)])
    m = merge_pair(ion, hist)
    assert m == merge_pair(ion, hist)
    others = [
        merge_pair(ion_series([(1, 0.0), (3, 1.0)], name="ION-Z"), hist),
        merge_pair(ion, hist_series([(2, 5.0)], name="HIST-Z")),
        MergedSeries(m.ion_id, m.hist_id, m.t + 1, m.v.copy(), m.origin.copy()),
        MergedSeries(m.ion_id, m.hist_id, m.t.copy(), m.v + 1, m.origin.copy()),
        MergedSeries(m.ion_id, m.hist_id, m.t.copy(), m.v.copy(), m.origin ^ 1),
    ]
    assert all(m != other for other in others)  # each differs in one field
    assert m != (m.t, m.v, m.origin)
    with pytest.raises(TypeError):
        hash(m)


def test_empty_ion_side():
    hist = hist_series([(1, 1.0), (2, 2.0)])
    m = merge_pair(ion_series([]), hist)
    assert len(m) == 2
    assert all(o == FROM_HIST for o in m.origin)
    assert split(m)[1] == hist


def test_equal_timestamp_tie_break_ion_first():
    m = merge_pair(ion_series([(5, 1.0)]), hist_series([(5, 2.0)]))
    assert list(zip(m.t, m.v, m.origin)) == [(5, 1.0, FROM_ION), (5, 2.0, FROM_HIST)]


pair_strategy = st.tuples(
    st.lists(st.tuples(st.integers(0, 100), st.floats(-50, 50, allow_nan=False)), max_size=40),
    st.lists(st.tuples(st.integers(0, 100), st.floats(-50, 50, allow_nan=False)), max_size=40),
)


@given(pair_strategy)
def test_merge_invariants(pair):
    ion = ion_series(pair[0])
    hist = hist_series(pair[1])
    m = merge_pair(ion, hist)
    assert len(m) == len(ion) + len(hist)
    assert np.all(np.diff(m.t) >= 0)
    assert split(m) == (ion, hist)


@given(pair_strategy)
def test_ion_before_hist_on_shared_timestamps(pair):
    ion = ion_series(pair[0])
    hist = hist_series(pair[1])
    m = merge_pair(ion, hist)
    for t in set(ion.t) & set(hist.t):
        at_t = m.origin[m.t == t]
        # all ION tags precede all HIST tags within the timestamp group
        assert np.all(np.diff(at_t.astype(int)) >= 0)


@st.composite
def raw_side(draw, system, name):
    """A series as given, not validated: any order, repeated timestamps, maybe empty."""
    n = draw(st.integers(0, 40))
    top = draw(st.sampled_from([3, 100, 2**62]))  # from many repeats to almost none
    t = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    v = draw(st.lists(st.floats() | st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    if draw(st.booleans()):
        t.sort()
    return TimeSeries(MeasurementId(system, name), np.array(t, np.int64), np.array(v))


@given(raw_side(SystemTag.ION, "ION-A"), raw_side(SystemTag.HIST, "HIST-B"), st.data())
def test_merge_equals_the_concatenate_and_argsort_merge(ion, hist, data):
    if data.draw(st.booleans()):  # timestamps shared across the two sides
        hist = TimeSeries(hist.id, np.concatenate([hist.t, ion.t]), np.concatenate([hist.v, ion.v + 1]))
    got, want = merge_pair(ion, hist), reference_merge.merge_pair(ion, hist)
    assert (got.ion_id, got.hist_id) == (want.ion_id, want.hist_id)
    for name in ("t", "v", "origin"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def test_merge_memory_is_its_output(rng):
    # 48 hourly ION samples into two days of 5 s HIST; the argsort merge peaked at 1.39 MiB
    hist = mkvalues(np.cumsum(rng.normal(0, 1, 34_560)), cadence=5_000)
    ion = mkvalues(rng.normal(0, 1, 48), name="ION-test", system=SystemTag.ION, cadence=3_600_000)
    output = (len(ion) + len(hist)) * (8 + 8 + 1)  # its times, values and origin tags
    assert traced_peak(merge_pair, ion, hist) < output + 64 * 1024


def test_merged_stats_pool_the_inputs(rng):
    ion = ion_series([(i, float(v)) for i, v in enumerate(rng.normal(10, 2, 50))])
    hist = hist_series([(i, float(v)) for i, v in enumerate(rng.normal(-5, 7, 200))])
    m = merge_pair(ion, hist)
    got = describe(m)
    a, b = describe(ion), describe(hist)
    n = a.count + b.count
    pooled_mean = (a.count * a.mean + b.count * b.mean) / n
    pooled_var = (
        a.count * (a.std**2 + a.mean**2) + b.count * (b.std**2 + b.mean**2)
    ) / n - pooled_mean**2
    assert got.count == n
    assert math.isclose(got.mean, pooled_mean, rel_tol=1e-9)
    assert math.isclose(got.std, math.sqrt(pooled_var), rel_tol=1e-9)
    assert got.min == min(a.min, b.min)
    assert got.max == max(a.max, b.max)
