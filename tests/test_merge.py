import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from meterfuse import SystemTag, describe, merge_pair, split, validate_series
from meterfuse.merge import FROM_HIST, FROM_ION

from conftest import mkseries


def ion_series(pairs, name="ION-A"):
    return validate_series(mkseries(pairs, name=name, system=SystemTag.ION))


def hist_series(pairs, name="HIST-B"):
    return validate_series(mkseries(pairs, name=name, system=SystemTag.HIST))


def test_interleave():
    m = merge_pair(ion_series([(1, 0.0)]), hist_series([(2, 5.0), (3, 5.0)]))
    assert list(zip(m.t, m.v, m.origin)) == [(1, 0.0, FROM_ION), (2, 5.0, FROM_HIST), (3, 5.0, FROM_HIST)]
    assert m.name == "ION-A+HIST-B"


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
