import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meterfuse import (
    SamplingKind,
    SamplingRecipe,
    sample_date_range,
    sample_first_n,
    sample_step,
    slice_by_range,
)
from meterfuse.errors import InvalidArgument
from meterfuse.sampling import apply_recipe

from conftest import mkseries, mkvalues


def test_step_one_is_identity():
    s = mkvalues(np.arange(17.0))
    assert sample_step(s, 1) == s


def test_step_picks_multiples_of_k():
    s = mkvalues(np.arange(10.0))
    out = sample_step(s, 3)
    assert list(out.v) == [0.0, 3.0, 6.0, 9.0]
    assert out.id == s.id


def test_step_count_on_high_frequency_corpus_size():
    # 534,686 points stepped by 100 -> ceil gives 5,347.
    s = mkvalues(np.zeros(534_686))
    assert len(sample_step(s, 100)) == 5_347


def test_step_rejects_zero():
    with pytest.raises(InvalidArgument):
        sample_step(mkvalues([1.0]), 0)


def test_first_n_saturates():
    s = mkvalues(np.arange(5.0))
    assert sample_first_n(s, 100) == s


def test_first_n_prefix():
    s = mkvalues(np.arange(744.0))
    out = sample_first_n(s, 200)
    assert len(out) == 200
    assert list(out.v) == list(np.arange(200.0))


def test_first_n_empty():
    assert len(sample_first_n(mkvalues([]), 10)) == 0


def test_date_range_full_window_step_one_is_identity():
    s = mkvalues(np.arange(50.0))
    assert sample_date_range(s, int(s.t[0]), int(s.t[-1]), 1) == s


def test_date_range_three_day_window_at_five_second_cadence():
    # 30 days at 5 s; a 3-day window stepped by 50 keeps ceil(51841/50) points.
    n = 30 * 86_400 // 5
    s = mkvalues(np.zeros(n), cadence=5_000)
    window_ms = 3 * 86_400 * 1_000
    out = sample_date_range(s, 0, window_ms, 50)
    in_window = window_ms // 5_000 + 1
    assert len(out) == math.ceil(in_window / 50) == 1_037


def test_date_range_disjoint_window_empty():
    s = mkvalues(np.arange(10.0), start=0)
    assert len(sample_date_range(s, 10**9, 2 * 10**9, 2)) == 0


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=80),
    st.integers(1, 12),
)
def test_step_is_subsequence_with_ceil_length(values, k):
    s = mkvalues(values)
    out = sample_step(s, k)
    assert len(out) == math.ceil(len(s) / k)
    assert list(out.v) == list(s.v[::k])
    assert list(out.t) == list(s.t[::k])


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    st.integers(0, 70),
    st.integers(0, 70),
    st.integers(1, 5),
)
def test_date_range_equals_slice_then_step(values, lo, hi, k):
    start, end = sorted((lo * 1000, hi * 1000))
    s = mkvalues(values)
    assert sample_date_range(s, start, end, k) == sample_step(slice_by_range(s, start, end), k)


def test_date_range_step_one_equals_slice():
    s = mkvalues(np.arange(30.0))
    assert sample_date_range(s, 3_000, 9_000, 1) == slice_by_range(s, 3_000, 9_000)


def test_recipe_dispatch_per_system():
    recipe = SamplingRecipe(SamplingKind.STEP_SIZE, hist_step=5, ion_step=2)
    hist = mkvalues(np.arange(20.0))
    ion = mkseries([(t, float(t)) for t in range(20)])
    assert len(apply_recipe(hist, recipe)) == 4
    assert len(apply_recipe(ion, recipe)) == 10


def test_recipe_validation():
    with pytest.raises(InvalidArgument):
        SamplingRecipe(SamplingKind.STEP_SIZE, hist_step=0)
    with pytest.raises(ValueError):
        SamplingRecipe(SamplingKind.DATE_RANGE, range_start=10, range_end=5)
