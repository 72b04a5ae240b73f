import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meterfuse import MeasurementId, SystemTag, TimeSeries, slice_by_range, validate_series
from meterfuse.errors import InvalidArgument, NonFiniteValue

from conftest import mkseries


def test_validate_sorts_two_points():
    s = validate_series(mkseries([(2, 1.0), (1, 2.0)]))
    assert s.samples == [(1, 2.0), (2, 1.0)]


def test_validate_identity_on_sorted():
    s = mkseries([(1, 1.0), (2, 2.0), (3, 3.0)])
    assert validate_series(s) == s


def test_validate_rejects_nan():
    with pytest.raises(NonFiniteValue) as exc:
        validate_series(mkseries([(1, float("nan"))]))
    assert exc.value.index == 0


def test_validate_rejects_inf_at_correct_index():
    with pytest.raises(NonFiniteValue) as exc:
        validate_series(mkseries([(1, 0.0), (2, float("inf")), (3, 0.0)]))
    assert exc.value.index == 1


def test_validate_empty_series_warns_only(caplog):
    s = mkseries([])
    assert validate_series(s) == s


def test_validate_stable_on_equal_timestamps():
    s = validate_series(mkseries([(5, 1.0), (5, 2.0), (1, 3.0), (5, 4.0)]))
    assert s.samples == [(1, 3.0), (5, 1.0), (5, 2.0), (5, 4.0)]


samples_strategy = st.lists(
    st.tuples(st.integers(0, 10**9), st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=50,
)


@given(samples_strategy)
def test_validate_idempotent(pairs):
    once = validate_series(mkseries(pairs))
    assert validate_series(once) == once


@given(samples_strategy)
def test_validated_timestamps_non_decreasing(pairs):
    s = validate_series(mkseries(pairs))
    assert np.all(np.diff(s.t) >= 0)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.floats(allow_nan=False, allow_infinity=False))),
    st.booleans(),
)
def test_validate_equals_stable_argsort(pairs, presorted):
    # few distinct timestamps, so most lists hold duplicates; presorted lists take the no-sort path
    if presorted:
        pairs = sorted(pairs, key=lambda p: p[0])
    raw = mkseries(pairs)
    order = np.argsort(raw.t, kind="stable")
    s = validate_series(raw)
    assert s.id == raw.id
    assert s.t.tobytes() == raw.t[order].tobytes()
    assert s.v.tobytes() == raw.v[order].tobytes()


def test_slice_inclusive_bounds():
    s = mkseries([(t, float(t)) for t in range(1, 11)])
    out = slice_by_range(s, 3, 5)
    assert list(out.t) == [3, 4, 5]
    assert out.id == s.id


def test_slice_full_range_is_identity():
    s = validate_series(mkseries([(t, float(t)) for t in range(1, 11)]))
    assert slice_by_range(s, int(s.t[0]), int(s.t[-1])) == s


def test_slice_disjoint_range_is_empty():
    s = mkseries([(t, float(t)) for t in range(1, 11)])
    assert len(slice_by_range(s, 100, 200)) == 0


def test_slice_invalid_range():
    with pytest.raises(InvalidArgument):
        slice_by_range(mkseries([(1, 1.0)]), 5, 3)


def test_measurement_id_requires_name():
    with pytest.raises(InvalidArgument):
        MeasurementId(SystemTag.ION, "")


@pytest.mark.parametrize("name", ["H\r1", "\r", "H\r\n\r1", "H\n\r1"])
def test_measurement_id_refuses_a_bare_carriage_return(name):
    # csv.writer would not quote it, and csv.reader would split the name's table rows there
    with pytest.raises(InvalidArgument, match="carriage return outside a CR LF pair"):
        MeasurementId(SystemTag.HIST, name)
    assert MeasurementId(SystemTag.HIST, "H\r\n1").name == "H\r\n1"  # a CR LF is quoted


def test_series_arrays_read_only():
    s = mkseries([(1, 1.0)])
    with pytest.raises(ValueError):
        s.v[0] = 2.0


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        TimeSeries(MeasurementId(SystemTag.ION, "x"), np.array([1, 2]), np.array([1.0]))
