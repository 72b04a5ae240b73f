import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from meterfuse import (
    DetectorKind,
    DetectorParams,
    MeasurementId,
    SystemTag,
    TimeSeries,
    fit_ar_predict,
    merge_pair,
    run_detector,
)
from meterfuse.detectors import (
    _BLOCK,
    AnomalySet,
    DETECTORS,
    MAGNITUDE_NOISE_FLOOR,
    RELATIVE_NOISE_FLOOR,
    _NETWORK_MAX_WIDTH,
    _flag_outliers,
    _order_stats,
    _window_medians,
    default_params,
    level_shift_scores,
    noise_floor,
    rolling_average_residuals,
)
from meterfuse.errors import MeterFuseError, TooShort

import reference_ar
from conftest import mkvalues, traced_peak

AR, LS, RA = DetectorKind.AR, DetectorKind.LEVEL_SHIFT, DetectorKind.ROLLING_AVERAGE


def ar_oracle_residuals(values, p):
    """Normal-equations ridge solve, independent of the lstsq path."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    design = np.empty((n - p, p + 1))
    design[:, 0] = 1.0
    for lag in range(1, p + 1):
        design[:, lag] = values[p - lag : n - lag]
    target = values[p:]
    normal = design.T @ design + 1e-8 * np.eye(p + 1)
    coef = np.linalg.solve(normal, design.T @ target)
    return target - design @ coef


def ra_oracle_residuals(values, w):
    return np.array([values[t] - np.mean(values[t - w : t]) for t in range(w, len(values))])


def ls_oracle_scores(values, w):
    return np.array(
        [
            abs(np.median(values[t - w : t]) - np.median(values[t : t + w]))
            for t in range(w, len(values) - w + 1)
        ]
    )


def test_ar_constant_series_residuals_zero():
    residuals = fit_ar_predict(np.full(5, 5.0), 1)
    assert np.max(np.abs(residuals)) < 1e-9


def test_ar_exactly_realizable_model():
    y = [8.0]
    for _ in range(11):
        y.append(0.5 * y[-1])
    residuals = fit_ar_predict(np.array(y), 1)
    assert np.max(np.abs(residuals)) < 1e-9


def test_ar_residuals_match_normal_equations_oracle(rng):
    values = rng.normal(0, 1, 50)
    mine = fit_ar_predict(values, 2)
    oracle = ar_oracle_residuals(values, 2)
    assert np.max(np.abs(mine - oracle)) < 1e-8


def test_ar_too_short():
    with pytest.raises(TooShort):
        fit_ar_predict(np.zeros(3), 3)
    with pytest.raises(TooShort):
        run_detector(DetectorParams(AR, size=2, threshold_k=3.0), np.zeros(2))


@st.composite
def ar_inputs(draw):
    """An AR order and a series: a walk, a flat or a drifting line, on an offset, maybe spiked."""
    p = draw(st.integers(1, 12))
    edges = [p + 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1]
    edges += [p + _BLOCK - 1, p + _BLOCK + 1]  # one row either side of a block's end
    n = draw(st.sampled_from(edges) | st.integers(p + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["walk", "flat", "drift"]))
    y = {"walk": np.cumsum(rng.normal(0, 5, n)), "flat": np.zeros(n), "drift": 0.001 * np.arange(n)}[shape]
    y = y + draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e6, 1e9]) | st.floats(1e-3, 1e9))
    y[rng.integers(0, n, draw(st.integers(0, 5)))] += 100.0
    return p, np.round(y) if draw(st.booleans()) else y


@settings(max_examples=300, deadline=None)
@given(ar_inputs())
# a spike beside a flat drift: the fits round 1.7e-9 apart, 17 times 1e-12 * max|y|, on a
# design of condition 1.4e5 whose coefficients reach 9.8e4: 0.8 times its rounding_bound
@example((3, np.array([0.0, 1e-3, 2e-3, 3e-3, 100.004, 5e-3, 6e-3])))
def test_ar_fit_equals_whole_design_lstsq(case):
    p, y = case
    got, want = fit_ar_predict(y, p), reference_ar.fit_ar_predict(y, p)
    bound = max(1e-12 * np.max(np.abs(y)), 4 * reference_ar.rounding_bound(y, p))
    assert np.max(np.abs(got - want)) <= bound
    floor = noise_floor(y)
    assert np.array_equal(_flag_outliers(got, floor, 3.0)[0], _flag_outliers(want, floor, 3.0)[0])


@pytest.mark.parametrize("w", [5, 200])
def test_level_shift_memory_is_its_output_and_one_block(rng, w):
    # the whole series' windows took 2.1 MiB at w = 5 and 52.7 MiB at w = 200
    n = 34_560
    y = np.cumsum(rng.normal(0, 5, n))
    assert traced_peak(level_shift_scores, y, w) < 8 * (3 * n + _BLOCK * (w + 1))


def test_ar_fit_memory_does_not_grow_with_the_series(rng):
    y = np.cumsum(rng.normal(0, 5, 34_560))  # two days at 5 s: a whole design would take 3.3 MB
    assert traced_peak(fit_ar_predict, y, 10) < 1_000_000


def test_ar_flags_spike_and_possibly_successor():
    y = np.zeros(100)
    y[50] = 100.0
    flagged = set(run_detector(DetectorParams(AR, size=1, threshold_k=3.0), y).flagged)
    assert 50 in flagged
    assert flagged <= {50, 51}


def test_ar_constant_series_no_anomalies():
    params = DetectorParams(AR, size=10, threshold_k=3.0)
    assert run_detector(params, np.full(200, 3.25)).count == 0


def test_ls_constant_series_no_anomalies():
    params = DetectorParams(LS, size=5, threshold_k=6.0)
    assert run_detector(params, np.full(50, 7.0)).count == 0


def test_ls_flags_step_near_boundary():
    s = np.concatenate([np.zeros(100), np.full(100, 100.0)])
    result = run_detector(DetectorParams(LS, size=5, threshold_k=6.0), s)
    assert result.count > 0
    assert set(result.flagged) <= set(range(95, 106))


def test_ls_ignores_isolated_spikes():
    s = np.zeros(200)
    s[[30, 90, 150]] = 50.0
    assert run_detector(DetectorParams(LS, size=5, threshold_k=6.0), s).count == 0


def test_ls_scores_match_two_window_median_oracle(rng):
    values = rng.normal(0, 3, 120)
    assert np.array_equal(level_shift_scores(values, 7), ls_oracle_scores(values, 7))


def test_ls_too_short():
    with pytest.raises(TooShort):
        run_detector(DetectorParams(LS, size=5, threshold_k=6.0), np.zeros(9))


def test_ra_constant_series_no_anomalies():
    params = DetectorParams(RA, size=10, threshold_k=3.0)
    assert run_detector(params, np.full(60, -11.0)).count == 0


def test_ra_flags_spike():
    y = np.zeros(100)
    y[50] = 100.0
    assert 50 in set(run_detector(DetectorParams(RA, size=10, threshold_k=3.0), y).flagged)


def test_ra_linear_ramp_no_anomalies():
    params = DetectorParams(RA, size=10, threshold_k=3.0)
    assert run_detector(params, np.arange(200.0)).count == 0


def test_ra_residuals_match_windowed_mean_oracle(rng):
    # integer values keep window sums exact, so both paths agree bitwise
    values = rng.integers(-1000, 1000, 300).astype(float)
    assert np.array_equal(rolling_average_residuals(values, 10), ra_oracle_residuals(values, 10))


def test_ra_residuals_close_on_float_data(rng):
    values = rng.normal(0, 5, 300)
    mine = rolling_average_residuals(values, 10)
    oracle = ra_oracle_residuals(values, 10)
    assert np.max(np.abs(mine - oracle)) < 1e-12 * max(1.0, np.max(np.abs(values)))


def test_ra_too_short():
    with pytest.raises(TooShort):
        run_detector(DetectorParams(RA, size=10, threshold_k=3.0), np.zeros(10))


def test_zero_sets_on_lines_of_any_slope():
    params = (
        DetectorParams(AR, size=10, threshold_k=3.0),
        DetectorParams(LS, size=5, threshold_k=6.0),
        DetectorParams(RA, size=10, threshold_k=3.0),
    )
    for slope in (-1e6, -7.3, -0.1, 0.0, 1e-7, 0.1, 3.7, 1e6):
        for intercept in (0.0, -42.0, 1e6):
            y = intercept + slope * np.arange(300.0)
            for p in params:
                assert run_detector(p, y).count == 0, (slope, intercept, p.kind)


def test_run_detector_dispatch_records_params():
    params = DetectorParams(DetectorKind.LEVEL_SHIFT, size=5, threshold_k=6.0)
    s = np.concatenate([np.zeros(100), np.full(100, 100.0)])
    result = run_detector(params, s)
    assert result.params == params
    assert result.count > 0

    constant = np.full(50, 2.0)
    assert run_detector(DetectorParams(AR, size=1, threshold_k=3.0), constant).count == 0


def test_detectors_use_index_order_not_timestamps(rng):
    values = rng.normal(0, 1, 120)
    values[60] += 40
    a = mkvalues(values, cadence=1000)
    # same value order under wildly different (still sorted) timestamps
    t = np.sort(rng.integers(0, 10**9, 120)).astype(np.int64)
    b = TimeSeries(MeasurementId(SystemTag.HIST, "HIST-test"), t, values)
    for params in (
        DetectorParams(AR, size=5, threshold_k=3.0),
        DetectorParams(LS, size=5, threshold_k=6.0),
        DetectorParams(RA, size=10, threshold_k=3.0),
    ):
        assert run_detector(params, a) == run_detector(params, b)


def test_translation_invariance(rng):
    for trial in range(20):
        values = rng.integers(-100, 100, 150).astype(float)
        values[rng.integers(20, 130)] += 500
        shifted = values + 1000.0
        for params in (
            DetectorParams(AR, size=5, threshold_k=3.0),
            DetectorParams(RA, size=10, threshold_k=3.0),
            DetectorParams(LS, size=5, threshold_k=6.0),
        ):
            assert np.array_equal(
                run_detector(params, values).flagged,
                run_detector(params, shifted).flagged,
            )


def test_ls_positive_scaling_invariance(rng):
    params = DetectorParams(LS, size=5, threshold_k=6.0)
    for trial in range(20):
        values = rng.integers(-100, 100, 150).astype(float)
        values[40:90] += 300  # sustained shift
        for scale in (2.0, 10.0, 1024.0):
            assert np.array_equal(
                run_detector(params, values).flagged,
                run_detector(params, values * scale).flagged,
            )


def test_detection_deterministic(rng):
    values = rng.normal(0, 1, 400)
    params = DetectorParams(AR, size=10, threshold_k=3.0)
    first = run_detector(params, values)
    second = run_detector(params, values)
    assert first == second


@pytest.mark.parametrize("kind, size, k", [(RA, 10, 3.0), (AR, 10, 3.0), (LS, 5, 6.0)])
def test_default_params_are_the_detectors_entry(kind, size, k):
    spec = DETECTORS[kind]
    assert (spec.default_size, spec.default_k) == (size, k)
    assert default_params(kind) == DetectorParams(kind, size=size, threshold_k=k)
    with pytest.raises(TypeError):
        DetectorParams(kind)  # no field defaults: a kind's defaults live in DETECTORS only


def test_param_validation():
    with pytest.raises(ValueError):
        DetectorParams(DetectorKind.AR, size=0, threshold_k=3.0)
    with pytest.raises(ValueError):
        DetectorParams(DetectorKind.AR, size=10, threshold_k=0.0)


def test_anomaly_csv_origin_column_for_merged_series():
    from meterfuse import SystemTag, merge_pair, validate_series
    from meterfuse.detectors import anomalies_to_csv

    values = np.zeros(120)
    values[60] = 100.0
    hist = mkvalues(values, name="HIST-m", cadence=1000)
    ion = validate_series(
        TimeSeries(
            MeasurementId(SystemTag.ION, "ION-m"),
            hist.t[::12].copy(),
            np.zeros(10),
        )
    )
    merged = merge_pair(ion, hist)
    result = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), merged)
    assert result.count > 0
    lines = anomalies_to_csv(result, merged).strip().split("\n")
    assert lines[0] == "index,timestamp,value,score,origin"
    assert all(line.endswith(("ION", "HIST")) for line in lines[1:])

    plain = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), hist)
    plain_lines = anomalies_to_csv(plain, hist).strip().split("\n")
    assert plain_lines[0] == "index,timestamp,value,score"


@pytest.mark.parametrize("view", ["plain", "merged"])
def test_anomaly_csv_matches_per_row_reference(rng, view):
    from meterfuse.detectors import anomalies_to_csv
    from meterfuse.ingest import _CHUNK_ROWS

    import reference_ingest

    n = 3 * _CHUNK_ROWS
    values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-310, 300, n)
    values[::7] = np.round(values[::7] * 1e-300)  # whole values, -0.0 among them
    values[::11] = 0.0
    hist = mkvalues(values, name="HIST-r")
    ion = TimeSeries(MeasurementId(SystemTag.ION, "ION-r"), hist.t[::12] + 1, hist.v[::12])
    series = hist if view == "plain" else merge_pair(ion, hist)
    params = DetectorParams(RA, size=10, threshold_k=3.0)
    flagged = np.sort(rng.choice(len(series), _CHUNK_ROWS + 5, replace=False))
    scores = np.concatenate([[0.0, 3.0, 5e-324, 1.7e308], rng.exponential(1.0, len(flagged) - 4)])
    for result in (
        run_detector(params, series),
        AnomalySet(series.name if view == "merged" else "HIST-r", params, flagged, scores),
        AnomalySet("HIST-r", params, np.empty(0, np.int64), np.empty(0)),
    ):
        got, want = anomalies_to_csv(result, series), reference_ingest.anomalies_to_csv(result, series)
        assert got.split("\n") == want.split("\n")  # pytest's diff of two long strings takes minutes


# Ties, the ends of the float range, subnormals, infinities and NaN, among any other double.
EDGE_DOUBLES = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf,
                math.nan]
doubles = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats())


def same_bits(got, want) -> bool:
    """Equal bit patterns, or NaN where numpy has NaN (whose payload is not compared)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.int64), want[~nan].view(np.int64)
    )


def check_order_stats(x):
    with np.errstate(all="ignore"):
        median, q1, q3 = np.median(x), np.percentile(x, 25), np.percentile(x, 75)
    got = _order_stats(x, quartiles=True)
    assert same_bits(got[0], median)
    assert same_bits(_order_stats(x, quartiles=False), [median])
    # a zero percentile's sign follows where a partition leaves equal zeros,
    # so the quartiles are held to numpy's value, not to the sign of a zero
    for mine, theirs in zip(got[1:], (q1, q3)):
        assert mine == theirs or (math.isnan(mine) and math.isnan(theirs)), (mine, theirs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
@given(data=st.data())
def test_order_stats_equal_numpy_median_and_quartiles(n, data):
    check_order_stats(np.array(data.draw(st.lists(doubles, min_size=n, max_size=n))))


@given(st.lists(doubles, min_size=1, max_size=200))
def test_order_stats_equal_numpy_on_any_length(values):
    check_order_stats(np.array(values))


@pytest.mark.parametrize("n", [10_000, 10_001, 10_002, 10_003])
@pytest.mark.parametrize("extreme", [None, 1e308, 5e-324, math.inf, math.nan])
def test_order_stats_equal_numpy_on_large_tied_sets(n, extreme, rng):
    x = rng.integers(-20, 20, n) * 0.5  # ties at every rank
    if extreme is not None:
        x[rng.integers(0, n, 3)] = [extreme, -extreme, extreme]
    check_order_stats(x)


@given(st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -2.5, 7.0, 1e9]), min_size=1, max_size=60),
       st.sampled_from([0.0, 1e-9]))
@example([0.0, -0.0, 0.0, -0.0, 0.0, 5.0], 0.0)
def test_zero_quartile_sign_moves_no_flag_or_score(values, floor):
    # The sort leaves equal zeros in any order, so a zero quartile may take
    # either sign: with every zero +0.0 and every zero -0.0 the flags and
    # the scores must be the same bits.
    x = np.array(values)
    plus, minus = np.where(x == 0, 0.0, x), np.where(x == 0, -0.0, x)
    flags = [_flag_outliers(v, floor, 3.0) for v in (x, plus, minus)]
    for positions, scores in flags[1:]:
        assert np.array_equal(positions, flags[0][0])
        assert same_bits(scores, flags[0][1])


@settings(max_examples=25)
@pytest.mark.parametrize("w", range(1, _NETWORK_MAX_WIDTH + 4))  # the network's widths and past them
@given(values=st.lists(doubles, min_size=_NETWORK_MAX_WIDTH + 3, max_size=80))
@example(values=[-0.0, 0.0] * 8 + [math.nan] + [0.0, -0.0, -1.0, 1.0] * 4)
def test_window_medians_equal_numpy(w, values):
    x = np.array(values)
    with np.errstate(all="ignore"):  # sums past float64's range warn, in numpy's median too
        want = np.median(sliding_window_view(x, w), axis=1)
        got = _window_medians(x, w)
    assert same_bits(got, want)


@settings(max_examples=10, deadline=None)
@pytest.mark.parametrize("w", [1, 2, 5, _NETWORK_MAX_WIDTH - 1, _NETWORK_MAX_WIDTH,
                               _NETWORK_MAX_WIDTH + 1, _NETWORK_MAX_WIDTH + 2, 20])
@given(data=st.data())
def test_window_medians_equal_numpy_across_blocks(w, data):
    # B-1, B and B+1 values; B-1, B and B+1 windows; two whole blocks of windows
    b = _BLOCK
    n = data.draw(st.sampled_from([b - 1, b, b + 1, b + w - 2, b + w - 1, b + w, 2 * b + w - 1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(0, 3, n))  # ties, and zeros of both signs below
    x[rng.random(n) < 0.2] = -0.0
    x[rng.random(n) < 0.2] = 0.0
    edges = [0, b - 1, b, b + w - 2, b + w - 1, n - 1]  # where the first block's windows start and end
    picks = data.draw(st.lists(st.sampled_from(edges) | st.integers(0, n - 1), max_size=3))
    x[[i for i in picks if 0 <= i < n]] = math.nan
    with np.errstate(all="ignore"):
        want = np.median(sliding_window_view(x, w), axis=1)
        got = _window_medians(x, w)
    assert same_bits(got, want)


@given(st.lists(doubles, min_size=1, max_size=80))
def test_noise_floor_equals_its_numpy_formula(values):
    x = np.array(values)
    with np.errstate(all="ignore"):  # inf - inf warns, as it did in numpy's median
        want = RELATIVE_NOISE_FLOOR * np.max(np.abs(x - np.median(x)))
        want += MAGNITUDE_NOISE_FLOOR * np.max(np.abs(x))
        got = noise_floor(x)
    assert same_bits(got, want)


@settings(max_examples=200)
@given(data=st.data())
def test_merged_view_passes_whenever_both_of_its_series_pass(data):
    # TooShort depends only on a series' length, and a merged view is as
    # long as its two series together: so pipeline, which detects a pair's
    # series before its merged view, never meets a failing merged view.
    kind = data.draw(st.sampled_from(list(DETECTORS)))
    size = data.draw(st.one_of(st.just(DETECTORS[kind].default_size), st.integers(1, 30)))
    params = DetectorParams(kind, size, DETECTORS[kind].default_k)
    values = st.floats(-50, 50, allow_nan=False)

    def drawn(name, system, cadence):
        n = data.draw(st.integers(0, 2 * size + 3))  # past every minimum: size + 1 or 2 * size
        return mkvalues(data.draw(st.lists(values, min_size=n, max_size=n)), name, system, cadence)

    ion, hist = drawn("ION-A", SystemTag.ION, 7), drawn("HIST-B", SystemTag.HIST, 3)
    for s in (ion, hist):
        try:
            run_detector(params, s)
        except TooShort:
            return
    run_detector(params, merge_pair(ion, hist))  # raises no TooShort


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(list(DETECTORS)), size=st.integers(1, 12),
       values=st.lists(doubles | st.sampled_from([1.7e308, -1.7e308]), max_size=40))
@example(kind=AR, size=2, values=[1.7e308, -1.7e308, 1.0] * 6)  # LAPACK printed, lstsq failed
@example(kind=AR, size=2, values=[1.0, math.nan] * 6)
@example(kind=RA, size=2, values=[1.7e308, 1.7e308, -1.7e308, 0.0] * 4)  # the mean overflowed
@example(kind=LS, size=2, values=[1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.0] * 4)
def test_any_doubles_give_an_anomaly_set_or_a_typed_error_and_print_nothing(capfd, kind, size, values):
    params = DetectorParams(kind, size, DETECTORS[kind].default_k)
    try:
        assert isinstance(run_detector(params, np.array(values)), AnomalySet)
    except MeterFuseError:
        pass
    assert capfd.readouterr() == ("", "")
