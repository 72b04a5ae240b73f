import numpy as np
import pytest

from meterfuse import (
    DetectorKind,
    DetectorParams,
    MeasurementId,
    SystemTag,
    TimeSeries,
    fit_ar_predict,
    run_detector,
)
from meterfuse.detectors import (
    DETECTORS,
    default_params,
    level_shift_scores,
    rolling_average_residuals,
)
from meterfuse.errors import TooShort

from conftest import mkvalues

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
