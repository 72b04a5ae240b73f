"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to see them).  Tolerances are pinned here and
nowhere else."""

import json
import math
import time

import numpy as np
import pytest

from meterfuse import (
    DetectorKind,
    DetectorParams,
    MeasurementId,
    SamplingKind,
    SamplingRecipe,
    SystemTag,
    TimeSeries,
    dtw_exact,
    evaluate,
    fastdtw,
    fit_ar_predict,
    inject_gaussian_noise,
    inject_zero_run,
    match_all,
    merge_pair,
    percent_change,
    run_detector,
    split,
)
from meterfuse.cli import main
from meterfuse.detectors import default_params, level_shift_scores, rolling_average_residuals
from meterfuse.model import validate_series
from meterfuse.synth import add_spikes, constant_series, subsample_every

from conftest import mkseries, mkvalues
from test_detectors import ar_oracle_residuals, ls_oracle_scores, ra_oracle_residuals

AR, LS, RA = DetectorKind.AR, DetectorKind.LEVEL_SHIFT, DetectorKind.ROLLING_AVERAGE


def _passed(n, text):
    print(f"CRITERION {n:2d} PASS: {text}")


def test_criterion_01_dtw_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()

    for _ in range(200):
        la, lb = int(rng.integers(1, 65)), int(rng.integers(1, 65))
        a = rng.uniform(-10, 10, la).tolist()
        b = rng.uniform(-10, 10, lb).tolist()
        exact = dtw_exact(a, b).distance
        full = fastdtw(a, b, radius=max(la, lb)).distance
        assert abs(full - exact) <= 1e-9 * max(1.0, exact)
        for radius in (0, 1, 2, 4):
            fast = fastdtw(a, b, radius).distance
            assert fast >= exact - 1e-9 * max(1.0, exact)

    rel_errors = []
    for _ in range(200):
        la, lb = int(rng.integers(16, 65)), int(rng.integers(16, 65))
        a = np.cumsum(rng.normal(0, 1, la)).tolist()
        b = np.cumsum(rng.normal(0, 1, lb)).tolist()
        exact = dtw_exact(a, b).distance
        if exact <= 1e-12:
            continue
        rel_errors.append((fastdtw(a, b, radius=1).distance - exact) / exact)
    mean_error = float(np.mean(rel_errors))
    assert mean_error <= 0.20

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"fast==exact at full radius, fast>=exact at r in 0,1,2,4; "
               f"mean rel err at r=1 on walks {mean_error:.4f} <= 0.20 ({elapsed:.1f}s)")


def test_criterion_02_warp_path_validity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(1000):
        la, lb = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        a = rng.uniform(-10, 10, la).tolist()
        b = rng.uniform(-10, 10, lb).tolist()
        assert dtw_exact(a, b).path.is_valid(la, lb)
        radius = int(rng.integers(0, 3))
        assert fastdtw(a, b, radius).path.is_valid(la, lb)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"2000 paths (exact+fast) on 1000 random instances all valid ({elapsed:.1f}s)")


def test_criterion_03_percent_change_reproduction():
    first = percent_change(0 + 94, 832)
    second = percent_change(0 + 804, 2269)
    assert first == pytest.approx(785.1, abs=0.5)
    assert second == pytest.approx(182.2, abs=0.5)
    _passed(3, f"published counts give {first:.1f}% and {second:.1f}%")


def test_criterion_04_merge_invariants():
    rng = np.random.default_rng(404)
    for trial in range(500):
        n_ion, n_hist = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        ion = validate_series(
            mkseries(
                [(int(t), float(v)) for t, v in zip(rng.integers(0, 50, n_ion),
                                                    rng.normal(0, 10, n_ion))],
                name="ION-A", system=SystemTag.ION,
            )
        )
        hist = validate_series(
            mkseries(
                [(int(t), float(v)) for t, v in zip(rng.integers(0, 50, n_hist),
                                                    rng.normal(0, 10, n_hist))],
                name="HIST-B", system=SystemTag.HIST,
            )
        )
        merged = merge_pair(ion, hist)
        assert len(merged) == len(ion) + len(hist)
        assert np.all(np.diff(merged.t) >= 0)
        for t in set(ion.t) & set(hist.t):
            group = merged.origin[merged.t == t].astype(int)
            assert np.all(np.diff(group) >= 0)  # ION block precedes HIST block
        assert split(merged) == (ion, hist)
    _passed(4, "500 random pairs: additivity, sortedness, tie-break, split round-trip")


def test_criterion_05_detector_zero_sets():
    constants = (0.0, 5.0, -2048.0, 6.5e7)
    slopes = (-1e6, -3.7, -0.1, 0.0, 1e-7, 0.1, 7.25, 1e6)
    intercepts = (0.0, -42.0, 1e6)
    params = (
        DetectorParams(AR, size=10, threshold_k=3.0),
        DetectorParams(LS, size=5, threshold_k=6.0),
        DetectorParams(RA, size=10, threshold_k=3.0),
    )
    checked = 0
    for value in constants:
        series = np.full(300, value)
        for p in params:
            assert run_detector(p, series).count == 0, p.kind
        checked += 1
    for slope in slopes:
        for intercept in intercepts:
            series = intercept + slope * np.arange(300.0)
            for p in params:
                assert run_detector(p, series).count == 0, (slope, intercept, p.kind)
            checked += 1
    _passed(5, f"all three detectors report 0 anomalies on {checked} constant/line series")


def test_criterion_06_detector_oracles():
    rng = np.random.default_rng(606)
    worst_ar = 0.0
    for trial in range(100):
        values = rng.integers(-1000, 1000, 500).astype(float)
        p = int(rng.integers(1, 11))
        ar_diff = np.max(np.abs(fit_ar_predict(values, p) - ar_oracle_residuals(values, p)))
        worst_ar = max(worst_ar, float(ar_diff))
        assert ar_diff < 1e-8
        w = int(rng.integers(2, 12))
        assert np.array_equal(rolling_average_residuals(values, w), ra_oracle_residuals(values, w))
        assert np.array_equal(level_shift_scores(values, w), ls_oracle_scores(values, w))
    _passed(6, f"100 series x (AR within {worst_ar:.1e} <= 1e-8, RA exact, LS exact)")


def test_criterion_07_merging_direction_of_effect():
    start = time.perf_counter()
    # three days at 5 s for the high-frequency side, hourly subsample for the low
    clean = constant_series("base", SystemTag.HIST, 0.0, 51_840, 5_000)
    hist = add_spikes(clean, 20, 100.0, seed=77)
    hist = TimeSeries(MeasurementId(SystemTag.HIST, "HIST-40-S"), hist.t, hist.v)
    ion = subsample_every(clean, 720, "ION-4-3472", SystemTag.ION)

    params = default_params(DetectorKind.ROLLING_AVERAGE)
    ion_count = run_detector(params, ion).count
    hist_count = run_detector(params, hist).count
    merged_count = run_detector(params, merge_pair(ion, hist)).count

    assert ion_count == 0
    assert hist_count > 0
    assert merged_count >= hist_count
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(7, f"RA counts ion=0 hist={hist_count} merged={merged_count} "
               f"(merged >= hist) ({elapsed:.1f}s)")


def test_criterion_08_injection_end_to_end():
    # 1 s cadence so the 7 s outage spans more samples than the LS window
    series = mkvalues(np.full(600, 100.0), name="HIST-C", cadence=1_000)
    injected, label = inject_zero_run(series, int(series.t[300]), 7_000)

    ls = run_detector(DetectorParams(LS, size=5, threshold_k=6.0), injected)
    ls_score = evaluate(ls, label, slack=5)
    assert ls_score.recall >= 0.5

    ra = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), injected)
    ra_score = evaluate(ra, label, slack=10)
    assert ra_score.true_positives >= 1

    noisy, _ = inject_gaussian_noise(series, 25, 0.0, seed=8)
    for params in (
        DetectorParams(AR, size=10, threshold_k=3.0),
        DetectorParams(LS, size=5, threshold_k=6.0),
        DetectorParams(RA, size=10, threshold_k=3.0),
    ):
        assert run_detector(params, noisy) == run_detector(params, series)
    _passed(8, f"zero-run: LS recall {ls_score.recall:.2f} >= 0.5, RA TP {ra_score.true_positives}; "
               f"sigma-0 outputs bit-identical")


def test_criterion_09_sampling_runtime_monotonicity():
    rng = np.random.default_rng(909)
    n = 500_000
    hist = mkvalues(np.cumsum(rng.normal(0, 1, n)), name="HIST-big", cadence=5_000)
    ion = mkvalues(np.cumsum(rng.normal(0, 1, 695)), name="ION-small",
                   system=SystemTag.ION, cadence=3_600_000)

    steps = (100, 1000, 2000, 5000)
    times, cells = {step: math.inf for step in steps}, {}
    # the steps take turns within each round, so a change in CPU speed hits
    # every step alike; each keeps its best time over the rounds
    for _ in range(5):
        for step in steps:
            recipe = SamplingRecipe(SamplingKind.STEP_SIZE, hist_step=step, ion_step=1)
            run = match_all([ion], [hist], recipe)
            times[step] = min(times[step], run.elapsed_seconds)
            cells[step] = run.cells_evaluated
    assert cells[100] > cells[1000] > cells[2000] > cells[5000]
    assert times[100] > times[1000] > times[2000] > times[5000]
    shown = ", ".join(f"{k}:{v * 1000:.1f}ms" for k, v in times.items())
    _passed(9, f"match wall time strictly decreases with hist step ({shown})")


def test_criterion_10_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(
        ["synth", "--out", str(corpus), "--seed", "7", "--hist-points", "2400",
         "--ion-cadence-ms", "600000"]
    ) == 0
    args = [
        "pipeline", "--manifest", str(corpus / "manifest.json"),
        "--top-n", "2", "--recipe", "step", "--hist-step", "20", "--ion-step", "1",
        "--ar-order", "5", "--ra-window", "5", "--ls-window", "3",
    ]
    out_a, out_b = tmp_path / "run-a", tmp_path / "run-b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    report_a = (out_a / "report.json").read_bytes()
    assert report_a == (out_b / "report.json").read_bytes()
    matches_a = (out_a / "matches.csv").read_bytes()
    assert matches_a == (out_b / "matches.csv").read_bytes()
    json.loads(report_a)  # well-formed
    _passed(10, "two pipeline runs byte-identical (report.json, matches.csv)")
