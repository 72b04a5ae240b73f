import numpy as np
import pytest

from meterfuse import (
    EvalScore,
    InjectionKind,
    evaluate,
    inject_gaussian_noise,
    inject_zero_run,
)
from meterfuse.detectors import AnomalySet, DetectorKind, DetectorParams, run_detector
from meterfuse.errors import EmptyWindow, SeriesMismatch, TooFewSamples
from meterfuse.injection import label_to_json

from conftest import mkvalues

LS, RA = DetectorKind.LEVEL_SHIFT, DetectorKind.ROLLING_AVERAGE


def test_zero_run_on_all_zero_series_labels_window():
    s = mkvalues(np.zeros(20), cadence=5_000)
    injected, label = inject_zero_run(s, 10_000, 7_000)
    assert injected == s.with_values(s.v)
    assert np.array_equal(injected.v, s.v)
    assert label.kind is InjectionKind.DOS_ZERO_RUN
    assert label.affected == (2, 3)
    assert label.window == (10_000, 17_000)


def test_zero_run_seven_seconds_at_five_second_cadence_hits_one_or_two():
    s = mkvalues(np.full(40, 9.0), cadence=5_000)
    for phase in range(0, 5_000, 777):
        injected, label = inject_zero_run(s, 20_000 + phase, 7_000)
        assert len(label.affected) in (1, 2)
        assert all(injected.v[i] == 0.0 for i in label.affected)
        # untouched samples keep their values
        untouched = np.delete(np.arange(len(s)), label.affected)
        assert np.array_equal(injected.v[untouched], s.v[untouched])


def test_zero_run_outside_series_range():
    s = mkvalues(np.ones(10), cadence=1_000)
    with pytest.raises(EmptyWindow):
        inject_zero_run(s, 10**9, 7_000)


def test_zero_run_preserves_length_and_timestamps():
    s = mkvalues(np.arange(30.0), cadence=1_000)
    injected, _ = inject_zero_run(s, 5_000, 3_000)
    assert np.array_equal(injected.t, s.t)
    assert len(injected) == len(s)


def test_gaussian_sigma_zero_keeps_values():
    s = mkvalues(np.arange(25.0))
    injected, label = inject_gaussian_noise(s, 6, 0.0, seed=11)
    assert np.array_equal(injected.v, s.v)
    assert len(label.affected) == 6
    assert label.seed == 11


def test_gaussian_same_seed_bitwise_identical():
    s = mkvalues(np.linspace(-3, 3, 50))
    first = inject_gaussian_noise(s, 10, 2.5, seed=99)
    second = inject_gaussian_noise(s, 10, 2.5, seed=99)
    assert np.array_equal(first[0].v, second[0].v)
    assert first[1] == second[1]


def test_gaussian_different_seed_differs():
    s = mkvalues(np.zeros(50))
    a = inject_gaussian_noise(s, 10, 2.5, seed=1)[0]
    b = inject_gaussian_noise(s, 10, 2.5, seed=2)[0]
    assert not np.array_equal(a.v, b.v)


def test_gaussian_saturation_labels_everything():
    s = mkvalues(np.zeros(12))
    _, label = inject_gaussian_noise(s, 12, 1.0, seed=0)
    assert label.affected == tuple(range(12))


def test_gaussian_too_few_samples():
    with pytest.raises(TooFewSamples):
        inject_gaussian_noise(mkvalues(np.zeros(5)), 6, 1.0, seed=0)


def _detected(indices, name="HIST-test"):
    params = DetectorParams(DetectorKind.ROLLING_AVERAGE, size=10, threshold_k=3.0)
    idx = np.array(sorted(indices), dtype=np.int64)
    return AnomalySet(name, params, idx, np.ones(len(idx)))


def _label(indices, name="HIST-test"):
    from meterfuse.injection import InjectionLabel

    return InjectionLabel(InjectionKind.DOS_ZERO_RUN, tuple(sorted(indices)), (0, 1), name)


def test_evaluate_perfect_detection():
    score = evaluate(_detected({5, 9}), _label({5, 9}), slack=0)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_evaluate_nothing_detected():
    score = evaluate(_detected(set()), _label({5, 9}), slack=0)
    assert score.recall == 0.0
    assert score.precision == 1.0
    assert score.f1 == 0.0


def test_evaluate_slack_window():
    score = evaluate(_detected({51}), _label({50}), slack=1)
    assert (score.true_positives, score.false_positives, score.false_negatives) == (1, 0, 0)
    assert score.f1 == 1.0


def test_evaluate_counts_false_positives():
    score = evaluate(_detected({10, 90}), _label({10}), slack=0)
    assert (score.true_positives, score.false_positives, score.false_negatives) == (1, 1, 0)
    assert score.precision == 0.5


def test_evaluate_series_mismatch():
    with pytest.raises(SeriesMismatch):
        evaluate(_detected({1}, name="HIST-a"), _label({1}, name="HIST-b"))


def test_eval_score_from_counts_degenerate():
    score = EvalScore.from_counts(0, 0, 0)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_zero_run_end_to_end_detection():
    # constant 100 at 1 s cadence; a 7 s outage zeroes 8 samples
    s = mkvalues(np.full(600, 100.0), cadence=1_000)
    injected, label = inject_zero_run(s, 300_000, 7_000)
    assert len(label.affected) == 8

    ls = run_detector(DetectorParams(LS, size=5, threshold_k=6.0), injected)
    assert evaluate(ls, label, slack=5).recall >= 0.5

    ra = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), injected)
    assert evaluate(ra, label, slack=10).true_positives >= 1


def test_sigma_zero_injection_leaves_detection_identical():
    rng = np.random.default_rng(5)
    s = mkvalues(rng.normal(0, 1, 300))
    injected, _ = inject_gaussian_noise(s, 20, 0.0, seed=3)
    clean_ra = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), s)
    noisy_ra = run_detector(DetectorParams(RA, size=10, threshold_k=3.0), injected)
    assert clean_ra == noisy_ra


def test_label_json_schema():
    import json

    _, label = inject_gaussian_noise(mkvalues(np.zeros(10)), 3, 1.0, seed=4)
    doc = json.loads(label_to_json(label))
    assert set(doc) >= {"kind", "indices", "window", "seed"}
    assert doc["kind"] == "GAUSSIAN_NOISE"
    assert doc["indices"] == list(label.affected)


def test_default_zero_run_duration_range():
    from meterfuse.injection import draw_zero_run_duration_ms

    rng = np.random.default_rng(1)
    draws = {draw_zero_run_duration_ms(rng) for _ in range(500)}
    assert min(draws) >= 6_000 and max(draws) <= 8_000
    assert len(draws) > 100  # actually spans the interval
