import math

import numpy as np
import pytest

from meterfuse import (
    DetectorKind,
    DetectorParams,
    SystemTag,
    build_report,
    coverage_ratio,
    describe,
    merge_pair,
    percent_change,
)
from meterfuse.analysis import DETECTOR_COLUMNS, report_csv, report_to_dict
from meterfuse.detectors import AnomalySet
from meterfuse.errors import UndefinedBaseline

from conftest import mkvalues


def naive_stats(values):
    n = len(values)
    total = 0.0
    for x in values:
        total += x
    mean = total / n
    sq = 0.0
    for x in values:
        sq += (x - mean) ** 2
    return mean, math.sqrt(sq / n), min(values), max(values)


def test_describe_constant_zero_series():
    st = describe(mkvalues(np.zeros(744)))
    assert (st.count, st.mean, st.std, st.min, st.max) == (744, 0.0, 0.0, 0.0, 0.0)


def test_describe_small_series():
    st = describe(np.array([1.0, 2.0, 3.0]))
    assert st.count == 3
    assert st.mean == pytest.approx(2.0)
    assert st.std == pytest.approx(math.sqrt(2.0 / 3.0))
    assert (st.min, st.max) == (1.0, 3.0)


def test_describe_empty():
    st = describe(np.array([]))
    assert st.count == 0
    assert st.mean is None and st.std is None and st.min is None and st.max is None


def test_describe_matches_naive_oracle_exactly_on_integers(rng):
    # balance the sum so the mean is an integer and every intermediate
    # stays exactly representable; then both summation orders agree bitwise
    values = rng.integers(-10_000, 10_000, 5_000).astype(float)
    values[0] -= values.sum() % len(values)
    st = describe(values)
    mean, std, lo, hi = naive_stats(values.tolist())
    assert st.mean == mean
    assert st.std == std
    assert (st.min, st.max) == (lo, hi)


def test_describe_matches_exact_rational_oracle_on_integers(rng):
    from fractions import Fraction

    values = rng.integers(-10_000, 10_000, 5_000).astype(float)
    st = describe(values)
    ints = [int(x) for x in values]
    mean = Fraction(sum(ints), len(ints))
    var = sum((Fraction(x) - mean) ** 2 for x in ints) / len(ints)
    assert st.mean == pytest.approx(float(mean), rel=1e-15)
    assert st.std == pytest.approx(math.sqrt(float(var)), rel=1e-14)


def test_describe_close_to_naive_oracle_on_floats(rng):
    values = rng.normal(1e6, 3.0, 200_000)
    st = describe(values)
    mean, std, lo, hi = naive_stats(values.tolist())
    assert st.mean == pytest.approx(mean, rel=1e-12)
    assert st.std == pytest.approx(std, rel=1e-9)
    assert (st.min, st.max) == (lo, hi)


def test_describe_sample_std_flag():
    values = np.array([1.0, 2.0, 3.0])
    pop = describe(values).std
    samp = describe(values, sample_std=True).std
    assert samp == pytest.approx(pop * math.sqrt(3 / 2))


def test_describe_pools_across_merge(rng):
    ion = mkvalues(rng.normal(0, 1, 30), name="ION-A", system=SystemTag.ION)
    hist = mkvalues(rng.normal(100, 9, 300), name="HIST-B", system=SystemTag.HIST)
    merged = merge_pair(ion, hist)
    st = describe(merged)
    a, b = describe(ion), describe(hist)
    pooled_mean = (a.count * a.mean + b.count * b.mean) / st.count
    assert st.mean == pytest.approx(pooled_mean, rel=1e-12)


def test_percent_change_published_counts():
    assert percent_change(94, 832) == pytest.approx(785.1, abs=0.5)
    assert percent_change(804, 2269) == pytest.approx(182.2, abs=0.5)


def test_percent_change_no_change():
    assert percent_change(100, 100) == 0.0


def test_percent_change_monotone_in_merged():
    assert percent_change(50, 80) < percent_change(50, 81)


def test_percent_change_zero_baseline():
    with pytest.raises(UndefinedBaseline):
        percent_change(0, 10)


def test_coverage_ratio_cases():
    assert coverage_ratio(0, 94) is None
    assert coverage_ratio(5, 10) == 2.0
    assert coverage_ratio(0, 0) == 1.0


def _anomaly_set(name, count):
    params = DetectorParams(DetectorKind.ROLLING_AVERAGE)
    return AnomalySet(name, params, np.arange(count), np.ones(count))


def _sets(ion_n, hist_n, merged_n):
    return {
        kind: (
            _anomaly_set("ION-A", ion_n),
            _anomaly_set("HIST-B", hist_n),
            _anomaly_set("ION-A+HIST-B", merged_n),
        )
        for kind in DETECTOR_COLUMNS
    }


def test_build_report_percent_change_row():
    report = build_report("ION-A", "HIST-B", _sets(0, 94, 832))
    row = report.by_detector[DetectorKind.ROLLING_AVERAGE]
    assert (row.ion_count, row.hist_count, row.merged_count) == (0, 94, 832)
    assert row.percent_change == pytest.approx(785.1, abs=0.5)
    assert row.ratio_vs_ion is None
    assert row.missed_by_ion == 94
    assert row.ratio_vs_hist == 1.0
    assert not row.merge_loss


def test_build_report_flags_merge_loss():
    report = build_report("ION-A", "HIST-B", _sets(0, 6, 4))
    row = report.by_detector[DetectorKind.LEVEL_SHIFT]
    assert row.merge_loss
    assert row.percent_change == pytest.approx(-100 * 2 / 6, abs=1e-9)


def test_build_report_all_zero_counts():
    report = build_report("ION-A", "HIST-B", _sets(0, 0, 0))
    row = report.by_detector[DetectorKind.AR]
    assert row.percent_change is None
    assert row.ratio_vs_ion == 1.0
    assert row.ratio_vs_hist == 1.0
    assert not row.merge_loss


def test_build_report_pure_aggregation_is_reproducible():
    sets = _sets(3, 10, 20)
    assert build_report("ION-A", "HIST-B", sets) == build_report("ION-A", "HIST-B", sets)


def test_report_serialization_shape():
    report = build_report("ION-A", "HIST-B", _sets(1, 2, 5))
    doc = report_to_dict(report)
    assert set(doc) == {"ion", "hist", "detectors"}
    assert list(doc["detectors"]) == ["rolling_average", "autoregression", "level_shift"]
    for row in doc["detectors"].values():
        assert set(row) == {"ion", "hist", "merged", "percent_change", "ratio", "merge_loss"}

    lines = report_csv([{**doc, "rank": 1}]).splitlines()
    assert lines[0] == "pair_rank,measurement_name,rolling_average,autoregression,level_shift"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["ION-A", "HIST-B", "ION-A+HIST-B"]
    assert rows[2][2:] == ["5", "5", "5"]


def test_readme_library_example_renders_partial_report(tmp_path):
    # The README's library example, on a small demo corpus: a report that
    # holds only the rolling-average detector.
    import meterfuse as mf
    from meterfuse.synth import demo_corpus, write_corpus

    manifest = write_corpus(demo_corpus(hist_points=2400, ion_cadence_ms=600_000), tmp_path)
    corpus = mf.load_corpus(mf.load_manifest(manifest))
    recipe = mf.SamplingRecipe(mf.SamplingKind.STEP_SIZE, hist_step=100, ion_step=2)
    run = mf.match_all(corpus.partition(mf.SystemTag.ION),
                       corpus.partition(mf.SystemTag.HIST), recipe)

    best = run.results[0]
    ion = corpus.series_by_id[best.ion_id]
    hist = corpus.series_by_id[best.hist_id]
    merged = mf.merge_pair(ion, hist)

    params = mf.default_params(mf.DetectorKind.ROLLING_AVERAGE)
    report = mf.build_report(ion.id.name, hist.id.name, {
        params.kind: (mf.run_detector(params, ion),
                      mf.run_detector(params, hist),
                      mf.run_detector(params, merged)),
    })

    doc = {**mf.analysis.report_to_dict(report), "rank": best.rank}
    assert list(doc["detectors"]) == ["rolling_average"]
    row = report.by_detector[mf.DetectorKind.ROLLING_AVERAGE]
    assert mf.analysis.report_csv([doc]).splitlines() == [
        "pair_rank,measurement_name,rolling_average",
        f"1,{ion.id.name},{row.ion_count}",
        f"1,{hist.id.name},{row.hist_count}",
        f"1,{ion.id.name}+{hist.id.name},{row.merged_count}",
    ]
