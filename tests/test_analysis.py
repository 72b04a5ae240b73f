import math
import statistics
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis.strategies import floats, lists

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
from meterfuse.analysis import report_csv
from meterfuse.detectors import DETECTORS, AnomalySet
from meterfuse.dtw import MatchResult
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


def test_describe_pools_across_merge(rng):
    ion = mkvalues(rng.normal(0, 1, 30), name="ION-A", system=SystemTag.ION)
    hist = mkvalues(rng.normal(100, 9, 300), name="HIST-B", system=SystemTag.HIST)
    merged = merge_pair(ion, hist)
    st = describe(merged)
    a, b = describe(ion), describe(hist)
    pooled_mean = (a.count * a.mean + b.count * b.mean) / st.count
    assert st.mean == pytest.approx(pooled_mean, rel=1e-12)


finite = floats(allow_nan=False, allow_infinity=False)


@given(lists(finite, min_size=1, max_size=50))
def test_describe_finite_input_gives_finite_stats(values):
    stats = describe(np.array(values))
    assert math.isfinite(stats.mean) and math.isfinite(stats.std)
    if all(v == 0 or abs(v) > 1e-140 for v in values):  # no square below the normal range
        # equal values can read a std of an ulp of the mean: the mean's division rounds
        peak = max(map(abs, values))
        assert stats.std == pytest.approx(statistics.pstdev(values), rel=1e-9, abs=1e-15 * peak)


@given(lists(finite, min_size=1, max_size=50))
def test_describe_keeps_its_bits_while_squares_stay_finite(values):
    x = np.array(values)
    try:
        mean = math.fsum(values) / len(x)
        with np.errstate(over="raise"):
            centered = x - mean
            var = math.fsum((centered * centered).tolist()) / len(x)
    except (OverflowError, FloatingPointError):
        assume(False)
    # values that differ with a variance below the normal range underflowed when squared
    assume(var >= sys.float_info.min or min(values) == max(values))
    stats = describe(x)
    assert (repr(stats.mean), repr(stats.std)) == (repr(mean), repr(math.sqrt(var)))


@given(lists(floats(-(2.0**-480), 2.0**-480), min_size=1, max_size=50))
@example([0.0, 1.746053992308445e-302])
@example([1e-160, 3e-160])
def test_describe_matches_exact_rational_oracle_on_tiny_values(values):
    # Centred squares of these values fall below float64's normal range.  The
    # oracle scales the exact variance by 2**1200 into that range, takes the
    # root there and scales it back.
    stats = describe(np.array(values))
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / len(exact)
    std = math.ldexp(math.sqrt(var * 2**1200), -600)
    assert math.isclose(stats.mean, mean, rel_tol=2**-51, abs_tol=2**-1074)
    # a two-pass std is off by up to its mean's rounding, |mean| * 2**-53
    assert abs(stats.std - std) <= 1e-15 * std + 2**-52 * abs(float(mean)) + 2**-1074
    assert (stats.min, stats.max) == (min(values), max(values))


def test_describe_spikes_past_1e154_give_a_finite_std():
    values = np.zeros(1000)
    values[::50] = 1e200
    stats = describe(values)
    assert stats.std == pytest.approx(statistics.pstdev(values.tolist()), rel=1e-12)
    assert stats.mean == pytest.approx(2e198, rel=1e-15)


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
    params = DetectorParams(DetectorKind.ROLLING_AVERAGE, size=10, threshold_k=3.0)
    return AnomalySet(name, params, np.arange(count), np.ones(count))


def _sets(ion_n, hist_n, merged_n):
    return {
        kind: (
            _anomaly_set("ION-A", ion_n),
            _anomaly_set("HIST-B", hist_n),
            _anomaly_set("ION-A+HIST-B", merged_n),
        )
        for kind in DETECTORS
    }


def _report(sets):
    ion = mkvalues([1.0, 2.0], name="ION-A", system=SystemTag.ION, cadence=2000)
    hist = mkvalues([1.0, 1.5, 2.0], name="HIST-B")
    match = MatchResult(ion.id, hist.id, distance=0.25, rank=1, cells_evaluated=6)
    return build_report(match, sets, [describe(s) for s in (ion, hist, merge_pair(ion, hist))])


def test_build_report_percent_change_row():
    report = _report(_sets(0, 94, 832))
    row = report["detectors"][DetectorKind.ROLLING_AVERAGE.value]
    assert (row["ion"], row["hist"], row["merged"]) == (0, 94, 832)
    assert row["percent_change"] == pytest.approx(785.1, abs=0.5)
    assert row["ratio"]["vs_ion"] is None
    assert row["ratio"]["missed_by_ion"] == 94
    assert row["ratio"]["vs_hist"] == 1.0
    assert row["ratio"]["missed_by_hist"] == 0
    assert not row["merge_loss"]


def test_build_report_flags_merge_loss():
    report = _report(_sets(0, 6, 4))
    row = report["detectors"][DetectorKind.LEVEL_SHIFT.value]
    assert row["merge_loss"]
    assert row["percent_change"] == pytest.approx(-100 * 2 / 6, abs=1e-9)


def test_build_report_all_zero_counts():
    report = _report(_sets(0, 0, 0))
    row = report["detectors"][DetectorKind.AR.value]
    assert row["percent_change"] is None
    assert row["ratio"]["vs_ion"] == 1.0
    assert row["ratio"]["vs_hist"] == 1.0
    assert not row["merge_loss"]


def test_build_report_pure_aggregation_is_reproducible():
    sets = _sets(3, 10, 20)
    assert _report(sets) == _report(sets)


def test_report_serialization_shape():
    doc = _report(_sets(1, 2, 5))
    assert set(doc) == {"rank", "distance", "ion", "hist", "detectors", "stats"}
    assert (doc["rank"], doc["distance"], doc["ion"], doc["hist"]) == (1, 0.25, "ION-A", "HIST-B")
    assert [doc["stats"][view]["count"] for view in ("ion", "hist", "merged")] == [2, 3, 5]
    assert list(doc["detectors"]) == ["rolling_average", "autoregression", "level_shift"]
    for row in doc["detectors"].values():
        assert set(row) == {"ion", "hist", "merged", "percent_change", "ratio", "merge_loss"}

    lines = report_csv([doc]).splitlines()
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
    sets = {params.kind: (mf.run_detector(params, ion),
                          mf.run_detector(params, hist),
                          mf.run_detector(params, merged))}

    doc = mf.build_report(best, sets, [mf.describe(s) for s in (ion, hist, merged)])
    assert list(doc["detectors"]) == ["rolling_average"]
    counts = [s.count for s in sets[params.kind]]
    assert mf.analysis.report_csv([doc]).splitlines() == [
        "pair_rank,measurement_name,rolling_average",
        f"1,{ion.id.name},{counts[0]}",
        f"1,{hist.id.name},{counts[1]}",
        f"1,{ion.id.name}+{hist.id.name},{counts[2]}",
    ]
