"""Descriptive statistics and merged-vs-individual anomaly comparison.

Summation is compensated (math.fsum) so means and standard deviations on
million-point series agree with a naive oracle to full precision.  The
standard deviation is population by default; sample variance is a flag.

The comparison arithmetic is deliberately explicit about undefined
cases: percent change has no value when the individual baseline is zero,
and a coverage ratio against a zero single-view count is reported as
"all anomalies missed by the single view" rather than a number.  Both
ratio denominators (each single system) are reported because either
reading is defensible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .detectors import AnomalySet, DetectorKind
from .errors import UndefinedBaseline
from .merge import MergedSeries
from .model import TimeSeries


@dataclass(frozen=True)
class SummaryStats:
    """count/mean/std/min/max of a series' values; empty series have count 0."""

    count: int
    mean: float | None
    std: float | None
    min: float | None
    max: float | None


def describe(s: Union[TimeSeries, MergedSeries, np.ndarray], sample_std: bool = False) -> SummaryStats:
    values = s.v if isinstance(s, (TimeSeries, MergedSeries)) else np.asarray(s, dtype=np.float64)
    n = len(values)
    if n == 0:
        return SummaryStats(0, None, None, None, None)
    mean = math.fsum(values) / n
    centered = values - mean
    denom = n - 1 if (sample_std and n > 1) else n
    var = math.fsum(centered * centered) / denom
    return SummaryStats(n, mean, math.sqrt(var), float(values.min()), float(values.max()))


def percent_change(individual_total: int, merged: int) -> float:
    """100 * (merged - individual) / individual; undefined at baseline 0."""
    if individual_total <= 0:
        raise UndefinedBaseline("individual anomaly total is zero")
    return 100.0 * (merged - individual_total) / individual_total


def coverage_ratio(single: int, combined: int) -> float | None:
    """combined / single, with None meaning the single view saw nothing.

    Both zero counts agree vacuously and yield 1.
    """
    if single > 0:
        return combined / single
    if combined > 0:
        return None
    return 1.0


@dataclass(frozen=True)
class DetectorComparison:
    """One detector's anomaly counts across the three views of a pair."""

    ion_count: int
    hist_count: int
    merged_count: int
    percent_change: float | None
    ratio_vs_ion: float | None
    ratio_vs_hist: float | None
    missed_by_ion: int
    missed_by_hist: int
    merge_loss: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-pair anomaly comparison, one row group per detector."""

    ion_name: str
    hist_name: str
    by_detector: dict[DetectorKind, DetectorComparison]


def build_report(
    ion_name: str,
    hist_name: str,
    anomaly_sets: dict[DetectorKind, tuple[AnomalySet, AnomalySet, AnomalySet]],
) -> ComparisonReport:
    """Aggregate (ion, hist, merged) anomaly sets per detector.

    A detector whose merged count drops below the sum of the individual
    counts is flagged as a merge loss; it can happen because the robust
    thresholds are recomputed on the denser merged score distribution.
    """
    rows: dict[DetectorKind, DetectorComparison] = {}
    for kind, (ion_set, hist_set, merged_set) in anomaly_sets.items():
        ion_n, hist_n, merged_n = ion_set.count, hist_set.count, merged_set.count
        individual = ion_n + hist_n
        change = percent_change(individual, merged_n) if individual > 0 else None
        ratio_ion = coverage_ratio(ion_n, individual)
        ratio_hist = coverage_ratio(hist_n, individual)
        rows[kind] = DetectorComparison(
            ion_count=ion_n,
            hist_count=hist_n,
            merged_count=merged_n,
            percent_change=change,
            ratio_vs_ion=ratio_ion,
            ratio_vs_hist=ratio_hist,
            missed_by_ion=individual if ion_n == 0 else 0,
            missed_by_hist=individual if hist_n == 0 else 0,
            merge_loss=merged_n < individual,
        )
    return ComparisonReport(ion_name, hist_name, rows)


# The detectors in report-column order, each with the short tag that names
# its CLI flags (--ra-window) and per-detector output files (eval.ra.json).
DETECTOR_COLUMNS = {
    DetectorKind.ROLLING_AVERAGE: "ra",
    DetectorKind.AR: "ar",
    DetectorKind.LEVEL_SHIFT: "ls",
}


def report_to_dict(report: ComparisonReport) -> dict:
    """The report.json form of one pair, over the detectors the report holds."""
    detectors = {}
    for kind in DETECTOR_COLUMNS:
        row = report.by_detector.get(kind)
        if row is None:
            continue
        detectors[kind.value] = {
            "ion": row.ion_count,
            "hist": row.hist_count,
            "merged": row.merged_count,
            "percent_change": row.percent_change,
            "ratio": {
                "vs_ion": row.ratio_vs_ion,
                "vs_hist": row.ratio_vs_hist,
                "missed_by_ion": row.missed_by_ion,
                "missed_by_hist": row.missed_by_hist,
            },
            "merge_loss": row.merge_loss,
        }
    return {"ion": report.ion_name, "hist": report.hist_name, "detectors": detectors}


def report_csv(pairs: list[dict]) -> str:
    """report.csv from pairs in report.json form (`report_to_dict` plus "rank").

    Each pair gives an ion, a hist and a merged row; there is one count
    column per detector present, in DETECTOR_COLUMNS order.
    """
    present = {name for pair in pairs for name in pair["detectors"]}
    names = [kind.value for kind in DETECTOR_COLUMNS if kind.value in present]
    lines = [",".join(["pair_rank", "measurement_name", *names])]
    for pair in pairs:
        ion, hist, counts = pair["ion"], pair["hist"], pair["detectors"]
        for label, view in ((ion, "ion"), (hist, "hist"), (f"{ion}+{hist}", "merged")):
            row = [str(pair["rank"]), label, *(str(counts[name][view]) for name in names)]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"
