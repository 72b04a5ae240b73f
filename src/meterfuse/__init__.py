"""meterfuse: match, merge, and scan overlapping two-system meter series.

Pipeline: discover which measurements two independent metering systems
share (pairwise warped-distance ranking), merge each matched pair into
one timestamp-sorted series, run unsupervised anomaly detectors on the
individual and merged views, and compare the counts.  A seeded injection
harness turns the comparison into a labeled evaluation.
"""

from .analysis import (
    SummaryStats,
    build_report,
    coverage_ratio,
    describe,
    percent_change,
)
from .detectors import (
    AnomalySet,
    DetectorKind,
    DetectorParams,
    default_params,
    fit_ar_predict,
    run_detector,
)
from .dtw import (
    DtwResult,
    MatchResult,
    MatchRun,
    Metric,
    WarpPath,
    dtw_exact,
    fastdtw,
    match_all,
)
from .errors import MeterFuseError
from .ingest import (
    ColumnMap,
    Corpus,
    CorpusManifest,
    ManifestEntry,
    TimeFormat,
    load_corpus,
    load_manifest,
    parse_csv,
    series_to_csv,
)
from .injection import (
    EvalScore,
    InjectionKind,
    InjectionLabel,
    evaluate,
    inject_gaussian_noise,
    inject_zero_run,
)
from .merge import MergedSeries, merge_pair, split
from .model import (
    MeasurementId,
    Sample,
    SystemTag,
    TimeSeries,
    slice_by_range,
    validate_series,
)
from .sampling import (
    SamplingKind,
    SamplingRecipe,
    sample_date_range,
    sample_first_n,
    sample_step,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalySet",
    "ColumnMap",
    "Corpus",
    "CorpusManifest",
    "DetectorKind",
    "DetectorParams",
    "DtwResult",
    "EvalScore",
    "InjectionKind",
    "InjectionLabel",
    "ManifestEntry",
    "MatchResult",
    "MatchRun",
    "MeasurementId",
    "MergedSeries",
    "MeterFuseError",
    "Metric",
    "Sample",
    "SamplingKind",
    "SamplingRecipe",
    "SummaryStats",
    "SystemTag",
    "TimeFormat",
    "TimeSeries",
    "WarpPath",
    "build_report",
    "coverage_ratio",
    "default_params",
    "describe",
    "dtw_exact",
    "evaluate",
    "fastdtw",
    "fit_ar_predict",
    "inject_gaussian_noise",
    "inject_zero_run",
    "load_corpus",
    "load_manifest",
    "match_all",
    "merge_pair",
    "parse_csv",
    "percent_change",
    "run_detector",
    "sample_date_range",
    "sample_first_n",
    "sample_step",
    "series_to_csv",
    "slice_by_range",
    "split",
    "validate_series",
]
