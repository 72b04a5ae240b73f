"""meterfuse: match, merge, and scan overlapping two-system meter series.

Pipeline: discover which measurements two independent metering systems
share (pairwise warped-distance ranking), merge each matched pair into
one timestamp-sorted series, run unsupervised anomaly detectors on the
individual and merged views, and compare the counts.  A seeded injection
harness turns the comparison into a labeled evaluation.

Importing the package executes none of its library modules.  Each one is
registered in ``sys.modules`` and bound here as an attribute, but lazily
(`importlib.util.LazyLoader`): it is compiled and executed on the first
read of one of its attributes.  So a command loads only the modules it
calls, and ``from . import dtw`` finds the attribute without loading it
(without the attribute, the import would read the module's ``__spec__``,
which executes it).  ``__all__`` lists the names of ``_EXPORTS``; each is
read from its defining module on first use (`__getattr__`).
``meterfuse.cli`` is not registered: ``python -m meterfuse.cli`` would
find it in ``sys.modules`` already, and runpy warns that it may run twice.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the library module that defines them.
_EXPORTS = {
    "analysis": ("SummaryStats", "build_report", "coverage_ratio", "describe", "percent_change"),
    "detectors": (
        "AnomalySet", "DetectorKind", "DetectorParams", "default_params", "fit_ar_predict",
        "run_detector",
    ),
    "dtw": (
        "DtwResult", "MatchResult", "MatchRun", "Metric", "WarpPath", "dtw_exact", "fastdtw",
        "match_all",
    ),
    "errors": ("MeterFuseError",),
    "ingest": (
        "ColumnMap", "Corpus", "CorpusManifest", "ManifestEntry", "TimeFormat", "load_corpus",
        "load_manifest", "parse_csv", "series_to_csv",
    ),
    "injection": (
        "EvalScore", "InjectionKind", "InjectionLabel", "evaluate", "inject_gaussian_noise",
        "inject_zero_run",
    ),
    "merge": ("MergedSeries", "merge_pair", "split"),
    "model": ("MeasurementId", "SystemTag", "TimeSeries", "slice_by_range", "validate_series"),
    "sampling": (
        "SamplingKind", "SamplingRecipe", "apply_recipe", "sample_date_range", "sample_first_n",
        "sample_step",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register(*names: str) -> None:
    """Put each named library module in sys.modules and bind it here, unexecuted."""
    for name in names:
        spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{name}", __path__)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        globals()[name] = module
        spec.loader.exec_module(module)


_register(*_EXPORTS, "synth")


def __getattr__(name: str):
    """A public name, read from its defining module and bound here on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value

