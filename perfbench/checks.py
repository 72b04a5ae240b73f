"""Output checks computed apart from the program.

Each check reads the CLI's output files and the corpus CSVs with numpy and
raises AssertionError with a message when the output is wrong.  None of
them compares against a stored copy of an earlier output or pins detector
counts: they check identities that must hold for any correct run.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import pairwise
from pathlib import Path

import numpy as np

DETECTORS = ("rolling_average", "autoregression", "level_shift")
EVAL_TAGS = ("ra", "ar", "ls")
RTOL = 1e-9
# Spikes before this index sit where no detector computes a score
# (the CLI's default rolling-average window and AR order are 10).
FIRST_SCORED_INDEX = 10


class Inputs:
    """The corpus as written, read back with numpy (cached per series)."""

    def __init__(self, manifest: Path):
        self.dir = manifest.parent
        doc = json.loads(manifest.read_text())
        self.entries = {e["name"]: e for e in doc["entries"]}
        self.truth = json.loads((self.dir / "truth.json").read_text())
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def names(self, system: str) -> list[str]:
        return sorted(n for n, e in self.entries.items() if e["system"] == system)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._cache:
            path = self.dir / self.entries[name]["path"]
            # epoch millis stay below 2**53, so they pass through float64 exactly
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            self._cache[name] = (rows[:, 0].astype(np.int64), rows[:, 1])
        return self._cache[name]


def exact_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """L2 warped distance over the full lattice, one row at a time.

    Within a row, acc[j] = c[j] + min(m[j], acc[j-1]) with
    m[j] = min(prev[j], prev[j-1]) unrolls to
    acc[j] = S[j] + min_{k<=j}(m[k] - S[k-1]) for the row's prefix sums S,
    which is a running minimum.
    """
    if len(a) > len(b):
        a, b = b, a
    prev = None
    for x in a:
        cost = (x - b) * (x - b)
        s = np.cumsum(cost)
        if prev is None:
            prev = s
            continue
        m = np.empty_like(prev)
        m[0] = prev[0]
        np.minimum(prev[1:], prev[:-1], out=m[1:])
        shifted = np.concatenate(([0.0], s[:-1]))
        prev = s + np.minimum.accumulate(m - shifted)
    return math.sqrt(prev[-1])


def path_cost(a: np.ndarray, b: np.ndarray, pairs: np.ndarray) -> float:
    """L2 distance accumulated along a warp path of (i, j) rows."""
    d = a[pairs[:, 0]] - b[pairs[:, 1]]
    return math.sqrt(float(np.sum(d * d)))


def valid_path(pairs: np.ndarray, len_a: int, len_b: int) -> bool:
    if len(pairs) == 0 or tuple(pairs[0]) != (0, 0) or tuple(pairs[-1]) != (len_a - 1, len_b - 1):
        return False
    steps = np.diff(pairs, axis=0)
    return bool(np.all((steps >= 0) & (steps <= 1)) and np.all(steps.sum(axis=1) >= 1))


def read_matches(out: Path) -> list[tuple[int, str, str, float]]:
    with open(out / "matches.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return [(int(r["rank"]), r["ion_name"], r["hist_name"], float(r["distance"])) for r in rows]


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=1e-12)


def pipeline_checks(out: Path, inputs: Inputs, steps: tuple[int, int], exact: bool):
    """(name, check) pairs for one pipeline output directory.

    ``steps`` is (ion_step, hist_step); ``exact`` says whether the run's
    radius puts every pair on the full lattice, so that distances must
    equal the exact ones rather than bound them from above.
    """
    ion_step, hist_step = steps

    def matches_complete():
        rows = read_matches(out)
        pairs = [(ion, hist) for _, ion, hist, _ in rows]
        expected = {(i, h) for i in inputs.names("ION") for h in inputs.names("HIST")}
        assert len(pairs) == len(set(pairs)) == len(expected), "a pair is missing or repeated"
        assert set(pairs) == expected, "matches.csv pairs differ from ION x HIST"
        assert [r[0] for r in rows] == list(range(1, len(rows) + 1)), "ranks are not 1..N"
        assert all(x[3] <= y[3] for x, y in pairwise(rows)), "distances decrease"

    def twins_nearest():
        best: dict[str, tuple[float, str]] = {}
        for _, ion, hist, d in read_matches(out):
            if ion not in best or d < best[ion][0]:
                best[ion] = (d, hist)
        for ion, twin in inputs.truth["twins"].items():
            assert best[ion][1] == twin, f"{ion}: nearest is {best[ion][1]}, twin is {twin}"

    def distances_vs_exact():
        for _, ion, hist, d in read_matches(out):
            ref = exact_dtw(inputs.series(ion)[1][::ion_step], inputs.series(hist)[1][::hist_step])
            if exact:
                assert close(d, ref), f"{ion}/{hist}: {d!r} != exact {ref!r}"
            else:
                assert d >= ref * (1 - RTOL), f"{ion}/{hist}: {d!r} below exact {ref!r}"

    def report_arithmetic():
        for pair in _report(out)["pairs"]:
            for det in DETECTORS:
                row = pair["detectors"][det]
                individual = row["ion"] + row["hist"]
                if individual == 0:
                    assert row["percent_change"] is None, f"{det}: percent change at baseline 0"
                else:
                    want = 100 * (row["merged"] - individual) / individual
                    assert close(row["percent_change"], want), f"{det}: percent change {row}"
                assert row["merge_loss"] == (row["merged"] < individual), f"{det}: merge_loss {row}"

    def report_stats():
        for pair in _report(out)["pairs"]:
            views = {"ion": inputs.series(pair["ion"])[1], "hist": inputs.series(pair["hist"])[1]}
            views["merged"] = np.concatenate([views["ion"], views["hist"]])
            stats = pair["stats"]
            assert stats["merged"]["count"] == stats["ion"]["count"] + stats["hist"]["count"]
            for view, v in views.items():
                got = stats[view]
                assert got["count"] == len(v), f"{pair['ion']}/{pair['hist']} {view}: count"
                for key, want in (("mean", v.mean()), ("std", v.std()), ("min", v.min()), ("max", v.max())):
                    assert math.isclose(got[key], float(want), rel_tol=RTOL, abs_tol=1e-9), (
                        f"{pair['ion']}/{pair['hist']} {view}: {key} {got[key]!r} != {want!r}"
                    )

    def report_matches_top():
        rows = read_matches(out)
        doc = _report(out)
        assert doc["top_n"] == len(doc["pairs"])
        for pair, (rank, ion, hist, d) in zip(doc["pairs"], rows):
            assert (pair["rank"], pair["ion"], pair["hist"], pair["distance"]) == (rank, ion, hist, d)

    def report_csv_agrees():
        with open(out / "report.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["pair_rank", "measurement_name", *DETECTORS], f"header {rows[0]}"
        want = []
        for pair in _report(out)["pairs"]:
            for view, name in (("ion", pair["ion"]), ("hist", pair["hist"]),
                               ("merged", f"{pair['ion']}+{pair['hist']}")):
                counts = [str(pair["detectors"][d][view]) for d in DETECTORS]
                want.append([str(pair["rank"]), name, *counts])
        assert rows[1:] == want, "report.csv rows differ from report.json"

    return [
        ("matches_complete", matches_complete),
        ("twins_nearest", twins_nearest),
        ("distances_vs_exact", distances_vs_exact),
        ("report_arithmetic", report_arithmetic),
        ("report_stats", report_stats),
        ("report_matches_top", report_matches_top),
        ("report_csv_agrees", report_csv_agrees),
    ]


def evaluate_checks(out: Path, inputs: Inputs, kind: str):
    """(name, check) pairs for one evaluate output directory."""
    args = inputs.truth["evaluate"]

    def label():
        doc = json.loads((out / "label.json").read_text())
        t, _ = inputs.series(args["series"])
        if kind == "zero-run":
            end = args["at"] + args["duration_ms"]
            want = np.nonzero((t >= args["at"]) & (t <= end))[0]
        else:
            rng = np.random.default_rng(args["seed"])
            want = np.sort(rng.choice(len(t), size=args["noise_count"], replace=False))
        assert doc["series"] == args["series"], f"label series {doc['series']}"
        assert doc["indices"] == [int(i) for i in want], "label indices differ"

    def scores():
        size = len(json.loads((out / "label.json").read_text())["indices"])
        for tag in EVAL_TAGS:
            s = json.loads((out / f"eval.{tag}.json").read_text())
            tp, fp, fn = s["true_positives"], s["false_positives"], s["false_negatives"]
            assert tp + fn == size, f"{tag}: tp+fn {tp + fn} != label size {size}"
            precision = tp / (tp + fp) if tp + fp else 1.0
            recall = tp / (tp + fn) if tp + fn else 1.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            for key, want in (("precision", precision), ("recall", recall), ("f1", f1)):
                assert close(s[key], want), f"{tag}: {key} {s[key]!r} != {want!r}"

    return [(f"label_{kind}", label), (f"scores_{kind}", scores)]


def spikes_flagged(truth: dict, flagged: dict[str, dict[str, list[int]]]):
    """Every scorable planted spike is flagged by some detector on its HIST series."""
    for hist, spikes in truth["spikes"].items():
        assert hist in flagged, f"no detector ran on {hist}"
        union = set().union(*flagged[hist].values())
        missed = [i for i in spikes if i >= FIRST_SCORED_INDEX and i not in union]
        assert not missed, f"{hist}: planted spikes {missed} not flagged"


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())
