"""Run one meterfuse CLI command in this process, as the `meterfuse` script does.

Usage: python3 child.py HWM_FILE SPANS_JSON|- CLI_ARG...

When the command returns, HWM_FILE receives this process's own peak
resident set in kB (VmHWM), which starts from zero at exec.  The rusage
that wait4 returns for a child also holds the parent's high-water mark,
copied in at fork and kept across exec, so it would report the
benchmark's memory rather than the CLI's.

Unless SPANS_JSON is "-", every reference that a meterfuse module holds
to one of the public functions in LAYERS is first replaced by a wrapper
that adds the call's wall time to its layer.  A call made while the same
layer is already open is not counted again.  The CLI's own code runs
unchanged, so its outputs must be byte-identical to an untraced run.
SPANS_JSON receives per-layer seconds, the ingested row count, and the
flagged indices of every detector run, keyed by series then detector.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, public function) -> layer
LAYERS = {
    ("meterfuse.ingest", "load_manifest"): "ingest",
    ("meterfuse.ingest", "load_corpus"): "ingest",
    ("meterfuse.sampling", "apply_recipe"): "sampling",
    ("meterfuse.dtw", "match_all"): "dtw",
    ("meterfuse.merge", "merge_pair"): "merge",
    ("meterfuse.detectors", "run_detector"): "detectors",
    ("meterfuse.analysis", "build_report"): "analysis",
    ("meterfuse.analysis", "describe"): "analysis",
    ("meterfuse.injection", "inject_zero_run"): "injection",
    ("meterfuse.injection", "inject_gaussian_noise"): "injection",
    ("meterfuse.injection", "evaluate"): "injection",
}


class Tracer:
    """Per-layer wall time of the wrapped calls, the ingested rows and the detectors' flags."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.open: set[str] = set()
        self.rows = 0
        self.flagged: dict[str, dict[str, list[int]]] = {}

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self.open:
                return fn(*args, **kwargs)
            self.open.add(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.open.discard(layer)
            self.record(layer, fn.__name__, args, result, elapsed)
            return result

        return traced

    def record(self, layer: str, name: str, args, result, elapsed: float):
        if layer == "detectors":
            kind = args[0].kind.value
            layer = f"detectors.{kind}"
            self.flagged.setdefault(result.series_name, {})[kind] = [int(i) for i in result.flagged]
        elif name == "load_corpus":
            self.rows += sum(len(s) for s in result.series_by_id.values())
        self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed

    def install(self):
        for (module_name, attr), layer in LAYERS.items():
            fn = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(layer, fn)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "meterfuse" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)


def peak_rss_kb() -> int:
    with open("/proc/self/status") as f:
        return int(next(line for line in f if line.startswith("VmHWM:")).split()[1])


def main(argv: list[str]) -> int:
    hwm_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    import meterfuse.cli

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install()
    code = meterfuse.cli.main(cli_args)
    if tracer:
        doc = {"seconds": tracer.seconds, "rows": tracer.rows, "flagged": tracer.flagged}
        with open(spans_path, "w") as f:
            json.dump(doc, f)
    with open(hwm_path, "w") as f:
        f.write(f"{peak_rss_kb()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
