"""Run one workload in a fresh process and print its measurements as JSON.

run.py starts this with one argument, a JSON object with the keys
workload, seed, seconds, trace, tiny and workdir. The process imports
prefsense from the checkout's ``src/`` and nothing else of the
repository, so its peak resident memory is that of the workload.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from prefsense.errors import SaturationWarning  # noqa: E402
from prefsense.fitting import DivergenceWarning  # noqa: E402
from prefsense.verification import CHECKS  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
MAX_ERRORS_KEPT = 5


class Runner:
    """Runs passes of one workload and counts attempted and failed operations.

    With vary_inputs, pass k runs input k of the seed's sequence; without,
    every pass runs input 0, so that a traced run's counts repeat exactly.
    """

    def __init__(self, workload, vary_inputs: bool):
        self.workload = workload
        self.vary_inputs = vary_inputs
        self.passes_run = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(what)

    def run_pass(self) -> tuple[float, dict[str, int]]:
        """One pass; returns the summed time of its operations and its warnings.

        Checks run outside the timed calls. After a failed operation the
        rest of the pass cannot run; those operations count as failed too.
        """
        elapsed = 0.0
        steps = self.workload.steps(self.passes_run if self.vary_inputs else 0)
        self.passes_run += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for index, (call, check) in enumerate(steps):
                self.attempted += 1
                try:
                    start = time.perf_counter()
                    result = call()
                    elapsed += time.perf_counter() - start
                    check(result)
                except Exception:  # any failure of the program is counted, not fatal
                    self._fail(traceback.format_exc(limit=3))
                    for _ in steps[index + 1 :]:
                        self.attempted += 1
                        self._fail("skipped after an earlier failure in the pass")
                    break
        counts = {
            "saturation": sum(issubclass(w.category, SaturationWarning) for w in caught),
            "divergence": sum(issubclass(w.category, DivergenceWarning) for w in caught),
        }
        return elapsed, counts

    def timed_passes(self, seconds: float, tracer=None) -> list[tuple[float, dict, tuple]]:
        """Passes until `seconds` of wall time have gone, at least MIN_PASSES."""
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            elapsed, warned = self.run_pass()
            passes.append((elapsed, warned, tracer.take_pass() if tracer else None))
        return passes

    def check_run(self) -> None:
        try:
            self.workload.check_run()
        except Exception:  # a wrong output is counted against the last pass
            self._fail(traceback.format_exc(limit=3))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(pass_s: float, warned: dict[str, int], traced) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts = traced
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, tracing.self_times(spans)):
        layer = name.split(".", 1)[0]
        self_s[layer] += own
        calls[layer] += 1
        total[name] += end - start
    count = defaultdict(int, counts)
    m = {"cli.self_s": self_s["cli"]}
    for layer in ("links", "models", "sensitivity", "oracles"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["models.saturation_warnings"] = warned["saturation"]
    sampling_s = total["oracles.mc_area_bt"] + total["oracles.quad_area_pl"] + total["oracles.mode_count"]
    m["oracles.points"] = count["oracles.points"]
    m["oracles.points_per_s"] = _rate(count["oracles.points"], sampling_s)
    kernel_s = total["raster.raster_bt"] + total["raster.raster_pl"]
    m["raster.kernel_s"] = kernel_s
    m["raster.cells"] = count["raster.cells"]
    m["raster.cells_per_s"] = _rate(count["raster.cells"], kernel_s)
    m["raster.csv_write_s"] = total["raster.export.csv"]
    m["raster.svg_write_s"] = total["raster.export.svg"]
    m["raster.csv_read_s"] = total["raster.read_csv_grid"]
    m["raster.bytes_written"] = count["raster.bytes_written"]
    m["synth.generate_s"] = total["synth.generate"]
    m["synth.samples"] = count["synth.samples"]
    m["synth.samples_per_s"] = _rate(count["synth.samples"], total["synth.generate"])
    m["synth.check_s"] = total["synth.empirical_check"]
    m["synth.jsonl_write_s"] = total["synth.write_jsonl"]
    m["synth.jsonl_read_s"] = total["synth.read_jsonl"]
    m["synth.bytes_written"] = count["synth.bytes_written"]
    fit_s = total["fitting.fit_bt"]
    m["fitting.fit_s"] = fit_s
    m["fitting.iterations"] = count["fitting.iterations"]
    m["fitting.s_per_iteration"] = _rate(fit_s, count["fitting.iterations"])
    m["fitting.counts_s"] = total["fitting.counts_from_samples"] + total["fitting.parse_counts_text"]
    m["fitting.divergence_warnings"] = warned["divergence"]
    m["fitting.converged_ratio"] = _rate(count["fitting.converged"], count["fitting.fits"])
    for name, _ in CHECKS:
        m[f"verification.{name}_s"] = total[f"verification.{name}"]
    m["trace.run_s"] = pass_s
    return m


def write_spans(spans, path: Path) -> None:
    """One traced pass's spans, times in seconds from the pass's first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for idx, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{idx}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")


def traced_run(runner: Runner, seconds: float, workdir: Path) -> dict:
    """Untraced passes, then traced passes for the same time; per-layer medians."""
    untraced = [elapsed for elapsed, _, _ in runner.timed_passes(seconds / 2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.timed_passes(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    per_pass = [layer_metrics(*p) for p in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(untraced)
    write_spans(traced[-1][2][0], workdir / "spans.tsv")
    metrics["synth.peak_alloc_mb"] = 0.0
    if metrics["synth.samples"] or metrics["synth.jsonl_read_s"]:
        # tracemalloc slows what it watches, so peaks come from one more,
        # untimed pass that watches only synth's spans.
        alloc = tracing.Tracer(alloc_layer="synth")
        alloc.install()
        try:
            runner.run_pass()
        finally:
            alloc.uninstall()
        metrics["synth.peak_alloc_mb"] = alloc.peak_alloc / 2**20
    return {"metrics": metrics, "passes": len(traced), "untraced_passes": len(untraced)}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workdir = Path(cfg["workdir"])
    workload = WORKLOADS[cfg["workload"]](cfg["seed"], workdir, cfg["tiny"])
    runner = Runner(workload, vary_inputs=not cfg["trace"])
    runner.run_pass()  # warm-up: lazy set-up and first-touch costs, not timed
    if cfg["trace"]:
        out = traced_run(runner, cfg["seconds"], workdir)
    else:
        passes = runner.timed_passes(cfg["seconds"])
        out = {"pass_s": [elapsed for elapsed, _, _ in passes]}
        # Read before the once-per-run checks, which hold extra copies of the data.
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_run()
    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        input_sha256=workload.input_sha256,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
