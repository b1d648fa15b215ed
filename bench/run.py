"""prefsense benchmark: runs one workload, checks its outputs, prints its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed, with their reasons, in BENCHMARK.json at
the repository root. With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (median time to import prefsense.cli in a fresh
interpreter), ``run_s`` (median wall time of one pass) and ``peak_rss_mb``
(peak resident memory of the process that ran the workload). With
``--trace 1`` it reports the per-layer metrics of a traced run, whose
spans are written to ``.bench_work/<workload>/spans.tsv``. ``--tiny``
shrinks every workload for a quick smoke run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
pass count, quartiles, error rate and run metadata. Failed operations
over attempted ones is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("verify_full", "dataset_roundtrip", "figures", "fit_scale")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def child_env() -> dict[str, str]:
    """Environment of every child: this checkout's sources, threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    return env


def _python(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True
    )


def measure_setup(env: dict[str, str], importtime: bool) -> dict[str, float]:
    """Medians over fresh interpreters of the time to import prefsense.cli.

    With importtime, the split between numpy (cumulative) and prefsense's
    own modules (self time) comes from ``python -X importtime``.
    """
    code = "import time; t = time.perf_counter(); import prefsense.cli; print(time.perf_counter() - t)"
    _python(["-c", code], env)  # writes the bytecode caches; not timed
    samples: dict[str, list[float]] = {"setup_s": [], "setup.numpy_import_s": [], "setup.prefsense_import_s": []}
    for _ in range(SETUP_REPEATS):
        proc = _python(["-X", "importtime", "-c", code] if importtime else ["-c", code], env)
        samples["setup_s"].append(float(proc.stdout))
        if importtime:
            rows = [m.groups() for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]
            numpy_us = [int(cum) for _, cum, _, name in rows if name == "numpy"]
            own_us = [int(own) for own, _, _, name in rows if name == "prefsense" or name.startswith("prefsense.")]
            samples["setup.numpy_import_s"].append(sum(numpy_us) / 1e6)
            samples["setup.prefsense_import_s"].append(sum(own_us) / 1e6)
    return {key: statistics.median(values) for key, values in samples.items() if values}


def metadata(env: dict[str, str], worker: dict) -> dict:
    """Recorded beside the timings, not gated."""
    revision = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_revision": revision,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "env": {var: env[var] for var in (*THREAD_VARS, "PYTHONHASHSEED")},
        "src_lines": src_lines,
        "input_sha256": worker["input_sha256"],
    }


def tail(passes: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, if above the median."""
    k = len(passes) - 11
    if k < len(passes) // 2:
        return None
    return 100 * (k + 1) // len(passes), sorted(passes)[k]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a smoke run")
    args = parser.parse_args()

    if not (ROOT / "src" / "prefsense" / "cli.py").is_file():
        print(f"bench: no prefsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        setup = measure_setup(env, importtime=bool(args.trace))
        cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "tiny": args.tiny, "workdir": str(workdir)}  # fmt: skip
        proc = _python([str(BENCH / "worker.py"), json.dumps(cfg)], env)
    except subprocess.CalledProcessError as exc:
        print(f"bench: {exc}\n{exc.stderr[-2000:]}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {**worker["metrics"], "setup.numpy_import_s": setup["setup.numpy_import_s"],
                   "setup.prefsense_import_s": setup["setup.prefsense_import_s"]}  # fmt: skip
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        summary = f"traced passes {worker['passes']}, untraced passes {worker['untraced_passes']}"
    else:
        passes = worker["pass_s"]
        metrics = {"setup_s": setup["setup_s"], "run_s": statistics.median(passes), "peak_rss_mb": worker["peak_rss_mb"]}
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        q1, _, q3 = statistics.quantiles(passes, n=4)
        high = tail(passes)
        high_text = f"p{high[0]} {high[1]:.4f} s" if high else "too few passes for a percentile with 10 above it"
        summary = f"passes {len(passes)} (after 1 warm-up), run_s quartiles {q1:.4f} / {q3:.4f} s, {high_text}"
    unit_of = {m["name"]: m["unit"] for m in units}
    error_rate = worker["failed"] / worker["attempted"]
    print(f"bench: workload {args.workload}, seed {args.seed}, trace {args.trace}; {summary}; error_rate {error_rate:g}")
    for error in worker["errors"]:
        print(f"bench: failed operation: {error.strip()}")
    print("bench: meta " + json.dumps(metadata(env, worker)))
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
