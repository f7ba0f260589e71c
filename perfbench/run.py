"""Benchmark of stochheat: set-up time, pass time and peak memory per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload survey-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each pass of a workload's subcommands runs in a fresh process, as a
command-line run does, and processes run one at a time for --seconds (at
least MIN_PASSES passes).  `run_s` is the mean pass time.  Every process gives
one `setup_s` sample; set-up-only processes top the samples up to
SETUP_SAMPLES, and `setup_s` is their median.  With --trace 1 the passes
alternate between untraced and traced, and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, TRACE_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fewest passes and set-up samples in one run.  Pass times are bimodal on
# survey-2d: about one process in five takes a storm of page faults in `ucp`
# (+2 s), so the mean of the passes, which moves by a fraction of a storm per
# slow pass, is steadier than their median, which jumps by a whole storm
MIN_PASSES = 3
SETUP_SAMPLES = 9
# one BLAS thread: the machine has two cores and the benchmark measures one
# process at a time, so a second thread would contend with the system
BLAS_THREADS = "1"
# a run must end within 180 s; leave room to print and exit
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """A benchmark process failed; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list, deadline: float) -> tuple:
    """Start one worker process; returns (start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    """Run passes, each in a fresh process, for `seconds` (at least
    MIN_PASSES); then top up the set-up samples with set-up-only processes."""
    out = HERE / "out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = ["--workload", name, "--seed", str(seed)]
    first = out / "pass-0"
    passes = []
    measuring = time.monotonic()
    while len(passes) < MIN_PASSES \
            or time.monotonic() - measuring < seconds:
        traced = bool(trace) and len(passes) % 2 == 1
        pass_dir = out / f"pass-{len(passes)}"
        args = base + ["--out", str(pass_dir)]
        if traced:
            args += ["--spans", str(out / f"spans-{len(passes)}.json")]
        if passes:
            args += ["--reference", str(first)]
        started, res = run_child(args, deadline)
        res["setup_s"] = res["ready"] - started
        res["traced"] = traced
        passes.append(res)
        if passes[1:]:
            shutil.rmtree(pass_dir)
    for res in passes:
        for message in res["wrong"]:
            print(f"{name}: {message}", file=sys.stderr)
    plain = [res for res in passes if not res["traced"]]
    if trace:
        metrics = layer_metrics(name, passes)
    else:
        setups = [res["setup_s"] for res in passes]
        while len(setups) < SETUP_SAMPLES:
            started, res = run_child(base + ["--setup-only"], deadline)
            setups.append(res["ready"] - started)
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.fmean(r["run_s"] for r in plain),
                  "peak_rss_mb": statistics.median(
                      r["peak_rss_kb"] for r in plain) / 1024.0}
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    result = {"correct": all(res["correct"] for res in passes),
              "attempted": sum(res["attempted"] for res in passes),
              "failed": sum(res["failed"] for res in passes),
              "metrics": metrics, "passes": len(passes)}
    samples = {key: [r[key] for r in plain] for key in
               ("run_s", "user_s", "system_s", "minor_faults", "peak_rss_kb")}
    if not trace:
        samples["setup_s"] = setups
    (out / "result.json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds, "trace": trace,
         "samples": samples, **result}, indent=1) + "\n")
    return result


def layer_metrics(name: str, passes: list) -> dict:
    """Per-layer medians over the traced passes, and the tracing overhead
    against the untraced passes of the same run.  Counts must repeat."""
    traced = [res for res in passes if res["traced"]]
    plain = [res for res in passes if not res["traced"]]
    values = {}
    for key, (unit, kind, _) in PER_LAYER.items():
        samples = [res["layers"][key] for res in traced]
        if kind in ("calls", "counter"):
            if len(set(samples)) != 1:
                print(f"{name}: count {key} differs between passes: {samples}",
                      file=sys.stderr)
            values[key] = samples[0]
        else:
            values[key] = statistics.median(samples)
    traced_s = statistics.fmean(res["run_s"] for res in traced)
    values["trace.traced_run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.fmean(
        res["run_s"] for res in plain)
    values["trace.spans"] = traced[0]["spans"]
    units = {key: unit for key, (unit, _, _) in PER_LAYER.items()}
    units.update(TRACE_METRICS)
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochheat" / "cli.py").is_file():
        print(f"no stochheat source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"BLAS threads: {BLAS_THREADS}; python {sys.version.split()[0]}; "
          f"cores: {os.cpu_count()}")
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, deadline)
        except BenchmarkError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        for key, metric in res["metrics"].items():
            print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}, passes {res['passes']}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": metric for name, res in results.items()
                   for key, metric in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
