"""One benchmark process: set up a workload's experiment and run one pass.

Started by run.py.  The process constructs the experiment as `stochheat`
does, then (unless --setup-only) runs one pass of the workload's
subcommands, checks the reports it wrote, and prints one JSON line with its
measurements.  A fresh process per pass keeps every pass as cold as a
command-line run: nothing is cached from an earlier pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import numpy as np

import stochheat
from stochheat import (cli, control, forward, geometry, noise, observability,
                       report)
from stochheat import config as cfgmod

import checks
from tracer import Tracer
from workloads import WORKLOADS


def build_config(workload, seed: int) -> dict:
    """The config `stochheat --config FILE` would run for this workload."""
    cfg = cfgmod.merge_config(cfgmod.parse_config(workload.config_text))
    cfg["seed"] = workload.config_seed(seed)
    return cfg


def run_pass(cfg: dict, exp, subcommands, out_dir: str) -> list:
    """Run each subcommand as `stochheat <subcommand>` does after set-up:
    the runner, then the report and its timing sidecar on disk.  Returns
    the traceback of each subcommand that raised, None for the others."""
    errors = []
    for sub in subcommands:
        started = time.perf_counter()
        try:
            records, extras, tables = cli.SUBCOMMANDS[sub](exp)
            rep = {"experiment": sub, "config_hash": cfgmod.config_hash(cfg),
                   "seed": cfg["seed"], "checks": records, "details": extras,
                   "tool_version": f"stochheat {stochheat.__version__}"}
            report.write_report(rep, out_dir, sub, tables=tables)
            report.write_timing_sidecar(out_dir, sub,
                                        time.perf_counter() - started)
            errors.append(None)
        except Exception:  # counted as a failed operation; the run goes on
            errors.append(traceback.format_exc())
    return errors


def energy_checks(exp, cfg: dict, rep: dict) -> list:
    """Forward ensemble energies against the dense second-moment recursion."""
    grid, mesh, ens = exp.grid, exp.mesh, exp.ensemble
    reference = checks.reference_energy_trace(
        exp.y0, float(cfg["coeff.a"]), float(cfg["coeff.b"]), grid.shape,
        grid.h, mesh.horizon, mesh.steps)
    if cfg["noise.mode"] == "tree":
        return checks.check_energy_trace(forward.energy_trace(ens), reference) \
            + checks.check_terminal_energy(rep, reference[-1])
    terminal = checks.path_energies(ens.values[:, -1:, :],
                                    float(np.prod(grid.h)))[:, 0]
    return checks.check_mc_energy(terminal, reference[-1]) \
        + checks.check_terminal_energy(rep, float(np.mean(terminal)))


def control_checks(cfg: dict, rep: dict) -> list:
    """The Gramian quadratic form against a dense dual propagation."""
    flat = cfg["domain.extents"]
    extents = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
    grid = geometry.build_grid(extents, (int(cfg["control.nodes"]),))
    cell = float(np.prod(grid.h))
    failures = checks.check_gramian_duality(rep, cell)
    mesh = noise.TimeMesh(horizon=float(cfg["control.horizon"]),
                          steps=int(cfg["control.depth"]))
    a, b = float(cfg["coeff.a"]), float(cfg["coeff.b"])
    center = tuple(cfg["control.g0_center"])
    radius = float(cfg["control.g0_radius"])
    e1 = cfg["control.e1"]
    intervals = [(e1[i], e1[i + 1]) for i in range(0, len(e1), 2)]
    u = np.random.default_rng([int(cfg["seed"]), 0x6a]).standard_normal(
        grid.n_nodes)
    gram_u = control.gramian_apply(
        u, forward.CoefficientField.constant(grid, mesh, a, b),
        geometry.Ball(center, radius),
        observability.MeasurableTimeSet(tuple(intervals), horizon=mesh.horizon),
        mesh, grid, noise.build_tree(mesh))
    mass = checks.reference_observed_mass(u, a, b, grid.coords, center, radius,
                                          intervals, cell, mesh.horizon,
                                          mesh.steps)
    return failures + checks.check_close("h<gramian_apply(u), u>",
                                         cell * float(u @ gram_u), mass)


def verify_pass(workload, cfg, exp, errors, files, reference_files) -> tuple:
    """Check one pass; returns (failed operations, messages of wrong output).

    An operation fails if it raised, if a check record reads pass: false or
    if a benchmark check fails.  Only check records the workload lists as
    known failures leave the output counted as correct."""
    failed, wrong = 0, []
    for sub, error in zip(workload.subcommands, errors):
        if error is not None:
            failed += 1
            wrong.append(f"{sub} raised:\n{error}")
            continue
        rep = json.loads(files[f"{sub}.json"])
        known, messages = checks.check_records(rep, workload.known_failures)
        if sub == "simulate":
            messages += energy_checks(exp, cfg, rep)
        if sub == "control":
            messages += control_checks(cfg, rep)
        if reference_files is not None:
            prefix = f"{sub}."
            messages += checks.check_identical(
                {k: v for k, v in reference_files.items()
                 if k.startswith(prefix)},
                {k: v for k, v in files.items() if k.startswith(prefix)})
        failed += bool(known or messages)
        wrong += [f"{sub}: {m}" for m in messages]
    return failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="directory for this pass's reports")
    parser.add_argument("--reference",
                        help="reports of an earlier pass to compare with")
    parser.add_argument("--spans", help="trace the pass; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        tracer.install()
    cfg = build_config(workload, args.seed)
    exp = cli.Experiment(cfg)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    errors = run_pass(cfg, exp, workload.subcommands, args.out)
    run_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    files = checks.read_outputs(args.out)
    reference = checks.read_outputs(args.reference) if args.reference else None
    failed, wrong = verify_pass(workload, cfg, exp, errors, files, reference)
    result = {"ready": ready, "run_s": run_s, "peak_rss_kb": after.ru_maxrss,
              "user_s": after.ru_utime - before.ru_utime,
              "system_s": after.ru_stime - before.ru_stime,
              "minor_faults": after.ru_minflt - before.ru_minflt,
              "attempted": len(workload.subcommands), "failed": failed,
              "correct": not wrong, "wrong": wrong}
    if tracer is not None:
        result["layers"] = tracer.stats.layer_metrics()
        result["spans"] = tracer.stats.n_spans
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
