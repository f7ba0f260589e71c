"""Self-tests of the benchmark: every check rejects a perturbed output, and
BENCHMARK.json names exactly what the command prints.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, TRACE_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from stochheat import cli  # noqa: E402

SMALL_1D = "grid.nodes = 15\ntree.depth = 6\n"
SMALL_CONTROL = "control.nodes = 7\ncontrol.depth = 6\n"


def small_pass(tmp_path, config_text, subcommands, seed=5):
    """Run one small pass as the worker does; returns what verify_pass needs."""
    workload = Workload(name="small", config_text=config_text,
                        subcommands=tuple(subcommands), why="test")
    cfg = worker.build_config(workload, seed)
    exp = cli.Experiment(cfg)
    errors = worker.run_pass(cfg, exp, workload.subcommands, str(tmp_path))
    assert errors == [None] * len(subcommands)
    files = checks.read_outputs(str(tmp_path))
    return workload, cfg, exp, errors, files


def perturb(files, name, edit):
    rep = json.loads(files[name])
    edit(rep)
    changed = dict(files)
    changed[name] = json.dumps(rep).encode()
    return changed


def scale_lhs(record_name, factor):
    def edit(rep):
        for rec in rep["checks"]:
            if rec["name"] == record_name:
                rec["lhs"] *= factor
    return edit


def test_tree_energy_checks_accept_output_and_reject_scaled_energy(tmp_path):
    workload, cfg, exp, errors, files = small_pass(tmp_path, SMALL_1D,
                                                   ["simulate"])
    assert worker.verify_pass(workload, cfg, exp, errors, files, files) \
        == (0, [])
    scaled = perturb(files, "simulate.json",
                     scale_lhs("terminal_energy_finite", 1 + 1e-6))
    failed, wrong = worker.verify_pass(workload, cfg, exp, errors, scaled,
                                       None)
    assert failed == 1 and "terminal energy" in wrong[0]
    exp.ensemble.values[:, 3, :] *= np.sqrt(1 + 1e-6)
    rep = json.loads(files["simulate.json"])
    assert any("E||y(t_3)||^2" in m
               for m in worker.energy_checks(exp, cfg, rep))


def test_mc_energy_check_rejects_a_shifted_mean(tmp_path):
    workload, cfg, exp, errors, files = small_pass(
        tmp_path, SMALL_1D + "noise.mode = mc\nmc.paths = 512\n", ["simulate"])
    rep = json.loads(files["simulate.json"])
    assert worker.energy_checks(exp, cfg, rep) == []
    per_path = checks.path_energies(exp.ensemble.values[:, -1:, :],
                                    float(np.prod(exp.grid.h)))[:, 0]
    se = np.std(per_path, ddof=1) / np.sqrt(per_path.size)
    exact = float(np.mean(per_path))
    assert checks.check_mc_energy(per_path, exact) == []
    assert checks.check_mc_energy(per_path, exact + 5.0 * se) != []
    scale_lhs("terminal_energy_finite", 1 + 1e-6)(rep)
    assert any("terminal energy" in m
               for m in worker.energy_checks(exp, cfg, rep))


def test_control_checks_reject_a_scaled_gramian_form(tmp_path):
    workload, cfg, exp, errors, files = small_pass(tmp_path, SMALL_CONTROL,
                                                   ["control"])
    rep = json.loads(files["control.json"])
    assert worker.control_checks(cfg, rep) == []
    scale_lhs("gramian_positivity", 1 + 1e-6)(rep)
    messages = worker.control_checks(cfg, rep)
    assert len(messages) == 1 and "Lambda" in messages[0]


def test_control_checks_reject_a_scaled_gramian_apply(monkeypatch):
    from stochheat import control

    cfg = worker.build_config(Workload("small", SMALL_CONTROL, ("control",),
                                       "test"), 9)
    cell = 1.0 / 8.0  # control.nodes = 7 on the unit interval
    rep = {"checks": [
        {"name": "gramian_positivity", "pass": True, "lhs": 1.0},
        {"name": "dual_support_mass_positive", "pass": True, "lhs": cell}]}
    assert worker.control_checks(cfg, rep) == []
    original = control.gramian_apply
    monkeypatch.setattr(control, "gramian_apply",
                        lambda *a, **k: original(*a, **k) * (1 + 1e-6))
    messages = worker.control_checks(cfg, rep)
    assert len(messages) == 1 and "gramian_apply" in messages[0]


def test_record_checks_reject_a_flipped_record(tmp_path):
    workload, cfg, exp, errors, files = small_pass(tmp_path, SMALL_1D,
                                                   ["simulate"])
    flipped = perturb(files, "simulate.json",
                      lambda rep: rep["checks"][0].update({"pass": False}))
    failed, wrong = worker.verify_pass(workload, cfg, exp, errors, flipped,
                                       None)
    assert failed == 1 and "pass: false" in wrong[0]
    name = json.loads(files["simulate.json"])["checks"][0]["name"]
    known = Workload("small", SMALL_1D, ("simulate",), "test",
                     known_failures=(name,))
    assert worker.verify_pass(known, cfg, exp, errors, flipped, None) \
        == (1, [])


def test_identity_check_rejects_one_changed_byte(tmp_path):
    workload, cfg, exp, errors, files = small_pass(tmp_path, SMALL_1D,
                                                   ["simulate"])
    assert checks.check_identical(files, dict(files)) == []
    changed = dict(files)
    data = bytearray(changed["simulate.json"])
    data[-2] ^= 1
    changed["simulate.json"] = bytes(data)
    failed, wrong = worker.verify_pass(workload, cfg, exp, errors, files,
                                       changed)
    assert failed == 1 and "differs between passes" in wrong[0]


def test_failed_operation_is_counted_when_a_subcommand_raises(tmp_path):
    workload, cfg, exp, _, files = small_pass(tmp_path, SMALL_1D,
                                              ["simulate"])
    failed, wrong = worker.verify_pass(workload, cfg, exp, ["Traceback"],
                                       files, None)
    assert failed == 1 and "raised" in wrong[0]


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_declared_workloads_and_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    declared = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    declared.update(TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == declared


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_exactly_the_declared_metrics(trace):
    spec = benchmark_json()
    key = "per_layer" if trace else "end_to_end"
    proc = subprocess.run(
        spec["command"] + ["--workload", "control-1d-d12", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec[key]}


def test_command_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "survey-1d", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
