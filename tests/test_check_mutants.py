"""Checks that can fail: each check record listed here reads PASS on the
default configuration and FAIL under a mutant of the program."""

import pytest

from stochheat import cli
from stochheat import config as cfgmod
from stochheat import control as ctl


def _reversed_curve(monkeypatch):
    # the regularization sweep reports its residual curve in reverse order
    synthesize = ctl.synthesize_approx_control

    def reversing(*args, **kwargs):
        ctrl, rep = synthesize(*args, **kwargs)
        return ctrl, {**rep, "curve": rep["curve"][::-1]}

    monkeypatch.setattr(ctl, "synthesize_approx_control", reversing)


# check name as `verify` reports it -> the mutant that fails it
MUTANTS = {
    "control.regularization_curve_monotone": _reversed_curve,
}


def _record(name: str) -> dict:
    sub, check = name.split(".", 1)
    checks, _, _ = cli.SUBCOMMANDS[sub](cli.Experiment(cfgmod.merge_config({})))
    return next(rec for rec in checks if rec["name"] == check)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_check_fails_under_its_mutant(name, monkeypatch):
    assert _record(name)["pass"]
    MUTANTS[name](monkeypatch)
    assert not _record(name)["pass"]
