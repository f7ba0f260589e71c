"""Checks that can fail: each check record listed here reads PASS on the
default configuration and FAIL under a mutant of the program."""

import dataclasses

import numpy as np
import pytest

from stochheat import cli
from stochheat import config as cfgmod
from stochheat import control as ctl
from stochheat import forward
from stochheat import ucp as ucpmod
from stochheat.forward import ImplicitHeatSolver


def _reversed_curve(monkeypatch):
    # the regularization sweep reports its residual curve in reverse order
    synthesize = ctl.synthesize_approx_control

    def reversing(*args, **kwargs):
        ctrl, rep = synthesize(*args, **kwargs)
        return ctrl, {**rep, "curve": rep["curve"][::-1]}

    monkeypatch.setattr(ctl, "synthesize_approx_control", reversing)


def _swapped_backward_factors(monkeypatch):
    # the backward tree's step weighs the down child with the up weight and
    # the up child with the down one; the dual flow and the Gramian
    # recursion read `step_factors`, not the child weights
    weights = ctl._child_weights
    monkeypatch.setattr(ctl, "_child_weights", lambda *args, **kwargs:
                        weights(*args, **kwargs)[:, ::-1])


def _negated_noise_increment(monkeypatch):
    # the scheme steps with -b dB while the transform's Brownian path is +B
    # (on the defaults the check then reads 3.79 against its bound of 1.0)
    table = forward.step_factors
    monkeypatch.setattr(forward, "step_factors", lambda coeffs, dt, db, *args,
                        **kwargs: table(coeffs, dt, -np.asarray(db), *args,
                                        **kwargs))


def _backward_inverse_at_double_dt(monkeypatch):
    # the backward tree's step on sine coefficients inverts I - 2 dt Lap_h;
    # the dual flow and the Gramian recursion solve with I - dt Lap_h
    diagonal = ImplicitHeatSolver.diagonal.fget
    monkeypatch.setattr(ImplicitHeatSolver, "diagonal",
                        property(lambda self: 2.0 * diagonal(self) - 1.0))


def _solve_inverse_at_double_dt(monkeypatch):
    # the implicit solve and its powers invert I - 2 dt Lap_h; `diagonal`
    # and the shifted solves keep I - dt Lap_h
    init = ImplicitHeatSolver.__init__

    def doubled(self, grid, dt):
        init(self, grid, dt)
        self._inverse = 1.0 / (2.0 * self._diag - 1.0)

    monkeypatch.setattr(ImplicitHeatSolver, "__init__", doubled)


def _replaced_constants(monkeypatch, **fields):
    # `compute_constants` returns its constants with `fields`, each a
    # function of the correct constants, in place of the derived values
    compute = ucpmod.compute_constants

    def replaced(*args, **kwargs):
        c = compute(*args, **kwargs)
        return dataclasses.replace(c, **{key: f(c) for key, f in
                                         fields.items()})

    monkeypatch.setattr(ucpmod, "compute_constants", replaced)


def _lambda_tilde_over_j(monkeypatch):
    # the constants carry lambda_tilde = r^2 / (16 J), the log-free J in
    # place of D (on the defaults the identity residual then reads 0.065
    # against its bound of 1e-10: D = 54.9, J = 4.93)
    _replaced_constants(monkeypatch, lambda_tilde=lambda c: c.r ** 2
                        / (16.0 * c.big_j))


def _delta_bracket_at_t(monkeypatch):
    # delta's bracket 8 m (T + 1) exp(T sup_b^2) carries T in place of
    # T + 1 (on the defaults the identity residual then reads 1.96e-3)
    _replaced_constants(monkeypatch, delta=lambda c: c.r ** 2 * c.horizon
                        / (c.r ** 2 * c.horizon + 8.0 * c.m * c.horizon
                           * np.exp(c.horizon * c.sup_b ** 2)))


def _beta_over_d(monkeypatch):
    # beta = 4 m T D / denominator, the D with the endpoint-ratio log in
    # place of J (on the defaults the identity residual then reads 7.69)
    _replaced_constants(monkeypatch, beta=lambda c: c.beta * c.big_d
                        / c.big_j)


def _scaled_dissipation(monkeypatch):
    # the fine identity's kernel_traces call (the one that asks for phi_f)
    # returns D scaled by 1.5 (on the defaults the check then reads 0.498
    # against its budget of 0.315)
    traces = cli.kernel_traces

    def scaled(*args, **kwargs):
        out = traces(*args, **kwargs)
        if "phi_f" not in args[4]:
            return out
        return tuple(dataclasses.replace(tr, d=1.5 * tr.d) for tr in out)

    monkeypatch.setattr(cli, "kernel_traces", scaled)


# check name as `verify` reports it -> the mutants, each of which fails it
MUTANTS = {
    "control.regularization_curve_monotone": (_reversed_curve,),
    "control.duality_identity_adjoint": (_swapped_backward_factors,),
    "control.gramian_matrix_matches_tree": (_backward_inverse_at_double_dt,),
    "control.gramian_symmetry": (_backward_inverse_at_double_dt,),
    "control.null_control_verified": (_swapped_backward_factors,),
    "frequency.energy_derivative_identity": (_scaled_dissipation,),
    "simulate.transform_oracle_gap_bounded": (_negated_noise_increment,),
    "ucp.constants_identities": (_lambda_tilde_over_j, _delta_bracket_at_t,
                                 _beta_over_d),
}


def _record(name: str) -> dict:
    sub, check = name.split(".", 1)
    checks, _, _ = cli.SUBCOMMANDS[sub](cli.Experiment(cfgmod.merge_config({})))
    return next(rec for rec in checks if rec["name"] == check)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_check_fails_under_its_mutant(name, monkeypatch):
    assert _record(name)["pass"]
    for mutant in MUTANTS[name]:
        with monkeypatch.context() as patch:
            mutant(patch)
            assert not _record(name)["pass"], mutant.__name__


def test_gramian_matrix_check_fails_under_a_dropped_up_product(monkeypatch):
    # the factored source recursion of the backward closed form reads the
    # control's up factors as 0, so that it carries c_k = d_k^2 / 2 instead
    # of (d_k^2 + u_k^2) / 2; the control's levels themselves are unchanged
    name = "control.gramian_matrix_matches_tree"
    assert _record(name)["pass"]
    dual = ctl.dual_control

    def dropped(*args, **kwargs):
        ctrl = dual(*args, **kwargs)
        ctrl.levels.factors = ctrl.levels.factors * [1.0, 0.0]
        return ctrl

    monkeypatch.setattr(ctl, "dual_control", dropped)
    assert not _record(name)["pass"]


def test_transform_oracle_misses_a_solve_fault_that_superlu_rejects(
        oracle_grid, superlu_solves, monkeypatch):
    # the transform oracle's check compares path scalars, from which the
    # spatial factor M^{-k} y0 cancels, so it passes under a wrong implicit
    # solve; the SuperLU comparison of the solver tests rejects that solve
    # on every oracle grid (its unshifted solves miss by 0.26 to 0.47)
    name = "simulate.transform_oracle_gap_bounded"
    _solve_inverse_at_double_dt(monkeypatch)
    assert _record(name)["pass"]
    grid, dt = oracle_grid, 0.01
    gaps = [np.max(np.abs(out - ref)) / np.max(np.abs(ref)) for _, out, ref
            in superlu_solves(ImplicitHeatSolver(grid, dt), grid, dt)]
    assert max(gaps) > 1e-12, gaps
