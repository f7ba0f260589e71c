"""Interpolation constants, shift selection, three-ball and vanishing checks."""

import dataclasses

import numpy as np
import pytest

from stochheat import (Ball, CoefficientField, HeatKernelWeight, TimeMesh,
                       build_cutoff, build_grid, compute_constants,
                       energy_trace, heat_kernel, kernel_traces,
                       propagate_vanishing, quantitative_ucp_check,
                       select_lambda, solve_forward, solve_forward_moments,
                       three_ball_check)
from stochheat import cli, forward
from stochheat import config as cfgmod
from stochheat.errors import ConfigurationError, DomainError, NumericalError
from stochheat.ucp import (LAMBDA_GRID, amplitude_profile, default_tolerance)


def _constants(grid, mesh, r=0.1, horizon=1.0, a=0.0, b=0.0,
               energy0=1.0, energy_t=1.0):
    coeffs = CoefficientField.constant(grid, mesh, a, b)
    return compute_constants(grid, (0.5,), r, horizon, coeffs,
                             energy0, energy_t)


@pytest.fixture(scope="module")
def unit_grid():
    return build_grid([(0.0, 1.0)], (63,))


def test_delta_hand_value(unit_grid, mesh):
    # unit interval with x0 at the center gives m = 1/4; with b = 0, T = 1,
    # r = 0.1 the denominator is 0.01 + 8*(1/4)*2 = 4.01
    c = _constants(unit_grid, mesh, r=0.1, horizon=1.0)
    assert np.isclose(c.m, 0.25, rtol=1e-12)
    assert np.isclose(c.delta, 0.01 / 4.01, rtol=1e-12)


def test_delta_half_when_terms_balance(unit_grid, mesh):
    # r^2 T = 8 m (T+1) e^{T b^2} forces delta = 1/2: with m = 1/4, T = 1,
    # b = 0 that means r = 2
    c = _constants(unit_grid, mesh, r=2.0, horizon=1.0)
    assert np.isclose(c.delta, 0.5, rtol=1e-12)


def test_delta_monotone_in_r(unit_grid, mesh):
    deltas = [_constants(unit_grid, mesh, r=r).delta
              for r in (0.05, 0.1, 0.2, 0.4)]
    assert all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:]))
    assert all(0.0 < d < 1.0 for d in deltas)


def test_identity_residuals_tiny(unit_grid, mesh):
    c = _constants(unit_grid, mesh, r=0.15, a=0.3, b=0.4, energy0=2.0,
                   energy_t=0.5)
    res = c.identity_residuals()
    assert all(v <= 1e-10 for v in res.values())


def test_log_ratio_clamped_at_zero(unit_grid, mesh):
    # growing solutions (energy_t > energy0) must not produce a negative log
    c = _constants(unit_grid, mesh, energy0=1.0, energy_t=10.0)
    assert c.log_ratio == 0.0
    c2 = _constants(unit_grid, mesh, energy0=10.0, energy_t=1.0)
    assert np.isclose(c2.log_ratio, np.log(10.0), rtol=1e-12)


def test_terminal_vanishing_raises_backward_uniqueness(unit_grid, mesh):
    with pytest.raises(DomainError):
        _constants(unit_grid, mesh, energy_t=0.0)


def test_invalid_radius_rejected(unit_grid, mesh):
    with pytest.raises(ConfigurationError):
        _constants(unit_grid, mesh, r=-0.1)


def test_theta_variants_recorded(unit_grid, mesh):
    c = _constants(unit_grid, mesh, a=0.3, b=0.4)
    assert c.theta == c.variants["theta_frozen"]
    assert c.variants["theta_substituted"] > 0.0
    assert 0.0 < c.gamma < 1.0


def test_select_lambda_zero_amplitude_oracle():
    # with A == 0 the bracket is 1 - (8 lam / r^2)(n/2); the largest
    # qualifying dyadic shift is the largest 2^{-j} <= r^2 / (8 n)
    r, dim = 0.08, 1
    profile = [(float(lam), 0.0) for lam in LAMBDA_GRID]
    sel = select_lambda(profile, r, dim)
    assert sel["qualifies"]
    limit = r ** 2 / (8.0 * dim)
    expected = max(lam for lam in LAMBDA_GRID if lam <= limit)
    assert sel["lambda1"] == expected
    assert sel["bracket"] >= 0.5


def test_select_lambda_huge_amplitude_fails():
    profile = [(float(lam), 1e12) for lam in LAMBDA_GRID]
    sel = select_lambda(profile, 0.08, 1)
    assert not sel["qualifies"]
    assert sel["lambda1"] is None
    assert len(sel["profile"]) == len(LAMBDA_GRID)


def test_amplitude_profile_and_selection(tree_ensemble, coeffs, grid):
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    prof = amplitude_profile(tree_ensemble, cutoff, coeffs, 0.1,
                             lambdas=LAMBDA_GRID[20:40])
    assert all(a >= 0.0 for _, a in prof["profile"])
    sel = select_lambda(prof["profile"], 0.08, 1)
    assert sel["qualifies"]


def test_amplitude_profile_matches_single_kernel_traces(tree_ensemble, grid,
                                                        mesh):
    # the profile takes all shifts from one stacked pass over its window;
    # rebuild A(lambda) from its defining formula on the single-kernel
    # localized trace of each shift over every time node, under random
    # bounded coefficients
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    coeffs = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    eps, horizon = 0.1, mesh.horizon
    profile = dict(amplitude_profile(tree_ensemble, cutoff, coeffs,
                                     eps)["profile"])
    k2 = int(round((horizon - 2.0 * eps) / mesh.dt))
    k1 = int(round((horizon - eps) / mesh.dt))
    for lam in (LAMBDA_GRID[0], LAMBDA_GRID[7], LAMBDA_GRID[30]):
        weight = HeatKernelWeight(horizon=horizon, shift=float(lam),
                                  center=(0.5,), dim=1)
        _, tr = kernel_traces(tree_ensemble, cutoff, coeffs,
                              heat_kernel(weight, grid),
                              local_terms=("h", "f_sq"))
        b = coeffs.sup_b_over(cutoff.values > 0.0)
        log_term = max(float(np.log(tr.h[k2] / tr.h[k1])), 0.0)
        integral = np.trapezoid(tr.aux["f_sq"][k2:] / tr.h[k2:], dx=mesh.dt)
        expected = (horizon + lam) / eps * np.exp(2.0 * horizon * b ** 2) \
            * (log_term + eps + eps * (1.0 + 2.0 * horizon) * b ** 2
               + (eps + 1.0) * integral)
        assert np.isclose(profile[float(lam)], expected, rtol=1e-12)


def test_amplitude_profile_sweeps_in_one_kernel_traces_pass(tree_ensemble,
                                                            coeffs, grid,
                                                            monkeypatch):
    # all shifts come from one nodal_moment pass over [T - 2 eps, T], with
    # one kernel evaluation per tile for all shifts at once, not from a
    # trace per shift
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    passes, kernels = [], []
    moment = forward.Ensemble.nodal_moment
    values = HeatKernelWeight.values

    def counting(self, integrand, contract, nodes):
        passes.append(nodes)
        return moment(self, integrand, contract, nodes)

    def counting_values(self, t, coords):
        kernels.append((np.atleast_1d(self.shift).tolist(),
                        tuple(np.atleast_1d(t))))
        return values(self, t, coords)

    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    monkeypatch.setattr(HeatKernelWeight, "values", counting_values)
    mesh = tree_ensemble.mesh
    profile = amplitude_profile(tree_ensemble, cutoff, coeffs, 0.1)["profile"]
    assert [lam for lam, _ in profile] == LAMBDA_GRID.tolist()
    k2 = int(round((mesh.horizon - 0.2) / mesh.dt))
    assert passes == [slice(k2, None)]
    # the tiles cover the window once
    assert all(shifts == LAMBDA_GRID.tolist() for shifts, _ in kernels)
    assert sum((t for _, t in kernels), ()) == tuple(mesh.times[k2:])


def test_amplitude_profile_epsilon_validation(tree_ensemble, coeffs, grid):
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)

    def profile(eps, ens=tree_ensemble, cut=cutoff, **kwargs):
        return amplitude_profile(ens, cut, coeffs, eps, **kwargs)

    with pytest.raises(ConfigurationError):
        profile(0.4)  # 2 eps > T
    with pytest.raises(ConfigurationError):  # a shift outside (0, 1]
        profile(0.1, lambdas=[0.5, 2.0])
    with pytest.raises(ConfigurationError):  # no cutoff to centre the sweep
        profile(0.1, cut=None)
    with pytest.raises(NumericalError):  # a negative weighted energy
        profile(0.1, ens=dataclasses.replace(
            tree_ensemble, weights=-tree_ensemble.weights))
    # T - 2 eps and T - eps round to one node of the step 0.0625 (the log
    # term would read ln(H/H) = 0), and to adjacent nodes
    with pytest.raises(ConfigurationError, match="ucp.epsilon"):
        profile(0.01)
    assert len(profile(0.05)["profile"]) == len(LAMBDA_GRID)


def test_three_ball_check_small_lambda(tree_ensemble, mesh, grid):
    tol = default_tolerance(mesh, grid)
    terminal = tree_ensemble.nodal_moment()[-1]
    rep = three_ball_check(terminal, grid, (0.5,), 0.08, 0.12, 2 ** -20,
                           tol=tol)
    assert rep["pass"]
    with pytest.raises(ConfigurationError):
        three_ball_check(terminal, grid, (0.5,), 0.12, 0.08, 0.01)


def test_quantitative_ucp_check_and_scale_invariance(unit_grid):
    mesh = TimeMesh(horizon=0.5, steps=8)
    tree = __import__("stochheat").build_tree(mesh)
    coeffs = CoefficientField.constant(unit_grid, mesh, 0.3, 0.4)
    x = unit_grid.coords[:, 0]
    y0 = np.sin(np.pi * x)
    tol = default_tolerance(mesh, unit_grid)
    ball = Ball((0.5,), 0.08)
    results = []
    for scale in (1.0, 3.0):
        ens = solve_forward(scale * y0, coeffs, tree, mesh, unit_grid)
        energy = energy_trace(ens)
        const = compute_constants(unit_grid, (0.5,), 0.08, mesh.horizon,
                                  coeffs, energy[0], energy[-1])
        local = energy_trace(ens, unit_grid.ball_mask(ball))
        results.append(quantitative_ucp_check(energy, local, const, tol=tol))
    assert results[0]["pass"] and results[1]["pass"]
    # the inequality is scale-invariant: both sides pick up the same factor
    ratio = results[1]["lhs"] / results[0]["lhs"]
    assert np.isclose(ratio, 9.0, rtol=1e-10)
    rhs_ratio = results[1]["rhs"] / results[0]["rhs"]
    assert np.isclose(rhs_ratio, 9.0, rtol=1e-10)


def test_propagate_vanishing_zero_solution(unit_grid):
    # a zero state vanishes on every ball, also one that touches the boundary
    mesh = TimeMesh(horizon=0.2, steps=4)
    coeffs = CoefficientField.constant(unit_grid, mesh, 0.1, 0.1)
    zero = solve_forward_moments(np.zeros(unit_grid.n_nodes), coeffs, mesh,
                                 unit_grid)
    for ball in (Ball((0.3,), 0.05), Ball((0.05,), 0.1)):
        rep = propagate_vanishing(zero.nodal_moment()[-1], unit_grid, ball)
        assert rep == {"verdict": True, "target_mass": 0.0,
                       "global_mass": 0.0}


def test_propagate_vanishing_bump_state():
    # heat spreads instantly: the bump state vanishes on no ball, not even
    # one far from its support or touching the boundary, and the masses are
    # the quadrature sums over the ball and over G
    exp = cli.Experiment(cfgmod.merge_config({}))
    terminal = exp.moment[-1]
    x = exp.grid.coords[:, 0]
    for center, radius in ((0.5, 0.1), (0.1, 0.05), (0.05, 0.1)):
        rep = propagate_vanishing(terminal, exp.grid,
                                  Ball((center,), radius))
        inside = terminal[np.abs(x - center) <= radius]
        assert not rep["verdict"]
        assert np.isclose(rep["target_mass"],
                          exp.grid.quad_weight * inside.sum(), rtol=1e-14)
        assert np.isclose(rep["global_mass"],
                          exp.grid.quad_weight * terminal.sum(), rtol=1e-14)
        assert 0.0 < rep["target_mass"] < rep["global_mass"]


def test_default_tolerance_formula(unit_grid):
    mesh = TimeMesh(horizon=0.5, steps=10)
    tol = default_tolerance(mesh, unit_grid, scale=2.0)
    expected = 5.0 * (0.05 + float(np.max(unit_grid.h)) ** 2) * 2.0
    assert np.isclose(tol, expected, rtol=1e-14)


def test_ucp_reads_each_trace_once(monkeypatch):
    # run_ucp reads the energy trace, the local trace and the terminal
    # moments from one moment pass, and its lambda sweep reads the ensemble
    # in one more pass over the sweep's window, after frequency or alone
    calls = []
    moment = forward.Ensemble.nodal_moment

    def counting(self, *args, **kwargs):
        calls.append(args)
        return moment(self, *args, **kwargs)

    cfg = cfgmod.merge_config({})
    exp = cli.Experiment(cfg)
    cli.run_frequency(exp)
    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    for exp in (exp, cli.Experiment(cfg)):
        calls.clear()
        cli.run_ucp(exp)
        assert len(calls) == 2 and calls[0] == ()
        assert calls[1][2] == slice(6, None)  # T - 2 eps = 0.3 at node 6
