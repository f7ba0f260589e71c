"""Backward tree solves, duality, the Gramian, and control synthesis."""

import numpy as np
import pytest

from stochheat import (CoefficientField, MeasurableTimeSet, TimeMesh,
                       build_grid, build_tree, cli, dual_control,
                       duality_check, gramian_apply, gramian_matrix,
                       solve_backward_tree, solve_dual_forward,
                       synthesize_approx_control, synthesize_null_control)
from stochheat import config as cfgmod
from stochheat import control
from stochheat.control import (conjugate_gradient, control_level_weights,
                               duality_support_check)
from stochheat.errors import ConfigurationError, NumericalError, ShapeError
from stochheat.forward import ImplicitHeatSolver
from stochheat.geometry import Ball


@pytest.fixture(scope="module")
def lab():
    grid = build_grid([(0.0, 1.0)], (15,))
    mesh = TimeMesh(horizon=0.5, steps=6)
    tree = build_tree(mesh)
    coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
    ball = Ball((0.5,), 0.15)
    time_set = MeasurableTimeSet(((0.05, 0.45),), horizon=0.5)
    return grid, mesh, tree, coeffs, ball, time_set


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 21]))


def test_control_level_weights(lab):
    _, mesh, _, _, _, time_set = lab
    w = control_level_weights(time_set, mesh)
    assert w.shape == (mesh.steps,)
    # each active step carries its exact overlap measure
    for k in range(mesh.steps):
        ov = time_set.measure_between(mesh.times[k], mesh.times[k + 1])
        if ov >= 0.5 * mesh.dt:
            assert np.isclose(w[k], ov, rtol=1e-14)
        else:
            assert w[k] == 0.0
    assert w.sum() > 0.0


def test_dual_forward_per_leaf_brute_force(lab):
    # follow one leaf history explicitly: y_{k+1} = M^{-1}[(1 - dt a -/+
    # sqrt(dt) b) y_k], minus on an even (down) child, plus on an odd child
    grid, mesh, tree, coeffs, _, _ = lab
    y0 = _rng(0).standard_normal(grid.n_nodes)
    levels = solve_dual_forward(y0, coeffs, mesh, grid, tree)
    solver = ImplicitHeatSolver(grid, mesh.dt)
    root = np.sqrt(mesh.dt)
    for leaf in (0, 5, tree.n_leaves - 1):
        y = y0.copy()
        node = 0
        for k in range(mesh.steps):
            bit = (leaf >> (mesh.steps - 1 - k)) & 1
            sign = 1.0 if bit else -1.0
            fac = 1.0 - mesh.dt * coeffs.a[k] + sign * root * coeffs.b[k]
            y = solver.solve(fac * y)
            node = 2 * node + bit
            assert np.allclose(levels[k + 1][node], y, rtol=1e-12, atol=1e-14)


def test_backward_independent_brute_force(lab, sparse_operators):
    # martingale-representation induction recomputed longhand per level, for
    # constant coefficients and for a potential ramping from 0 to 3, whose
    # implicit matrix I - dt Lap + dt diag(a_k) changes at every step
    grid, mesh, tree, coeffs, _, _ = lab
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    lap, _ = sparse_operators(grid)
    ramp = CoefficientField(
        grid, mesh, a=np.linspace(0.0, 3.0, mesh.steps)[:, None]
        * np.ones(grid.n_nodes), b=0.5)
    z_t = _rng(1).standard_normal((tree.n_leaves, grid.n_nodes))
    dt, rootdt = mesh.dt, np.sqrt(mesh.dt)
    for c in (coeffs, ramp):
        pair = solve_backward_tree(z_t, c, mesh, grid, tree,
                                   mode="independent")
        z = z_t.copy()
        for k in range(mesh.steps - 1, -1, -1):
            lu = splu(sp.csc_matrix(sp.eye(grid.n_nodes) - dt * lap
                                    + dt * sp.diags(c.a[k])))
            cond = 0.5 * (z[0::2] + z[1::2])
            big_z = (z[1::2] - z[0::2]) / (2.0 * rootdt)
            z = lu.solve((cond - dt * c.b[k] * big_z).T).T
            assert np.allclose(pair.z_levels[k], z, rtol=1e-12, atol=1e-14)
            assert np.allclose(pair.z_martingale[k], big_z, rtol=1e-12,
                               atol=1e-14)


@pytest.mark.parametrize("extents, shape", [
    ([(0.0, 1.0)], (15,)),
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11)),
], ids=["1d", "2d"])
def test_backward_independent_random_potential_matches_splu(
        extents, shape, sparse_operators, assert_rel_close):
    # a space-varying potential: the shifted sine solve iterated on the
    # remainder against SuperLU of I - dt Lap + dt diag(a_k) at every step
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.5, steps=5)
    tree = build_tree(mesh)
    coeffs = CoefficientField.random_bounded(grid, mesh, 3, 2.0, 0.5)
    lap, _ = sparse_operators(grid)
    z_t = _rng(4).standard_normal((tree.n_leaves, grid.n_nodes))
    pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree,
                               mode="independent")
    assert len(pair.solves) == mesh.steps and min(pair.solves) > 1
    dt, rootdt = mesh.dt, np.sqrt(mesh.dt)
    z = z_t
    for k in range(mesh.steps - 1, -1, -1):
        lu = splu(sp.csc_matrix(sp.eye(grid.n_nodes) - dt * lap
                                + dt * sp.diags(coeffs.a[k])))
        big_z = (z[1::2] - z[0::2]) / (2.0 * rootdt)
        cond = 0.5 * (z[0::2] + z[1::2])
        z = lu.solve((cond - dt * coeffs.b[k] * big_z).T).T
        assert_rel_close(pair.z_levels[k], z)
    # a constant potential is exact after one solve per step
    const = CoefficientField.constant(grid, mesh, 0.2, 0.5)
    assert solve_backward_tree(z_t, const, mesh, grid, tree,
                               mode="independent").solves == [1] * mesh.steps
    assert solve_backward_tree(z_t, const, mesh, grid, tree).solves is None


def test_backward_modes_agree_to_first_order(lab):
    grid, _, _, coeffs_coarse, _, _ = lab
    gaps = []
    for steps in (4, 8):
        mesh = TimeMesh(horizon=0.5, steps=steps)
        tree = build_tree(mesh)
        coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
        x = grid.coords[:, 0]
        z_t = np.broadcast_to(np.sin(np.pi * x),
                              (tree.n_leaves, grid.n_nodes)).copy()
        za = solve_backward_tree(z_t, coeffs, mesh, grid, tree, mode="adjoint")
        zi = solve_backward_tree(z_t, coeffs, mesh, grid, tree,
                                 mode="independent")
        gaps.append(np.max(np.abs(za.z0 - zi.z0)))
    assert gaps[1] < gaps[0]


def test_adjoint_duality_machine_precision(lab):
    grid, mesh, tree, coeffs, _, _ = lab
    rng = _rng(2)
    y0 = rng.standard_normal(grid.n_nodes)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    h = [rng.standard_normal((2 ** k, grid.n_nodes))
         for k in range(mesh.steps)]
    dual = solve_dual_forward(y0, coeffs, mesh, grid, tree)
    pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                               mode="adjoint")
    rep = duality_check(dual, pair, h=h)
    assert rep["relative_residual"] < 1e-12


def test_backward_shape_validation(lab):
    grid, mesh, tree, coeffs, _, _ = lab
    with pytest.raises(ShapeError):
        solve_backward_tree(np.zeros((3, grid.n_nodes)), coeffs, mesh, grid,
                            tree)
    with pytest.raises(ConfigurationError):
        solve_backward_tree(np.zeros((tree.n_leaves, grid.n_nodes)), coeffs,
                            mesh, grid, tree, mode="bogus")


def test_gramian_symmetric_positive(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    rng = _rng(3)
    us = [rng.standard_normal(grid.n_nodes) for _ in range(4)]
    applied = [gramian_apply(u, coeffs, ball, time_set, mesh, grid, tree)
               for u in us]
    for i in range(4):
        # nonnegative energy
        assert us[i] @ applied[i] >= -1e-12 * (us[i] @ us[i])
        for j in range(i + 1, 4):
            lhs = us[i] @ applied[j]
            rhs = us[j] @ applied[i]
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10


def test_gramian_matrix_matches_tree_columns(lab):
    # the backward second-moment recursion against the tree, column by
    # column: random smooth coefficients, a potential ramping by step, and a
    # 2-D grid whose one-node actuator leaves the Gramian singular
    grid, mesh, tree, _, ball, time_set = lab
    rough = CoefficientField.random_bounded(grid, mesh, 11, 0.5, 0.5)
    ramp = CoefficientField(grid, mesh, b=rough.b,
                            a=np.linspace(0.0, 3.0, mesh.steps)[:, None]
                            * np.ones(grid.n_nodes))
    grid2 = build_grid([(0.0, 1.0), (0.0, 1.0)], (5, 5))
    mesh2 = TimeMesh(horizon=0.5, steps=5)
    cases = [(rough, ball, grid, mesh, tree), (ramp, ball, grid, mesh, tree),
             (CoefficientField.constant(grid2, mesh2, 0.3, 0.4),
              Ball((0.5, 0.5), 0.15), grid2, mesh2, build_tree(mesh2))]
    for coeffs, g0, g, m, t in cases:
        gram = gramian_matrix(coeffs, g0, time_set, m, g)
        cols = np.stack([gramian_apply(e, coeffs, g0, time_set, m, g, t)
                         for e in np.eye(g.n_nodes)], axis=1)
        assert gram.shape == (g.n_nodes, g.n_nodes)
        assert np.max(np.abs(gram - cols)) <= 1e-12 * np.max(np.abs(cols))


def test_closed_form_control_on_seeds_that_hit_the_cg_cap():
    # seeds on which the CG solves of the regularization sweep ran to their
    # iteration cap: the closed form reaches the goal with a monotone curve
    # and drives z(0) to round-off
    runs = [(10, seed) for seed in (1, 17, 30)] \
        + [(12, seed) for seed in (1, 4, 5, 1234)]
    for depth, seed in runs:
        cfg = cfgmod.merge_config({"control.depth": depth, "seed": seed})
        checks, _, _ = cli.run_control(cli.Experiment(cfg))
        failed = [rec["name"] for rec in checks if not rec["pass"]]
        assert not failed, (depth, seed, failed)
        null = next(rec for rec in checks
                    if rec["name"] == "null_control_verified")
        assert null["lhs"] <= 1e-10


def test_cg_cross_check_agrees_with_closed_form(lab):
    # a CG solve that met its tolerance tol is within kappa * tol of the
    # closed form (relative), kappa the condition number of G + eps I
    grid, mesh, tree, coeffs, ball, time_set = lab
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    lam = np.linalg.eigvalsh(gram)
    rng = _rng(8)
    x = grid.coords[:, 0]
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                       for k in range(1, 4))
    _, rep = synthesize_approx_control(z_t, target, gram, coeffs, ball,
                                       time_set, mesh, grid, tree,
                                       accuracy=1e-6)
    converged = [row for row in rep["curve"] if row["cg_converged"]]
    assert converged
    for row in converged:
        eps = row["eps_reg"]
        kappa = (lam[-1] + eps) / (max(lam[0], 0.0) + eps)
        assert row["cg_gap"] <= 10.0 * kappa * 1e-13, row


def test_conjugate_gradient_against_numpy():
    rng = _rng(4)
    n = 12
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    x, info = conjugate_gradient(lambda v: a @ v, rhs, tol=1e-13)
    assert info["converged"]
    assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-9)
    # energy functional strictly nonincreasing
    e = np.asarray(info["energies"])
    assert np.all(np.diff(e) <= 1e-15)


def test_conjugate_gradient_flags_indefinite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        conjugate_gradient(lambda v: a @ v, np.array([0.3, 1.0]), tol=1e-14)


def test_null_control(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    rng = _rng(5)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ctrl, rep = synthesize_null_control(z_t, gram, coeffs, ball, time_set,
                                        mesh, grid, tree)
    # at this coarse tree depth the Gramian is worse conditioned than in the
    # verification configuration, so the accuracy demand is softer here
    assert rep["relative_z0"] < 1e-5
    assert rep["cg"]["iterations"] <= grid.n_nodes
    # the control lives on the actuation support
    for k, w_k in enumerate(ctrl.weights):
        if w_k == 0.0:
            continue
        field = ctrl.levels[k] * ctrl.mask
        outside = ctrl.levels[k] * (1.0 - ctrl.mask)
        assert np.max(np.abs(field)) > 0.0 or np.max(np.abs(outside)) == 0.0


def test_null_control_needs_active_steps(lab):
    # a set covering less than half of every step activates none of them;
    # every entry point that weighs the steps refuses it
    grid, mesh, tree, coeffs, ball, time_set = lab
    tiny = MeasurableTimeSet(((0.01, 0.012),), horizon=0.5)
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    u = _rng(9).standard_normal(grid.n_nodes)
    for call in (lambda: synthesize_null_control(
                     np.zeros((tree.n_leaves, grid.n_nodes)), gram, coeffs,
                     ball, tiny, mesh, grid, tree),
                 lambda: dual_control(u, coeffs, ball, tiny, mesh, grid, tree),
                 lambda: gramian_apply(u, coeffs, ball, tiny, mesh, grid, tree),
                 lambda: gramian_matrix(coeffs, ball, tiny, mesh, grid)):
        with pytest.raises(ConfigurationError, match="activates no time step"):
            call()


def test_approx_control_smooth_target(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    rng = _rng(6)
    x = grid.coords[:, 0]
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    # smooth target: the attainable set at finite resolution excludes the
    # high-frequency modes the dual flow damps below round-off
    target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                       for k in range(1, 4))
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ctrl, rep = synthesize_approx_control(z_t, target, gram, coeffs, ball,
                                          time_set, mesh, grid, tree,
                                          accuracy=1e-2)
    assert rep["achieved"]
    assert rep["relative_residual"] <= 1e-2
    res = [row["residual"] for row in rep["curve"]]
    assert all(r2 <= r1 * (1.0 + 1e-9) for r1, r2 in zip(res, res[1:]))


def test_approx_control_curve_flags_cg_convergence(lab):
    # every sweep row says whether its CG solve met the tolerance; a solve
    # that stops short of the iteration cap (len(rhs)) has converged, and an
    # unconverged one ran to the cap
    grid, mesh, tree, coeffs, ball, time_set = lab
    rng = _rng(6)
    x = grid.coords[:, 0]
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                       for k in range(1, 4))
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    _, rep = synthesize_approx_control(z_t, target, gram, coeffs, ball,
                                       time_set, mesh, grid, tree,
                                       accuracy=1e-2)
    for row in rep["curve"]:
        assert isinstance(row["cg_converged"], bool)
        if row["cg_iterations"] < grid.n_nodes:
            assert row["cg_converged"]
        if not row["cg_converged"]:
            assert row["cg_iterations"] == grid.n_nodes
    # the well-conditioned first solve (eps_reg = 1) converges
    assert rep["curve"][0]["cg_converged"]


def test_duality_support_check(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    u = _rng(7).standard_normal(grid.n_nodes)
    rep = duality_support_check(
        dual_control(u, coeffs, ball, time_set, mesh, grid, tree), grid)
    assert rep["observed_mass"] > 0.0
    assert not rep["ucp_red_flag"]


SMALL_CONTROL = {"control.nodes": 9, "control.depth": 6}


def test_one_gramian_per_run_control(monkeypatch):
    # the Gramian is assembled once and shared by the matrix check and both
    # syntheses
    calls = []
    assemble = control.gramian_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(control, "gramian_matrix", counting)
    cli.run_control(cli.Experiment(cfgmod.merge_config(SMALL_CONTROL)))
    assert len(calls) == 1


def test_one_dual_flow_per_datum_in_run_control(monkeypatch):
    # one dual flow each for u (its control and its Gramian apply), the
    # duality datum v (its duality check and its Gramian apply) and the null
    # control's verification, and one per regularization sweep row; no
    # datum is solved twice
    dual = control.solve_dual_forward
    for overrides, solves in ((SMALL_CONTROL, 16), ({"control.depth": 12}, 15)):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return dual(*args, **kwargs)

        monkeypatch.setattr(control, "solve_dual_forward", counting)
        checks, _, _ = cli.run_control(
            cli.Experiment(cfgmod.merge_config(overrides)))
        rows = next(c for c in checks
                    if c["name"] == "regularization_curve_monotone")["curve"]
        assert len(calls) == 3 + len(rows) == solves, overrides
        assert len({args[0].tobytes() for args in calls}) == len(calls)


def test_one_eigendecomposition_per_run_control(monkeypatch):
    # both syntheses read the spectrum of the run's one Gramian
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cli.run_control(cli.Experiment(cfgmod.merge_config(SMALL_CONTROL)))
    assert len(calls) == 1


def test_approx_control_verifies_each_sweep_row_by_one_backward_solve(
        lab, monkeypatch):
    # one free solve, then one tree solve per curve row: the control of a
    # dual datum is its dual flow, with no backward solve of its own
    grid, mesh, tree, coeffs, ball, time_set = lab
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    calls = []
    backward = control.solve_backward_tree

    def counting(*args, **kwargs):
        calls.append(kwargs.get("control"))
        return backward(*args, **kwargs)

    monkeypatch.setattr(control, "solve_backward_tree", counting)
    rng = _rng(6)
    x = grid.coords[:, 0]
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                       for k in range(1, 4))
    _, rep = synthesize_approx_control(z_t, target, gram, coeffs, ball,
                                       time_set, mesh, grid, tree,
                                       accuracy=1e-6)
    assert len(rep["curve"]) > 1
    assert len(calls) == 1 + len(rep["curve"])
    assert calls[0] is None and all(c is not None for c in calls[1:])


def test_run_control_uses_the_configured_coefficients():
    # coeff.kind = random gives the control run its own space-varying
    # coefficients, and so another Gramian than the constant default
    spectra = {}
    for kind in ("constant", "random"):
        cfg = cfgmod.merge_config(dict(SMALL_CONTROL, **{"coeff.kind": kind}))
        checks, extras, _ = cli.run_control(cli.Experiment(cfg))
        assert all(rec["pass"] for rec in checks), kind
        spectra[kind] = extras["gramian_spectrum"]
    assert spectra["random"] != spectra["constant"]
    assert spectra["random"]["lambda_max"] != spectra["constant"]["lambda_max"]
