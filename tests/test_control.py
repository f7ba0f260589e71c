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
                               duality_support_check, gramian_spectrum)
from stochheat.errors import ConfigurationError, NumericalError, ShapeError
from stochheat.forward import (FactoredLevels, ImplicitHeatSolver,
                               implicit_solver, step_factors, tree_moves,
                               tree_step)
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


def _free(z_t, lab):
    """z_free(0): the uncontrolled backward solve from z_t, at the root."""
    grid, mesh, tree, coeffs, _, _ = lab
    return solve_backward_tree(z_t, coeffs, mesh, grid, tree).z0


def _approx_inputs(lab):
    """Terminal data, its free value at the root and a smooth target: the
    attainable set at finite resolution excludes the high-frequency modes
    the dual flow damps below round-off."""
    grid, _, tree, _, _, _ = lab
    rng = _rng(6)
    x = grid.coords[:, 0]
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                       for k in range(1, 4))
    return z_t, _free(z_t, lab), target


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


def test_backward_independent_brute_force(lab, sparse_operators,
                                          z_martingale):
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
        martingale = z_martingale(pair)
        z = z_t.copy()
        for k in range(mesh.steps - 1, -1, -1):
            lu = splu(sp.csc_matrix(sp.eye(grid.n_nodes) - dt * lap
                                    + dt * sp.diags(c.a[k])))
            cond = 0.5 * (z[0::2] + z[1::2])
            big_z = (z[1::2] - z[0::2]) / (2.0 * rootdt)
            z = lu.solve((cond - dt * c.b[k] * big_z).T).T
            assert np.allclose(pair.z_levels[k], z, rtol=1e-12, atol=1e-14)
            assert np.allclose(martingale[k], big_z, rtol=1e-12,
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


def test_backward_independent_solve_without_convergence_raises():
    # a random potential whose spread dt*|a - c| dwarfs the implicit step,
    # on the default control grid and tree at depth 6: the independent
    # mode's iteration hits its cap and raises, with no numpy warning
    cfg = cfgmod.merge_config({})
    grid = build_grid([(0.0, 1.0)], (cfg["control.nodes"],))
    mesh = TimeMesh(horizon=cfg["control.horizon"], steps=6)
    tree = build_tree(mesh)
    coeffs = CoefficientField.random_bounded(grid, mesh, cfg["seed"], 1000.0,
                                             cfg["coeff.b_bound"])
    z_t = _rng(5).standard_normal((tree.n_leaves, grid.n_nodes))
    with pytest.raises(NumericalError, match="no convergence"):
        solve_backward_tree(z_t, coeffs, mesh, grid, tree, mode="independent")


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
    # a source is one row for every node or one row per history node, on
    # sine coefficients and in physical space alike
    rough = CoefficientField.random_bounded(grid, mesh, 11, 0.5, 0.5)
    for c in (coeffs, rough):
        for h in (np.zeros(3), [np.zeros((3, grid.n_nodes))] * mesh.steps):
            with pytest.raises(ShapeError, match="source at level"):
                solve_backward_tree(np.zeros((tree.n_leaves, grid.n_nodes)),
                                    c, mesh, grid, tree, h=h)


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


@pytest.fixture(scope="module", params=[
    ([(0.0, 1.0)], (15,), (0.5,), 6),
    ([(0.0, 1.0), (0.0, 1.0)], (5, 5), (0.5, 0.5), 5),
], ids=["1d", "2d-5x5"])
def ramped(request):
    """Coefficients uniform over the nodes that ramp by step (a_k from 0 to
    3, b_k from 0.2 to 0.8): the step factors are scalars, so the control
    solves run on sine coefficients, and they change at every level."""
    extents, shape, center, steps = request.param
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.5, steps=steps)
    ones = np.ones(grid.n_nodes)
    coeffs = CoefficientField(
        grid, mesh, a=np.linspace(0.0, 3.0, steps)[:, None] * ones,
        b=np.linspace(0.2, 0.8, steps)[:, None] * ones)
    assert coeffs.node_uniform
    time_set = MeasurableTimeSet(((0.05, 0.45),), horizon=0.5)
    return grid, mesh, build_tree(mesh), coeffs, Ball(center, 0.3), time_set


def test_ramped_dual_forward_per_leaf_brute_force(ramped):
    # the closed-form levels against every leaf history solved step by step
    grid, mesh, tree, coeffs, _, _ = ramped
    y0 = _rng(10).standard_normal(grid.n_nodes)
    levels = solve_dual_forward(y0, coeffs, mesh, grid, tree)
    solver = ImplicitHeatSolver(grid, mesh.dt)
    root = np.sqrt(mesh.dt)
    for leaf in range(tree.n_leaves):
        y = y0.copy()
        for k in range(mesh.steps):
            bit = (leaf >> (mesh.steps - 1 - k)) & 1
            fac = 1.0 - mesh.dt * coeffs.a[k] \
                + (2 * bit - 1) * root * coeffs.b[k]
            y = solver.solve(fac * y)
            node = leaf >> (mesh.steps - 1 - k)
            assert np.allclose(levels[k + 1][node], y, rtol=1e-12, atol=1e-14)


def _splu_solver(grid, dt, potential, sparse_operators):
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    lap, _ = sparse_operators(grid)
    lu = splu(sp.csc_matrix(sp.eye(grid.n_nodes) - dt * lap
                            + sp.diags(potential)))
    return lambda rows: lu.solve(np.ascontiguousarray(rows.T)).T


def test_ramped_independent_matches_splu(ramped, sparse_operators,
                                         assert_rel_close, z_martingale):
    # the division on sine coefficients against SuperLU of
    # I - dt Lap + dt diag(a_k), and Z from the children, at every level
    grid, mesh, tree, coeffs, ball, time_set = ramped
    rng = _rng(11)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    h = rng.standard_normal(grid.n_nodes)
    ctrl = dual_control(rng.standard_normal(grid.n_nodes), coeffs, ball,
                        time_set, mesh, grid, tree)
    pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                               control=ctrl, mode="independent")
    assert pair.solves == [1] * mesh.steps
    martingale = z_martingale(pair)
    dt, rootdt = mesh.dt, np.sqrt(mesh.dt)
    z = z_t
    for k in range(mesh.steps - 1, -1, -1):
        solve = _splu_solver(grid, dt, dt * coeffs.a[k], sparse_operators)
        big_z = (z[1::2] - z[0::2]) / (2.0 * rootdt)
        rhs = 0.5 * (z[0::2] + z[1::2]) - dt * coeffs.b[k] * big_z - dt * h
        if ctrl.weights[k] > 0.0:
            rhs = rhs - ctrl.weights[k] * ctrl.levels[k] * ctrl.mask
        z = solve(rhs)
        assert_rel_close(pair.z_levels[k], z)
        assert_rel_close(martingale[k], big_z)


def test_ramped_adjoint_duality_and_martingale(ramped, sparse_operators,
                                               assert_rel_close, z_martingale):
    # duality to machine precision with a per-level h and a control, and
    # Z of the solved children against SuperLU
    grid, mesh, tree, coeffs, ball, time_set = ramped
    rng = _rng(12)
    y0 = rng.standard_normal(grid.n_nodes)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    h = [rng.standard_normal((2 ** k, grid.n_nodes))
         for k in range(mesh.steps)]
    ctrl = dual_control(rng.standard_normal(grid.n_nodes), coeffs, ball,
                        time_set, mesh, grid, tree)
    dual = solve_dual_forward(y0, coeffs, mesh, grid, tree)
    pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                               control=ctrl)
    assert pair.z_levels[-1] is z_t and pair.solves is None
    assert duality_check(dual, pair, h=h, control=ctrl)[
        "relative_residual"] < 1e-12
    solve = _splu_solver(grid, mesh.dt, np.zeros(grid.n_nodes),
                         sparse_operators)
    for k, big_z in enumerate(z_martingale(pair)):
        solved = solve(pair.z_levels[k + 1])
        assert_rel_close(big_z, (solved[1::2] - solved[0::2])
                         / (2.0 * np.sqrt(mesh.dt)))


def test_ramped_backward_transforms_back_only_the_levels_read(
        ramped, monkeypatch, assert_rel_close):
    # a solve transforms the h rows of all steps (one batch), the terminal
    # rows contracted with their leaf weights and the root back: three
    # transforms of at most `steps` rows; reading a level between the root
    # and the leaves forms it with two transforms of its 2^k rows on each
    # access, and the terminal level is the data itself
    grid, mesh, tree, coeffs, _, _ = ramped
    rng = _rng(13)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    h = rng.standard_normal(grid.n_nodes)
    full = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h)
    expected = [full.z_levels[k] for k in range(mesh.steps + 1)]
    calls = []
    sine = ImplicitHeatSolver.sine

    def counting(self, rows):
        calls.append(np.shape(rows))
        return sine(self, rows)

    monkeypatch.setattr(ImplicitHeatSolver, "sine", counting)
    pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h)
    assert sorted(calls) == [(1, grid.n_nodes)] * 2 \
        + [(mesh.steps, grid.n_nodes)]
    calls.clear()
    assert_rel_close(pair.z0, expected[0][0])
    assert pair.z_levels[-1] is z_t and not calls
    assert len(pair.z_levels) == mesh.steps + 1
    for k, level in enumerate(pair.z_levels[1:-1], start=1):
        assert np.array_equal(level, expected[k])
    assert calls == [(2 ** k, grid.n_nodes) for k in range(1, mesh.steps)
                     for _ in range(2)]
    # the h rows carry one unit path scalar, broadcast to every level, and
    # give the root bit for bit what 2^k ones per level give
    scalars, part = pair.z_levels._parts[0]
    assert scalars.shape == (mesh.steps + 1, 1) and scalars.strides[0] == 0
    pair.z_levels._parts[0] = (
        [np.ones(2 ** k) for k in range(mesh.steps + 1)], part)
    assert np.array_equal(pair.z_levels.level(0)[0], pair.z0)


@pytest.mark.parametrize("kind", ["constant", "ramped"])
@pytest.mark.parametrize("extents, shape, center", [
    ([(0.0, 1.0)], (15,), (0.5,)),
    ([(0.0, 1.0), (0.0, 1.0)], (5, 5), (0.5, 0.5)),
], ids=["1d", "2d-5x5"])
def test_closed_form_backward_matches_the_nodal_steps(
        kind, extents, shape, center, assert_rel_close):
    # node-uniform inputs: the factored dual flow against `tree_step` level
    # by level, and the closed-form root and every lazily formed level
    # against `_nodal_backward`, which steps the same inputs in physical
    # space, in adjoint mode, with h as one row and per level (which steps
    # in physical space on both sides), with and without a control;
    # independent mode steps in physical space, its constant potential in
    # one solve per step
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.5, steps=5)
    tree, n, steps = build_tree(mesh), grid.n_nodes, mesh.steps
    if kind == "constant":
        coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    else:
        coeffs = CoefficientField(
            grid, mesh, a=np.linspace(0.0, 3.0, steps)[:, None] * np.ones(n),
            b=np.linspace(0.2, 0.8, steps)[:, None] * np.ones(n))
    time_set = MeasurableTimeSet(((0.05, 0.45),), horizon=0.5)
    solver = implicit_solver(grid, mesh.dt)
    rng = _rng(14)
    ctrl = dual_control(rng.standard_normal(n), coeffs, Ball(center, 0.3),
                        time_set, mesh, grid, tree)
    assert isinstance(ctrl.levels, FactoredLevels)
    flow = [ctrl.levels[0]]
    for k in range(steps - 1):
        flow.append(tree_step(flow[-1], *step_factors(
            coeffs, mesh.dt, tree_moves(mesh.dt), sign=-1.0, steps=k), solver))
        assert_rel_close(ctrl.levels[k + 1], flow[-1])
    z_t = rng.standard_normal((tree.n_leaves, n))
    sources = (None, rng.standard_normal(n),
               [rng.standard_normal((2 ** k, n)) for k in range(steps)])
    for h in sources:
        for c in (None, ctrl):
            pair = solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                                       control=c)
            levels, solves = control._nodal_backward(z_t, coeffs, mesh,
                                                     solver, h, c, "adjoint")
            assert pair.solves is None and solves is None
            for k in range(steps + 1):
                assert_rel_close(pair.z_levels[k], levels[k])
            independent = solve_backward_tree(z_t, coeffs, mesh, grid, tree,
                                              h=h, control=c,
                                              mode="independent")
            assert isinstance(independent.z_levels, list)
            assert independent.solves == [1] * steps


def test_run_control_closed_form_matches_the_nodal_path(monkeypatch,
                                                        report_leaves):
    # the defaults on the closed form, and with `node_uniform` patched to
    # False on the physical-space steps: the same verdicts; round-off
    # measurements (records against MACHINE_TOL, the null control's z(0),
    # the Gramian and CG gaps) are compared by verdict only, each curve
    # row's residual within its kappa * u, u* within kappa(G) * u over the
    # kept eigenvalues, and every other leaf within 1e-10 relative
    spectra = []
    spectrum = control.gramian_spectrum

    def recording(gram):
        spectra.append(spectrum(gram))
        return spectra[-1]

    monkeypatch.setattr(control, "gramian_spectrum", recording)

    def run():
        checks, extras, tables = cli.run_control(
            cli.Experiment(cfgmod.merge_config({})))
        return checks, extras, tables["control"]["columns"][-1]

    fast = run()
    monkeypatch.setattr(CoefficientField, "node_uniform",
                        property(lambda self: False))
    nodal = run()
    assert [(c["name"], c["pass"]) for c in fast[0]] \
        == [(c["name"], c["pass"]) for c in nodal[0]]
    _, lam, _, cutoff = spectra[-1]
    eps = np.finfo(float).eps
    round_off = {"duality_identity_adjoint", "gramian_symmetry",
                 "gramian_matrix_matches_tree", "null_control_verified"}
    for rec, ref in zip(fast[0] + [fast[1]], nodal[0] + [nodal[1]]):
        for (path, value), (_, expected) in zip(report_leaves(rec),
                                                report_leaves(ref)):
            if not isinstance(value, float):
                assert value == expected, path
            if not isinstance(value, float) or path.endswith(
                    ("gramian_gap", "cg_gap")) or rec.get("name") \
                    in round_off and path in (".lhs", ".margin"):
                continue
            rtol = 1e-10
            if path.endswith("].residual"):
                row = int(path.split("[")[1].split("]")[0])
                eps_reg = rec["curve"][row]["eps_reg"]
                rtol = max(rtol, 10.0 * (lam[-1] + eps_reg)
                           / (max(lam[0], 0.0) + eps_reg) * eps)
            assert abs(value - expected) <= rtol * abs(expected), path
    kappa = lam[-1] / np.min(lam[lam > cutoff])
    assert np.linalg.norm(fast[2] - nodal[2]) \
        <= kappa * eps * np.linalg.norm(nodal[2])


def test_run_control_forms_no_factored_level_but_the_null_table(
        monkeypatch):
    # a default run reads every dual flow through its factors: the only
    # level it forms is level 0 of the null control, the row of its table
    indexed = []
    getitem = FactoredLevels.__getitem__

    def recording(self, k):
        if not isinstance(k, slice):
            indexed.append((self, k))
        return getitem(self, k)

    monkeypatch.setattr(FactoredLevels, "__getitem__", recording)
    captured = []
    synthesize = control.synthesize_null_control

    def capturing(*args, **kwargs):
        result = synthesize(*args, **kwargs)
        captured.append(result[0])
        return result

    monkeypatch.setattr(control, "synthesize_null_control", capturing)
    cli.run_control(cli.Experiment(cfgmod.merge_config({})))
    (null_ctrl,) = captured
    assert len(indexed) == 1
    assert indexed[0][0] is null_ctrl.levels and indexed[0][1] == 0


def test_ramped_gramian_apply_matches_matrix(ramped):
    # tree columns on sine coefficients against the second-moment recursion,
    # which solves in physical space
    grid, mesh, tree, coeffs, ball, time_set = ramped
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    cols = np.stack([gramian_apply(e, coeffs, ball, time_set, mesh, grid, tree)
                     for e in np.eye(grid.n_nodes)], axis=1)
    assert np.max(np.abs(gram - cols)) <= 1e-12 * np.max(np.abs(cols))


def test_tree_recursions_solve_only_for_nodal_coefficients(lab, monkeypatch):
    # node-uniform coefficients: the dual flow is one orbit and the adjoint
    # steps are elementwise, so no implicit solve runs per tree level, and
    # independent mode solves its constant potential in one shifted solve
    # per step; space-varying ones solve at every level
    grid, mesh, tree, coeffs, ball, time_set = lab
    calls = []
    solve = ImplicitHeatSolver.solve

    def counting(self, rhs, shift=0.0):
        calls.append(np.shape(rhs))
        return solve(self, rhs, shift)

    monkeypatch.setattr(ImplicitHeatSolver, "solve", counting)
    rough = CoefficientField.random_bounded(grid, mesh, 11, 0.5, 0.5)
    z_t = _rng(13).standard_normal((tree.n_leaves, grid.n_nodes))
    counts = []
    for c in (coeffs, rough):
        calls.clear()
        ctrl = dual_control(z_t[0], c, ball, time_set, mesh, grid, tree)
        for mode in ("adjoint", "independent"):
            solve_backward_tree(z_t, c, mesh, grid, tree, control=ctrl,
                                mode=mode)
        counts.append(len(calls))
    # the nodal dual flow and adjoint solve once per step, and the
    # independent mode at least once
    assert counts == [mesh.steps, counts[1]] and counts[1] >= 3 * mesh.steps


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
    _, rep = synthesize_approx_control(z_t, _free(z_t, lab), target,
                                       gramian_spectrum(gram), coeffs, ball,
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


def test_conjugate_gradient_stops_on_a_null_direction():
    # a semidefinite operator: the second direction p = (0, 2) has p.Ap = 0,
    # a null direction, so CG stops there unconverged instead of raising
    a = np.diag([1.0, 0.0])
    _, info = conjugate_gradient(lambda v: a @ v, np.array([1.0, 1.0]),
                                 tol=1e-12)
    assert info["iterations"] == 1 and not info["converged"]


def test_null_control(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    rng = _rng(5)
    z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ctrl, rep = synthesize_null_control(z_t, _free(z_t, lab),
                                        gramian_spectrum(gram), coeffs, ball,
                                        time_set, mesh, grid, tree)
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
                     np.zeros((tree.n_leaves, grid.n_nodes)),
                     np.zeros(grid.n_nodes), gramian_spectrum(gram), coeffs,
                     ball, tiny, mesh, grid, tree),
                 lambda: dual_control(u, coeffs, ball, tiny, mesh, grid, tree),
                 lambda: gramian_apply(u, coeffs, ball, tiny, mesh, grid, tree),
                 lambda: gramian_matrix(coeffs, ball, tiny, mesh, grid)):
        with pytest.raises(ConfigurationError, match="activates no time step"):
            call()


def test_approx_control_smooth_target(lab):
    grid, mesh, tree, coeffs, ball, time_set = lab
    z_t, z0_free, target = _approx_inputs(lab)
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ctrl, rep = synthesize_approx_control(z_t, z0_free, target,
                                          gramian_spectrum(gram), coeffs,
                                          ball, time_set, mesh, grid, tree,
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
    z_t, z0_free, target = _approx_inputs(lab)
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    _, rep = synthesize_approx_control(z_t, z0_free, target,
                                       gramian_spectrum(gram), coeffs, ball,
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
    # control's verification, and one for the approximate control's
    # verification, whatever the length of its sweep; no datum is solved
    # twice
    dual = control.solve_dual_forward
    for overrides in (SMALL_CONTROL, {"control.depth": 12}):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return dual(*args, **kwargs)

        monkeypatch.setattr(control, "solve_dual_forward", counting)
        checks, _, _ = cli.run_control(
            cli.Experiment(cfgmod.merge_config(overrides)))
        rows = next(c for c in checks
                    if c["name"] == "regularization_curve_monotone")["curve"]
        assert len(rows) > 1
        assert len(calls) == 3 + 1 == 4, overrides
        assert len({args[0].tobytes() for args in calls}) == len(calls)


def test_one_free_backward_solve_per_run_control(monkeypatch):
    # three solves for the duality and Gramian checks, one free solve that
    # both syntheses share, and one verification per synthesis; only the
    # free solve has no control
    backward = control.solve_backward_tree
    for overrides in (SMALL_CONTROL, {"control.depth": 12}):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("control"))
            return backward(*args, **kwargs)

        monkeypatch.setattr(control, "solve_backward_tree", counting)
        cli.run_control(cli.Experiment(cfgmod.merge_config(overrides)))
        assert len(calls) == 3 + 2 + 1 == 6, overrides
        assert sum(c is None for c in calls) == 1


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


def test_approx_control_verifies_its_control_by_one_backward_solve(
        lab, monkeypatch):
    # one tree solve per synthesis, driven by the control it returns,
    # whatever the curve length: the free solve is the caller's, the curve
    # comes from the Gramian, and the control of a dual datum is its dual
    # flow, with no backward solve of its own
    grid, mesh, tree, coeffs, ball, time_set = lab
    spectrum = gramian_spectrum(gramian_matrix(coeffs, ball, time_set, mesh,
                                               grid))
    z_t, z0_free, target = _approx_inputs(lab)
    backward = control.solve_backward_tree
    lengths = set()
    for accuracy in (1e-1, 1e-6):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("control"))
            return backward(*args, **kwargs)

        monkeypatch.setattr(control, "solve_backward_tree", counting)
        ctrl, rep = synthesize_approx_control(z_t, z0_free, target, spectrum,
                                              coeffs, ball, time_set, mesh,
                                              grid, tree, accuracy=accuracy)
        lengths.add(len(rep["curve"]))
        assert calls == [ctrl]
    assert len(lengths) == 2 and max(lengths) > 1


def _assert_curve_matches_tree(args, rep):
    """Verify every row of a sweep on the tree: a `dual_control` of the
    row's closed-form u and one backward tree solve.  The Gramian's
    prediction agrees within kappa * u * ||rhs||, kappa the condition
    number of G + eps I; the selected row's tree residual is the achieved
    one, and its relative gap from the prediction is `gramian_gap`."""
    (z_t, z0_free, target, (_, lam, vec, _), coeffs, ball, time_set, mesh,
     grid, tree) = args
    w = grid.quad_weight
    rhs = z0_free - target
    coef = vec.T @ rhs
    rhs_norm = np.sqrt(w * float(rhs @ rhs))
    measured = []
    for row in rep["curve"]:
        eps = row["eps_reg"]
        u = vec @ (coef / (lam + eps))
        ctrl = dual_control(u, coeffs, ball, time_set, mesh, grid, tree)
        z0 = solve_backward_tree(z_t, coeffs, mesh, grid, tree,
                                 control=ctrl).z0
        tree_residual = np.sqrt(w * float((z0 - target) @ (z0 - target)))
        kappa = (lam[-1] + eps) / (max(lam[0], 0.0) + eps)
        assert abs(tree_residual - row["residual"]) \
            <= 10.0 * kappa * np.finfo(float).eps * rhs_norm, row
        measured.append(tree_residual)
    predicted = [row["residual"] for row in rep["curve"]]
    # the last row of the smallest prediction, as the sweep selects it
    chosen = len(predicted) - 1 - int(np.argmin(predicted[::-1]))
    assert rep["achieved_residual"] == measured[chosen]
    assert rep["gramian_gap"] == abs(measured[chosen] - predicted[chosen]) \
        / measured[chosen]


def test_approx_control_curve_agrees_with_tree_verification(lab, monkeypatch):
    # the predicted curve against per-row tree verification, on the lab and
    # on the sweep of a depth-12 run_control
    grid, mesh, tree, coeffs, ball, time_set = lab
    spectrum = gramian_spectrum(gramian_matrix(coeffs, ball, time_set, mesh,
                                               grid))
    z_t, z0_free, target = _approx_inputs(lab)
    args = (z_t, z0_free, target, spectrum, coeffs, ball, time_set, mesh,
            grid, tree)
    _, rep = synthesize_approx_control(*args, accuracy=1e-6)
    assert len(rep["curve"]) > 1
    _assert_curve_matches_tree(args, rep)

    runs = []
    synthesize = control.synthesize_approx_control

    def recording(*args, **kwargs):
        result = synthesize(*args, **kwargs)
        runs.append((args, result[1]))
        return result

    monkeypatch.setattr(control, "synthesize_approx_control", recording)
    cli.run_control(cli.Experiment(cfgmod.merge_config({"control.depth": 12})))
    (args, rep), = runs
    assert len(rep["curve"]) > 1
    _assert_curve_matches_tree(args, rep)


def test_approx_control_verdict_is_tree_measured(lab, monkeypatch):
    # a spectrum of twice the Gramian predicts the goal met while the tree,
    # driven by the true actuator, leaves z(0) about halfway: the verdict
    # follows the tree, the gap shows the disagreement, and the run reports
    # the failure without raising
    grid, mesh, tree, coeffs, ball, time_set = lab
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    z_t, z0_free, target = _approx_inputs(lab)
    _, rep = synthesize_approx_control(z_t, z0_free, target,
                                       gramian_spectrum(2.0 * gram), coeffs,
                                       ball, time_set, mesh, grid, tree,
                                       accuracy=1e-2)
    goal = 1e-2 * rep["target_norm"]
    assert min(row["residual"] for row in rep["curve"]) <= goal
    assert not rep["achieved"]
    assert rep["achieved_residual"] > goal
    assert rep["gramian_gap"] > 0.5

    # the run's record carries the gap: far from 0 under the doubled
    # spectrum, conditioning-limited on the true one
    def run_records():
        checks, _, _ = cli.run_control(cli.Experiment(cfgmod.merge_config({})))
        return {c["name"]: c for c in checks}

    records = run_records()
    assert records["approximate_control"]["pass"]
    assert records["approximate_control"]["gramian_gap"] < 1e-6
    spectrum = control.gramian_spectrum
    monkeypatch.setattr(control, "gramian_spectrum",
                        lambda g: spectrum(2.0 * g))
    records = run_records()
    approx = records["approximate_control"]
    curve = records["regularization_curve_monotone"]["curve"]
    assert not approx["pass"]
    assert curve[-1]["residual"] <= approx["rhs"] < approx["lhs"]
    assert approx["gramian_gap"] > 0.5


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
