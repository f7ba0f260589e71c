"""Acceptance suite: thirteen verification criteria, one pass/fail line each.

Each criterion is its own test so `pytest -v` prints one status line per
criterion; a summary line is also printed for capture-free runs.  The sweep
criteria (4, 5, 6, 8) share twenty randomized configurations computed once.
"""

import json
import math
import os

import numpy as np
import pytest

from stochheat import (Ball, CoefficientField, HeatKernelWeight,
                       MeasurableTimeSet, PathEnsemble, TimeMesh, build_cutoff,
                       build_grid, build_tree, compute_constants,
                       density_sequence, energy_trace, epsilon_sequence,
                       exp_transform_oracle, frequency_bound_check,
                       gramian_matrix, heat_kernel, kernel_traces,
                       quantitative_ucp_check, select_lambda,
                       solve_forward, solve_forward_moments,
                       synthesize_approx_control, synthesize_null_control,
                       telescoping_check, three_ball_check)
from stochheat import control as ctl
from stochheat.cli import main as cli_main
from stochheat.forward import tree_moves
from stochheat.frequency import hprime_identity_residual
from stochheat.geometry import caloric_defect
from stochheat.ucp import amplitude_profile, default_tolerance

N_SWEEP = 20
SWEEP_NODES = 63
SWEEP_HORIZON = 0.5
SWEEP_DEPTH = 10
OBS_BALL = Ball((0.5,), 0.08)
E_SET = ((0.1, 0.2), (0.3, 0.45))


def _line(num, name, passed):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num:02d} {name} failed"


@pytest.fixture(scope="module")
def sweep():
    """Twenty randomized configurations: random bounded coefficients and a
    randomly placed bump initial state on the shared tree/grid.  Each keeps
    what the criteria read of its tree ensemble, not the ensemble: the
    energy and local traces, the terminal moment E[y(T)^2], the drift
    bounds' traces (global, for the convex form, and under the shared
    cutoff) and the lambda profile of criterion 6."""
    grid = build_grid([(0.0, 1.0)], (SWEEP_NODES,))
    mesh = TimeMesh(horizon=SWEEP_HORIZON, steps=SWEEP_DEPTH)
    tree = build_tree(mesh)
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    weight = HeatKernelWeight(horizon=SWEEP_HORIZON, shift=0.25,
                              center=(0.5,), dim=1)
    x = grid.coords[:, 0]
    tol = default_tolerance(mesh, grid)
    configs = []
    for seed in range(N_SWEEP):
        rng = np.random.Generator(np.random.Philox(key=[seed, 11]))
        coeffs = CoefficientField.random_bounded(grid, mesh, seed, 0.5, 0.5)
        c0 = rng.uniform(0.3, 0.7)
        wd = rng.uniform(0.08, 0.2)
        y0 = np.sin(np.pi * x) * (1.0 + np.exp(-(x - c0) ** 2 / (2 * wd ** 2)))
        ens = solve_forward(y0, coeffs, tree, mesh, grid)
        convex, local = kernel_traces(ens, cutoff, coeffs,
                                      heat_kernel(weight, grid), ("h", "d"),
                                      ("h", "d", "f_sq"))
        configs.append({"seed": seed, "coeffs": coeffs, "y0": y0,
                        "traces": _traces(ens),
                        "terminal": ens.nodal_moment()[-1],
                        "local": local, "convex": convex,
                        "profile": amplitude_profile(ens, cutoff, coeffs, 0.1)})
    return {"grid": grid, "mesh": mesh, "tree": tree, "cutoff": cutoff,
            "weight": weight, "tol": tol, "configs": configs}


def _traces(ens):
    """The energy trace and the local trace on OBS_BALL."""
    return energy_trace(ens), energy_trace(ens, ens.grid.ball_mask(OBS_BALL))


def _identity_trace(ens, coeffs, weight):
    """The global trace of the energy-derivative identity."""
    return kernel_traces(ens, None, coeffs, heat_kernel(weight, ens.grid),
                         ("h", "d", "phi_f", "b_sq"))[0]


def _endpoint_constants(sw, cfg, r=0.08):
    grid, mesh = sw["grid"], sw["mesh"]
    energy = cfg["traces"][0]
    return compute_constants(grid, (0.5,), r, mesh.horizon, cfg["coeffs"],
                             energy[0], energy[-1])


def test_criterion_01_deterministic_heat_oracle():
    # zero coefficients, sine data: exact decay rate e^{-pi^2 T}
    grid = build_grid([(0.0, 1.0)], (127,))
    mesh = TimeMesh(horizon=0.1, steps=1000)
    coeffs = CoefficientField.constant(grid, mesh, 0.0, 0.0)
    x = grid.coords[:, 0]
    noise = PathEnsemble(mesh=mesh, seed=0,
                         increments=np.zeros((1, mesh.steps)))
    ens = solve_forward(np.sin(np.pi * x), coeffs, noise, mesh, grid)
    exact = np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * x)
    rel = np.max(np.abs(ens.values[0, -1] - exact)) / np.max(np.abs(exact))
    _line(1, "deterministic heat oracle", rel <= 1e-3)


def test_criterion_02_kernel_caloric_identity():
    # K_t + Delta K = 0 on `values`, by central differences, at 1e4 random
    # space-time probes: ten sets of 1000 points, each measured against its
    # own max |K_t|, which a set of 1000 points keeps far from 0
    rng = np.random.Generator(np.random.Philox(key=[2, 2]))
    worst = 0.0
    for _ in range(10):
        w = HeatKernelWeight(horizon=0.5, shift=float(rng.uniform(0.01, 1.0)),
                             center=(float(rng.uniform(0.2, 0.8)),), dim=1)
        coords = rng.uniform(0.0, 1.0, size=(1000, 1))
        t = float(rng.uniform(0.01, 0.49))
        worst = max(worst, caloric_defect(w, coords, t))
    _line(2, "kernel caloric identity", worst <= 1e-6)


def test_criterion_03_energy_derivative_identity(left_endpoint_residual):
    # tree ensembles at depth 10 under random bounded coefficients, plus the
    # first-order refinement signature on the exact moment recursion
    grid = build_grid([(0.0, 1.0)], (63,))
    horizon = 0.1
    weight = HeatKernelWeight(horizon=horizon, shift=0.25, center=(0.5,),
                              dim=1)
    x = grid.coords[:, 0]
    ok = True
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
        y0 = np.sin(np.pi * x) * (1 + 0.3 * rng.standard_normal()) \
            + 0.2 * np.sin(2 * np.pi * x) * rng.standard_normal()
        mesh = TimeMesh(horizon=horizon, steps=10)
        coeffs = CoefficientField.random_bounded(grid, mesh, seed, 0.5, 0.5)
        ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid)
        rep = hprime_identity_residual(_identity_trace(ens, coeffs, weight),
                                       mesh.dt)
        ok &= rep["integrated_residual"] <= 0.05
        # dt-halving: the left-endpoint residual is first order, so
        # successive Richardson differences (the spatial floor cancels)
        # halve within +-30%
        res = {}
        for steps in (10, 20, 40):
            m2 = TimeMesh(horizon=horizon, steps=steps)
            c2 = CoefficientField.random_bounded(grid, m2, seed, 0.5, 0.5)
            mom = solve_forward_moments(y0, c2, m2, grid)
            res[steps] = left_endpoint_residual(hprime_identity_residual(
                _identity_trace(mom, c2, weight), m2.dt), m2.dt)
        ratio = (res[10] - res[20]) / (res[20] - res[40])
        ok &= 1.4 <= ratio <= 2.6
    _line(3, "energy-derivative identity", ok)


def test_criterion_04_frequency_drift_bound(sweep):
    ok = True
    for cfg in sweep["configs"]:
        fb = frequency_bound_check(cfg["local"], sweep["weight"],
                                   cfg["coeffs"], sweep["cutoff"],
                                   slack=sweep["tol"])
        fbc = frequency_bound_check(cfg["convex"], sweep["weight"],
                                    cfg["coeffs"], slack=sweep["tol"])
        ok &= fb["holds"] and fbc["holds"]
    _line(4, "frequency drift bound (20 sweeps)", ok)


def test_criterion_05_interpolation_inequality(sweep):
    grid, mesh, tree = sweep["grid"], sweep["mesh"], sweep["tree"]
    ok = True
    for cfg in sweep["configs"]:
        const = _endpoint_constants(sweep, cfg)
        rep = quantitative_ucp_check(*cfg["traces"], const,
                                     tol=sweep["tol"])
        ok &= rep["pass"]
    # exact scale invariance of the pass status under y -> 3y
    cfg = sweep["configs"][0]
    scaled = solve_forward(3.0 * cfg["y0"], cfg["coeffs"], tree, mesh, grid)
    base_rep = quantitative_ucp_check(*cfg["traces"],
                                      _endpoint_constants(sweep, cfg),
                                      tol=sweep["tol"])
    energy3 = energy_trace(scaled)
    const3 = compute_constants(grid, (0.5,), 0.08, mesh.horizon,
                               cfg["coeffs"], energy3[0], energy3[-1])
    scaled_rep = quantitative_ucp_check(*_traces(scaled), const3,
                                        tol=sweep["tol"])
    ok &= scaled_rep["pass"] == base_rep["pass"]
    ok &= np.isclose(scaled_rep["lhs"] / base_rep["lhs"], 9.0, rtol=1e-10)
    _line(5, "explicit interpolation inequality (20 sweeps)", ok)


def test_criterion_06_three_ball_inequality(sweep):
    qualified, passed, excluded = 0, 0, []
    for cfg in sweep["configs"]:
        prof = cfg["profile"]
        sel = select_lambda(prof["profile"], 0.08, 1)
        if not sel["qualifies"]:
            excluded.append({"seed": cfg["seed"], "profile": sel["profile"]})
            continue
        qualified += 1
        rep = three_ball_check(cfg["terminal"], sweep["grid"],
                               (0.5,), 0.08, 0.12, sel["lambda1"],
                               tol=sweep["tol"])
        passed += rep["pass"]
    if excluded:
        print(f"criterion 06 excluded seeds: "
              f"{[e['seed'] for e in excluded]} (scan profiles reported)")
    ok = qualified >= 15 and passed == qualified
    _line(6, f"three-ball inequality ({qualified}/20 qualified)", ok)


def test_criterion_07_density_sequence_and_recursion():
    time_set = MeasurableTimeSet(E_SET, horizon=SWEEP_HORIZON)
    seq = density_sequence(time_set, depth=8)
    gaps = -np.diff(seq.times)
    ok = seq.found and bool(np.all(gaps <= 3.0 * seq.gap_measures + 1e-15))
    # recursion identities at 1e-12 relative accuracy
    grid = build_grid([(0.0, 1.0)], (31,))
    mesh = TimeMesh(horizon=SWEEP_HORIZON, steps=SWEEP_DEPTH)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    x = grid.coords[:, 0]
    ens = solve_forward(np.sin(np.pi * x), coeffs, build_tree(mesh), mesh,
                        grid)
    energy = energy_trace(ens)
    ucp_c = compute_constants(grid, (0.5,), 0.08, mesh.horizon, coeffs,
                              energy[0], energy[-1])
    oc = epsilon_sequence(ucp_c, coeffs, mesh.horizon, seq.gap_measures)
    ok &= bool(np.all(oc.eps <= oc.eps1 * (1.0 + 1e-12)))
    rel = np.abs(oc.sigma[:-1] - oc.alpha[1:] * np.exp(-oc.c_abt)) \
        / np.maximum(np.abs(oc.sigma[:-1]), 1e-300)
    ok &= bool(np.max(rel) <= 1e-11)
    _line(7, "density sequence and epsilon recursion", ok)


def test_criterion_08_observability_inequality(sweep):
    time_set = MeasurableTimeSet(E_SET, horizon=SWEEP_HORIZON)
    seq = density_sequence(time_set)
    ok = True
    for cfg in sweep["configs"]:
        const = _endpoint_constants(sweep, cfg)
        oc = epsilon_sequence(const, cfg["coeffs"], SWEEP_HORIZON,
                              seq.gap_measures)
        rep = telescoping_check(*cfg["traces"], sweep["mesh"],
                                time_set, seq, oc, tol=sweep["tol"])
        ok &= all(g["pass"] for g in rep["per_gap"])
        ok &= rep["summed"]["pass"] and rep["final"]["pass"]
        ok &= np.isfinite(rep["final"]["c_emp"])
        ok &= rep["final"]["c_emp"] <= rep["final"]["c_explicit"]
    _line(8, "observability inequality (20 sweeps)", ok)


def test_criterion_09_duality():
    grid = build_grid([(0.0, 1.0)], (15,))
    g0 = Ball((0.5,), 0.15)
    e1 = MeasurableTimeSet(((0.05, 0.45),), horizon=0.5)
    x = grid.coords[:, 0]
    ok = True
    # adjoint mode: machine-exact pairing for 10 random (z_T, h, f) triples
    mesh = TimeMesh(horizon=0.5, steps=10)
    tree = build_tree(mesh)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    for trial in range(10):
        rng = np.random.Generator(np.random.Philox(key=[trial, 31]))
        z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
        h = [rng.standard_normal((2 ** k, grid.n_nodes))
             for k in range(mesh.steps)]
        u = rng.standard_normal(grid.n_nodes)
        cf = ctl.dual_control(u, coeffs, g0, e1, mesh, grid, tree)
        pair = ctl.solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                                       control=cf, mode="adjoint")
        v = rng.standard_normal(grid.n_nodes)
        dv = ctl.solve_dual_forward(v, coeffs, mesh, grid, tree)
        rep = ctl.duality_check(dv, pair, h=h, control=cf)
        ok &= rep["relative_residual"] <= 1e-10
    # independent mode: O(dt) refinement of the pairing residual on a fixed
    # continuous-in-time problem (smooth terminal data, deterministic h, f)
    rng = np.random.Generator(np.random.Philox(key=[3, 99]))
    c = rng.standard_normal(6)
    res = {}
    for steps in (4, 8, 16):
        mesh = TimeMesh(horizon=0.5, steps=steps)
        tree = build_tree(mesh)
        coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
        b_t = np.zeros(1)  # B(T) per leaf, built level by level
        for _ in range(tree.depth):
            b_t = (b_t[:, None] + tree_moves(mesh.dt)).reshape(-1)
        z_t = (c[0] * np.sin(np.pi * x)
               + 0.3 * c[1] * np.sin(2 * np.pi * x))[None, :] \
            * (1.0 + 0.5 * np.tanh(c[2] * b_t))[:, None]
        h = c[3] * np.sin(2 * np.pi * x)
        u = c[4] * np.sin(np.pi * x) + 0.3 * c[5] * np.sin(3 * np.pi * x)
        v = np.sin(np.pi * x) * np.cos(np.pi * (x - 0.5))
        cf = ctl.dual_control(u, coeffs, g0, e1, mesh, grid, tree)
        pair = ctl.solve_backward_tree(z_t, coeffs, mesh, grid, tree, h=h,
                                       control=cf, mode="independent")
        dv = ctl.solve_dual_forward(v, coeffs, mesh, grid, tree)
        res[steps] = ctl.duality_check(dv, pair, h=h, control=cf)["residual"]
    slope = math.log(res[4] / res[16], 2) / 2
    ok &= slope >= 0.8
    _line(9, f"duality pairing (independent-mode slope {slope:.2f})", ok)


@pytest.fixture(scope="module")
def control_lab():
    grid = build_grid([(0.0, 1.0)], (15,))
    mesh = TimeMesh(horizon=0.5, steps=10)
    tree = build_tree(mesh)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    ball = Ball((0.5,), 0.15)
    time_set = MeasurableTimeSet(((0.05, 0.45),), horizon=0.5)
    return grid, mesh, tree, coeffs, ball, time_set


def test_criterion_10_null_controllability(control_lab):
    grid, mesh, tree, coeffs, ball, time_set = control_lab
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ok = True
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(key=[seed, 41]))
        z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
        z0_free = ctl.solve_backward_tree(z_t, coeffs, mesh, grid, tree).z0
        _, rep = synthesize_null_control(z_t, z0_free,
                                         ctl.gramian_spectrum(gram), coeffs,
                                         ball, time_set, mesh, grid, tree)
        ok &= rep["relative_z0"] <= 1e-6
        ok &= rep["cg"]["iterations"] <= 15
    _line(10, "null controllability", ok)


def test_criterion_11_approximate_controllability(control_lab):
    grid, mesh, tree, coeffs, ball, time_set = control_lab
    x = grid.coords[:, 0]
    gram = gramian_matrix(coeffs, ball, time_set, mesh, grid)
    ok = True
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(key=[seed, 51]))
        z_t = rng.standard_normal((tree.n_leaves, grid.n_nodes))
        # smooth targets: at finite resolution the attainable set excludes
        # the high-frequency modes the dual flow damps below round-off
        target = 0.1 * sum(rng.standard_normal() * np.sin(k * np.pi * x)
                           for k in range(1, 4))
        z0_free = ctl.solve_backward_tree(z_t, coeffs, mesh, grid, tree).z0
        _, rep = synthesize_approx_control(z_t, z0_free, target,
                                           ctl.gramian_spectrum(gram), coeffs,
                                           ball, time_set, mesh, grid, tree,
                                           accuracy=1e-2)
        ok &= rep["achieved"] and rep["relative_residual"] <= 1e-2
        res = [row["residual"] for row in rep["curve"]]
        ok &= all(r2 <= r1 * (1.0 + 1e-9) for r1, r2 in zip(res, res[1:]))
    _line(11, "approximate controllability", ok)


def test_criterion_12_exponential_transform_refinement():
    grid = build_grid([(0.0, 1.0)], (31,))
    gaps = {}
    for steps in (8, 16, 32):
        mesh = TimeMesh(horizon=0.25, steps=steps)
        coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
        from stochheat import sample_ensemble
        gaps[steps] = exp_transform_oracle(
            coeffs, sample_ensemble(mesh, 32, 42), mesh)["max_gap"]
    s1 = math.log(gaps[8] / gaps[16], 2)
    s2 = math.log(gaps[16] / gaps[32], 2)
    _line(12, f"exponential-transform refinement (slopes {s1:.2f}, {s2:.2f})",
          s1 >= 0.4 and s2 >= 0.4)


def test_criterion_13_byte_identical_reports(tmp_path):
    dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for d in dirs:
        assert cli_main(["verify", "--out", d]) == 0
    files = sorted(f for f in os.listdir(dirs[0]) if "timing" not in f)
    ok = len(files) > 0
    for f in files:
        b1 = open(os.path.join(dirs[0], f), "rb").read()
        b2 = open(os.path.join(dirs[1], f), "rb").read()
        ok &= b1 == b2
    # sanity: the report really is the full verification payload
    payload = json.load(open(os.path.join(dirs[0], "verify.json")))
    ok &= all(rec["pass"] for rec in payload["checks"])
    _line(13, f"byte-identical reports ({len(files)} files)", ok)
