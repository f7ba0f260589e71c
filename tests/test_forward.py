"""Forward solvers: deterministic oracle, moment propagation, transforms."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import (Ball, CoefficientField, ConfigurationError,
                       PathEnsemble, TimeMesh, build_cutoff, build_grid,
                       build_tree, energy_trace, exp_transform_oracle,
                       sample_ensemble, solve_forward, solve_forward_moments)
from stochheat.errors import ShapeError
from stochheat.forward import (ImplicitHeatSolver, step_factors,
                               step_invertibility_report)


def _silent_noise(mesh, n_paths=1):
    return PathEnsemble(mesh=mesh, seed=0,
                        increments=np.zeros((n_paths, mesh.steps)))


def test_heat_kernel_decay_oracle():
    # a = b = 0: y(t, x) = e^{-pi^2 t} sin(pi x)
    grid = build_grid([(0.0, 1.0)], (63,))
    mesh = TimeMesh(horizon=0.1, steps=200)
    coeffs = CoefficientField.constant(grid, mesh, 0.0, 0.0)
    x = grid.coords[:, 0]
    ens = solve_forward(np.sin(np.pi * x), coeffs, _silent_noise(mesh),
                        mesh, grid)
    exact = np.exp(-np.pi ** 2 * 0.1) * np.sin(np.pi * x)
    rel = np.max(np.abs(ens.values[0, -1] - exact)) / np.max(np.abs(exact))
    assert rel < 5e-3


def test_implicit_solver_batched_and_single_agree():
    grid = build_grid([(0.0, 1.0)], (31,))
    solver = ImplicitHeatSolver(grid, 0.01)
    rng = np.random.Generator(np.random.Philox(key=[0, 3]))
    batch = rng.standard_normal((5, grid.n_nodes))
    out = solver.solve(batch)
    for i in range(5):
        assert np.allclose(out[i], solver.solve(batch[i]), rtol=1e-13)


def test_implicit_solver_matches_superlu(oracle_grid, sparse_operators,
                                        assert_rel_close):
    # the sine-basis solve against SuperLU on I - dt Lap (+ shift), for a
    # field, a batch and a stacked batch
    from scipy.sparse.linalg import splu
    grid, dt = oracle_grid, 0.01
    lap, _ = sparse_operators(grid)
    n = grid.n_nodes
    solver = ImplicitHeatSolver(grid, dt)
    rng = np.random.Generator(np.random.Philox(key=[8, 5]))
    for shift in (0.0, 0.3, -0.2):
        lu = splu(sp.csc_matrix((1.0 + shift) * sp.eye(n) - dt * lap))
        for rhs in (rng.standard_normal(n), rng.standard_normal((9, n)),
                    rng.standard_normal((2, 3, n))):
            flat = rhs.reshape(-1, n)
            ref = lu.solve(flat.T).T.reshape(rhs.shape)
            out = solver.solve(rhs, shift)
            assert out.shape == rhs.shape
            assert_rel_close(out, ref)


def test_coefficient_field_shapes_and_sups(grid, mesh):
    c = CoefficientField.constant(grid, mesh, a=-0.7, b=0.2)
    assert c.a.shape == (mesh.steps, grid.n_nodes)
    assert c.sup_a == 0.7
    assert c.sup_b_w1inf == 0.2
    with pytest.raises(ConfigurationError):
        CoefficientField(grid, mesh, a=np.zeros(5), b=0.0)


def test_random_bounded_respects_w1inf_bound(grid, mesh):
    for seed in range(5):
        c = CoefficientField.random_bounded(grid, mesh, seed, 0.5, 0.3)
        assert c.sup_a <= 0.5 + 1e-12
        assert c.sup_b_w1inf <= 0.3 + 1e-12
        grad = grid.field_gradient(c.b[0])
        assert np.max(np.abs(grad)) <= 0.3 + 1e-12


def test_coefficient_gradients_match_per_step_gradients():
    # b_grad is one batched gradient over all steps; the arithmetic is the
    # per-field gradient's, so the results are equal, in 1-D and in 2-D
    rng = np.random.Generator(np.random.Philox(key=[4, 2]))
    mesh = TimeMesh(horizon=0.5, steps=7)
    for grid in (build_grid([(0.0, 1.0)], (31,)),
                 build_grid([(0.0, 1.0), (0.0, 2.0)], (7, 9))):
        b = rng.standard_normal((mesh.steps, grid.n_nodes))
        c = CoefficientField(grid, mesh, a=0.0, b=b)
        per_step = np.stack([grid.field_gradient(row) for row in b])
        assert c.b_grad.shape == (mesh.steps, grid.n_nodes, grid.dim)
        assert np.array_equal(c.b_grad, per_step)


def test_tree_forward_per_leaf_brute_force(grid):
    # follow one leaf history explicitly through (I - dt Lap) y_{k+1} = y_k +
    # dt a_k y_k + b_k y_k dB_k, with dB_k = -sqrt(dt) on an even (down) child
    # and +sqrt(dt) on an odd (up) child, under time-varying coefficients
    mesh = TimeMesh(horizon=0.4, steps=6)
    rng = np.random.Generator(np.random.Philox(key=[3, 8]))
    shape = (mesh.steps, grid.n_nodes)
    coeffs = CoefficientField(grid, mesh, a=rng.uniform(-1.0, 1.0, shape),
                              b=rng.uniform(-1.0, 1.0, shape))
    y0 = rng.standard_normal(grid.n_nodes)
    ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid)
    assert [level.shape for level in ens.levels] \
        == [(2 ** k, grid.n_nodes) for k in range(mesh.steps + 1)]
    solver = ImplicitHeatSolver(grid, mesh.dt)
    root = np.sqrt(mesh.dt)
    for leaf in (0, 5, 2 ** mesh.steps - 1):
        y, node = y0.copy(), 0
        for k in range(mesh.steps):
            bit = (leaf >> (mesh.steps - 1 - k)) & 1
            db = root if bit else -root
            y = solver.solve(y + mesh.dt * coeffs.a[k] * y
                             + coeffs.b[k] * y * db)
            node = 2 * node + bit
            assert np.allclose(ens.levels[k + 1][node], y, rtol=1e-12,
                               atol=1e-14)


@pytest.mark.parametrize("mode", ["tree", "sampled"])
def test_tree_leaf_view_reads_and_writes_levels(grid, mode):
    # values[l, k] is node l >> (d - k) of tree level k and row l of a
    # sampled level; a write that keeps the paths of each row equal lands in
    # the levels, any other is refused, so a single-path write lands only on
    # sampled noise
    mesh = TimeMesh(horizon=0.4, steps=4)
    y0 = np.sin(np.pi * grid.coords[:, 0])
    noise = build_tree(mesh) if mode == "tree" \
        else sample_ensemble(mesh, 2 ** mesh.steps, 7)
    ens = solve_forward(y0, CoefficientField.constant(grid, mesh, 0.5, 0.8),
                        noise, mesh, grid)
    leaves = np.asarray(ens.values)
    assert leaves.shape == (2 ** mesh.steps, mesh.steps + 1, grid.n_nodes)
    for leaf in range(2 ** mesh.steps):
        for k in range(mesh.steps + 1):
            row = leaf >> (mesh.steps - k) if mode == "tree" else leaf
            assert np.array_equal(leaves[leaf, k], ens.levels[k][row])
    level2 = ens.levels[2].copy()
    ens.values[:, 2, :] *= 3.0
    assert np.array_equal(ens.levels[2], 3.0 * level2)
    if mode == "tree":
        with pytest.raises(ShapeError):
            ens.values[0, 2, :] = 0.0
        assert np.array_equal(ens.levels[2], 3.0 * level2)
    else:
        ens.values[0, 2, :] = 0.0
        assert not ens.levels[2][0].any()
        assert np.array_equal(ens.levels[2][1:], 3.0 * level2[1:])


def test_sampled_levels_apply_the_step_factors(grid):
    # the sampled solve is the scheme of `step_factors`, bit for bit: the
    # factors the invertibility audit reads are the ones it applies
    mesh = TimeMesh(horizon=0.4, steps=6)
    rng = np.random.Generator(np.random.Philox(key=[5, 9]))
    shape = (mesh.steps, grid.n_nodes)
    coeffs = CoefficientField(grid, mesh, a=rng.uniform(-1.0, 1.0, shape),
                              b=rng.uniform(-1.0, 1.0, shape))
    noise = sample_ensemble(mesh, 8, 3)
    ens = solve_forward(rng.standard_normal(grid.n_nodes), coeffs, noise,
                        mesh, grid)
    solver = ImplicitHeatSolver(grid, mesh.dt)
    paths = np.asarray(ens.values)
    for k in range(mesh.steps):
        step = solver.solve(paths[:, k] * step_factors(
            coeffs, k, mesh.dt, noise.increments[:, k]))
        assert np.array_equal(paths[:, k + 1], step)


def test_moment_propagator_matches_tree_exactly(grid, sparse_operators):
    # the closed moment recursion must reproduce tree expectations of
    # arbitrary quadratic functionals to rounding, at any depth
    mesh = TimeMesh(horizon=0.4, steps=7)
    tree = build_tree(mesh)
    coeffs = CoefficientField.random_bounded(grid, mesh, 2, 0.5, 0.5)
    x = grid.coords[:, 0]
    y0 = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
    ens = solve_forward(y0, coeffs, tree, mesh, grid)
    mom = solve_forward_moments(y0, coeffs, mesh, grid)
    rng = np.random.Generator(np.random.Philox(key=[1, 4]))
    d = rng.uniform(0.0, 1.0, grid.n_nodes)
    y_sq_tree, y_sq_mom = ens.nodal_moment(), mom.nodal_moment()
    for k in (0, 3, mesh.steps):
        a = y_sq_tree[k] @ d
        b = y_sq_mom[k] @ d
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
        assert np.allclose(ens.levels[k].mean(axis=0), mom.means[k],
                           atol=1e-13)
    # whole nodal fields, including the localized gradient and the static
    # cutoff source -Lap(phi) - 2 grad(phi).grad as sparse matrices, and the
    # package's stencils
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    (grad,) = sparse_operators(grid)[1]
    grad_phi = sp.csr_matrix(grad @ sp.diags(cutoff.values))
    source = sp.csr_matrix(-sp.diags(cutoff.lap)
                           - 2.0 * sp.diags(cutoff.grad[:, 0]) @ grad)
    for left, right in ((None, None), (grad_phi, grad_phi), (None, source),
                        (source, source), (grad, source),
                        (grid.laplacian(), grid.gradient_ops()[0])):
        a = ens.nodal_moment(left, right)
        b = mom.nodal_moment(left, right)
        assert a.shape == (mesh.steps + 1, grid.n_nodes)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(a)), 1.0)


def _dense_moments(y0, coeffs, mesh, lap):
    # P_{k+1} = M^{-1} ((d d^T + dt b b^T) o P_k) M^{-1}, d = 1 + dt a_k,
    # with M = I - dt Lap inverted densely
    m_inv = np.linalg.inv(np.eye(lap.shape[0]) - mesh.dt * lap.toarray())
    p = [np.outer(y0, y0)]
    for k in range(mesh.steps):
        d, b = 1.0 + mesh.dt * coeffs.a[k], coeffs.b[k]
        p.append(m_inv @ ((np.outer(d, d) + mesh.dt * np.outer(b, b)) * p[-1])
                 @ m_inv)
    return p


def test_moment_factors_match_dense_recursion(sparse_operators):
    # E[y y^T] = Z^T Z against the dense n x n recursion, 1-D and 2-D, under
    # space-varying coefficients (factor rank above one)
    mesh = TimeMesh(horizon=0.5, steps=400)
    for grid in (build_grid([(0.0, 1.0)], (31,)),
                 build_grid([(0.0, 1.0), (0.0, 1.0)], (5, 5))):
        coeffs = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
        y0 = np.prod(np.sin(np.pi * grid.coords), axis=1) \
            + 0.3 * np.sin(3 * np.pi * grid.coords[:, 0])
        mom = solve_forward_moments(y0, coeffs, mesh, grid)
        assert max(mom.provenance["rank"]) > 1
        lap, _ = sparse_operators(grid)
        for z, p in zip(mom.second_moments,
                        _dense_moments(y0, coeffs, mesh, lap)):
            assert z.shape[1] == grid.n_nodes
            assert np.max(np.abs(z.T @ z - p)) <= 1e-12 * np.max(np.abs(p))


def test_constant_coefficients_keep_rank_one(grid):
    # constant a, b: P_k = c^k (M^-k y0)(M^-k y0)^T, one factor row per step
    mesh = TimeMesh(horizon=0.5, steps=400)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    y0 = np.sin(np.pi * grid.coords[:, 0]) * (1.0 + grid.coords[:, 0])
    mom = solve_forward_moments(y0, coeffs, mesh, grid)
    assert mom.provenance["rank"] == [1] * (mesh.steps + 1)
    assert all(z.shape == (1, grid.n_nodes) for z in mom.second_moments)
    traces = [float(np.sum(z ** 2)) for z in mom.second_moments]
    for tail, trace in zip(mom.provenance["discarded_tail"], traces):
        assert 0.0 <= tail <= 1e-18 * trace


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 10.0))
def test_quadratic_functionals_scale_quadratically(scale):
    grid = build_grid([(0.0, 1.0)], (15,))
    mesh = TimeMesh(horizon=0.2, steps=4)
    tree = build_tree(mesh)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    x = grid.coords[:, 0]
    y0 = np.sin(np.pi * x)
    base = solve_forward(y0, coeffs, tree, mesh, grid)
    scaled = solve_forward(scale * y0, coeffs, tree, mesh, grid)
    e1, e2 = energy_trace(base), energy_trace(scaled)
    assert np.allclose(e2, scale ** 2 * e1, rtol=1e-10)


def test_exp_transform_exact_when_b_zero(grid):
    mesh = TimeMesh(horizon=0.3, steps=30)
    coeffs = CoefficientField.constant(grid, mesh, 0.25, 0.0)
    x = grid.coords[:, 0]
    ens = solve_forward(np.sin(np.pi * x), coeffs, _silent_noise(mesh, 3),
                        mesh, grid)
    gap = exp_transform_oracle(ens, 0.0, 0.25)
    assert gap["max_gap"] < 1e-12


@pytest.mark.parametrize("kind", ["tree", "moments"])
def test_exp_transform_refuses_tree_and_moment_ensembles(grid, kind):
    mesh = TimeMesh(horizon=0.4, steps=4)
    coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
    y0 = np.sin(np.pi * grid.coords[:, 0])
    ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid) \
        if kind == "tree" else solve_forward_moments(y0, coeffs, mesh, grid)
    with pytest.raises(ConfigurationError, match="sampled paths"):
        exp_transform_oracle(ens, 0.5, 0.2)


def test_exp_transform_gap_shrinks_with_dt():
    grid = build_grid([(0.0, 1.0)], (31,))
    x = grid.coords[:, 0]
    gaps = []
    for steps in (8, 32):
        mesh = TimeMesh(horizon=0.25, steps=steps)
        coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
        rng = np.random.Generator(np.random.Philox(key=[42, 0]))
        inc = np.sqrt(mesh.dt) * rng.standard_normal((16, steps))
        ens = solve_forward(np.sin(np.pi * x), coeffs,
                            PathEnsemble(mesh=mesh, seed=42, increments=inc),
                            mesh, grid)
        gaps.append(exp_transform_oracle(ens, 0.5, 0.2)["max_gap"])
    assert gaps[1] < gaps[0]


def test_step_invertibility_report(tree_ensemble, coeffs):
    rep = step_invertibility_report(coeffs, tree_ensemble)
    assert rep["invertible"]
    assert rep["min_factor"] > 0.0
    assert rep["sign_loss_steps"] == rep["degenerate_steps"] == []


def test_step_invertibility_keeps_the_sign(grid):
    # b sqrt(dt) > 1 + dt a: the down move 1 + dt a - b sqrt(dt) is negative,
    # which min |factor| hid; it is still invertible, so the check passes
    mesh = TimeMesh(horizon=0.5, steps=2)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 40.0)
    ens = solve_forward(np.sin(np.pi * grid.coords[:, 0]), coeffs,
                        build_tree(mesh), mesh, grid)
    rep = step_invertibility_report(coeffs, ens)
    down = 1.0 + mesh.dt * 0.3 - 40.0 * np.sqrt(mesh.dt)
    assert np.isclose(rep["min_factor"], down, rtol=1e-14)
    assert rep["sign_loss_steps"] == [0, 1]
    assert rep["invertible"] and rep["degenerate_steps"] == []


def test_local_mass_bounded_by_energy(tree_ensemble, grid):
    mask = grid.ball_mask(__import__("stochheat").Ball((0.5,), 0.2))
    local = energy_trace(tree_ensemble, mask)
    total = energy_trace(tree_ensemble)
    assert np.all(local <= total + 1e-15)
    assert np.all(local >= 0.0)
