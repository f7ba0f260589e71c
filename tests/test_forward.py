"""Forward solvers: deterministic oracle, moment propagation, transforms."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import (Ball, CoefficientField, ConfigurationError,
                       PathEnsemble, TimeMesh, build_cutoff, build_grid,
                       build_tree, energy_trace, exp_transform_oracle,
                       sample_ensemble, solve_forward, solve_forward_moments)
from stochheat import forward
from stochheat.errors import NumericalError
from stochheat.forward import (Ensemble, ImplicitHeatSolver, step_factors,
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
    # dt a_k y_k + b_k y_k dB_k, with dB_k = +sqrt(dt) when bit d-1-k of the
    # leaf is set and -sqrt(dt) otherwise, under time-varying coefficients
    mesh = TimeMesh(horizon=0.4, steps=6)
    rng = np.random.Generator(np.random.Philox(key=[3, 8]))
    shape = (mesh.steps, grid.n_nodes)
    coeffs = CoefficientField(grid, mesh, a=rng.uniform(-1.0, 1.0, shape),
                              b=rng.uniform(-1.0, 1.0, shape))
    y0 = rng.standard_normal(grid.n_nodes)
    ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid)
    assert ens.rows.shape == (mesh.steps + 1, 2 ** mesh.steps, grid.n_nodes)
    assert np.array_equal(ens.weights,
                          np.full(ens.rows.shape[:2], 2.0 ** -mesh.steps))
    solver = ImplicitHeatSolver(grid, mesh.dt)
    root = np.sqrt(mesh.dt)
    for leaf in (0, 5, 2 ** mesh.steps - 1):
        y = y0.copy()
        for k in range(mesh.steps):
            bit = (leaf >> (mesh.steps - 1 - k)) & 1
            db = root if bit else -root
            assert ens.increments[leaf, k] == db
            y = solver.solve(y + mesh.dt * coeffs.a[k] * y
                             + coeffs.b[k] * y * db)
            assert np.allclose(ens.rows[k + 1][leaf], y, rtol=1e-12,
                               atol=1e-14)


def _view_ensemble(mode, grid, mesh):
    y0 = np.sin(np.pi * grid.coords[:, 0])
    if mode in ("tree", "sampled"):
        noise = build_tree(mesh) if mode == "tree" \
            else sample_ensemble(mesh, 2 ** mesh.steps, 7)
        return solve_forward(y0, CoefficientField.constant(grid, mesh, 0.5, 0.8),
                             noise, mesh, grid)
    coeffs = CoefficientField.constant(grid, mesh, 0.5, 0.8) \
        if mode == "closed-form" \
        else CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    return solve_forward_moments(y0, coeffs, mesh, grid)


@pytest.mark.parametrize("mode", ["tree", "sampled", "closed-form",
                                  "recursion"])
def test_tree_leaf_view_reads_and_writes_levels(grid, mode):
    # values[l, k] is row l of time node k for every kind of ensemble (a
    # tree leaf, a sampled path, a moment factor row) and a writable view:
    # a write to one path lands in rows and moves nodal_moment
    mesh = TimeMesh(horizon=0.4, steps=4)
    ens = _view_ensemble(mode, grid, mesh)
    r = max(ens.provenance["rank"]) if "rank" in ens.provenance \
        else 2 ** mesh.steps
    assert ens.values.shape == (r, mesh.steps + 1, grid.n_nodes)
    assert np.shares_memory(ens.values, ens.rows)
    for row in range(r):
        for k in range(mesh.steps + 1):
            assert np.array_equal(ens.values[row, k], ens.rows[k, row])
    before = ens.nodal_moment()
    level2 = ens.rows[2].copy()
    ens.values[:, 2, :] *= 3.0
    assert np.array_equal(ens.rows[2], 3.0 * level2)
    assert np.allclose(ens.nodal_moment()[2], 9.0 * before[2], rtol=1e-14)
    ens.values[0, 2, :] = 0.0
    assert not ens.rows[2, 0].any()
    assert np.array_equal(ens.rows[2, 1:], 3.0 * level2[1:])


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
    # the moment recursion (random coefficients) and the closed form
    # (constant ones) must reproduce tree expectations of arbitrary
    # quadratic functionals to rounding, at any depth
    mesh = TimeMesh(horizon=0.4, steps=7)
    tree = build_tree(mesh)
    x = grid.coords[:, 0]
    y0 = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
    rng = np.random.Generator(np.random.Philox(key=[1, 4]))
    d = rng.uniform(0.0, 1.0, grid.n_nodes)
    # whole nodal fields of quadratic integrands, stacked in one call: the
    # localized gradient and the static cutoff source -Lap(phi) -
    # 2 grad(phi).grad as sparse matrices, and the package's stencils
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    lap, (grad,) = sparse_operators(grid)
    grad_phi = sp.csr_matrix(grad @ sp.diags(cutoff.values))
    source = sp.csr_matrix(-sp.diags(cutoff.lap)
                           - 2.0 * sp.diags(cutoff.grad[:, 0]) @ grad)

    def apply(matrix, y):  # a sparse matrix on rows (..., n)
        return (matrix @ y.reshape(-1, y.shape[-1]).T).T.reshape(y.shape)

    def integrand(y):
        gy, sy = apply(grad_phi, y), apply(source, y)
        return np.stack([np.square(y), np.square(gy), y * sy, np.square(sy),
                         apply(grad, y) * sy,
                         apply(lap, y) * grid.gradient_ops()[0](y)])

    for coeffs, scheme in (
            (CoefficientField.random_bounded(grid, mesh, 2, 0.5, 0.5),
             "second-moment recursion"),
            (CoefficientField.constant(grid, mesh, 0.3, 0.4),
             "closed-form moments")):
        ens = solve_forward(y0, coeffs, tree, mesh, grid)
        mom = solve_forward_moments(y0, coeffs, mesh, grid)
        assert mom.provenance["scheme"] == scheme
        y_sq_tree, y_sq_mom = ens.nodal_moment(), mom.nodal_moment()
        for k in (0, 3, mesh.steps):
            a = y_sq_tree[k] @ d
            b = y_sq_mom[k] @ d
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
            assert np.allclose(ens.weights[k] @ ens.rows[k], mom.means[k],
                               rtol=0.0, atol=1e-13)
        fields = ens.nodal_moment(integrand)
        assert fields.shape == (6, mesh.steps + 1, grid.n_nodes)
        for a, b in zip(fields, mom.nodal_moment(integrand)):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(a)), 1.0)


def _per_level_moment(ens, integrand):
    # weights[k] @ f(rows[k]), one time node at a time
    return np.stack([np.einsum("p,...pi->...i", w, integrand(y))
                     for w, y in zip(ens.weights, ens.rows)], axis=-2)


@pytest.mark.parametrize("block_rows", [None, 3])
def test_grouped_nodal_moment_matches_per_level(tree_ensemble, grid,
                                                block_rows, monkeypatch,
                                                assert_rel_close):
    # the tiled contraction against one contraction per time node: a tree,
    # a random-coefficient moment ensemble whose rank changes (padded with
    # zero rows), the same with an empty time node, and tiles of 3 rows,
    # which split the rows of a time node
    if block_rows:
        monkeypatch.setattr(forward, "MOMENT_BLOCK_BYTES",
                            8 * grid.n_nodes * block_rows)
    mesh = TimeMesh(horizon=0.5, steps=60)
    coeffs = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    y0 = np.sin(np.pi * grid.coords[:, 0]) * (1.0 + grid.coords[:, 0])
    mom = solve_forward_moments(y0, coeffs, mesh, grid)
    ranks = mom.provenance["rank"]  # grows, then stays for many levels
    assert ranks[0] < ranks[-1] and ranks.count(ranks[-1]) > 10
    assert mom.rows.shape[1] == max(ranks)
    assert all(not z[rank:].any() for z, rank in zip(mom.rows, ranks))
    rows = mom.rows.copy()
    rows[30] = 0.0
    holed = Ensemble(rows, mom.weights, mom.increments, mesh, grid,
                     mom.provenance)

    def integrand(y):
        return np.stack([np.square(y), y * grid.gradient_ops()[0](y)])

    for ens in (tree_ensemble, mom, holed):
        for f in (np.square, integrand):
            assert_rel_close(ens.nodal_moment(f), _per_level_moment(ens, f),
                             rtol=1e-14)
    assert not holed.nodal_moment()[30].any()


def _dense_moments(y0, coeffs, mesh, lap):
    # P_{k+1} = M^{-1} ((d d^T + dt b b^T) o P_k) M^{-1} and the means
    # m_{k+1} = M^{-1} (d m_k), d = 1 + dt a_k, with M = I - dt Lap inverted
    # densely
    m_inv = np.linalg.inv(np.eye(lap.shape[0]) - mesh.dt * lap.toarray())
    p, means = [np.outer(y0, y0)], [y0]
    for k in range(mesh.steps):
        d, b = 1.0 + mesh.dt * coeffs.a[k], coeffs.b[k]
        p.append(m_inv @ ((np.outer(d, d) + mesh.dt * np.outer(b, b)) * p[-1])
                 @ m_inv)
        means.append(m_inv @ (d * means[-1]))
    return p, means


def test_moment_factors_match_dense_recursion(sparse_operators):
    # E[y y^T] = Z^T Z and E[y] against the dense n x n recursion at 400
    # steps: the recursion under space-varying coefficients (factor rank
    # above one) in 1-D and 2-D, the closed form under constant ones and
    # under ones uniform in space that vary in time, also on the non-square
    # 7 x 11 grid, which tells a transposed sine axis apart (there the
    # recursion's truncated tails add up to 1.0e-12 of max|P|)
    mesh = TimeMesh(horizon=0.5, steps=400)
    ramp = np.linspace(-1.0, 1.0, mesh.steps)[:, None]
    for grid in (build_grid([(0.0, 1.0)], (31,)),
                 build_grid([(0.0, 1.0), (0.0, 1.0)], (5, 5)),
                 build_grid([(0.0, 1.0), (0.0, 2.0)], (7, 11))):
        y0 = np.prod(np.sin(np.pi * grid.coords), axis=1) \
            + 0.3 * np.sin(3 * np.pi * grid.coords[:, 0])
        uniform = np.ones(grid.n_nodes)
        cases = [(CoefficientField.constant(grid, mesh, 0.3, 0.4),
                  "closed-form moments"),
                 (CoefficientField(grid, mesh, a=2.0 * ramp * uniform,
                                   b=(0.6 + 0.4 * ramp) * uniform),
                  "closed-form moments")]
        if grid.shape != (7, 11):
            cases.append((CoefficientField.random_bounded(grid, mesh, 5,
                                                          0.5, 0.5),
                          "second-moment recursion"))
        lap, _ = sparse_operators(grid)
        for coeffs, scheme in cases:
            mom = solve_forward_moments(y0, coeffs, mesh, grid)
            assert mom.provenance["scheme"] == scheme
            if scheme == "second-moment recursion":
                assert max(mom.provenance["rank"]) > 1
            dense_p, dense_means = _dense_moments(y0, coeffs, mesh, lap)
            for z, p in zip(mom.second_moments, dense_p):
                assert z.shape[1] == grid.n_nodes
                assert np.max(np.abs(z.T @ z - p)) <= 1e-12 * np.max(np.abs(p))
            for m, dense in zip(mom.means, dense_means):
                assert np.max(np.abs(m - dense)) \
                    <= 1e-12 * np.max(np.abs(dense))


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


def test_moment_paths_agree_on_vanishing_data(grid):
    # constant coefficients take the closed form, random ones the
    # recursion; from y0 = 0 both keep level 0 and then zero factor rows
    mesh = TimeMesh(horizon=0.5, steps=20)
    zero = np.zeros(grid.n_nodes)
    for coeffs, scheme in (
            (CoefficientField.constant(grid, mesh, 0.3, 0.4),
             "closed-form moments"),
            (CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5),
             "second-moment recursion")):
        mom = solve_forward_moments(zero, coeffs, mesh, grid)
        assert mom.provenance["scheme"] == scheme
        assert mom.provenance["rank"] == [1] + [0] * mesh.steps
        assert not mom.rows[1:].any()
        assert not np.any(mom.means) and not mom.nodal_moment().any()


def test_moment_overflow_names_the_step(grid):
    # b = 1e100 overflows the factor at step 4 of 10 on both paths, which
    # raise NumericalError without an overflow warning
    mesh = TimeMesh(horizon=0.5, steps=10)
    y0 = np.sin(np.pi * grid.coords[:, 0])
    for coeffs in (CoefficientField.constant(grid, mesh, 0.3, 1e100),
                   CoefficientField.random_bounded(grid, mesh, 5, 0.5, 1e100)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at step 4 of 10"):
                solve_forward_moments(y0, coeffs, mesh, grid)


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
