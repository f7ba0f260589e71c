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
                       sample_ensemble, solve_forward, solve_forward_moments,
                       solve_sampled_moments)
from stochheat import cli
from stochheat import config as cfgmod
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


def test_implicit_solver_matches_superlu(oracle_grid, superlu_solves,
                                        assert_rel_close):
    # the sine-basis solve against SuperLU on I - dt Lap (+ shift), for a
    # field, a batch and a stacked batch
    grid, dt = oracle_grid, 0.01
    solver = ImplicitHeatSolver(grid, dt)
    for rhs, out, ref in superlu_solves(solver, grid, dt):
        assert out.shape == rhs.shape
        assert_rel_close(out, ref)


def test_sine_transform_diagonalizes_the_implicit_matrix(
        oracle_grid, sparse_operators, assert_rel_close):
    # the transform is its own inverse, and I - dt Lap acts on the sine
    # coefficients as `diagonal`, for a field, a batch and a stacked batch
    grid, dt = oracle_grid, 0.01
    lap, _ = sparse_operators(grid)
    n = grid.n_nodes
    solver = ImplicitHeatSolver(grid, dt)
    rng = np.random.Generator(np.random.Philox(key=[8, 6]))
    for rows in (rng.standard_normal(n), rng.standard_normal((9, n)),
                 rng.standard_normal((2, 3, n))):
        coef = solver.sine(rows)
        assert coef.shape == rows.shape
        assert_rel_close(solver.sine(coef), rows)
        flat = rows.reshape(-1, n)
        applied = (flat - dt * (lap @ flat.T).T).reshape(rows.shape)
        assert_rel_close(solver.sine(solver.diagonal * coef), applied)


def test_solve_powers_matches_repeated_solves(oracle_grid):
    # M^{-k} rhs against k implicit solves, row by row, on the 400-step mesh
    # of the derivative identity, where in 1-D 5 852 of the 25 200 spectral
    # coefficients of this rhs fall below the smallest normal float and are
    # set to 0 (none in 2-D); a zero rhs stays 0 and a nan spreads, with no
    # warning
    grid = oracle_grid
    solver = ImplicitHeatSolver(grid, 0.5 / 400)
    unit = grid.coords / np.array([e[1] for e in grid.extents])
    rhs = np.prod(np.sin(np.pi * unit), axis=1) * (1.0 + unit[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = solver.solve_powers(rhs, 400)
        zero = solver.solve_powers(np.zeros_like(rhs), 400)
        nan = solver.solve_powers(np.where(unit[:, 0] > 0.5, np.nan, rhs), 3)
    row = rhs
    for k in range(401):
        gap = np.max(np.abs(orbit[k] - row))
        assert gap <= 1e-12 * np.max(np.abs(row)), (k, gap)
        row = solver.solve(row)
    assert not zero.any() and np.isnan(nan[1:]).all()


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


def test_coefficients_are_stored_in_c_order(grid, mesh):
    # every layout of input (scalars, one row of nodes, a Fortran-ordered
    # (steps, n) table, random_bounded's row) is stored once in its own
    # shape, C-ordered and sharing no memory with the input; a and b are
    # read-only (steps, n) broadcast views of what is stored, and the
    # tree's step-factor table built from it is C-ordered
    n = grid.n_nodes
    row = np.linspace(0.1, 0.3, n)
    table = np.asfortranarray(np.outer(np.linspace(1.0, 2.0, mesh.steps), row))
    assert not table.flags.c_contiguous
    for coeffs, shapes in (
            (CoefficientField.constant(grid, mesh, 0.3, 0.4), [(1, 1)] * 2),
            (CoefficientField(grid, mesh, a=table, b=row),
             [(mesh.steps, n), (1, n)]),
            (CoefficientField.random_bounded(grid, mesh, 4, 0.5, 0.5),
             [(1, n)] * 2)):
        pairs = ((coeffs.a_stored, coeffs.a), (coeffs.b_stored, coeffs.b))
        for (stored, view), shape in zip(pairs, shapes):
            assert stored.shape == shape and stored.flags.c_contiguous
            assert not any(np.shares_memory(stored, given)
                           for given in (table, row))
            assert view.shape == (mesh.steps, n)
            assert np.shares_memory(view, stored) and not view.flags.writeable
            assert np.array_equal(view, np.broadcast_to(stored, view.shape))
        factors = step_factors(coeffs, mesh.dt, forward.tree_moves(mesh.dt))
        assert factors.flags.c_contiguous


def test_sampled_levels_apply_the_step_factors(grid):
    # the table of `step_factors` is the per-step formula 1 + sign dt a_k
    # + b_k dB bit for bit, for the shared tree moves and for sampled
    # increments, with one column exactly when the coefficients are uniform
    # over the nodes; and the sampled solve applies it bit for bit, so the
    # factors the invertibility audit reads are the ones it applies
    mesh = TimeMesh(horizon=0.4, steps=6)
    n = grid.n_nodes
    ramp = np.linspace(0.0, 1.0, mesh.steps)[:, None] * np.ones(n)
    noise = sample_ensemble(mesh, 8, 3)
    solver = ImplicitHeatSolver(grid, mesh.dt)
    rng = np.random.Generator(np.random.Philox(key=[5, 9]))
    for coeffs, columns in (
            (CoefficientField.constant(grid, mesh, 0.3, 0.8), 1),
            (CoefficientField(grid, mesh, a=0.3 - ramp, b=0.5 + 3.0 * ramp), 1),
            (CoefficientField.random_bounded(grid, mesh, 4, 0.5, 0.5), n)):
        assert coeffs.node_uniform == (columns == 1)
        for db in (forward.tree_moves(mesh.dt), noise.increments):
            for sign in (1.0, -1.0):
                table = step_factors(coeffs, mesh.dt, db, sign)
                assert table.shape == (mesh.steps, len(db), columns)
                for k in range(mesh.steps):
                    inc = db if db.ndim == 1 else db[:, k]
                    formula = 1.0 + sign * mesh.dt * coeffs.a[k] \
                        + coeffs.b[k] * inc[:, None]
                    assert np.array_equal(
                        np.broadcast_to(table[k], formula.shape), formula)
                    assert np.array_equal(step_factors(
                        coeffs, mesh.dt, db, sign, steps=k), table[k])
        paths = np.asarray(solve_forward(rng.standard_normal(n), coeffs, noise,
                                         mesh, grid).values)
        table = step_factors(coeffs, mesh.dt, noise.increments)
        for k in range(mesh.steps):
            step = solver.solve(paths[:, k] * table[k])
            assert np.array_equal(paths[:, k + 1], step)


def _quadratic_integrand(grid, sparse_operators):
    """Whole nodal fields of quadratic integrands, stacked in one call: the
    localized gradient along the first axis and the static cutoff source
    -Lap(phi) - 2 grad(phi).grad as sparse matrices, and the package's
    centred differences."""
    center = (0.5,) * grid.dim
    cutoff = build_cutoff(Ball(center, 0.18), Ball(center, 0.24), grid)
    lap, grads = sparse_operators(grid)
    grad_phi = sp.csr_matrix(grads[0] @ sp.diags(cutoff.values))
    source = sp.csr_matrix(-sp.diags(cutoff.lap) - 2.0 * sum(
        sp.diags(cutoff.grad[:, ax]) @ g for ax, g in enumerate(grads)))

    def apply(matrix, y):  # a sparse matrix on rows (..., n)
        return (matrix @ y.reshape(-1, y.shape[-1]).T).T.reshape(y.shape)

    def integrand(y):
        gy, sy = apply(grad_phi, y), apply(source, y)
        return np.stack([np.square(y), np.square(gy), y * sy, np.square(sy),
                         apply(grads[0], y) * sy,
                         apply(lap, y) * grid.gradient_ops()[0](y)])

    return integrand


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
    integrand = _quadratic_integrand(grid, sparse_operators)
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


@pytest.mark.parametrize("kind", ["constant", "time-varying"])
@pytest.mark.parametrize("shape", [(31,), (9, 9)], ids=["1d", "2d"])
def test_sampled_closed_form_matches_the_path_solve(shape, kind,
                                                    sparse_operators):
    # the closed form of mc surveys against the brute-force path loop of
    # `solve_forward` on the same sampled paths: the paths, their means
    # and quadratic functionals agree to rounding, and the increments are
    # the sampled ones
    grid = build_grid([(0.0, 1.0)] * len(shape), shape)
    mesh = TimeMesh(horizon=0.4, steps=7)
    if kind == "constant":
        coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.8)
    else:
        rng = np.random.Generator(np.random.Philox(key=[6, 2]))
        a, b = (np.repeat(rng.uniform(-1.0, 1.0, (mesh.steps, 1)),
                          grid.n_nodes, axis=1) for _ in range(2))
        coeffs = CoefficientField(grid, mesh, a=a, b=b)
    assert coeffs.node_uniform
    y0 = np.prod(np.sin(np.pi * grid.coords), axis=1) \
        * (1.0 + grid.coords[:, 0])
    paths = sample_ensemble(mesh, 64, 11)
    brute = solve_forward(y0, coeffs, paths, mesh, grid)
    closed = solve_sampled_moments(y0, coeffs, paths, mesh, grid)
    assert closed.provenance["scheme"] == "sampled closed form"
    assert closed.provenance["mode"] == "sampled"
    assert closed.rows.shape == (mesh.steps + 1, 1, grid.n_nodes)
    values = closed.values
    assert values.shape == brute.values.shape
    # per path and time node, relative to that row
    gap = np.max(np.abs(values - brute.values), axis=2)
    assert np.all(gap <= 1e-13 * np.max(np.abs(brute.values), axis=2))
    means = np.einsum("kp,kpi->ki", brute.weights, brute.rows)
    assert np.max(np.abs(closed.means - means)) <= 1e-13 * np.max(np.abs(means))
    integrand = _quadratic_integrand(grid, sparse_operators)
    for a, b in zip(brute.nodal_moment(integrand),
                    closed.nodal_moment(integrand)):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(a)), 1.0)
    with pytest.raises(ValueError, match="read-only"):
        values[0, 1, 0] = 0.0
    assert closed.increments is paths.increments
    assert step_invertibility_report(coeffs, closed) \
        == step_invertibility_report(coeffs, brute)


def test_sampled_closed_form_needs_node_uniform_coefficients(grid, mesh):
    coeffs = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    assert not coeffs.node_uniform
    with pytest.raises(ConfigurationError, match="uniform over the nodes"):
        solve_sampled_moments(np.sin(np.pi * grid.coords[:, 0]), coeffs,
                              sample_ensemble(mesh, 4, 1), mesh, grid)


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


@settings(max_examples=30, deadline=None)
@given(a=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8),
       b=st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 16))
def test_closed_form_means_below_factor_rows(a, b, seed):
    # |E y| <= sqrt(E y^2) node by node: in the exact closed form since
    # |1 + dt a_j| <= hypot(1 + dt a_j, sqrt(dt) b_j), over sampled paths by
    # Cauchy-Schwarz (to round-off); so the factor scale alone decides
    # overflow
    grid = build_grid([(0.0, 1.0)], (15,))
    mesh = TimeMesh(horizon=0.4, steps=len(a))
    coeffs = CoefficientField(grid, mesh, np.outer(a, np.ones(grid.n_nodes)),
                              b)
    y0 = np.sin(np.pi * grid.coords[:, 0]) * (1.0 + grid.coords[:, 0])
    exact = solve_forward_moments(y0, coeffs, mesh, grid)
    sampled = solve_sampled_moments(y0, coeffs,
                                    sample_ensemble(mesh, 16, seed), mesh, grid)
    assert np.all(np.abs(exact.means) <= np.abs(exact.rows[:, 0]))
    assert np.all(np.abs(sampled.means)
                  <= np.abs(sampled.rows[:, 0]) * (1.0 + 1e-12))


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
    gap = exp_transform_oracle(coeffs, _silent_noise(mesh, 3), mesh)
    assert gap["max_gap"] < 1e-12


@pytest.mark.parametrize("kind", ["tree", "moments"])
def test_exp_transform_refuses_tree_and_moment_ensembles(grid, kind):
    mesh = TimeMesh(horizon=0.4, steps=4)
    coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
    y0 = np.sin(np.pi * grid.coords[:, 0])
    noise = build_tree(mesh) if kind == "tree" \
        else solve_forward_moments(y0, coeffs, mesh, grid)
    with pytest.raises(ConfigurationError, match="sampled paths"):
        exp_transform_oracle(coeffs, noise, mesh)


@pytest.mark.parametrize("varies", ["space", "time"])
def test_exp_transform_refuses_varying_coefficients(grid, varies):
    mesh = TimeMesh(horizon=0.4, steps=4)
    ramp = np.linspace(0.0, 1.0, mesh.steps)[:, None] * np.ones(grid.n_nodes)
    coeffs = CoefficientField.random_bounded(grid, mesh, 3, 0.5, 0.5) \
        if varies == "space" else CoefficientField(grid, mesh, a=0.2,
                                                   b=0.5 + ramp)
    with pytest.raises(ConfigurationError, match="constant a and b"):
        exp_transform_oracle(coeffs, sample_ensemble(mesh, 4, 1), mesh)


def _physical_transform_gaps(exp, noise):
    """The transform oracle in physical space: the paths of `solve_forward`
    against exp(b B) z, with z the implicit solve of z_t - Lap z =
    (a - b^2/2) z from y0; per path the max over time of the relative L2
    gap."""
    mesh, grid = exp.mesh, exp.grid
    values = solve_forward(exp.y0, exp.coeffs, noise, mesh, grid).values
    a, b = float(exp.cfg["coeff.a"]), float(exp.cfg["coeff.b"])
    solver = ImplicitHeatSolver(grid, mesh.dt)
    z_path = [values[0, 0].copy()]
    for _ in range(mesh.steps):
        z = z_path[-1]
        z_path.append(solver.solve(z + mesh.dt * (a - 0.5 * b ** 2) * z))
    bm = np.concatenate([np.zeros((len(values), 1)),
                         np.cumsum(noise.increments, axis=1)], axis=1)
    recon = np.exp(b * bm)[:, :, None] * np.asarray(z_path)[None, :, :]
    scale = np.maximum(grid.l2_norm(values), 1e-300)
    return np.max(grid.l2_norm(recon - values) / scale, axis=1)


@pytest.mark.parametrize("text", [
    "", "domain.extents = 0,1,0,1\ngrid.nodes = 7\ngeometry.x0 = 0.5,0.5\n"
    "geometry.g0_center = 0.5,0.5\ncontrol.g0_center = 0.5,0.5\n",
    "coeff.b = 2\n"], ids=["1d", "2d-7x7", "b2"])
def test_exp_transform_matches_the_physical_transform(text):
    # the scalar oracle against the transform solved in physical space, on
    # the 32 paths that `simulate` samples for it
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(text)))
    noise = sample_ensemble(exp.mesh, 32, exp.seed + 1)
    gap = exp_transform_oracle(exp.coeffs, noise, exp.mesh)
    physical = _physical_transform_gaps(exp, noise)
    assert np.allclose(gap["per_path_gap"], physical, rtol=1e-12, atol=0.0)
    assert np.isclose(gap["max_gap"], np.max(physical), rtol=1e-12, atol=0.0)
    assert np.isclose(gap["mean_gap"], np.mean(physical), rtol=1e-12,
                      atol=0.0)


def test_exp_transform_gap_shrinks_with_dt():
    grid = build_grid([(0.0, 1.0)], (31,))
    gaps = []
    for steps in (8, 32):
        mesh = TimeMesh(horizon=0.25, steps=steps)
        coeffs = CoefficientField.constant(grid, mesh, 0.2, 0.5)
        rng = np.random.Generator(np.random.Philox(key=[42, 0]))
        inc = np.sqrt(mesh.dt) * rng.standard_normal((16, steps))
        gaps.append(exp_transform_oracle(
            coeffs, PathEnsemble(mesh=mesh, seed=42, increments=inc),
            mesh)["max_gap"])
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


@pytest.mark.parametrize("mode", ["tree", "mc"])
def test_step_invertibility_one_column_when_node_uniform(grid, mode,
                                                          monkeypatch):
    # node-uniform coefficients are audited on one column of factors; the
    # audit of every node gives the same report bit for bit, with sign loss
    # at the later steps where b grows
    mesh = TimeMesh(horizon=0.5, steps=6)
    ramp = np.linspace(0.0, 1.0, mesh.steps)[:, None] * np.ones(grid.n_nodes)
    coeffs = CoefficientField(grid, mesh, a=0.3 - ramp, b=0.5 + 3.0 * ramp)
    assert coeffs.node_uniform
    y0 = np.sin(np.pi * grid.coords[:, 0])
    ens = solve_forward_moments(y0, coeffs, mesh, grid) if mode == "tree" \
        else solve_sampled_moments(y0, coeffs, sample_ensemble(mesh, 64, 5),
                                   mesh, grid)
    one_column = step_invertibility_report(coeffs, ens)
    monkeypatch.setattr(CoefficientField, "node_uniform",
                        property(lambda self: False))
    every_node = step_invertibility_report(coeffs, ens)
    assert one_column == every_node
    assert one_column["min_factor"] < 0.0
    assert 0 < len(one_column["sign_loss_steps"]) < mesh.steps


def test_local_mass_bounded_by_energy(tree_ensemble, grid):
    mask = grid.ball_mask(__import__("stochheat").Ball((0.5,), 0.2))
    local = energy_trace(tree_ensemble, mask)
    total = energy_trace(tree_ensemble)
    assert np.all(local <= total + 1e-15)
    assert np.all(local >= 0.0)
