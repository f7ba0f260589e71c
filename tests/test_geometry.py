"""Grid operators, caloric kernel identities, balls and cutoffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import (Ball, ConfigurationError, DomainError, GeometryError,
                       HeatKernelWeight, build_cutoff, build_grid)
from stochheat.forward import ImplicitHeatSolver
from stochheat.geometry import caloric_defect


def test_laplacian_eigenpairs_1d():
    # Dirichlet eigenvectors sin(j pi x) with eigenvalue -(2/h^2)(1-cos(j pi h)),
    # as the implicit solve inverts I - dt Lap_h on them
    grid = build_grid([(0.0, 1.0)], (63,))
    h, dt = grid.h[0], 0.01
    solver = ImplicitHeatSolver(grid, dt)
    x = grid.coords[:, 0]
    for j in (1, 2, 5):
        v = np.sin(j * np.pi * x)
        lam = -(2.0 / h ** 2) * (1.0 - np.cos(j * np.pi * h))
        assert np.max(np.abs(solver.solve(v) - v / (1.0 - dt * lam))) < 1e-12


def test_gradient_ops_exact_on_linear():
    grid = build_grid([(0.0, 1.0)], (31,))
    x = grid.coords[:, 0]
    (gx,) = grid.gradient_ops()
    interior = slice(1, -1)
    err = gx(x)[interior] - 1.0
    assert np.max(np.abs(err)) < 1e-12


def _row_batches(n):
    # a field and row batches (..., n), one of them a non-contiguous view
    rng = np.random.Generator(np.random.Philox(key=[3, 17]))
    return (rng.standard_normal(n), rng.standard_normal((5, n)),
            rng.standard_normal((2, 3, n)), rng.standard_normal((n, 4)).T)


def test_gradient_ops_match_sparse_operators(oracle_grid, sparse_operators,
                                             assert_rel_close):
    # the gradients against scipy.sparse matrices
    grid = oracle_grid
    _, grads = sparse_operators(grid)
    n = grid.n_nodes
    oracles = [lambda y, m=m: (m @ y.T).T for m in grads]
    for v in _row_batches(n):
        for op, oracle in zip(grid.gradient_ops(), oracles):
            assert op(v).shape == v.shape
            assert_rel_close(op(v).reshape(-1, n), oracle(v.reshape(-1, n)))


def _padded_difference(v, shape, axis, h):
    """(-c) v(x - h e) + c v(x + h e), c = 1/(2h), on a zero-padded copy."""
    field = v.reshape(v.shape[:-1] + shape)
    ax = field.ndim - len(shape) + axis
    pad = [(0, 0)] * field.ndim
    pad[ax] = (1, 1)
    padded = np.pad(field, pad)
    below, above = ([slice(None)] * field.ndim for _ in range(2))
    below[ax], above[ax] = slice(0, -2), slice(2, None)
    c = 1.0 / (2.0 * h)
    out = (-c) * padded[tuple(below)] + c * padded[tuple(above)]
    return out.reshape(v.shape)


def test_gradient_ops_bit_for_bit(oracle_grid):
    # each axis of 1-D and 2-D grids, on a field, row batches and a
    # non-contiguous view: the same IEEE result as the padded reference
    grid = oracle_grid
    ops = grid.gradient_ops()
    assert grid.gradient_ops() is ops and len(ops) == grid.dim
    for v in _row_batches(grid.n_nodes):
        for axis, (op, h) in enumerate(zip(ops, grid.h)):
            assert np.array_equal(op(v),
                                  _padded_difference(v, grid.shape, axis, h))


def test_field_gradient_no_boundary_artifacts():
    # a constant field must have (numerically) zero gradient everywhere,
    # including at the boundary, unlike the Dirichlet operator
    grid = build_grid([(0.0, 1.0)], (31,))
    ones = np.ones(grid.n_nodes)
    assert np.max(np.abs(grid.field_gradient(ones))) == 0.0
    (gx,) = grid.gradient_ops()
    assert np.max(np.abs(gx(ones))) > 1.0  # the artifact being avoided


def test_integrate_matches_exact_for_boundary_vanishing_field():
    grid = build_grid([(0.0, 2.0)], (127,))
    x = grid.coords[:, 0]
    # int_0^2 sin^2(pi x / 2) dx = 1
    assert abs(grid.integrate(np.sin(np.pi * x / 2.0) ** 2) - 1.0) < 1e-3


def test_ball_mask_and_containment():
    grid = build_grid([(0.0, 1.0)], (63,))
    ball = Ball((0.5,), 0.1)
    mask = grid.ball_mask(ball)
    x = grid.coords[:, 0]
    assert np.array_equal(mask, np.abs(x - 0.5) < 0.1)
    assert grid.contains_ball(ball)
    assert not grid.contains_ball(Ball((0.95,), 0.2))


def test_grid_2d_shapes():
    grid = build_grid([(0.0, 1.0), (0.0, 2.0)], (7, 9))
    assert grid.dim == 2
    assert grid.n_nodes == 63
    assert grid.coords.shape == (63, 2)
    g = grid.field_gradient(grid.coords[:, 0] * grid.coords[:, 1])
    assert g.shape == (63, 2)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.01, 0.99), t=st.floats(0.01, 0.49),
       lam=st.floats(0.01, 1.0))
def test_kernel_caloric_identity_pointwise(x, t, lam):
    # K_t + Delta K = 0 at an arbitrary probe x, by central differences of
    # `values`, relative to max |K_t| over x and the centre (where K_t > 0)
    w = HeatKernelWeight(horizon=0.5, shift=lam, center=(0.3,), dim=1)
    assert caloric_defect(w, np.array([[x], [0.3]]), t) <= 1e-6


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_values_over_an_array_of_times(dim):
    # one row per time, equal to the evaluation at that time alone; a time
    # outside [0, T] anywhere in the array is refused
    grid = build_grid([(0.0, 1.0)] * dim, (9,) * dim)
    w = HeatKernelWeight(horizon=0.5, shift=0.1, center=(0.4,) * dim, dim=dim)
    times = np.linspace(0.0, 0.5, 11)
    assert w.values(times, grid.coords).shape == (len(times), grid.n_nodes)
    # dim times probe a broadcast of the times against the axis
    for ts in (times, times[:dim]):
        assert np.array_equal(w.values(ts, grid.coords),
                              np.stack([w.values(t, grid.coords) for t in ts]))
    for bad in ([0.2, 0.5 + 1e-9], [-1e-9, 0.2], 0.6):
        with pytest.raises(DomainError):
            w.values(np.asarray(bad), grid.coords)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_values_over_an_array_of_shifts(dim):
    # one kernel per shift, stacked in front and equal bit for bit to the
    # kernel of that shift alone, at a time and over an array of times; a
    # shift outside (0, 1] anywhere in the tuple is refused
    grid = build_grid([(0.0, 1.0)] * dim, (9,) * dim)
    shifts = 0.5 ** np.arange(5)
    stacked = HeatKernelWeight(horizon=0.5, shift=tuple(shifts),
                               center=(0.4,) * dim, dim=dim)
    times = np.linspace(0.0, 0.5, 11)
    for t in (times, 0.2):
        values = stacked.values(t, grid.coords)
        assert values.shape == (len(shifts),) + np.shape(t) + (grid.n_nodes,)
        assert np.array_equal(values, np.stack([
            HeatKernelWeight(horizon=0.5, shift=float(lam),
                             center=(0.4,) * dim, dim=dim).values(t, grid.coords)
            for lam in shifts]))
    for bad in ((0.5, 2.0), (0.0, 0.5)):
        with pytest.raises(ConfigurationError):
            HeatKernelWeight(horizon=0.5, shift=bad,
                             center=(0.4,) * dim, dim=dim)


def test_caloric_defect_fails_a_wrong_kernel(monkeypatch, kernel_off_by):
    # K reads at most 1e-6 at the nodes of 1-D and 2-D grids, near both ends
    # of (0, T) and at its middle; a K 1% off in its exponent or its power
    # reads at least 1e-3; t must lie inside (0, T)
    for dim in (1, 2):
        grid = build_grid([(0.0, 1.0)] * dim, (31,) * dim)
        w = HeatKernelWeight(horizon=0.5, shift=0.25, center=(0.4,) * dim,
                             dim=dim)
        for t in (0.005, 0.25, 0.495):
            assert caloric_defect(w, grid.coords, t) <= 1e-6
        for off in ((1.01, 1.0), (1.0, 1.01)):
            with monkeypatch.context() as patch:
                patch.setattr(HeatKernelWeight, "values", kernel_off_by(*off))
                assert caloric_defect(w, grid.coords, 0.25) >= 1e-3
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(DomainError):
                caloric_defect(w, grid.coords, bad)


def test_cutoff_partition_properties():
    grid = build_grid([(0.0, 1.0)], (127,))
    cut = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    x = grid.coords[:, 0]
    d = np.abs(x - 0.5)
    assert np.all(cut.values[d <= 0.18] == 1.0)
    assert np.all(cut.values[d >= 0.24] == 0.0)
    assert np.all((cut.values >= 0.0) & (cut.values <= 1.0))
    # gradient vanishes wherever the cutoff is flat
    assert np.max(np.abs(cut.grad[d <= 0.17])) < 1e-10
    assert np.max(np.abs(cut.grad[d >= 0.25])) < 1e-10
    # the support box: the nodes where phi, grad phi and Lap phi can be
    # nonzero, one more on each side, and nothing nonzero outside it
    (box,) = cut.box
    assert box == slice(int(np.argmax(d < 0.24)) - 1,
                        len(d) - int(np.argmax(d[::-1] < 0.24)) + 1)
    outside = np.ones(len(d), bool)
    outside[box.start + 1:box.stop - 1] = False
    assert not (cut.values[outside].any() or cut.grad[outside].any()
                or cut.lap[outside].any())
    # an outer ball that holds no node has no box
    with pytest.raises(GeometryError, match="no grid node"):
        build_cutoff(Ball((0.504,), 0.001), Ball((0.504,), 0.003), grid)


def test_cutoff_derivatives_match_finite_differences():
    grid = build_grid([(0.0, 1.0)], (511,))
    cut = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    h = grid.h[0]
    vals = cut.values
    fd_grad = np.gradient(vals, h)
    interior = slice(2, -2)
    assert np.max(np.abs(cut.grad[interior, 0] - fd_grad[interior])) < 0.5
    fd_lap = np.gradient(fd_grad, h)
    scale = max(np.max(np.abs(cut.lap)), 1.0)
    assert np.max(np.abs(cut.lap[interior] - fd_lap[interior])) < 0.1 * scale


def test_ball_requires_positive_radius():
    with pytest.raises(GeometryError):
        Ball((0.5,), -0.1)


def test_grid_rejects_degenerate_extent():
    with pytest.raises(ConfigurationError):
        build_grid([(1.0, 0.0)], (15,))
