"""Grid operators, caloric kernel identities, cutoffs, and ball chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import (Ball, ConfigurationError, DomainError, GeometryError,
                       HeatKernelWeight, ball_chain, build_cutoff, build_grid)
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


def test_stencils_match_sparse_operators(oracle_grid, sparse_operators,
                                        assert_rel_close):
    # the gradients against scipy.sparse, on a field and on row batches
    # (..., n), one of them a non-contiguous view
    grid = oracle_grid
    _, grads = sparse_operators(grid)
    n = grid.n_nodes
    stencils = grid.gradient_ops()
    oracles = [lambda y, m=m: (m @ y.T).T for m in grads]
    rng = np.random.Generator(np.random.Philox(key=[3, 17]))
    for v in (rng.standard_normal(n), rng.standard_normal((5, n)),
              rng.standard_normal((2, 3, n)), rng.standard_normal((n, 4)).T):
        for op, oracle in zip(stencils, oracles):
            assert op(v).shape == v.shape
            assert_rel_close(op(v).reshape(-1, n), oracle(v.reshape(-1, n)))


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


def chain_containment_ok(chain) -> bool:
    """Re-check the chain's containment predicates geometrically."""
    for j, (ball, bridge) in enumerate(chain):
        if bridge is None:
            continue
        nxt = chain[j + 1][0]
        # bridge inside ball and inside the next ball, with positive margin
        for outer in (ball, nxt):
            gap = outer.radius - (np.linalg.norm(bridge.center_array - outer.center_array)
                                  + bridge.radius)
            if gap <= 0.0:
                return False
        if not np.allclose(bridge.center_array, nxt.center_array):
            return False
    return True


def test_ball_chain_containment():
    grid = build_grid([(0.0, 1.0)], (127,))
    chain = ball_chain(Ball((0.3,), 0.05), Ball((0.7,), 0.05), grid)
    assert chain_containment_ok(chain)
    # the chain starts at the seed and its last ball covers the target center
    first, _ = chain[0]
    assert first.center == (0.3,)


def test_ball_requires_positive_radius():
    with pytest.raises(GeometryError):
        Ball((0.5,), -0.1)


def test_grid_rejects_degenerate_extent():
    with pytest.raises(ConfigurationError):
        build_grid([(1.0, 0.0)], (15,))
