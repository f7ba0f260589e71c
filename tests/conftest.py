"""Shared fixtures: a small 1-D laboratory reused across the test modules,
and scipy.sparse operators that serve as independent oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from stochheat import (CoefficientField, TimeMesh, build_grid, build_tree,
                       solve_forward)


@pytest.fixture(scope="session")
def grid():
    return build_grid([(0.0, 1.0)], (31,))


@pytest.fixture(scope="session")
def mesh():
    return TimeMesh(horizon=0.5, steps=8)


@pytest.fixture(scope="session")
def tree(mesh):
    return build_tree(mesh)


@pytest.fixture(scope="session")
def coeffs(grid, mesh):
    return CoefficientField.constant(grid, mesh, a=0.3, b=0.4)


@pytest.fixture(scope="session")
def y0(grid):
    x = grid.coords[:, 0]
    return np.sin(np.pi * x) * (1.0 + 0.5 * np.sin(2 * np.pi * x))


@pytest.fixture(scope="session")
def tree_ensemble(y0, coeffs, tree, mesh, grid):
    return solve_forward(y0, coeffs, tree, mesh, grid)


def _sparse_operators(grid):
    """The Dirichlet 3-/5-point Laplacian and the centred gradients of
    `grid` as scipy sparse matrices, assembled from Kronecker products."""
    laps, grads = [], []
    for n, h in zip(grid.shape, grid.h):
        off = np.ones(n - 1)
        laps.append(sp.diags([off, -2.0 * np.ones(n), off], [-1, 0, 1]) / h**2)
        grads.append(sp.diags([-off, off], [-1, 1]) / (2.0 * h))
    if grid.dim == 1:
        return sp.csr_matrix(laps[0]), (sp.csr_matrix(grads[0]),)
    eyes = [sp.eye(n) for n in grid.shape]
    lap = sp.kron(laps[0], eyes[1]) + sp.kron(eyes[0], laps[1])
    return sp.csr_matrix(lap), (sp.csr_matrix(sp.kron(grads[0], eyes[1])),
                                sp.csr_matrix(sp.kron(eyes[0], grads[1])))


@pytest.fixture(scope="session")
def sparse_operators():
    """grid -> (Laplacian, gradients) as scipy sparse matrices."""
    return _sparse_operators


@pytest.fixture(scope="session", params=[
    ([(0.0, 1.0)], (63,)),
    ([(0.0, 1.0), (0.0, 1.0)], (15, 15)),
    # n1 != n2 and h1 != h2
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11)),
], ids=["1d-63", "2d-15x15", "2d-7x11"])
def oracle_grid(request):
    """The grids on which the stencils and the implicit solve are checked
    against scipy."""
    return build_grid(*request.param)


@pytest.fixture(scope="session")
def assert_rel_close():
    """Check that max |value - reference| is within rtol of max |reference|."""
    def check(value, reference, rtol=1e-12):
        reference = np.asarray(reference)
        gap = np.max(np.abs(np.asarray(value) - reference))
        assert gap <= rtol * np.max(np.abs(reference)), gap
    return check
