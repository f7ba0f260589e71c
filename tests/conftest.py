"""Shared fixtures: a small 1-D laboratory reused across the test modules,
and scipy.sparse operators that serve as independent oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from stochheat import (CoefficientField, TimeMesh, build_grid, build_tree,
                       solve_forward)
from stochheat.forward import implicit_solver, tree_moves
from stochheat.frequency import H_FLOOR


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


@pytest.fixture(scope="session")
def superlu_solves(sparse_operators):
    """(solver, grid, dt) -> (rhs, solver.solve(rhs, shift), SuperLU's solve
    of (1 + shift) I - dt Lap) for shifts 0, 0.3 and -0.2, each on a field,
    a batch and a stacked batch."""
    from scipy.sparse.linalg import splu

    def solves(solver, grid, dt):
        lap, _ = sparse_operators(grid)
        n = grid.n_nodes
        rng = np.random.Generator(np.random.Philox(key=[8, 5]))
        for shift in (0.0, 0.3, -0.2):
            lu = splu(sp.csc_matrix((1.0 + shift) * sp.eye(n) - dt * lap))
            for rhs in (rng.standard_normal(n), rng.standard_normal((9, n)),
                        rng.standard_normal((2, 3, n))):
                flat = rhs.reshape(-1, n)
                ref = lu.solve(flat.T).T.reshape(rhs.shape)
                yield rhs, solver.solve(rhs, shift), ref
    return solves


@pytest.fixture(scope="session", params=[
    ([(0.0, 1.0)], (63,)),
    ([(0.0, 1.0), (0.0, 1.0)], (15, 15)),
    # n1 != n2 and h1 != h2
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11)),
], ids=["1d-63", "2d-15x15", "2d-7x11"])
def oracle_grid(request):
    """The grids on which the gradients and the implicit solve are checked
    against scipy."""
    return build_grid(*request.param)


@pytest.fixture(scope="session")
def kernel_off_by():
    """(exponent, power) -> a `HeatKernelWeight.values` with the 4s of its
    exponent and the n/2 of its power scaled by those factors: a kernel
    that is not caloric unless both are 1."""
    def make(exponent, power):
        def values(self, t, coords):
            s = self._s(t, coords)
            return s ** (-power * self.dim / 2.0) \
                * np.exp(-self._dist_sq(coords) / (4.0 * exponent * s))
        return values
    return make


@pytest.fixture(scope="session")
def assert_rel_close():
    """Check that max |value - reference| is within rtol of max |reference|."""
    def check(value, reference, rtol=1e-12):
        reference = np.asarray(reference)
        gap = np.max(np.abs(np.asarray(value) - reference))
        assert gap <= rtol * np.max(np.abs(reference)), gap
    return check


@pytest.fixture(scope="session")
def left_endpoint_residual():
    """(identity report, dt) -> the integrated residual of the
    energy-derivative identity with its right-hand side at each step's left
    end, not its midpoint: first order in dt, so the O(dt) term shows in a
    refinement study.  It reads the report's `trace`."""
    def integrated(report, dt):
        trace = report["trace"]
        rhs = -2.0 * trace.d + 2.0 * trace.aux["phi_f"] + trace.aux["b_sq"]
        res = (np.diff(trace.h) / dt - rhs[:-1]) \
            / max(float(np.max(trace.h)), H_FLOOR)
        return float(np.sum(np.abs(res)) * dt)
    return integrated


@pytest.fixture(scope="session")
def z_martingale():
    """BackwardPair -> the representation integrand Z per step level, shape
    (2^k, n), from its `z_levels`: the difference of the up and the down
    child over 2 sqrt(dt), of M^-1 z_{k+1} in adjoint mode and of z_{k+1}
    itself in independent mode."""
    def integrand(pair):
        solver = implicit_solver(pair.grid, pair.mesh.dt)
        scale = 2.0 * tree_moves(pair.mesh.dt)[1]
        out = []
        for z_next in pair.z_levels[1:]:
            if pair.solves is None:
                z_next = solver.solve(z_next)
            out.append((z_next[1::2] - z_next[0::2]) / scale)
        return out
    return integrand


@pytest.fixture(scope="session")
def report_leaves():
    """record -> its leaves as (path, value) pairs, depth first: a check
    record or a report's details, walked through dicts and lists, with
    paths such as `.curve[2].residual`."""
    def leaves(record, path=""):
        if isinstance(record, dict):
            for key, value in record.items():
                yield from leaves(value, f"{path}.{key}")
        elif isinstance(record, list):
            for i, value in enumerate(record):
                yield from leaves(value, f"{path}[{i}]")
        else:
            yield path, record
    return leaves
