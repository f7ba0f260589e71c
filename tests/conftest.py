"""Shared fixtures: a small 1-D laboratory reused across the test modules,
scipy.sparse operators that serve as independent oracles, and the
independent backward scheme, a second discretization of the backward
equation against which the adjoint one is checked."""

from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.sparse as sp

from stochheat import (BackwardPair, CoefficientField, TimeMesh, build_grid,
                       build_tree, solve_forward)
from stochheat.control import _level_rows
from stochheat.errors import NumericalError
from stochheat.forward import implicit_solver, tree_moves
from stochheat.frequency import H_FLOOR

# the independent scheme's shifted-solve iteration: relative update per row
# at which it stops, and the cap at which it gives up
SHIFT_ITERATION_TOL = 1e-14
MAX_SHIFT_ITERATIONS = 100


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


def _shifted_solve(solver, rows, shift):
    """Solve (I - dt Lap_h + shift) z = rows for a scalar shift: the
    diagonal of the sine-basis solver, shifted, between two transforms."""
    return solver.sine(solver.sine(rows) / (solver.diagonal + shift))


@pytest.fixture(scope="session")
def superlu_solves(sparse_operators):
    """(solver, grid, dt) -> (rhs, the solve, SuperLU's solve of
    (1 + shift) I - dt Lap) for shifts 0, 0.3 and -0.2, each on a field, a
    batch and a stacked batch: `solver.solve(rhs)` at shift 0, and the
    shifted solve of the independent backward scheme at the others."""
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
                out = solver.solve(rhs) if shift == 0.0 \
                    else _shifted_solve(solver, rhs, shift)
                yield rhs, out, ref
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


def _potential_solve(solver, rhs, potential):
    """Solve (I - dt*Lap_h + diag(potential)) z = rhs; returns z and the
    number of implicit solves.

    The solver shifted by the midpoint c of the potential's range is the
    preconditioner of the fixed-point iteration
    z <- (M + c)^-1 (rhs - diag(potential - c) z), which contracts by at most
    max|potential - c| / min(M + c).  The midpoint minimises that bound and,
    unlike the mean, equals a constant potential exactly, which is then
    solved in one solve; the iteration stops when no row moves by more than
    SHIFT_ITERATION_TOL of its norm, and raises NumericalError at
    MAX_SHIFT_ITERATIONS solves or on a non-finite iterate.
    """
    shift = 0.5 * (float(np.max(potential)) + float(np.min(potential)))
    rest = potential - shift
    z = _shifted_solve(solver, rhs, shift)
    if not rest.any():
        return z, 1
    for count in range(2, MAX_SHIFT_ITERATIONS + 1):
        z_next = _shifted_solve(solver, rhs - rest * z, shift)
        moved = np.linalg.norm(z_next - z, axis=-1)
        z = z_next
        if not np.all(np.isfinite(moved)):
            break
        if np.all(moved <= SHIFT_ITERATION_TOL * np.linalg.norm(z, axis=-1)):
            return z, count
    raise NumericalError(
        f"independent backward solve: no convergence after {count} shifted "
        f"solves; dt*a_k spans {float(np.ptp(potential)):.3g} around the "
        f"shift {shift:.3g}")


@dataclass
class IndependentPair(BackwardPair):
    """A `BackwardPair` of the independent scheme, with its `z_levels`, the
    root to the terminal data, and `solves`, the implicit solves per step."""

    z_levels: list = field(repr=False)
    solves: list


@pytest.fixture(scope="session")
def independent_backward():
    """(z_terminal, coeffs, mesh, grid, tree, h=None, control=None) -> the
    `IndependentPair` of the martingale-representation induction, the
    backward scheme that `solve_backward_tree`'s adjoint one is checked
    against: consistent with the equation to O(dt), not its exact adjoint.

    Per step, the conditional mean minus dt*b_k*Z, with Z the difference of
    the up and the down child over 2 sqrt(dt), weighs the children by
    1/2 +/- sqrt(dt)*b_k/2; the sources are subtracted as in the adjoint
    step, and (I - dt*Lap_h + dt*diag(a_k)) is solved by `_potential_solve`
    on the run's shared sine-basis solver, in physical space for any
    coefficients."""
    def solve(z_terminal, coeffs, mesh, grid, tree, h=None, control=None):
        dt, n = mesh.dt, grid.n_nodes
        z = np.asarray(z_terminal, dtype=float)
        assert tree.depth == mesh.steps and z.shape == (tree.n_leaves, n)
        solver = implicit_solver(grid, dt)
        b = coeffs.b[:, :1] if coeffs.node_uniform else coeffs.b
        lift = 0.5 * tree_moves(dt)[1] * b
        z_levels = [None] * mesh.steps + [z]
        solves = [0] * mesh.steps
        for k in range(mesh.steps - 1, -1, -1):
            z_next = z_levels[k + 1]
            zk = (0.5 + lift[k]) * z_next[0::2] + (0.5 - lift[k]) * z_next[1::2]
            h_k = _level_rows(h, k, n)
            if h_k is not None:
                zk = zk - dt * h_k
            if control is not None and control.weights[k] > 0.0:
                zk = zk - control.weights[k] \
                    * (control.levels[k] * control.mask)
            z_levels[k], solves[k] = _potential_solve(solver, zk,
                                                      dt * coeffs.a[k])
        return IndependentPair(z_levels[0][0], z, mesh, grid, z_levels,
                               solves)
    return solve


@pytest.fixture(scope="session")
def z_martingale():
    """(z_levels, dt, solver=None) -> the representation integrand Z per
    step level, shape (2^k, n), from a backward solve's levels, the root to
    the terminal data: the difference of the up and the down child over
    2 sqrt(dt), of z_{k+1} itself for the independent scheme and of
    M^-1 z_{k+1} for the adjoint one, given its `solver`."""
    def integrand(z_levels, dt, solver=None):
        scale = 2.0 * tree_moves(dt)[1]
        out = []
        for z_next in z_levels[1:]:
            if solver is not None:
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
