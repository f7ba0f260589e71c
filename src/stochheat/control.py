"""Backward stochastic heat equation on the Bernoulli tree and control synthesis.

The backward pair (z, Z) solves, toward t = 0,

    dz + Lap z dt = a1 z dt + b1 Z dt + h dt + chi_{E1} chi_{G0} f dt + Z dB,

discretized on the exact binary tree.  The dual forward solve is
`forward.tree_levels` with the dual factors 1 - dt*a1 -/+ sqrt(dt)*b1.  Two
backward modes are available:

* ``independent`` -- martingale-representation induction (conditional
  expectation + implicit solve), consistent with the equation to O(dt); its
  solve with the potential a_k is the shared sine-basis solver shifted by a
  constant, iterated on the remainder (exact in one solve for constant a);
* ``adjoint`` -- the exact discrete adjoint of the dual forward scheme, which
  makes the duality pairing hold to machine precision and yields a clean
  symmetric positive semidefinite control Gramian.

The control of a dual datum is `dual_control`, its dual flow observed on
G0 x E1; the Gramian apply (-z(0) of the adjoint solve it drives from zero
terminal data), both syntheses and the observed-mass check read it.
`gramian_matrix` builds the dense n x n Gramian by a backward second-moment
recursion (exact for the tree, without its 2^k levels); a run assembles it
and eigendecomposes it (`gramian_spectrum`) once for both syntheses, giving
null control as the minimum-norm least-squares solution and the approximate
control's regularization sweep in closed form, with conjugate gradients on
the matrix as a cross-check.  Each control is verified by one backward tree
solve.  The spectrum decays exponentially: this is the ill-posedness of null
control for the heat equation (Muench & Zuazua, Inverse Problems 2010).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .forward import (CoefficientField, implicit_solver, step_factors,
                      tree_levels, tree_moves, tree_step_adjoint)
from .geometry import Ball, SpatialGrid
from .noise import BernoulliTree, TimeMesh
from .observability import MeasurableTimeSet

__all__ = [
    "BackwardPair",
    "ControlField",
    "control_level_weights",
    "dual_control",
    "solve_dual_forward",
    "solve_backward_tree",
    "duality_check",
    "gramian_apply",
    "gramian_matrix",
    "gramian_spectrum",
    "conjugate_gradient",
    "synthesize_null_control",
    "synthesize_approx_control",
    "duality_support_check",
]

EPS_REG_FLOOR = 1e-12
# the independent mode's shifted-solve iteration: relative update per row
# at which it stops, and the cap at which it gives up
SHIFT_ITERATION_TOL = 1e-14
MAX_SHIFT_ITERATIONS = 100
N_SWEEP = 13  # regularizations of the approximate-control sweep


def control_level_weights(time_set: MeasurableTimeSet, mesh: TimeMesh) -> np.ndarray:
    """Per-step control weights from the actuation time set.

    A step is active when the time set covers at least half of its cell; the
    weight is the exact overlap measure, so the total actuation measure is
    preserved by the quadrature.  A set that activates no step is refused,
    since every control and Gramian over it would vanish.
    """
    weights = np.zeros(mesh.steps)
    times = mesh.times
    for k in range(mesh.steps):
        overlap = time_set.measure_between(times[k], times[k + 1])
        if overlap >= 0.5 * mesh.dt:
            weights[k] = overlap
    if not weights.any():
        raise ConfigurationError("actuation time set activates no time step")
    return weights


@dataclass
class BackwardPair:
    """z on tree history nodes per level (arrays of shape (2^k, n_nodes));
    z_martingale holds the representation integrand Z per step level, and
    `solves` the implicit solves per step of independent mode (None in
    adjoint mode)."""

    z_levels: list = field(repr=False)
    z_martingale: list = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    solves: list | None = None

    @property
    def z0(self) -> np.ndarray:
        return self.z_levels[0][0]


@dataclass
class ControlField:
    """Adapted control source supported on G0 x E1."""

    levels: list = field(repr=False)       # per step k: (2^k, n_nodes)
    mask: np.ndarray = field(repr=False)   # spatial indicator of G0
    weights: np.ndarray = field(repr=False)  # per-step actuation measure


def _level_source(src, k: int, n: int):
    """Normalize a source term to a (2^k, n) array (or None)."""
    if src is None:
        return None
    arr = np.asarray(src[k] if isinstance(src, (list, tuple)) else src, dtype=float)
    if arr.ndim == 1:
        return np.broadcast_to(arr, (2 ** k, n))
    if arr.shape != (2 ** k, n):
        raise ShapeError(f"source at level {k} has shape {arr.shape}, "
                         f"expected ({2 ** k}, {n})")
    return arr


def solve_dual_forward(y0_hat: np.ndarray, coeffs: CoefficientField,
                       mesh: TimeMesh, grid: SpatialGrid,
                       tree: BernoulliTree) -> list:
    """Dual forward equation dy - Lap y dt = -a1 y dt - b1 y dB on the tree.

    Returns the solution per history level: level k is a (2^k, n) array; the
    two children of node h at the next level are 2h (down move) and 2h+1.
    """
    if tree.depth != mesh.steps:
        raise ShapeError("tree depth and time mesh disagree")
    return tree_levels(y0_hat, coeffs, mesh, grid, sign=-1.0)


def dual_control(y0_hat: np.ndarray, coeffs: CoefficientField, ball: Ball,
                 time_set: MeasurableTimeSet, mesh: TimeMesh,
                 grid: SpatialGrid, tree: BernoulliTree) -> ControlField:
    """The control of a dual datum: its dual flow at levels 0..steps-1,
    acting on G0 with the per-step weights of E1."""
    weights = control_level_weights(time_set, mesh)
    dual = solve_dual_forward(y0_hat, coeffs, mesh, grid, tree)
    return ControlField(levels=dual[:-1], mask=grid.ball_mask(ball).astype(float),
                        weights=weights)


def solve_backward_tree(z_terminal: np.ndarray, coeffs: CoefficientField,
                        mesh: TimeMesh, grid: SpatialGrid, tree: BernoulliTree,
                        h=None, control: ControlField | None = None,
                        mode: str = "adjoint") -> BackwardPair:
    """Solve the backward pair from leaf terminal data down to the root.

    `h` is an optional free source (per level or deterministic); `control`
    carries the localized actuation.  In adjoint mode each step is
    `forward.tree_step_adjoint`, the exact transpose of the dual forward
    step, so the duality pairing telescopes exactly; independent mode
    performs the martingale-representation induction with an implicit solve
    of I - dt*Lap_h + dt*diag(a_k) (`_potential_solve`).
    """
    if mode not in ("adjoint", "independent"):
        raise ConfigurationError(f"unknown backward mode '{mode}'")
    if tree.depth != mesh.steps:
        raise ShapeError("tree depth and time mesh disagree")
    n = grid.n_nodes
    z = np.asarray(z_terminal, dtype=float)
    if z.shape != (tree.n_leaves, n):
        raise ShapeError(f"terminal data shape {z.shape}, "
                         f"expected ({tree.n_leaves}, {n})")
    solver = implicit_solver(grid, mesh.dt)
    dt = mesh.dt
    moves = tree_moves(dt)
    z_levels = [None] * (mesh.steps + 1)
    z_mart = [None] * mesh.steps
    solves = [0] * mesh.steps if mode == "independent" else None
    z_levels[mesh.steps] = z.copy()
    for k in range(mesh.steps - 1, -1, -1):
        z_next = z_levels[k + 1]
        if mode == "adjoint":
            zk, sz = tree_step_adjoint(
                z_next, *step_factors(coeffs, k, dt, moves, sign=-1.0), solver)
            z_mart[k] = (sz[1::2] - sz[0::2]) / (2.0 * moves[1])
        else:
            z_mart[k] = (z_next[1::2] - z_next[0::2]) / (2.0 * moves[1])
            zk = 0.5 * (z_next[0::2] + z_next[1::2]) \
                - dt * (coeffs.b[k] * z_mart[k])
        h_k = _level_source(h, k, n)
        if h_k is not None:
            zk = zk - dt * h_k
        if control is not None and control.weights[k] > 0.0:
            zk = zk - control.weights[k] * (control.levels[k] * control.mask)
        if mode == "independent":
            zk, solves[k] = _potential_solve(solver, zk, dt * coeffs.a[k])
        z_levels[k] = zk
    return BackwardPair(z_levels=z_levels, z_martingale=z_mart, mesh=mesh,
                        grid=grid, solves=solves)


def _potential_solve(solver, rhs: np.ndarray, potential: np.ndarray):
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
    z = solver.solve(rhs, shift)
    if not rest.any():
        return z, 1
    for count in range(2, MAX_SHIFT_ITERATIONS + 1):
        z_next = solver.solve(rhs - rest * z, shift)
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


def duality_check(dual_levels: list, pair: BackwardPair, h=None,
                  control: ControlField | None = None) -> dict:
    """Residual of the duality identity

        E<y(T), z(T)> - <y(0), z(0)>
          = sum_k dt E<y_k, h_k> + sum_k w_k E<y_k, chi f_k>,

    with tree-exact expectations (level means)."""
    mesh, grid = pair.mesh, pair.grid
    n = grid.n_nodes
    if len(dual_levels) != mesh.steps + 1:
        raise ShapeError("dual forward levels and backward pair disagree")
    w = grid.quad_weight
    terminal = float(np.mean(np.einsum("ij,ij->i", dual_levels[-1],
                                       pair.z_levels[-1]))) * w
    initial = float(dual_levels[0][0] @ pair.z_levels[0][0]) * w
    lhs = terminal - initial
    rhs = 0.0
    for k in range(mesh.steps):
        y_k = dual_levels[k]
        h_k = _level_source(h, k, n)
        if h_k is not None:
            rhs += mesh.dt * float(np.mean(np.einsum("ij,ij->i", y_k, h_k))) * w
        if control is not None and control.weights[k] > 0.0:
            f_k = control.levels[k] * control.mask
            rhs += control.weights[k] \
                * float(np.mean(np.einsum("ij,ij->i", y_k, f_k))) * w
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "relative_residual": abs(lhs - rhs) / scale}


def gramian_apply(y0_hat: np.ndarray, coeffs: CoefficientField,
                  ball: Ball, time_set: MeasurableTimeSet, mesh: TimeMesh,
                  grid: SpatialGrid, tree: BernoulliTree) -> np.ndarray:
    """Apply the control Gramian: -z(0) of the adjoint backward solve from
    zero terminal data, driven by the `dual_control` of the datum.

    Symmetric positive semidefinite by the exact duality of adjoint mode:
    <Gramian u, u> equals the observed quadratic mass of the dual flow.
    """
    ctrl = dual_control(y0_hat, coeffs, ball, time_set, mesh, grid, tree)
    pair = solve_backward_tree(np.zeros((tree.n_leaves, grid.n_nodes)),
                               coeffs, mesh, grid, tree, control=ctrl)
    return -pair.z0


def gramian_matrix(coeffs: CoefficientField, ball: Ball,
                   time_set: MeasurableTimeSet, mesh: TimeMesh,
                   grid: SpatialGrid) -> np.ndarray:
    """The control Gramian as a dense (n, n) matrix, column j being
    `gramian_apply(e_j)`.

    With Phi_k the dual flow to level k, G = sum_k w_k E[Phi_k^T chi Phi_k].
    The factors of step k are deterministic and independent of Phi_k, so the
    backward recursion Q_steps = 0,
    Q_k = w_k diag(chi) + E[D_k M^-1 Q_{k+1} M^-1 D_k] with the two dual
    factor rows D_k of `step_factors` and M = I - dt*Lap_h ends in G = Q_0,
    exactly for the tree and without its 2^k levels.
    """
    weights = control_level_weights(time_set, mesh)
    mask = grid.ball_mask(ball).astype(float)
    solver = implicit_solver(grid, mesh.dt)
    moves = tree_moves(mesh.dt)
    diagonal = np.diag_indices(grid.n_nodes)
    q = np.zeros((grid.n_nodes, grid.n_nodes))
    for k in range(mesh.steps - 1, -1, -1):
        # the solve acts on rows, and Q and M are symmetric
        q = solver.solve(solver.solve(q).T)
        factors = step_factors(coeffs, k, mesh.dt, moves, sign=-1.0)
        q *= 0.5 * (factors.T @ factors)
        q[diagonal] += weights[k] * mask
    return q


def gramian_spectrum(gram) -> tuple:
    """(G, eigenvalues, eigenvectors, rank cutoff) of a `gramian_matrix` G;
    the cutoff n*eps*lambda_max is the default of `pinv` and `lstsq`.  A
    spectrum is returned as it is."""
    if isinstance(gram, tuple):
        return gram
    lam, vec = np.linalg.eigh(gram)
    return gram, lam, vec, len(lam) * np.finfo(float).eps * max(lam[-1], 0.0)


def _relative_gap(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))


def conjugate_gradient(matvec, rhs: np.ndarray, tol: float = 1e-10,
                       eps_reg: float = 0.0) -> tuple[np.ndarray, dict]:
    """Plain CG on the SPD operator matvec (+ eps_reg * identity), capped at
    len(rhs) iterations.

    Tracks the CG energy functional phi(x) = x.(A x)/2 - rhs.x, which is
    strictly nonincreasing along iterations (unlike the 2-norm residual); its
    values are recorded in `energies`, not asserted.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    rhs_norm = np.sqrt(float(rhs @ rhs))
    if rhs_norm == 0.0:
        return x, {"iterations": 0, "residuals": [0.0], "energies": [0.0],
                   "converged": True}
    residuals = [np.sqrt(rs) / rhs_norm]
    energies = [0.0]
    converged = residuals[-1] <= tol
    it = 0
    while not converged and it < len(rhs):
        ap = matvec(p) + eps_reg * p
        denom = float(p @ ap)
        if denom <= 0.0:
            raise NumericalError(
                "conjugate gradients met a nonpositive curvature direction; "
                "the Gramian is not positive at this resolution")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        residuals.append(np.sqrt(rs_new) / rhs_norm)
        # exact step decrement of phi is -alpha * rs / 2
        energies.append(energies[-1] - 0.5 * alpha * rs)
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
        converged = residuals[-1] <= tol
    return x, {"iterations": it, "residuals": residuals, "energies": energies,
               "converged": bool(converged)}


def synthesize_null_control(z_terminal: np.ndarray, gram,
                            coeffs: CoefficientField, ball: Ball,
                            time_set: MeasurableTimeSet, mesh: TimeMesh,
                            grid: SpatialGrid, tree: BernoulliTree):
    """Drive z(0) to zero by inverting the Gramian `gram` (`gramian_matrix`
    of the same actuator, or its `gramian_spectrum`).

    The free backward solve gives z_free(0); superposition makes the
    controlled value z(0) = z_free(0) - Gramian(u), so the dual datum solves
    Gramian(u) = z_free(0).  u is the minimum-norm least-squares solution:
    eigenvalues at or below the spectrum's cutoff count as zero.  The
    control is the `dual_control` of u.  Returns (ControlField, report); the
    report holds the independently re-verified ||z(0)||, the spectrum and
    the CG cross-check (`cg`, with `gap` its relative distance from u).
    """
    free = solve_backward_tree(z_terminal, coeffs, mesh, grid, tree)
    target = free.z0
    gram, lam, vec, cutoff = gramian_spectrum(gram)
    keep = lam > cutoff
    u_star = vec[:, keep] @ ((vec[:, keep].T @ target) / lam[keep])
    u_cg, cg_info = conjugate_gradient(lambda p: gram @ p, target, tol=1e-12)
    cg_info["gap"] = _relative_gap(u_cg, u_star)
    ctrl = dual_control(u_star, coeffs, ball, time_set, mesh, grid, tree)
    verified = solve_backward_tree(z_terminal, coeffs, mesh, grid, tree,
                                   control=ctrl)
    w = grid.quad_weight
    z0_norm = np.sqrt(w * float(verified.z0 @ verified.z0))
    zt_norm = np.sqrt(w * float(np.mean(np.einsum("ij,ij->i", z_terminal,
                                                  z_terminal))))
    spectrum = {"lambda_min": float(lam[0]), "lambda_max": float(lam[-1]),
                "cutoff": float(cutoff), "below_cutoff": int(np.sum(~keep))}
    report = {"cg": cg_info, "spectrum": spectrum, "z0_norm": z0_norm,
              "z_terminal_norm": zt_norm,
              "relative_z0": z0_norm / max(zt_norm, 1e-300)}
    return ctrl, report


def synthesize_approx_control(z_terminal: np.ndarray, z0_target: np.ndarray,
                              gram, coeffs: CoefficientField,
                              ball: Ball, time_set: MeasurableTimeSet,
                              mesh: TimeMesh, grid: SpatialGrid,
                              tree: BernoulliTree, accuracy: float):
    """Steer z(0) within `accuracy` of a deterministic target.

    Solves (Gramian + eps_reg I) u = z_free(0) - z0_target in closed form,
    u = V (V^T rhs) / (lambda + eps_reg) on the eigenpairs of `gram` (a
    `gramian_matrix` or its `gramian_spectrum`), over a descending sweep of
    N_SWEEP log-spaced regularizations (1e0 down to the 1e-12 floor),
    verifying the achieved distance after each solve by one tree solve
    driven by the `dual_control` of u, and stopping once the target
    accuracy is met.  The residual curve is monotone nonincreasing.  Each
    curve row records the CG cross-check on the same system: its
    iterations, whether it converged within the iteration cap
    (`cg_converged`) and its relative distance from u (`cg_gap`).
    """
    free = solve_backward_tree(z_terminal, coeffs, mesh, grid, tree)
    rhs = free.z0 - np.asarray(z0_target, dtype=float)
    w = grid.quad_weight
    target_norm = np.sqrt(w * float(z0_target @ z0_target))
    goal = accuracy * max(target_norm, 1e-300)
    gram, lam, vec, _ = gramian_spectrum(gram)
    coef = vec.T @ rhs

    curve = []
    best = None
    for eps_reg in np.logspace(0.0, np.log10(EPS_REG_FLOOR), N_SWEEP):
        u = vec @ (coef / (lam + eps_reg))
        u_cg, cg_info = conjugate_gradient(lambda p: gram @ p, rhs, tol=1e-13,
                                           eps_reg=float(eps_reg))
        ctrl = dual_control(u, coeffs, ball, time_set, mesh, grid, tree)
        pair = solve_backward_tree(z_terminal, coeffs, mesh, grid, tree,
                                   control=ctrl)
        residual = np.sqrt(w * float((pair.z0 - z0_target)
                                     @ (pair.z0 - z0_target)))
        curve.append({"eps_reg": float(eps_reg), "residual": float(residual),
                      "cg_iterations": cg_info["iterations"],
                      "cg_converged": cg_info["converged"],
                      "cg_gap": _relative_gap(u_cg, u)})
        if best is None or residual <= best[0]:
            best = (residual, ctrl)
        if residual <= goal:
            break
    residual, ctrl = best
    report = {"curve": curve, "achieved_residual": float(residual),
              "target_norm": float(target_norm),
              "achieved": bool(residual <= goal),
              "relative_residual": float(residual / max(target_norm, 1e-300))}
    return ctrl, report


def duality_support_check(control: ControlField, grid: SpatialGrid) -> dict:
    """Observed mass of a control's dual flow on G0 x E1, against its datum
    (the flow at level 0).

    Near-zero mass with a nonzero dual datum would witness a discrete
    unique-continuation failure and is flagged rather than asserted.
    """
    w = grid.quad_weight
    mass = 0.0
    for k, w_k in enumerate(control.weights):
        if w_k > 0.0:
            obs = control.levels[k] * control.mask
            mass += w_k * float(np.mean(np.einsum("ij,ij->i", obs, obs))) * w
    datum = control.levels[0][0]
    datum_norm_sq = w * float(datum @ datum)
    flag = mass <= 1e-14 * max(datum_norm_sq, 1e-300) and datum_norm_sq > 0.0
    return {"observed_mass": float(mass), "datum_norm_sq": float(datum_norm_sq),
            "ratio": float(mass / max(datum_norm_sq, 1e-300)),
            "ucp_red_flag": bool(flag)}
