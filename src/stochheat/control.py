"""Backward stochastic heat equation on the Bernoulli tree and control synthesis.

The backward pair (z, Z) satisfies, toward t = 0,

    dz + Lap z dt = a1 z dt + b1 Z dt + h dt + chi_{E1} chi_{G0} f dt + Z dB,

discretized on the exact binary tree.  The dual forward solve
`solve_dual_forward` steps `forward.tree_step` with the dual factors
1 - dt*a1 -/+ sqrt(dt)*b1, the `forward.step_factors` table of sign -1 that
the Gramian recursion reads too.  The backward step is its exact discrete
adjoint: it weighs the two children of a node by one table,
`_child_weights` (half the dual factors), which both backward engines read,
so the duality pairing holds to machine precision and the control Gramian
is symmetric positive semidefinite.

Coefficients uniform over the nodes make the table one column, which
commutes with M^-1 = S diag(1/(1 - dt*lam)) S: the dual flow stays factored
(path scalars and one orbit), the backward step is elementwise on sine
coefficients, z(0) is one contraction of the leaves plus one scalar
recursion per source (h one row for every node, a factored control), and
the duality checks read the dual flow's levels as (path scalars, rows)
pairs: a run forms no 2^k-row level.  Other inputs step in physical space
(`_nodal_backward`, the tests' oracle).  A solve returns z(0) and its
terminal data, all that the duality reads.

The control of a dual datum is `dual_control`, its dual flow observed on
G0 x E1; the Gramian apply (-z(0) of the adjoint solve it drives from zero
terminal data), both syntheses and the observed-mass check read it.
`gramian_matrix` builds the dense n x n Gramian by a backward second-moment
recursion (exact for the tree, without its 2^k levels); a run assembles it
and eigendecomposes it (`gramian_spectrum`) once for both syntheses, giving
null control as the minimum-norm least-squares solution and the approximate
control's regularization sweep in closed form.  Conjugate gradients on the
matrix run beside both: the null control reports their iterations, each
sweep row their distance from the closed form.  The adjoint step makes
z(0) = z_free(0) - G u exact, so the sweep reads its residual curve from G,
and each synthesis verifies the one control it returns by one backward tree
solve.  The spectrum decays exponentially: this is the ill-posedness of null
control for the heat equation (Muench & Zuazua, Inverse Problems 2010).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .forward import (CoefficientField, FactoredLevels, implicit_solver,
                      step_factors, tree_moves, tree_products, tree_step)
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
N_SWEEP = 13  # regularizations of the approximate-control sweep


def control_level_weights(time_set: MeasurableTimeSet, mesh: TimeMesh) -> np.ndarray:
    """Per-step control weights from the actuation time set.

    A step is active when the time set covers at least half of its cell; the
    weight is the exact overlap measure, so the total actuation measure is
    preserved by the quadrature.  A set that activates no step is refused,
    since every control and Gramian over it would vanish.
    """
    overlap = time_set.measure_between(mesh.times[:-1], mesh.times[1:])
    weights = np.where(overlap >= 0.5 * mesh.dt, overlap, 0.0)
    if not weights.any():
        raise ConfigurationError("actuation time set activates no time step")
    return weights


@dataclass
class BackwardPair:
    """A backward solve as the duality reads it: z(0), shape (n_nodes,),
    and the terminal data on the leaves, shape (2^steps, n_nodes)."""

    z0: np.ndarray
    z_terminal: np.ndarray = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid


@dataclass
class ControlField:
    """Adapted control source supported on G0 x E1."""

    levels: Sequence = field(repr=False)   # per step k: (2^k, n_nodes)
    mask: np.ndarray = field(repr=False)   # spatial indicator of G0
    weights: np.ndarray = field(repr=False)  # per-step actuation measure


def _level_rows(src, k: int, n: int):
    """A source term at level k as given, one row (n,) for every node or a
    (2^k, n) array, or None: `src` is one of them or a list per level."""
    if src is None:
        return None
    arr = np.asarray(src[k] if isinstance(src, (list, tuple)) else src, dtype=float)
    if arr.shape not in ((n,), (2 ** k, n)):
        raise ShapeError(f"source at level {k} has shape {arr.shape}, "
                         f"expected ({n},) or ({2 ** k}, {n})")
    return arr


def solve_dual_forward(y0_hat: np.ndarray, coeffs: CoefficientField,
                       mesh: TimeMesh, grid: SpatialGrid,
                       tree: BernoulliTree) -> Sequence:
    """Dual forward equation dy - Lap y dt = -a1 y dt - b1 y dB on the tree.

    Returns the solution per history level, levels 0..steps: level k holds
    2^k rows, and the two children of node h at the next level are 2h
    (down move) and 2h+1, from `forward.tree_step` with the dual factors
    (`step_factors` of sign -1).  A one-column table makes the factors
    scalars, which commute with M^-1, so the levels are `FactoredLevels`:
    the table and the orbit M^{-k} y0_hat of one `solve_powers`, read-only.
    """
    if tree.depth != mesh.steps:
        raise ShapeError("tree depth and time mesh disagree")
    solver = implicit_solver(grid, mesh.dt)
    y0 = np.asarray(y0_hat, dtype=float)
    table = step_factors(coeffs, mesh.dt, tree_moves(mesh.dt), sign=-1.0)
    if coeffs.node_uniform:
        return FactoredLevels(table[..., 0],
                              solver.solve_powers(y0, mesh.steps))
    levels = [y0[None, :].copy()]
    for factors in table:
        levels.append(tree_step(levels[-1], *factors, solver))
    return levels


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
                        h=None, control: ControlField | None = None
                        ) -> BackwardPair:
    """Solve the backward pair from leaf terminal data down to the root.

    `h` is an optional free source (per level or deterministic); `control`
    carries the localized actuation.  Each step is the exact transpose of
    the dual forward step `forward.tree_step`, so the duality pairing
    telescopes exactly; both engines below weigh the two children of a
    node by `_child_weights`.

    Coefficients uniform over the nodes make the step factors scalars, so
    with the sources a run builds (no h or one row h for every node, and no
    control or one on `FactoredLevels`) the recursion is elementwise on sine
    coefficients and z(0) comes by linearity (`_factored_root`); other
    inputs, h per level or a control on formed levels, step in physical
    space (`_nodal_backward`, exact for any coefficients).  Only z(0) is
    returned, with `z_terminal` itself.
    """
    if tree.depth != mesh.steps:
        raise ShapeError("tree depth and time mesh disagree")
    n = grid.n_nodes
    z = np.asarray(z_terminal, dtype=float)
    if z.shape != (tree.n_leaves, n):
        raise ShapeError(f"terminal data shape {z.shape}, "
                         f"expected ({tree.n_leaves}, {n})")
    args = (z, coeffs, mesh, implicit_solver(grid, mesh.dt), h, control)
    if coeffs.node_uniform and not isinstance(h, (list, tuple)) and (
            control is None or isinstance(control.levels, FactoredLevels)):
        return BackwardPair(_factored_root(*args), z, mesh, grid)
    return BackwardPair(_nodal_backward(*args)[0][0], z, mesh, grid)


def _child_weights(coeffs: CoefficientField, dt: float):
    """The weights (p_k, q_k) of the down and the up child in a backward
    step, shape (steps, 2, m), m = 1 when `coeffs.node_uniform`: half the
    dual factors (the transpose of `forward.tree_step` under the level-mean
    pairing), applied to the children after M^-1."""
    return 0.5 * step_factors(coeffs, dt, tree_moves(dt), sign=-1.0)


def _nodal_backward(z, coeffs, mesh, solver, h, control):
    """Every level of `solve_backward_tree`'s solve in physical space, the
    root to the terminal data: a level is the children of the next, solved
    by M^-1 on the tree rows and weighed by `_child_weights`."""
    dt, n = mesh.dt, z.shape[1]
    weights = _child_weights(coeffs, dt)
    z_levels = [None] * mesh.steps + [z]
    for k in range(mesh.steps - 1, -1, -1):
        z_next = solver.solve(z_levels[k + 1])
        p, q = weights[k]
        zk = p * z_next[0::2] + q * z_next[1::2]
        h_k = _level_rows(h, k, n)
        if h_k is not None:
            zk = zk - dt * h_k
        if control is not None and control.weights[k] > 0.0:
            zk = zk - control.weights[k] * (control.levels[k] * control.mask)
        z_levels[k] = zk
    return z_levels


def _factored_root(z, coeffs, mesh, solver, h, control):
    """z(0) of `solve_backward_tree` for coefficients uniform over the
    nodes, with no h or one row h for every node and no control or one on
    `FactoredLevels`.  On sine coefficients a step is elementwise and
    linear, z_hat_k = iota (p_k z_hat_{k+1}[0::2] + q_k z_hat_{k+1}[1::2])
    - S(source_k), iota = 1 / `diagonal` and (p, q) the `_child_weights`.
    The terminal rows enter the root through their leaf weights, the
    `tree_products` of (p, q), times iota once per step.  A source of rows
    s_k x v_k (with step factors f = 1 for h; the control's with its own f)
    adds B_0 to the root, its path scalar being 1: B_steps = 0 and B_k =
    iota c_k B_{k+1} - S(v_k), c_k = p_k f_k^down + q_k f_k^up."""
    dt, steps, n = mesh.dt, mesh.steps, z.shape[1]
    weights = _child_weights(coeffs, dt)[..., 0]
    iota = 1.0 / solver.diagonal
    # a (1, n) row: `sine` of a bare (n,) row runs gemv, which rounds apart
    z_hat = solver.sine(tree_products(weights)[-1] @ z.reshape(1, -1, n))
    for _ in range(steps):  # not iota ** steps: z(0) would move
        z_hat = iota * z_hat
    sources = [] if h is None else [  # (step factors, rows v_k)
        (np.ones((steps, 2)),
         np.array([dt * _level_rows(h, k, n) for k in range(steps)]))]
    if control is not None:
        sources.append((control.levels.factors, control.weights[:, None]
                        * control.mask * control.levels.orbit[:steps]))
    for factors, v in sources:
        c, v_hat = np.sum(weights * factors, axis=1), solver.sine(v)
        part = np.zeros(n)
        for k in range(steps - 1, -1, -1):
            part = iota * (c[k] * part) - v_hat[k]
        z_hat += part
    return solver.sine(z_hat)[0]


def _level(levels: Sequence, k: int, mask=None) -> tuple:
    """Level k of a flow as the pair (path scalars s, rows x) of its rows
    s_i x_i, times `mask` if one is given: the 2^k scalars and the orbit
    row of `FactoredLevels` (no level is formed), else (1.0, level k)."""
    if isinstance(levels, FactoredLevels):
        s, rows = levels.scalars[k], levels.orbit[k]
    else:
        s, rows = 1.0, levels[k]
    return s, rows if mask is None else rows * mask


def _level_mean(x: tuple, y: tuple) -> float:
    """The mean over the nodes of one level of <x, y>, each side a pair
    (path scalars, rows) as `_level` gives it: scalars of shape (2^k,) or
    1.0, rows of shape (2^k, n) or one row (n,) for every node."""
    (s, a), (t, b) = x, y
    s, t, a, b = np.atleast_1d(s, t) + np.atleast_2d(a, b)
    nodes = max(len(s), len(t), len(a), len(b))
    # the rows first, which forms no (2^k, n) product; one einsum of all
    # four loops over that broadcast, 40 times slower on factored levels
    rows = np.einsum("ij,ij->i", a, b)
    return float(np.einsum("i,i,i->", s, t, rows)) / nodes


def duality_check(dual_levels: Sequence, pair: BackwardPair, h=None,
                  control: ControlField | None = None) -> dict:
    """Residual of the duality identity

        E<y(T), z(T)> - <y(0), z(0)>
          = sum_k dt E<y_k, h_k> + sum_k w_k E<y_k, chi f_k>,

    with tree-exact expectations (level means).  Factored levels are read
    as their factors: E<s_k x phi_k, h> = mean(s_k) <phi_k, h>, and no
    level is formed."""
    mesh, grid = pair.mesh, pair.grid
    n = grid.n_nodes
    if len(dual_levels) != mesh.steps + 1:
        raise ShapeError("dual forward levels and backward pair disagree")
    w = grid.quad_weight
    terminal = _level_mean(_level(dual_levels, -1), (1.0, pair.z_terminal))
    lhs = (terminal - _level_mean(_level(dual_levels, 0), (1.0, pair.z0))) * w
    rhs = 0.0
    for k in range(mesh.steps):
        y_k = _level(dual_levels, k)
        h_k = _level_rows(h, k, n)
        if h_k is not None:
            rhs += mesh.dt * _level_mean(y_k, (1.0, h_k)) * w
        if control is not None and control.weights[k] > 0.0:
            rhs += control.weights[k] * _level_mean(
                y_k, _level(control.levels, k, control.mask)) * w
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs),
            "relative_residual": abs(lhs - rhs) / scale}


def gramian_apply(y0_hat: np.ndarray, coeffs: CoefficientField,
                  ball: Ball, time_set: MeasurableTimeSet, mesh: TimeMesh,
                  grid: SpatialGrid, tree: BernoulliTree) -> np.ndarray:
    """Apply the control Gramian: -z(0) of the adjoint backward solve from
    zero terminal data, driven by the `dual_control` of the datum.

    Symmetric positive semidefinite by the exact duality of the adjoint step:
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
    The factors of step k are deterministic, and Phi_k does not depend on the
    coin of step k, so the backward recursion Q_steps = 0,
    Q_k = w_k diag(chi) + E[D_k M^-1 Q_{k+1} M^-1 D_k] with the two dual
    factor rows D_k of `step_factors` and M = I - dt*Lap_h ends in G = Q_0,
    exactly for the tree and without its 2^k levels.
    """
    weights = control_level_weights(time_set, mesh)
    mask = grid.ball_mask(ball).astype(float)
    solver = implicit_solver(grid, mesh.dt)
    table = step_factors(coeffs, mesh.dt, tree_moves(mesh.dt), sign=-1.0)
    diagonal = np.diag_indices(grid.n_nodes)
    q = np.zeros((grid.n_nodes, grid.n_nodes))
    for k in range(mesh.steps - 1, -1, -1):
        # the solve acts on rows, and Q and M are symmetric
        q = solver.solve(solver.solve(q).T)
        q *= 0.5 * (table[k].T @ table[k])
        q[diagonal] += weights[k] * mask
    return q


def gramian_spectrum(gram: np.ndarray) -> tuple:
    """(G, eigenvalues, eigenvectors, rank cutoff) of a `gramian_matrix` G;
    the cutoff n*eps*lambda_max is the default of `pinv` and `lstsq`."""
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
    values are recorded in `energies`, not asserted.  A direction p with
    |p.Ap| <= n*eps*q*||p||^2, q the Rayleigh quotient of rhs, is a null
    direction of a semidefinite operator whatever the sign of its
    round-off: CG stops there, unconverged, rather than take a step of
    1/p.Ap.  A more negative curvature raises NumericalError.
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
        if it == 0:  # p = rhs
            quotient = denom / rs
        if abs(denom) <= len(rhs) * np.finfo(float).eps * quotient * (p @ p):
            break  # a null direction of a semidefinite operator
        if denom < 0.0:
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


def synthesize_null_control(z_terminal: np.ndarray, z0_free: np.ndarray,
                            spectrum: tuple, coeffs: CoefficientField,
                            ball: Ball, time_set: MeasurableTimeSet,
                            mesh: TimeMesh, grid: SpatialGrid,
                            tree: BernoulliTree):
    """Drive z(0) to zero by inverting the Gramian, given as the
    `gramian_spectrum` of the same actuator's `gramian_matrix`.

    `z0_free` is z_free(0), the uncontrolled backward solve from
    `z_terminal` at the root; superposition makes the controlled value
    z(0) = z_free(0) - Gramian(u), so the dual datum u satisfies
    Gramian(u) = z_free(0).  u is the minimum-norm least-squares solution:
    eigenvalues at or below the spectrum's cutoff count as zero.  The
    control is the `dual_control` of u, so u (its level 0) determines it.
    Returns (ControlField, report); the report holds ||z(0)|| as
    re-verified by a backward tree solve, the spectrum and `cg`, the record of conjugate
    gradients on the same system, of which a `control` report writes the
    iteration count.
    """
    gram, lam, vec, cutoff = spectrum
    keep = lam > cutoff
    u_star = vec[:, keep] @ ((vec[:, keep].T @ z0_free) / lam[keep])
    _, cg_info = conjugate_gradient(lambda p: gram @ p, z0_free, tol=1e-12)
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


def synthesize_approx_control(z_terminal: np.ndarray, z0_free: np.ndarray,
                              z0_target: np.ndarray, spectrum: tuple,
                              coeffs: CoefficientField, ball: Ball,
                              time_set: MeasurableTimeSet, mesh: TimeMesh,
                              grid: SpatialGrid, tree: BernoulliTree,
                              accuracy: float):
    """Steer z(0) within `accuracy` of a deterministic target, from the
    terminal data `z_terminal` and its free value `z0_free` at the root (as
    in `synthesize_null_control`).

    Solves (Gramian + eps_reg I) u = z_free(0) - z0_target in closed form,
    u = V (V^T rhs) / (lambda + eps_reg) on the eigenpairs of the
    Gramian's `gramian_spectrum`, over a descending sweep of
    N_SWEEP log-spaced regularizations (1e0 down to the 1e-12 floor),
    stopping once the target accuracy is met.  The adjoint step makes
    z(0) = z_free(0) - Gramian(u) exact, so each row's residual is the
    Gramian's prediction ||rhs - Gramian u|| = ||coef * eps_reg /
    (lambda + eps_reg)||, coef = V^T rhs, read in the eigenbasis with the
    round-off negative eigenvalues at 0: each term, and so the residual
    curve, is nonincreasing as eps_reg falls.  Only the last row, of the
    smallest predicted residual, is verified: one backward tree solve
    driven by the `dual_control` of its u measures `achieved_residual`, and
    `gramian_gap` is its relative distance from ||rhs - Gramian u||, one
    matvec, so a goal met by the prediction alone is no success.  Each
    curve row records the CG cross-check on the same system: its
    iterations, whether it converged within the iteration cap
    (`cg_converged`) and its relative distance from u (`cg_gap`).
    """
    rhs = z0_free - np.asarray(z0_target, dtype=float)
    w = grid.quad_weight
    target_norm = np.sqrt(w * float(z0_target @ z0_target))
    goal = accuracy * max(target_norm, 1e-300)
    gram, lam, vec, _ = spectrum
    coef = vec.T @ rhs

    curve = []
    for eps_reg in np.logspace(0.0, np.log10(EPS_REG_FLOOR), N_SWEEP):
        u = vec @ (coef / (lam + eps_reg))
        u_cg, cg_info = conjugate_gradient(lambda p: gram @ p, rhs, tol=1e-13,
                                           eps_reg=float(eps_reg))
        miss = coef * eps_reg / (np.maximum(lam, 0.0) + eps_reg)
        predicted = np.sqrt(w * float(miss @ miss))
        curve.append({"eps_reg": float(eps_reg), "residual": float(predicted),
                      "cg_iterations": cg_info["iterations"],
                      "cg_converged": cg_info["converged"],
                      "cg_gap": _relative_gap(u_cg, u)})
        if predicted <= goal:
            break
    miss = rhs - gram @ u
    predicted = np.sqrt(w * float(miss @ miss))
    ctrl = dual_control(u, coeffs, ball, time_set, mesh, grid, tree)
    z0 = solve_backward_tree(z_terminal, coeffs, mesh, grid, tree,
                             control=ctrl).z0
    residual = np.sqrt(w * float((z0 - z0_target) @ (z0 - z0_target)))
    report = {"curve": curve, "achieved_residual": float(residual),
              "target_norm": float(target_norm),
              "achieved": bool(residual <= goal),
              "relative_residual": float(residual / max(target_norm, 1e-300)),
              "gramian_gap": float(abs(residual - predicted)
                                   / max(residual, 1e-300))}
    return ctrl, report


def duality_support_check(control: ControlField, grid: SpatialGrid) -> dict:
    """Observed mass of a control's dual flow on G0 x E1, against its datum
    (the flow at level 0); factored levels give the mass
    sum_k w_k mean(s_k^2) ||chi phi_k||^2 without forming a level.

    Near-zero mass with a nonzero dual datum would witness a discrete
    unique-continuation failure and is flagged rather than asserted.
    """
    w = grid.quad_weight
    mass = 0.0
    for k, w_k in enumerate(control.weights):
        if w_k > 0.0:
            obs = _level(control.levels, k, control.mask)
            mass += w_k * _level_mean(obs, obs) * w
    datum = _level(control.levels, 0)
    datum_norm_sq = w * _level_mean(datum, datum)
    flag = mass <= 1e-14 * max(datum_norm_sq, 1e-300) and datum_norm_sq > 0.0
    return {"observed_mass": float(mass), "datum_norm_sq": float(datum_norm_sq),
            "ratio": float(mass / max(datum_norm_sq, 1e-300)),
            "ucp_red_flag": bool(flag)}
