"""Pathwise solvers for the forward stochastic heat equation.

Scheme: diffusion-implicit, reaction/noise-explicit Euler-Maruyama,

    (I - dt*Lap_h) y_{k+1} = y_k + dt*a_k y_k + b_k y_k dB_k,

which keeps the Ito evaluation point of the noise.  Besides the pathwise
ensembles this module provides an exact second-moment propagator: for
deterministic coefficients the tree expectation of any quadratic functional
of the solution is reproduced exactly by the recursion on E[y y^T], at any
depth, without enumerating paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalError
from .geometry import SpatialGrid
from .noise import BernoulliTree, PathEnsemble, TimeMesh

__all__ = [
    "CoefficientField",
    "TrajectoryEnsemble",
    "SecondMomentEnsemble",
    "ImplicitHeatSolver",
    "step_forward",
    "solve_forward",
    "solve_forward_moments",
    "solve_semilinear",
    "exp_transform_oracle",
    "energy_trace",
    "local_mass_trace",
    "step_invertibility_report",
]

DEGENERATE_STEP_TOL = 1e-12


class ImplicitHeatSolver:
    """Prefactorized solve of (I - dt*Lap_h) u = rhs."""

    def __init__(self, grid: SpatialGrid, dt: float):
        self.grid = grid
        self.dt = dt
        mat = sp.eye(grid.n_nodes) - dt * grid.laplacian()
        try:
            self._lu = splu(sp.csc_matrix(mat))
        except RuntimeError as exc:  # pragma: no cover - splu failure is exotic
            raise NumericalError(f"implicit step factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one field (n,) or a batch (..., n)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._lu.solve(rhs)
        flat = rhs.reshape(-1, rhs.shape[-1])
        return self._lu.solve(flat.T).T.reshape(rhs.shape)


class CoefficientField:
    """Coefficients a (potential) and b (noise intensity) on the grid.

    Deterministic coefficients are stored as arrays of shape (steps, n_nodes);
    sup norms and the W^{1,inf} norm of b are cached.  Adapted (per-path)
    coefficients are callables receiving only past increments.
    """

    def __init__(self, grid: SpatialGrid, mesh: TimeMesh, a, b,
                 adapted: bool = False, sup_a: float | None = None,
                 sup_b: float | None = None):
        self.grid = grid
        self.mesh = mesh
        self.adapted = adapted
        if adapted:
            self._a_fn, self._b_fn = a, b
            if sup_a is None or sup_b is None:
                raise ConfigurationError("adapted coefficients need explicit sup bounds")
            self.sup_a = float(sup_a)
            self.sup_b_w1inf = float(sup_b)
        else:
            self.a = self._materialize(a)
            self.b = self._materialize(b)
            self.b_grad = np.stack([grid.field_gradient(self.b[k])
                                    for k in range(mesh.steps)])
            self.sup_a = float(np.max(np.abs(self.a))) if sup_a is None else float(sup_a)
            grad_sup = float(np.max(np.abs(self.b_grad))) if self.b_grad.size else 0.0
            w1 = max(float(np.max(np.abs(self.b))), grad_sup)
            self.sup_b_w1inf = w1 if sup_b is None else float(sup_b)

    def _materialize(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            arr = np.full(self.grid.n_nodes, float(arr))
        if arr.ndim == 1:
            try:
                arr = np.broadcast_to(arr, (self.mesh.steps, self.grid.n_nodes))
            except ValueError as exc:
                raise ConfigurationError(
                    f"coefficient shape {arr.shape} incompatible with "
                    f"({self.mesh.steps}, {self.grid.n_nodes})") from exc
        if arr.shape != (self.mesh.steps, self.grid.n_nodes):
            raise ConfigurationError(
                f"coefficient shape {arr.shape} incompatible with "
                f"({self.mesh.steps}, {self.grid.n_nodes})")
        return np.array(arr, dtype=float)

    @classmethod
    def constant(cls, grid, mesh, a: float, b: float) -> "CoefficientField":
        return cls(grid, mesh, a=float(a), b=float(b))

    @classmethod
    def random_bounded(cls, grid, mesh, seed: int, a_bound: float, b_bound: float,
                       n_modes: int = 3) -> "CoefficientField":
        """Smooth random coefficients with W^{1,inf} norms within the bounds.

        Low-order Fourier combinations in x, constant in time, normalized so
        that max(sup|f|, sup|grad f|) equals the bound — the downstream
        constants depend exponentially on the gradient of b, so bounding the
        value alone would let them explode.
        """
        rng = np.random.Generator(np.random.Philox(key=[int(seed), 0x5eed]))
        def smooth_field(bound):
            x = grid.coords
            f = np.zeros(grid.n_nodes)
            for j in range(1, n_modes + 1):
                amp = rng.uniform(-1.0, 1.0, size=grid.dim)
                phase = rng.uniform(0.0, 2 * np.pi, size=grid.dim)
                for axis in range(grid.dim):
                    lo, hi = grid.extents[axis]
                    f += amp[axis] * np.sin(j * np.pi * (x[:, axis] - lo) / (hi - lo)
                                            + phase[axis])
            peak = max(np.max(np.abs(f)), np.max(np.abs(grid.field_gradient(f))))
            return bound * f / peak if peak > 0 else f
        return cls(grid, mesh, a=smooth_field(a_bound), b=smooth_field(b_bound))

    def a_at(self, k: int, past_increments: np.ndarray | None = None) -> np.ndarray:
        if self.adapted:
            return np.asarray(self._a_fn(k, past_increments), dtype=float)
        return self.a[k]

    def b_at(self, k: int, past_increments: np.ndarray | None = None) -> np.ndarray:
        if self.adapted:
            return np.asarray(self._b_fn(k, past_increments), dtype=float)
        return self.b[k]

    def sup_b_over(self, mask: np.ndarray) -> float:
        """W^{1,inf} norm of b restricted to a node mask (e.g. supp phi)."""
        if self.adapted:
            return self.sup_b_w1inf
        vals = float(np.max(np.abs(self.b[:, mask]))) if mask.any() else 0.0
        grads = float(np.max(np.abs(self.b_grad[:, mask, :]))) if mask.any() else 0.0
        return max(vals, grads)


@dataclass
class TrajectoryEnsemble:
    """Pathwise solution fields; values has shape (n_paths, steps+1, n_nodes)."""

    values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    increments: np.ndarray = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    provenance: dict
    excluded: np.ndarray | None = None

    is_exact_expectation = False

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def expectation_field(self, k: int) -> np.ndarray:
        return self.weights @ self.values[:, k, :]

    def nodal_moment(self, left=None, right=None) -> np.ndarray:
        """E[(L y(t_k))_i (R y(t_k))_i], shape (steps+1, n); None is the identity."""
        out = np.empty((self.mesh.steps + 1, self.grid.n_nodes))
        for k in range(self.mesh.steps + 1):
            y = self.values[:, k, :]
            ly = _apply(left, y)
            ry = ly if right is left else _apply(right, y)
            out[k] = np.einsum("p,pi,pi->i", self.weights, ly, ry)
        return out


@dataclass
class SecondMomentEnsemble:
    """Exact expectation surrogate: first and second moments per time node.

    Valid for deterministic coefficients; reproduces Bernoulli-tree
    expectations of linear and quadratic functionals exactly at any depth.
    """

    means: list = field(repr=False)
    second_moments: list = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    provenance: dict

    is_exact_expectation = True

    def expectation_field(self, k: int) -> np.ndarray:
        return self.means[k]

    def nodal_moment(self, left=None, right=None) -> np.ndarray:
        """diag(L P_k R^T) per time node, shape (steps+1, n); None is the identity."""
        out = np.empty((self.mesh.steps + 1, self.grid.n_nodes))
        r = None if right is None else right.toarray()
        for k, p in enumerate(self.second_moments):
            lp = p if left is None else left @ p
            out[k] = np.diagonal(lp) if r is None else np.einsum("ij,ij->i", lp, r)
        return out


def _apply(op, y: np.ndarray) -> np.ndarray:
    """Apply a sparse operator to each row of `y`; None is the identity."""
    return y if op is None else (op @ y.T).T


def step_forward(y: np.ndarray, a_k: np.ndarray, b_k: np.ndarray, db,
                 dt: float, solver: ImplicitHeatSolver) -> np.ndarray:
    """One scheme step; `y` is (n,) or (paths, n), `db` scalar or (paths,)."""
    db = np.asarray(db, dtype=float)
    noise = db[..., None] if db.ndim else db
    rhs = y + dt * a_k * y + b_k * y * noise
    return solver.solve(rhs)


def _increments_and_weights(noise):
    if isinstance(noise, BernoulliTree):
        return noise.leaf_increments(), noise.weights, "tree"
    if isinstance(noise, PathEnsemble):
        return noise.increments, noise.weights, "sampled"
    raise ConfigurationError(f"unsupported noise source {type(noise).__name__}")


def solve_forward(y0: np.ndarray, coeffs: CoefficientField, noise,
                  mesh: TimeMesh, grid: SpatialGrid) -> TrajectoryEnsemble:
    """Iterate the scheme over every path of the noise source."""
    inc, weights, mode = _increments_and_weights(noise)
    if inc.shape[1] != mesh.steps:
        raise ConfigurationError("noise source and time mesh disagree on step count")
    solver = ImplicitHeatSolver(grid, mesh.dt)
    n_paths = inc.shape[0]
    values = np.empty((n_paths, mesh.steps + 1, grid.n_nodes))
    values[:, 0, :] = np.asarray(y0, dtype=float)
    y = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths, grid.n_nodes)).copy()
    for k in range(mesh.steps):
        past = inc[:, :k]
        y = step_forward(y, coeffs.a_at(k, past), coeffs.b_at(k, past),
                         inc[:, k], mesh.dt, solver)
        values[:, k + 1, :] = y
    prov = {"scheme": "implicit-diffusion euler-maruyama", "dt": mesh.dt,
            "h": tuple(grid.h), "mode": mode}
    return TrajectoryEnsemble(values=values, weights=weights, increments=inc,
                              mesh=mesh, grid=grid, provenance=prov)


def solve_forward_moments(y0: np.ndarray, coeffs: CoefficientField,
                          mesh: TimeMesh, grid: SpatialGrid) -> SecondMomentEnsemble:
    """Exact tree-expectation moments E[y] and E[y y^T] (deterministic coeffs)."""
    if coeffs.adapted:
        raise ConfigurationError("moment propagation needs deterministic coefficients")
    solver = ImplicitHeatSolver(grid, mesh.dt)
    y0 = np.asarray(y0, dtype=float)
    means = [y0.copy()]
    moments = [np.outer(y0, y0)]
    dt = mesh.dt
    for k in range(mesh.steps):
        a_k, b_k = coeffs.a[k], coeffs.b[k]
        drift = 1.0 + dt * a_k
        p = moments[-1]
        p1 = drift[:, None] * p * drift[None, :] + dt * (b_k[:, None] * p * b_k[None, :])
        # batch solve acts row-wise: solve(X) = X M^{-1}; two passes give
        # M^{-1} p1 M^{-1} by symmetry of M and p1
        nxt = solver.solve(solver.solve(p1).T)
        nxt = 0.5 * (nxt + nxt.T)
        moments.append(nxt)
        means.append(solver.solve(drift * means[-1]))
    prov = {"scheme": "second-moment recursion", "dt": dt, "h": tuple(grid.h),
            "mode": "exact"}
    return SecondMomentEnsemble(means=means, second_moments=moments,
                                mesh=mesh, grid=grid, provenance=prov)


def solve_semilinear(w0: np.ndarray, m: int, noise, mesh: TimeMesh,
                     grid: SpatialGrid, blowup_cap: float = 1e6):
    """Semilinear equation with noise term w^m dB; returns (ensemble, report).

    Paths whose sup norm exceeds `blowup_cap` are frozen at the offending
    step, flagged, and excluded from the ensemble weights.
    """
    if m < 0 or int(m) != m:
        raise ConfigurationError("semilinear exponent must be a natural number")
    inc, weights, mode = _increments_and_weights(noise)
    solver = ImplicitHeatSolver(grid, mesh.dt)
    n_paths = inc.shape[0]
    values = np.empty((n_paths, mesh.steps + 1, grid.n_nodes))
    values[:, 0, :] = np.asarray(w0, dtype=float)
    w = np.broadcast_to(np.asarray(w0, dtype=float), (n_paths, grid.n_nodes)).copy()
    alive = np.ones(n_paths, dtype=bool)
    blowup_step = np.full(n_paths, -1)
    for k in range(mesh.steps):
        rhs = w + (w ** m) * inc[:, k][:, None]
        w_new = solver.solve(rhs)
        bad = alive & (np.max(np.abs(w_new), axis=1) > blowup_cap)
        blowup_step[bad & (blowup_step < 0)] = k
        alive &= ~bad
        w = np.where(alive[:, None], w_new, w)
        values[:, k + 1, :] = w
    excluded = ~alive
    if excluded.any():
        weights = np.where(excluded, 0.0, weights)
        total = weights.sum()
        if total == 0.0:
            raise NumericalError("every semilinear path blew up; raise the cap")
        weights = weights / total
    ens = TrajectoryEnsemble(values=values, weights=weights, increments=inc,
                             mesh=mesh, grid=grid,
                             provenance={"scheme": "semilinear", "m": m, "dt": mesh.dt,
                                         "h": tuple(grid.h), "mode": mode},
                             excluded=excluded if excluded.any() else None)
    report = {"n_paths": int(n_paths), "n_excluded": int(excluded.sum()),
              "blowup_steps": blowup_step[excluded].tolist()}
    return ens, report


def exp_transform_oracle(ensemble: TrajectoryEnsemble, b_const: float, a,
                         mesh: TimeMesh, grid: SpatialGrid) -> dict:
    """Cross-check pathwise SPDE solutions against the exponential transform.

    For constant noise intensity b, z(t) = exp(-b B(t)) y(t) solves the
    deterministic equation z_t - Lap z = (a - b^2/2) z pathwise (Ito
    correction of the exponential), so y is recovered as exp(b B(t)) z with z
    independent of the path.  Returns the max-over-time relative L2 gap per
    path.
    """
    if np.ndim(b_const) != 0:
        raise ConfigurationError("the transform oracle needs constant b")
    solver = ImplicitHeatSolver(grid, mesh.dt)
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim == 0:
        a_arr = np.full(grid.n_nodes, float(a_arr))
    z = ensemble.values[0, 0, :].copy()
    z_path = [z.copy()]
    pot = a_arr - 0.5 * float(b_const) ** 2
    for _ in range(mesh.steps):
        z = solver.solve(z + mesh.dt * pot * z)
        z_path.append(z.copy())
    z_path = np.asarray(z_path)
    bm = np.concatenate([np.zeros((ensemble.n_paths, 1)),
                         np.cumsum(ensemble.increments, axis=1)], axis=1)
    recon = np.exp(float(b_const) * bm)[:, :, None] * z_path[None, :, :]
    diff = grid.l2_norm(recon - ensemble.values)
    scale = np.maximum(grid.l2_norm(ensemble.values), 1e-300)
    gaps = np.max(diff / scale, axis=1)
    return {"per_path_gap": gaps, "max_gap": float(np.max(gaps)),
            "mean_gap": float(np.mean(gaps))}


def energy_trace(ens) -> np.ndarray:
    """E ||y(t_k)||^2_{L2(G)} over the time nodes (exact in tree/moment mode)."""
    return ens.grid.quad_weight * ens.nodal_moment().sum(axis=1)


def local_mass_trace(ens, mask: np.ndarray) -> np.ndarray:
    """E of the squared mass restricted to a node mask, per time node."""
    return ens.grid.quad_weight * (ens.nodal_moment() @ mask.astype(float))


def step_invertibility_report(coeffs: CoefficientField,
                              ensemble: TrajectoryEnsemble) -> dict:
    """Audit the nodal step factors 1 + dt*a + b*dB for degeneracy.

    Each step is the composition of an invertible implicit solve and a nodal
    multiplication; a factor below tolerance breaks the backward-uniqueness
    argument at the discrete level and is flagged instead of asserted.
    """
    dt = ensemble.mesh.dt
    min_factor = np.inf
    flagged = []
    for k in range(ensemble.mesh.steps):
        past = ensemble.increments[:, :k]
        factors = 1.0 + dt * coeffs.a_at(k, past) + \
            coeffs.b_at(k, past) * ensemble.increments[:, k][:, None]
        m = float(np.min(np.abs(factors)))
        min_factor = min(min_factor, m)
        if m < DEGENERATE_STEP_TOL:
            flagged.append(k)
    return {"min_factor": min_factor, "degenerate_steps": flagged,
            "invertible": not flagged}
