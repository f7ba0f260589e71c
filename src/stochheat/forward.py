"""Pathwise solvers for the forward stochastic heat equation.

Scheme: diffusion-implicit, reaction/noise-explicit Euler-Maruyama,

    (I - dt*Lap_h) y_{k+1} = (1 + dt*a_k + b_k dB_k) y_k,

which keeps the Ito evaluation point of the noise; a and b are deterministic
arrays indexed by step, and `step_factors` gives the nodal factor of every
solve.  Every tree solve (this one and the dual and adjoint solves of
`control`) is `tree_step`, level k to level k+1 of the history tree, or its
transpose `tree_step_adjoint`; all solves share one `ImplicitHeatSolver`
per (grid, dt), the exact inverse of I - dt*Lap_h as dense sine-basis
products per axis.  Each solve returns one `Ensemble`: weighted rows per
time node, which are sampled paths, tree history levels, or the thin
factors Z of E[y y^T] = Z^T Z from the exact second-moment recursion.
That recursion reproduces tree expectations of quadratic functionals at any
depth without enumerating paths, so tree-mode surveys run it and the forward
tree solve is the tests' brute-force reference.  `energy_trace` reads the
energy, or the mass on a node mask, per time node from any of them
(`moment_trace` from one `nodal_moment` pass); `Ensemble.values`, a leaf
view of the levels, is kept for the benchmark.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError, ShapeError
from .geometry import SpatialGrid
from .noise import BernoulliTree, PathEnsemble, TimeMesh

__all__ = [
    "CoefficientField",
    "Ensemble",
    "SecondMomentEnsemble",
    "ImplicitHeatSolver",
    "implicit_solver",
    "step_factors",
    "tree_moves",
    "tree_step",
    "tree_levels",
    "tree_step_adjoint",
    "solve_forward",
    "solve_forward_moments",
    "exp_transform_oracle",
    "energy_trace",
    "moment_trace",
    "step_invertibility_report",
]

DEGENERATE_STEP_TOL = 1e-12
# singular values of a moment factor below this fraction of the largest are
# dropped: eigenvalues of E[y y^T] below 1e-18 of the largest
MOMENT_RANK_TOL = 1e-9
# bytes of the row blocks on which nodal_moment evaluates its integrand; a
# field build stacks four outputs per block, which at 256 KB blocks raised
# the peak memory of a 1-D survey by about 2 MB
MOMENT_BLOCK_BYTES = 1 << 17


class ImplicitHeatSolver:
    """Exact solve of (I - dt*Lap_h + shift) u = rhs in the sine eigenbasis.

    Per axis, the Dirichlet 3-point Laplacian is S diag(lam) S with the
    orthogonal, symmetric sine matrix S_ij = sqrt(2/(n+1)) sin(pi ij/(n+1))
    and lam_j = -(4/h^2) sin^2(pi j/(2(n+1))), so the inverse is a product
    of dense S per axis around a diagonal (the matrix-decomposition solver
    of Buzbee, Golub & Nielson, SINUM 1970).  Memory is O(n1^2 + n2^2).
    """

    def __init__(self, grid: SpatialGrid, dt: float):
        self.shape = grid.shape
        self._sines, lams = [], []
        for n, h in zip(grid.shape, grid.h):
            j = np.arange(1, n + 1)
            self._sines.append(np.sqrt(2.0 / (n + 1))
                               * np.sin(np.pi * np.outer(j, j) / (n + 1)))
            lams.append(-(4.0 / h**2) * np.sin(np.pi * j / (2 * (n + 1))) ** 2)
        lam = lams[0] if grid.dim == 1 else lams[0][:, None] + lams[1][None, :]
        self._diag = 1.0 - dt * lam
        self._inverse = 1.0 / self._diag

    def solve(self, rhs: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """Solve for one field (n,) or a batch (..., n); `shift` is a scalar
        added to the diagonal of I - dt*Lap_h."""
        rhs = np.asarray(rhs, dtype=float)
        inverse = self._inverse if shift == 0.0 else 1.0 / (self._diag + shift)
        flat = rhs.reshape(-1, rhs.shape[-1])
        if len(self.shape) == 1:
            (s,) = self._sines
            return (((flat @ s) * inverse) @ s).reshape(rhs.shape)
        (n1, n2), (s1, s2) = self.shape, self._sines
        # axis 2, then axis 1 on the transposed (r, n2, n1) view, and back
        c = (flat.reshape(-1, n2) @ s2).reshape(-1, n1, n2)
        c = (c.transpose(0, 2, 1).reshape(-1, n1) @ s1).reshape(-1, n2, n1)
        c = ((c * inverse.T).reshape(-1, n1) @ s1).reshape(-1, n2, n1)
        return (c.transpose(0, 2, 1).reshape(-1, n2) @ s2).reshape(rhs.shape)


# grid -> {dt: solver}; solvers hold no reference to their grid
_SOLVERS = weakref.WeakKeyDictionary()


def implicit_solver(grid: SpatialGrid, dt: float) -> ImplicitHeatSolver:
    """The sine-basis solver of I - dt*Lap_h, built once per (grid, dt)."""
    per_grid = _SOLVERS.setdefault(grid, {})
    if dt not in per_grid:
        per_grid[dt] = ImplicitHeatSolver(grid, dt)
    return per_grid[dt]


class CoefficientField:
    """Coefficients a (potential) and b (noise intensity) on the grid.

    Deterministic arrays of shape (steps, n_nodes), indexed by step; sup
    norms and the W^{1,inf} norm of b are cached.
    """

    def __init__(self, grid: SpatialGrid, mesh: TimeMesh, a, b):
        self.grid = grid
        self.mesh = mesh
        self.a = self._materialize(a)
        self.b = self._materialize(b)
        self.b_grad = grid.field_gradient(self.b)
        self.sup_a = float(np.max(np.abs(self.a)))
        grad_sup = float(np.max(np.abs(self.b_grad))) if self.b_grad.size else 0.0
        self.sup_b_w1inf = max(float(np.max(np.abs(self.b))), grad_sup)

    def _materialize(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        target = (self.mesh.steps, self.grid.n_nodes)
        if arr.shape in ((), (1,), (target[1],)):
            arr = np.broadcast_to(arr, target)
        if arr.shape != target:
            raise ConfigurationError(
                f"coefficient shape {arr.shape} incompatible with {target}")
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
        rng = Generator(Philox(key=[int(seed), 0x5eed]))
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

    def sup_b_over(self, mask: np.ndarray) -> float:
        """W^{1,inf} norm of b restricted to a node mask (e.g. supp phi)."""
        vals = float(np.max(np.abs(self.b[:, mask]))) if mask.any() else 0.0
        grads = float(np.max(np.abs(self.b_grad[:, mask, :]))) if mask.any() else 0.0
        return max(vals, grads)


@dataclass
class Ensemble:
    """Solution rows per time node: levels[k] has shape (r_k, n_nodes) and
    weights[k] shape (r_k,), and an expectation is the weighted sum over the
    rows of a level.  Sampled paths are the rows of every level, weighted by
    the noise; a tree solve has its history levels, node h of level k having
    the children 2h (down) and 2h+1 (up) and weight 2^-k.  increments[:, k]
    are the increments of step k, one row per path or tree move."""

    levels: list = field(repr=False)
    weights: list = field(repr=False)
    increments: np.ndarray = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    provenance: dict

    @property
    def values(self) -> "LeafHistories":
        """The histories indexed by path, shape (paths, steps+1, n_nodes)."""
        return LeafHistories(self.levels)

    def nodal_moment(self, integrand=np.square) -> np.ndarray:
        """E[f(y(t_k))] per time node, summed over the weighted rows of each
        level: `integrand` f maps an (r, n) block of rows to nodal values
        (..., r, n), and the result has shape (..., steps+1, n).  f runs on
        blocks of about MOMENT_BLOCK_BYTES of rows: large levels are split
        and small consecutive levels joined, so a block stays in cache and
        the calls of f do not grow with the number of levels.  A block
        holds at most one part of a level, and each run of consecutive
        parts of equal length is contracted in one step."""
        rows = max(1, MOMENT_BLOCK_BYTES // (8 * self.grid.n_nodes))
        out = None

        def contract(parts):  # parts: (level, weights, rows) of one block
            nonlocal out
            if len(parts) > 1:
                y = np.concatenate([p[2] for p in parts])
                w = np.concatenate([p[1] for p in parts])
            else:
                (_, w, y), = parts
            fy = integrand(y)
            if out is None:
                out = np.zeros(fy.shape[:-2] + (len(self.levels), y.shape[1]))
            start = 0
            for r, run in groupby(parts, key=lambda p: len(p[2])):
                ks = [p[0] for p in run]
                stop = start + len(ks) * r
                # (q, r) weights against the (..., q, r, n) view of the run
                out[..., ks, :] += np.einsum(
                    "qp,...qpi->...qi", w[start:stop].reshape(-1, r),
                    fy[..., start:stop, :].reshape(
                        fy.shape[:-2] + (len(ks), r, fy.shape[-1])))
                start = stop

        parts, size = [], 0
        for k, (w, y) in enumerate(zip(self.weights, self.levels)):
            for lo in range(0, len(y), rows):
                parts.append((k, w[lo:lo + rows], y[lo:lo + rows]))
                size += len(parts[-1][2])
                if size >= rows:
                    contract(parts)
                    parts, size = [], 0
        if parts:
            contract(parts)
        return out


class LeafHistories:
    """Levels read by path, shape (n_paths, d+1, n), n_paths = r_d: path l at
    time node k is row l // (n_paths // r_k) of level k (on a tree, node
    l >> (d - k)).  Indexing builds the array; assigning writes it back into
    the levels, so paths sharing a row must agree.  No solver reads it: it is
    kept as the benchmark's reader and writer of ensembles."""

    def __init__(self, levels: list):
        self.levels = levels

    def __array__(self, dtype=None, copy=None):
        n_paths = len(self.levels[-1])
        return np.stack([np.repeat(y, n_paths // len(y), axis=0)
                         for y in self.levels], axis=1)

    def __getitem__(self, key):
        return np.asarray(self)[key]

    def __setitem__(self, key, value):
        paths = np.asarray(self)
        paths[key] = value
        rows = [paths[::len(paths) // len(y), k]
                for k, y in enumerate(self.levels)]
        if not np.array_equal(np.asarray(LeafHistories(rows)), paths):
            raise ShapeError("paths that share a history node must agree")
        for y, row in zip(self.levels, rows):
            y[...] = row


@dataclass
class SecondMomentEnsemble(Ensemble):
    """Exact expectation surrogate for deterministic coefficients: levels[k]
    is a factor Z_k with E[y(t_k) y(t_k)^T] = Z_k^T Z_k and unit weights, and
    means[k] = E[y(t_k)]; it reproduces Bernoulli-tree expectations of linear
    and quadratic functionals at any depth.  Its rows are not paths."""

    means: list = field(repr=False)

    @property
    def second_moments(self) -> list:
        return self.levels


def tree_moves(dt: float) -> np.ndarray:
    """The down and up increment -/+ sqrt(dt) of a tree step."""
    return np.sqrt(dt) * np.array([-1.0, 1.0])


def step_factors(coeffs: CoefficientField, k: int, dt: float, db,
                 sign: float = 1.0) -> np.ndarray:
    """Nodal factors 1 + sign*dt*a_k + b_k*dB of step k, one row per
    increment dB of `db`; sign = -1 gives the dual scheme of `control`."""
    return 1.0 + sign * dt * coeffs.a[k] + coeffs.b[k] * np.asarray(db)[:, None]


def tree_step(level: np.ndarray, down: np.ndarray, up: np.ndarray,
              solver: ImplicitHeatSolver) -> np.ndarray:
    """History level k, shape (2^k, n), to level k+1: the children 2h and
    2h+1 of node h get the nodal factors `down` and `up`, then one batched
    implicit solve runs."""
    children = np.stack([level * down, level * up], axis=1)
    return solver.solve(children.reshape(-1, level.shape[1]))


def tree_levels(y0: np.ndarray, coeffs: CoefficientField, mesh: TimeMesh,
                grid: SpatialGrid, sign: float = 1.0) -> list:
    """History levels 0..steps of the tree solve from y0: `tree_step` with
    the `step_factors` (of `sign`) of the down and up move."""
    solver = implicit_solver(grid, mesh.dt)
    moves = tree_moves(mesh.dt)
    levels = [np.asarray(y0, dtype=float)[None, :].copy()]
    for k in range(mesh.steps):
        levels.append(tree_step(
            levels[-1], *step_factors(coeffs, k, mesh.dt, moves, sign), solver))
    return levels


def tree_step_adjoint(z_next: np.ndarray, down: np.ndarray, up: np.ndarray,
                      solver: ImplicitHeatSolver):
    """Exact transpose of `tree_step` under the level-mean pairing; returns
    z at level k and the solved children M^{-1} z_{k+1} (M is symmetric)."""
    solved = solver.solve(z_next)
    return 0.5 * (down * solved[0::2] + up * solved[1::2]), solved


def solve_forward(y0: np.ndarray, coeffs: CoefficientField, noise,
                  mesh: TimeMesh, grid: SpatialGrid) -> Ensemble:
    """Iterate the scheme: a `BernoulliTree` gives its history levels
    (`tree_levels`), sampled paths one row per path at every time node.
    The tree branch is the brute-force reference against which the tests
    check `solve_forward_moments`, which tree-mode surveys run instead."""
    y0 = np.asarray(y0, dtype=float)
    tree = isinstance(noise, BernoulliTree)
    if not tree and not isinstance(noise, PathEnsemble):
        raise ConfigurationError(f"unsupported noise source {type(noise).__name__}")
    inc = np.repeat(tree_moves(mesh.dt)[:, None], noise.depth, axis=1) \
        if tree else noise.increments
    if inc.shape[1] != mesh.steps:
        raise ConfigurationError("noise source and time mesh disagree on step count")
    if tree:
        levels = tree_levels(y0, coeffs, mesh, grid)
        weights = [np.full(2 ** k, 2.0 ** -k) for k in range(mesh.steps + 1)]
    else:
        solver = implicit_solver(grid, mesh.dt)
        levels = [np.tile(y0, (len(inc), 1))]
        for k in range(mesh.steps):
            levels.append(solver.solve(
                levels[-1] * step_factors(coeffs, k, mesh.dt, inc[:, k])))
        weights = [noise.weights] * (mesh.steps + 1)
    prov = {"scheme": "implicit-diffusion euler-maruyama", "dt": mesh.dt,
            "h": tuple(grid.h), "mode": "tree" if tree else "sampled"}
    return Ensemble(levels, weights, inc, mesh, grid, prov)


def solve_forward_moments(y0: np.ndarray, coeffs: CoefficientField,
                          mesh: TimeMesh, grid: SpatialGrid) -> SecondMomentEnsemble:
    """Exact tree-expectation moments E[y] and E[y y^T] = Z^T Z.

    With d = 1 + dt*a_k and M = I - dt*Lap_h, the recursion
    P_{k+1} = M^{-1} ((d d^T + dt b_k b_k^T) o P_k) M^{-1} maps the factor
    rows z of P_k = Z_k^T Z_k to the rows M^{-1}(d*z) and sqrt(dt) M^{-1}(b_k*z);
    a thin SVD recompresses them to s*V^T, dropping singular values below
    MOMENT_RANK_TOL of the largest.  Constant coefficients keep rank one.
    provenance records the rank and the discarded sum of sigma^2 (a
    trace-norm bound on the truncation) per time node.
    """
    solver = implicit_solver(grid, mesh.dt)
    y0 = np.asarray(y0, dtype=float)
    dt = mesh.dt
    means = [y0.copy()]
    factors = [y0[None, :].copy()]
    tails = [0.0]
    for k in range(mesh.steps):
        drift = 1.0 + dt * coeffs.a[k]
        z = factors[-1]
        # the mean row is solved with the factors and copied out of the block
        stacked = solver.solve(np.concatenate(
            [drift * z, np.sqrt(dt) * coeffs.b[k] * z, drift * means[-1][None]]))
        means.append(stacked[-1].copy())
        _, s, vt = np.linalg.svd(stacked[:-1], full_matrices=False)
        keep = s > MOMENT_RANK_TOL * s[:1]  # s[:1] is empty for an empty factor
        factors.append(s[keep, None] * vt[keep])
        tails.append(float(np.sum(s[~keep] ** 2)))
    prov = {"scheme": "second-moment recursion", "dt": dt, "h": tuple(grid.h),
            "mode": "exact", "rank": [len(z) for z in factors],
            "discarded_tail": tails}
    return SecondMomentEnsemble(
        levels=factors, weights=[np.ones(len(z)) for z in factors],
        increments=np.repeat(tree_moves(dt)[:, None], mesh.steps, axis=1),
        mesh=mesh, grid=grid, provenance=prov, means=means)


def exp_transform_oracle(ensemble: Ensemble, b_const: float, a) -> dict:
    """Cross-check pathwise SPDE solutions against the exponential transform.

    For constant noise intensity b, z(t) = exp(-b B(t)) y(t) solves the
    deterministic equation z_t - Lap z = (a - b^2/2) z pathwise (Ito
    correction of the exponential), so y is recovered as exp(b B(t)) z with z
    independent of the path.  Returns the max-over-time relative L2 gap per
    path of a sampled ensemble.
    """
    if np.ndim(b_const) != 0:
        raise ConfigurationError("the transform oracle needs constant b")
    if ensemble.provenance["mode"] != "sampled":
        raise ConfigurationError("the transform oracle needs sampled paths")
    mesh, grid = ensemble.mesh, ensemble.grid
    values = np.stack(ensemble.levels, axis=1)
    solver = implicit_solver(grid, mesh.dt)
    z = values[0, 0, :].copy()
    z_path = [z.copy()]
    pot = np.asarray(a, dtype=float) - 0.5 * float(b_const) ** 2
    for _ in range(mesh.steps):
        z = solver.solve(z + mesh.dt * pot * z)
        z_path.append(z.copy())
    z_path = np.asarray(z_path)
    bm = np.concatenate([np.zeros((len(values), 1)),
                         np.cumsum(ensemble.increments, axis=1)], axis=1)
    recon = np.exp(float(b_const) * bm)[:, :, None] * z_path[None, :, :]
    diff = grid.l2_norm(recon - values)
    scale = np.maximum(grid.l2_norm(values), 1e-300)
    gaps = np.max(diff / scale, axis=1)
    return {"per_path_gap": gaps, "max_gap": float(np.max(gaps)),
            "mean_gap": float(np.mean(gaps))}


def energy_trace(ens, mask: np.ndarray | None = None) -> np.ndarray:
    """E ||y(t_k)||^2_{L2(G)} over the time nodes, or with a node mask the
    squared mass on the masked nodes (exact in tree/moment mode)."""
    return moment_trace(ens.nodal_moment(), ens.grid, mask)


def moment_trace(moment: np.ndarray, grid: SpatialGrid,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """`energy_trace` from a `nodal_moment()` array already computed, so
    one moment pass serves several traces."""
    return grid.quad_weight * (
        moment.sum(axis=1) if mask is None else moment @ mask.astype(float))


def step_invertibility_report(coeffs: CoefficientField, ensemble) -> dict:
    """Audit the nodal step factors 1 + dt*a + b*dB for degeneracy.

    Each step is the composition of an invertible implicit solve and a nodal
    multiplication; a factor below tolerance breaks the backward-uniqueness
    argument at the discrete level and is flagged instead of asserted.
    `min_factor` is the signed minimum and `sign_loss_steps` lists the steps
    with a factor <= 0, where the scheme no longer preserves sign.  The
    scheme's step sizes are reported beside them: `b_sqrt_dt` = max|b|
    sqrt(dt) and `a_dt` = max|a| dt, with `noise_step_large` when b sqrt(dt)
    >= 1, where one noise increment can outweigh the state (Higham, SIAM
    Review 2001).
    """
    dt = ensemble.mesh.dt
    min_factor = np.inf
    flagged, sign_loss = [], []
    for k in range(ensemble.mesh.steps):
        factors = step_factors(coeffs, k, dt, ensemble.increments[:, k])
        lowest = float(np.min(factors))
        min_factor = min(min_factor, lowest)
        if lowest <= 0.0:
            sign_loss.append(k)
        if np.min(np.abs(factors)) < DEGENERATE_STEP_TOL:
            flagged.append(k)
    b_sqrt_dt = float(np.max(np.abs(coeffs.b)) * np.sqrt(dt))
    return {"min_factor": min_factor, "sign_loss_steps": sign_loss,
            "degenerate_steps": flagged, "invertible": not flagged,
            "b_sqrt_dt": b_sqrt_dt, "a_dt": coeffs.sup_a * dt,
            "noise_step_large": b_sqrt_dt >= 1.0}
