"""Pathwise solvers for the forward stochastic heat equation.

Scheme: diffusion-implicit, reaction/noise-explicit Euler-Maruyama,

    (I - dt*Lap_h) y_{k+1} = (1 + dt*a_k + b_k dB_k) y_k,

which keeps the Ito evaluation point of the noise; a and b are deterministic
arrays indexed by step, and `step_factors` gives the nodal factor of every
solve.  All solves share one `ImplicitHeatSolver` per (grid, dt), the exact
inverse of I - dt*Lap_h as dense sine-basis products per axis.  Each
forward solve returns one `Ensemble`: one array of weighted rows per time
node, shape (steps+1, r, n).  The rows are sampled paths, the 2^d leaves
of a Bernoulli tree (each of weight 2^-d, all iterated by the one path
loop of `solve_forward`), or the thin factors Z of E[y y^T] = Z^T Z from
`solve_forward_moments`.  Those exact moments reproduce tree expectations
of quadratic functionals at any depth without enumerating paths, so
tree-mode surveys run them and the forward tree solve is the tests'
brute-force reference.  Coefficients uniform over the nodes give them in
closed form, one rank-one row per step from
`ImplicitHeatSolver.solve_powers`; space-varying ones run the recursion
with a thin SVD per step, padded to its largest rank with zero rows.  The
dual and adjoint solves of `control` run on history levels instead:
`tree_step` takes level k to level k+1 of the history tree (`tree_levels`),
and `tree_step_adjoint` is its transpose.  `energy_trace` reads the energy,
or the mass on a node mask, per time node from any ensemble (`moment_trace`
from one `nodal_moment` pass), and `Ensemble.values` is a writable view of
the rows by path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError, NumericalError
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
# natural log of the largest float: a closed-form moment level whose log
# magnitude exceeds it overflows
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))
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

    def solve_powers(self, rhs: np.ndarray, steps: int) -> np.ndarray:
        """M^{-k} rhs for k = 0..steps, shape (steps+1, n), M = I - dt*Lap_h:
        one forward sine transform of rhs, the powers of the inverse
        diagonal, and one batched back-transform (in 2-D one product with
        each axis' sine matrix).  Row 0 is rhs itself."""
        rhs = np.asarray(rhs, dtype=float)
        out = np.empty((steps + 1, rhs.size))
        out[0] = rhs
        # the spectral coefficients inverse^k * (S rhs) fill rows 1.. first
        spectral = out[1:].reshape((steps,) + self.shape)
        k = np.arange(1, steps + 1).reshape((-1,) + (1,) * len(self.shape))
        np.power(self._inverse, k, out=spectral)
        if len(self.shape) == 1:
            (s,) = self._sines
            spectral *= rhs @ s
            out[1:] = spectral @ s
        else:
            s1, s2 = self._sines
            spectral *= s1 @ rhs.reshape(self.shape) @ s2
            np.matmul(s1, spectral @ s2, out=spectral)
        return out


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
    """Weighted solution rows per time node: rows has shape (steps+1, r,
    n_nodes) and weights shape (steps+1, r), and an expectation at time
    node k is the weighted sum over rows[k].  The rows are paths (sampled
    ones, or the 2^d leaves of a Bernoulli tree) or the thin factors of
    the second moments; increments[:, k] are the increments of step k, one
    row per path or tree move."""

    rows: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    increments: np.ndarray = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    provenance: dict

    @property
    def values(self) -> np.ndarray:
        """The rows by row (path) first, shape (r, steps+1, n_nodes): a
        writable view of `rows`."""
        return self.rows.swapaxes(0, 1)

    def nodal_moment(self, integrand=np.square) -> np.ndarray:
        """E[f(y(t_k))] per time node, the weighted sum over rows[k]:
        `integrand` f maps rows (..., n) to nodal values (..., n), with any
        stacked outputs in front, and the result has shape (..., steps+1,
        n).  f runs on (time, row) tiles of about MOMENT_BLOCK_BYTES, so a
        tile stays in cache and the calls of f do not grow with the number
        of time nodes.  NumericalError names the first time node whose
        expectation is not finite."""
        nodes, r, n = self.rows.shape
        block = max(1, MOMENT_BLOCK_BYTES // (8 * n))
        row_block = min(r, block)
        time_block = max(1, block // row_block)
        out = None
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(0, nodes, time_block):
                for p in range(0, r, row_block):
                    tile = np.s_[t:t + time_block, p:p + row_block]
                    fy = integrand(self.rows[tile])
                    if out is None:
                        out = np.zeros(fy.shape[:-3] + (nodes, n))
                    out[..., t:t + time_block, :] += np.einsum(
                        "kr,...kri->...ki", self.weights[tile], fy)
        finite = np.isfinite(out).reshape(-1, nodes, n).all(axis=(0, 2))
        if not finite.all():
            raise NumericalError(
                f"expectation not finite at time node {int(np.argmin(finite))}"
                f" of {nodes - 1}")
        return out


@dataclass
class SecondMomentEnsemble(Ensemble):
    """Exact expectation surrogate for deterministic coefficients: rows[k]
    is a factor Z_k with E[y(t_k) y(t_k)^T] = Z_k^T Z_k, padded with zero
    rows to the largest rank, under unit weights, and means[k] = E[y(t_k)],
    shape (steps+1, n_nodes); it reproduces Bernoulli-tree expectations of
    linear and quadratic functionals at any depth.  Its rows are not
    paths."""

    means: np.ndarray = field(repr=False)

    @property
    def second_moments(self) -> np.ndarray:
        return self.rows


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
    """Iterate the scheme on every path of the noise, one row per path at
    every time node: the sampled paths of a `PathEnsemble`, or the 2^d
    leaves of a `BernoulliTree`.  The tree is the brute-force reference
    against which the tests check `solve_forward_moments`, which tree-mode
    surveys run instead."""
    if not isinstance(noise, (BernoulliTree, PathEnsemble)):
        raise ConfigurationError(f"unsupported noise source {type(noise).__name__}")
    inc = noise.increments
    if inc.shape[1] != mesh.steps:
        raise ConfigurationError("noise source and time mesh disagree on step count")
    solver = implicit_solver(grid, mesh.dt)
    rows = np.empty((mesh.steps + 1, len(inc), grid.n_nodes))
    rows[0] = y0
    for k in range(mesh.steps):
        rows[k + 1] = solver.solve(
            rows[k] * step_factors(coeffs, k, mesh.dt, inc[:, k]))
    tree = isinstance(noise, BernoulliTree)
    prov = {"scheme": "implicit-diffusion euler-maruyama", "dt": mesh.dt,
            "h": tuple(grid.h), "mode": "tree" if tree else "sampled"}
    return Ensemble(rows, np.broadcast_to(noise.weights, rows.shape[:2]), inc,
                    mesh, grid, prov)


def solve_forward_moments(y0: np.ndarray, coeffs: CoefficientField,
                          mesh: TimeMesh, grid: SpatialGrid) -> SecondMomentEnsemble:
    """Exact tree-expectation moments E[y] and E[y y^T] = Z^T Z.

    With d = 1 + dt*a_k and M = I - dt*Lap_h, the second moments follow
    P_{k+1} = M^{-1} ((d d^T + dt b_k b_k^T) o P_k) M^{-1} and the means
    E[y_{k+1}] = M^{-1} (d * E[y_k]).  Two paths build them:

    - closed form, when every a_k and b_k is uniform over the nodes
      (constant coefficients, or values that vary in time only): P stays
      rank one, Z_k = (c_0...c_{k-1}) M^{-k} y0 with the step scalars
      c_j = sqrt(d_j^2 + dt b_j^2), and E[y_k] = (d_0...d_{k-1}) M^{-k} y0,
      every M^{-k} y0 from one `ImplicitHeatSolver.solve_powers`;
    - otherwise the recursion: the factor rows z of P_k map to the rows
      M^{-1}(d*z) and sqrt(dt) M^{-1}(b_k*z), and a thin SVD recompresses
      them to s*V^T, dropping singular values below MOMENT_RANK_TOL of the
      largest.

    The factors are the rows of the ensemble, one per time node in closed
    form, padded with zero rows to the largest rank in the recursion; a
    time node whose factor vanishes has rank 0 and only zero rows on both
    paths.  provenance records the path as `scheme`, the rank and the
    discarded sum of sigma^2 (a trace-norm bound on the truncation; 0 in
    closed form) per time node.  NumericalError names the first step whose factor or mean
    is not finite; the closed form decides it on the log of the products,
    so no overflow warning is raised.
    """
    solver = implicit_solver(grid, mesh.dt)
    y0 = np.asarray(y0, dtype=float)
    a, b = coeffs.a, coeffs.b
    if (a == a[:, :1]).all() and (b == b[:, :1]).all():
        scheme = "closed-form moments"
        rows, rank, means, tails = _closed_form_moments(
            y0, a[:, 0], b[:, 0], mesh, solver)
    else:
        scheme = "second-moment recursion"
        rows, rank, means, tails = _recursive_moments(y0, coeffs, mesh, solver)
    prov = {"scheme": scheme, "dt": mesh.dt, "h": tuple(grid.h),
            "mode": "exact", "rank": rank, "discarded_tail": tails}
    return SecondMomentEnsemble(
        rows=rows, weights=np.ones(rows.shape[:2]),
        increments=np.repeat(tree_moves(mesh.dt)[:, None], mesh.steps, axis=1),
        mesh=mesh, grid=grid, provenance=prov, means=means)


def _overflow(steps: int, k: int) -> NumericalError:
    return NumericalError(
        f"moment factor or mean not finite at step {k} of {steps}")


def _closed_form_moments(y0, a, b, mesh, solver):
    """Factor rows, ranks and means for coefficients a, b uniform over the
    nodes, one value per step: one row (c_0...c_{k-1}) M^{-k} y0 per time
    node, a zero row where it vanishes."""
    dt = mesh.dt
    orbit = solver.solve_powers(y0, mesh.steps)
    with np.errstate(all="ignore"):  # overflow is judged on the logs below
        d = 1.0 + dt * a
        c = np.hypot(d, np.sqrt(dt) * b)
        log_c, log_d = (np.concatenate([[0.0], np.cumsum(np.log(np.abs(f)))])
                        for f in (c, d))
        log_row = np.log(np.max(np.abs(orbit), axis=1))
        # level k overflows when a product, or the product times the largest
        # entry of M^{-k} y0, exceeds the largest float (fmax skips inf - inf)
        over = np.fmax.reduce([log_c, log_c + log_row,
                               log_d, log_d + log_row]) > LOG_FLOAT_MAX
    if over.any():
        raise _overflow(mesh.steps, int(np.argmax(over)))
    z = orbit * np.concatenate([[1.0], np.cumprod(c)])[:, None]
    orbit *= np.concatenate([[1.0], np.cumprod(d)])[:, None]
    rank = z.any(axis=1).astype(int)
    rank[0] = 1  # level 0 is y0, as in the recursion
    return z[:, None], rank.tolist(), orbit, [0.0] * len(z)


def _recursive_moments(y0, coeffs, mesh, solver):
    """Factor rows (padded with zero rows to the largest rank), ranks,
    means and discarded tails of the second-moment recursion."""
    dt = mesh.dt
    means = [y0.copy()]
    factors = [y0[None, :].copy()]
    tails = [0.0]
    # overflow is raised as NumericalError below, and a tail may read inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(mesh.steps):
            drift = 1.0 + dt * coeffs.a[k]
            z = factors[-1]
            # the mean row is solved with the factors and copied out of the block
            stacked = solver.solve(np.concatenate(
                [drift * z, np.sqrt(dt) * coeffs.b[k] * z, drift * means[-1][None]]))
            if not np.isfinite(stacked).all():
                raise _overflow(mesh.steps, k + 1)
            means.append(stacked[-1].copy())
            _, s, vt = np.linalg.svd(stacked[:-1], full_matrices=False)
            keep = s > MOMENT_RANK_TOL * s[:1]  # s[:1] is empty for an empty factor
            factors.append(s[keep, None] * vt[keep])
            tails.append(float(np.sum(s[~keep] ** 2)))
    rank = [len(z) for z in factors]
    rows = np.zeros((len(factors), max(rank), len(y0)))
    for row, z in zip(rows, factors):
        row[:len(z)] = z
    return rows, rank, np.stack(means), tails


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
    values = ensemble.values
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
    # an overflowing exp(b B) reads inf, and the gap with it
    with np.errstate(over="ignore", invalid="ignore"):
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
