"""Pathwise solvers for the forward stochastic heat equation.

Scheme: diffusion-implicit, reaction/noise-explicit Euler-Maruyama,

    (I - dt*Lap_h) y_{k+1} = (1 + dt*a_k + b_k dB_k) y_k,

which keeps the Ito evaluation point of the noise.  A `CoefficientField`
stores a and b in their own shapes, one row when constant in time and one
column when uniform over the nodes (`node_uniform`), and `step_factors`
broadcasts them into the one table of the factors 1 + sign*dt*a_k + b_k*dB
per step, increment and node column, which every solve, path scalar and
audit reads.  All solves share one `ImplicitHeatSolver` per (grid, dt), the
exact inverse of I - dt*Lap_h as a diagonal between two sine transforms.
A forward solve returns an `Ensemble`, weighted rows per time node, shape
(steps+1, r, n): sampled paths or the 2^d tree leaves of `solve_forward`,
which mc mode runs on nodal coefficients and which is the brute-force
reference of the closed forms, or the thin factors Z of E[y y^T] = Z^T Z
of `solve_forward_moments`, the exact tree expectations.  Node-uniform
coefficients make every path a path scalar times the orbit M^{-k} y0: the
moments are one rank-one row per time node, from the tree means of the
table's (down, up) scalars or from the sampled path scalars
(`solve_sampled_moments`, which also give `exp_transform_oracle` its
paths), and `OrbitRows` hold them in spectral form, y0, its sine
coefficients and a scale per time node, forming the rows of a span of time
nodes when indexed (`ImplicitHeatSolver.solve_powers` forms every one), so
a `nodal_moment` pass holds one tile of rows at a time; otherwise the
moment recursion is a `tree_step` and a thin SVD per step, and mc mode
solves every path.  The dual and adjoint solves of `control` run on
history levels (`tree_step`, factored as `FactoredLevels` for node-uniform
coefficients) and on sine coefficients.  `energy_trace` reads the energy,
or the mass on a node mask, per time node (`moment_trace` from one
`nodal_moment` pass); `Ensemble.values` is a writable view of the rows by
path (`OrbitRows` are formed on its first read and kept), except the
sampled closed form's, its paths, formed on each read and read-only, as
are the closed forms' `means`.
"""

from __future__ import annotations

import copy
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError, NumericalError
from .geometry import SpatialGrid
from .noise import BernoulliTree, PathEnsemble, TimeMesh

__all__ = [
    "CoefficientField",
    "Ensemble",
    "SecondMomentEnsemble",
    "SampledMomentEnsemble",
    "ImplicitHeatSolver",
    "OrbitRows",
    "implicit_solver",
    "step_factors",
    "tree_products",
    "FactoredLevels",
    "tree_moves",
    "tree_step",
    "solve_forward",
    "solve_forward_moments",
    "solve_sampled_moments",
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
# bytes of the row blocks on which nodal_moment evaluates its integrand (a
# pass stacks up to five outputs per block, and four at 256 KB blocks raised
# the peak memory of a 1-D survey by about 2 MB) and OrbitRows transform
# their rows back: a closed-form pass forms one such block of rows at a time
MOMENT_BLOCK_BYTES = 1 << 17


class ImplicitHeatSolver:
    """Exact solve of (I - dt*Lap_h) u = rhs in the sine eigenbasis.

    Per axis, the Dirichlet 3-point Laplacian is S diag(lam) S with the
    orthogonal, symmetric sine matrix S_ij = sqrt(2/(n+1)) sin(pi ij/(n+1))
    and lam_j = -(4/h^2) sin^2(pi j/(2(n+1))), so the inverse is a product
    of dense S per axis around a diagonal (the matrix-decomposition solver
    of Buzbee, Golub & Nielson, SINUM 1970).  `sine` is the one code that
    applies S; `solve` and `solve_powers` are a diagonal between two of its
    transforms.  Memory is O(n1^2 + n2^2).
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
        self._diag = (1.0 - dt * lam).reshape(-1)
        self._inverse = 1.0 / self._diag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one field (n,) or a batch (..., n)."""
        return self.sine(self.sine(rhs) * self._inverse)

    @property
    def diagonal(self) -> np.ndarray:
        """The eigenvalues 1 - dt*lam of I - dt*Lap_h, shape (n,), in the
        order of the coefficients of `sine`."""
        return self._diag

    def sine(self, rows: np.ndarray) -> np.ndarray:
        """The sine transform of one field (n,) or a batch (..., n): rows S
        in 1-D, S1 X S2 on each (n1, n2) row X in 2-D.  S is symmetric and
        orthogonal, so the same map takes fields to sine coefficients and
        back, and I - dt*Lap_h acts on the coefficients as `diagonal`."""
        rows = np.asarray(rows, dtype=float)
        if len(self.shape) == 1:
            return rows @ self._sines[0]
        s1, s2 = self._sines
        return (s1 @ rows.reshape((-1,) + self.shape) @ s2).reshape(rows.shape)

    def solve_powers(self, rhs: np.ndarray, steps: int) -> np.ndarray:
        """M^{-k} rhs for k = 0..steps, shape (steps+1, n), M = I - dt*Lap_h:
        the unscaled `OrbitRows` of rhs formed in one span, read-only.  Row
        0 is rhs itself."""
        return OrbitRows(self, rhs, steps)[:, 0]


class OrbitRows:
    """The rows scale[k] * M^{-k} y0 of the time nodes k = 0..steps, M =
    I - dt*Lap_h, an array-like of shape (steps+1, 1, n) held in spectral
    form: y0, its sine coefficients c = S y0 and the scale per time node
    (None for the bare orbit).  Indexing forms the rows of the indexed time
    nodes as a read-only array: row 0 is y0 itself and row k the
    back-transform of inverse^k * c, in row blocks of MOMENT_BLOCK_BYTES,
    times scale[k]; iteration forms them a block at a time.  A coefficient
    that would fall below the smallest normal float (k > last) is set to 0
    without taking the power: subnormal arithmetic is slow and adds
    nothing.  With `log`, the log of a bound on the scale per time node, a
    formed time node overflows when log, or its sum with the log of
    max|M^{-k} y0|, exceeds the log of the largest float; NumericalError
    names the first of the span, and no overflow warning is raised."""

    def __init__(self, solver: ImplicitHeatSolver, y0: np.ndarray, steps: int,
                 scale: np.ndarray | None = None, log: np.ndarray | None = None):
        self.solver, self.y0 = solver, np.asarray(y0, dtype=float)
        self.scale, self.log = scale, log
        self.shape = (steps + 1, 1, self.y0.size)
        self.coef = solver.sine(self.y0)
        log_c = np.log(np.abs(self.coef), out=np.full(self.coef.shape, np.inf),
                       where=self.coef != 0.0)
        self.last = (np.log(np.finfo(float).tiny) - log_c) \
            / np.log(solver._inverse)
        # M^{-1} is a contraction in the 2-norm, so |M^{-k} y0| <= ||y0|| <=
        # sqrt(n) max|y0|: the time nodes before `checked` cannot overflow,
        # and only the others are checked as they are formed
        self.checked = self.shape[0]
        if log is not None:
            with np.errstate(all="ignore"):
                over = ~(log + np.log(np.max(np.abs(self.y0)))
                         + 0.5 * np.log(self.y0.size) <= LOG_FLOAT_MAX)
            if over.any():
                self.checked = int(np.argmax(over))

    def rescaled(self, scale: np.ndarray | None) -> "OrbitRows":
        """The same orbit under the scale `scale` per time node (None for
        the bare orbit)."""
        out = copy.copy(self)
        out.scale = scale
        return out

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        block = _block_rows(self.shape[2])
        for t in range(0, len(self), block):
            yield from self[t:t + block]

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        nodes = range(len(self))[key[0]]  # IndexError past the end
        if isinstance(nodes, int):
            return self._form(nodes, nodes + 1)[key[1:]]
        # a slice: the span from its lowest to its highest time node, read
        # with the slice's step
        lo, hi = (min(nodes[0], nodes[-1]), max(nodes[0], nodes[-1]) + 1) \
            if nodes else (0, 0)
        rows = self._form(lo, hi)[nodes.start - lo::nodes.step, None]
        return rows[(slice(None),) + key[1:]]

    def _form(self, start: int, stop: int) -> np.ndarray:
        """The rows of time nodes start..stop-1, shape (stop-start, n)."""
        solver = self.solver
        k = np.arange(start, stop)[:, None]
        rows = np.zeros((len(k), self.shape[2]))
        np.power(solver._inverse, k, out=rows, where=k <= self.last)
        rows *= self.coef
        # in row blocks: the transform's temporaries stay small, where two
        # fresh (steps, n) arrays cost more in page faults than the products
        block = _block_rows(self.shape[2])
        for b in range(0, len(rows), block):
            rows[b:b + block] = solver.sine(rows[b:b + block])
        if start == 0 < stop:
            rows[0] = self.y0
        if stop > self.checked:
            with np.errstate(all="ignore"):
                log = self.log[start:stop]
                # fmax skips inf - inf; a level that is nan counts as
                # overflowing
                level = np.fmax(log, log + np.log(np.max(np.abs(rows),
                                                         axis=1)))
            over = ~(level <= LOG_FLOAT_MAX)
            if over.any():
                raise _overflow(len(self) - 1, start + int(np.argmax(over)))
        if self.scale is not None:
            rows *= self.scale[start:stop, None]
        rows.flags.writeable = False
        return rows


def _block_rows(n: int) -> int:
    """Rows of n nodes in MOMENT_BLOCK_BYTES."""
    return max(1, MOMENT_BLOCK_BYTES // (8 * n))


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

    Each is stored once, C-ordered, in its own shape (1 or steps, 1 or
    n_nodes) as `a_stored` and `b_stored`: one row when every step is the
    same, one column when every step is uniform over the nodes
    (`node_uniform`), and readers broadcast; `a` and `b` are read-only
    (steps, n_nodes) views of them, indexed by step.  Nothing changes after
    construction; the gradient of b and its W^{1,inf} norm are computed on
    first read."""

    def __init__(self, grid: SpatialGrid, mesh: TimeMesh, a, b):
        self.grid, self.mesh = grid, mesh
        shape = (mesh.steps, grid.n_nodes)
        self.a_stored, self.b_stored = (_reduce(c, shape) for c in (a, b))
        self.a, self.b = (np.broadcast_to(c, shape)
                          for c in (self.a_stored, self.b_stored))
        self.sup_a = float(np.max(np.abs(self.a_stored)))

    @cached_property
    def b_grad(self) -> np.ndarray:
        """The gradient of b per stored row, shape (rows, n_nodes, dim)."""
        return self.grid.field_gradient(self.b[:len(self.b_stored)])

    @cached_property
    def sup_b_w1inf(self) -> float:
        return self.sup_b_over(slice(None))

    @property
    def node_uniform(self) -> bool:
        """Whether a_k and b_k are uniform over the nodes at every step
        (constant coefficients, or values that vary in time only): each
        step factor 1 + dt*a_k + b_k*dB is then one scalar per increment,
        and the moments and the sampled paths have closed forms."""
        return self.a_stored.shape[1] == 1 and self.b_stored.shape[1] == 1

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

    def sup_b_over(self, mask) -> float:
        """W^{1,inf} norm of b restricted to a node mask (e.g. supp phi)."""
        b = self.b[:len(self.b_stored), mask]
        return max(float(np.max(np.abs(b))), float(np.max(
            np.abs(self.b_grad[:, mask])))) if b.size else 0.0


def _reduce(values, shape: tuple) -> np.ndarray:
    """A C-ordered copy of the coefficient `values`, of any shape that
    broadcasts to (steps, n_nodes), in its own shape: one row when every
    step is the same, one column when each is uniform over the nodes."""
    arr = np.asarray(values, dtype=float)
    arr = arr.reshape(1, -1) if arr.ndim < 2 else arr
    if arr.ndim > 2 or any(m not in (1, s) for m, s in zip(arr.shape, shape)):
        raise ConfigurationError(
            f"coefficient shape {np.shape(values)} incompatible with {shape}")
    arr = arr[:1] if (arr == arr[:1]).all() else arr
    return np.array(arr[:, :1] if (arr == arr[:, :1]).all() else arr,
                    order="C")


@dataclass
class Ensemble:
    """Weighted solution rows per time node: rows has shape (steps+1, r,
    n_nodes) and weights shape (steps+1, r), and an expectation at time
    node k is the weighted sum over rows[k].  The rows are paths (sampled
    ones, or the 2^d leaves of a Bernoulli tree) or the thin factors of
    the second moments; increments[:, k] are the increments of step k, one
    row per path or tree move.  The closed forms hold their rows as
    `OrbitRows`, formed on indexing."""

    rows: np.ndarray | OrbitRows = field(repr=False)
    weights: np.ndarray = field(repr=False)
    increments: np.ndarray = field(repr=False)
    mesh: TimeMesh
    grid: SpatialGrid
    provenance: dict

    @property
    def values(self) -> np.ndarray:
        """The rows by row (path) first, shape (r, steps+1, n_nodes): a
        writable view of `rows`.  `OrbitRows` are formed here, once, and
        kept as the array `rows`, so that a write through the view reaches
        `nodal_moment` as on every other ensemble."""
        if not isinstance(self.rows, np.ndarray):
            self.rows = np.array(self.rows[:])
        return self.rows.swapaxes(0, 1)

    def nodal_moment(self, integrand=np.square, contract=None,
                     nodes=slice(None)) -> np.ndarray:
        """E[f(y(t_k))] per time node, the weighted sum over rows[k]:
        `integrand` f maps rows (..., n) to nodal values (..., n), with any
        stacked outputs in front, and the result has shape (..., steps+1,
        n).  f runs on (time, row) tiles of about MOMENT_BLOCK_BYTES, so a
        tile stays in cache and the calls of f do not grow with the number
        of time nodes; `OrbitRows` form each tile as it is read.  `nodes`,
        a slice of step 1, restricts the pass to those time nodes.

        With `contract`, f returns a list of such arrays (on different node
        sets, say), and `contract(span, moments)` reduces a tile's time
        nodes and the list of their expectations to values per time node,
        shape (..., k), as the tile is summed: the result has shape (...,
        time nodes), and no (steps+1, n) array is held.  NumericalError
        names the first time node whose expectation (or its reduction) is
        not finite."""
        total, r, n = self.rows.shape
        start, stop, _ = nodes.indices(total)
        block = _block_rows(n)
        row_block = min(r, block)
        time_block = max(1, block // row_block)
        blocks = integrand if contract is not None \
            else lambda rows: [integrand(rows)]
        out = None
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(start, stop, time_block):
                span = slice(t, min(t + time_block, stop))
                moment = None
                for p in range(0, r, row_block):
                    tile = np.s_[span, p:p + row_block]
                    part = [np.einsum("kr,...kri->...ki", self.weights[tile],
                                      f) for f in blocks(self.rows[tile])]
                    moment = part if moment is None else \
                        [m + q for m, q in zip(moment, part)]
                moment = moment[0] if contract is None else contract(
                    span, moment)[..., None]  # a unit node axis, dropped below
                if out is None:
                    out = np.empty(moment.shape[:-2] + (stop - start,)
                                   + moment.shape[-1:])
                out[..., t - start:span.stop - start, :] = moment
        finite = np.isfinite(out).reshape(
            -1, stop - start, out.shape[-1]).all(axis=(0, 2))
        if not finite.all():
            raise NumericalError(
                f"expectation not finite at time node "
                f"{start + int(np.argmin(finite))} of {total - 1}")
        return out if contract is None else out[..., 0]


@dataclass
class SecondMomentEnsemble(Ensemble):
    """Exact expectation surrogate for deterministic coefficients: rows[k]
    is a factor Z_k with E[y(t_k) y(t_k)^T] = Z_k^T Z_k, padded with zero
    rows to the largest rank, under unit weights, and mean_rows[k] the one
    row E[y(t_k)], both of shape (steps+1, r, n_nodes) and `OrbitRows` in
    closed form; it reproduces Bernoulli-tree expectations of linear and
    quadratic functionals at any depth.  Its rows are not paths."""

    mean_rows: np.ndarray | OrbitRows = field(repr=False)

    @property
    def means(self) -> np.ndarray:
        """E[y(t_k)] per time node, shape (steps+1, n_nodes): a view of
        `mean_rows`, or in closed form formed on each access and
        read-only."""
        return self.mean_rows[:, 0]

    @property
    def second_moments(self) -> np.ndarray | OrbitRows:
        return self.rows


@dataclass
class SampledMomentEnsemble(SecondMomentEnsemble):
    """Sampled paths in closed form, for coefficients uniform over the
    nodes: path p is y_p(t_k) = scales[k, p] v_k with the orbit v_k =
    M^{-k} y0 and the path scalars scales[k, p], the product of the step
    factors 1 + dt a_j + b_j dB_pj over j < k.  For a quadratic f,
    E_P[f(y_k)] = (sum_p w_p scales[k, p]^2) f(v_k), so rows[k] is the one
    unit-weight row sqrt(sum_p w_p scales[k, p]^2) v_k, and mean_rows[k]
    is (sum_p w_p scales[k, p]) v_k, both `OrbitRows`."""

    scales: np.ndarray = field(repr=False)

    @property
    def values(self) -> np.ndarray:
        """The sampled paths scales[k, p] v_k, shape (P, steps+1, n_nodes),
        built on each access and read-only."""
        paths = self.scales.T[:, :, None] * self.rows.rescaled(None)[:, 0]
        paths.flags.writeable = False
        return paths


def tree_moves(dt: float) -> np.ndarray:
    """The down and up increment -/+ sqrt(dt) of a tree step."""
    return np.sqrt(dt) * np.array([-1.0, 1.0])


def step_factors(coeffs: CoefficientField, dt: float, db, sign: float = 1.0,
                 steps=slice(None)) -> np.ndarray:
    """The step factors 1 + sign*dt*a_k + b_k*dB, shape (steps, r, m), for
    increments `db` per path, shape (r, steps), or shared by every step,
    shape (r,), as the tree moves are; m = 1 when `coeffs.node_uniform`,
    else one column per node.  `steps` indexes the table (an int k gives
    step k's rows alone), and sign = -1 gives the dual scheme of `control`."""
    nodes = slice(None, 1) if coeffs.node_uniform else slice(None)
    a, b = (c[steps, nodes][..., None, :] for c in (coeffs.a, coeffs.b))
    db = np.asarray(db, dtype=float)
    if db.ndim == 2:
        db = db.T[steps]
    return 1.0 + sign * dt * a + b * db[..., None]


def tree_products(pairs) -> list:
    """Products of (down, up) pairs along a tree's paths: entry k holds 2^k,
    node h's children 2h and 2h+1 taking the down and up entry of pairs[k]."""
    products = [np.ones(1)]
    for pair in pairs:
        products.append(np.multiply.outer(products[-1], pair).reshape(-1))
    return products


def tree_step(level: np.ndarray, down: np.ndarray, up: np.ndarray,
              solver: ImplicitHeatSolver) -> np.ndarray:
    """History level k, shape (2^k, n), to level k+1: the children 2h and
    2h+1 of node h get the nodal factors `down` and `up`, then one batched
    implicit solve runs."""
    children = np.stack([level * down, level * up], axis=1)
    return solver.solve(children.reshape(-1, level.shape[1]))


class FactoredLevels(Sequence):
    """History levels of a tree solve whose step factors are scalars, as
    `control.solve_dual_forward` builds them: level k is the outer product
    of its 2^k path scalars `scalars[k]`, the `tree_products` of the
    (down, up) rows of `factors`, with the row `orbit[k]`, and is formed
    only when indexed.  A slice from level 0 stays factored."""

    def __init__(self, factors: np.ndarray, orbit: np.ndarray):
        self.factors, self.orbit = factors, orbit
        self.scalars = tree_products(factors[:len(orbit) - 1])

    def __len__(self) -> int:
        return len(self.orbit)

    def __getitem__(self, k):
        if isinstance(k, slice):
            start, stop, step = k.indices(len(self))
            if start == 0 and step == 1:
                return FactoredLevels(self.factors, self.orbit[:stop])
            return [self[i] for i in range(start, stop, step)]
        k = range(len(self))[k]  # negative indices; IndexError past the end
        return np.multiply.outer(self.scalars[k], self.orbit[k])


def solve_forward(y0: np.ndarray, coeffs: CoefficientField, noise,
                  mesh: TimeMesh, grid: SpatialGrid) -> Ensemble:
    """Iterate the scheme on every path of the noise, one row per path at
    every time node: the sampled paths of a `PathEnsemble`, or the 2^d
    leaves of a `BernoulliTree`.  mc-mode surveys run it when the
    coefficients vary over the nodes (`coeff.kind = random`).  It is also
    the brute-force reference of the closed forms the other surveys run:
    `solve_forward_moments` in tree mode, and `solve_sampled_moments` in
    mc mode when the coefficients are uniform over the nodes."""
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
            rows[k] * step_factors(coeffs, mesh.dt, inc, steps=k))
    tree = isinstance(noise, BernoulliTree)
    prov = {"scheme": "implicit-diffusion euler-maruyama", "dt": mesh.dt,
            "h": tuple(grid.h), "mode": "tree" if tree else "sampled"}
    return Ensemble(rows, np.broadcast_to(noise.weights, rows.shape[:2]), inc,
                    mesh, grid, prov)


def solve_forward_moments(y0: np.ndarray, coeffs: CoefficientField,
                          mesh: TimeMesh, grid: SpatialGrid) -> SecondMomentEnsemble:
    """Exact tree-expectation moments E[y] and E[y y^T] = Z^T Z.

    With the (down, up) rows D_k, U_k of the tree's `step_factors` and
    M = I - dt*Lap_h, a step is the mean over the two moves:
    P_{k+1} = M^{-1} ((D D^T + U U^T)/2 o P_k) M^{-1} and E[y_{k+1}] =
    M^{-1} ((D + U)/2 * E[y_k]).  Two paths build them:

    - closed form, when every a_k and b_k is uniform over the nodes
      (constant coefficients, or values that vary in time only): P stays
      rank one, Z_k = (c_0...c_{k-1}) M^{-k} y0 and E[y_k] =
      (d_0...d_{k-1}) M^{-k} y0 with the step scalars of `_exact_scalars`,
      every M^{-k} y0 from one `ImplicitHeatSolver.solve_powers`;
    - otherwise the recursion: `tree_step` maps the factor rows z of P_k
      to the rows M^{-1}(D*z)/sqrt(2) and M^{-1}(U*z)/sqrt(2), and a thin
      SVD recompresses them to s*V^T, dropping singular values below
      MOMENT_RANK_TOL of the largest.

    The factors are the rows of the ensemble, one per time node in closed
    form, padded with zero rows to the largest rank in the recursion; a
    time node whose factor vanishes has rank 0 and only zero rows on both
    paths.  provenance records the path as `scheme`, the rank and the
    discarded sum of sigma^2 (a trace-norm bound on the truncation; 0 in
    closed form) per time node.  NumericalError names the first step whose
    factor or mean is not finite; the closed form decides it on the log of
    the products, so no overflow warning is raised.
    """
    solver = implicit_solver(grid, mesh.dt)
    y0 = np.asarray(y0, dtype=float)
    if coeffs.node_uniform:
        scheme = "closed-form moments"
        rows, rank, means, tails = _closed_form_moments(
            solver, y0, mesh.steps, *_exact_scalars(coeffs, mesh.dt))
    else:
        scheme = "second-moment recursion"
        rows, rank, means, tails = _recursive_moments(y0, coeffs, mesh, solver)
    prov = {"scheme": scheme, "dt": mesh.dt, "h": tuple(grid.h),
            "mode": "exact", "rank": rank, "discarded_tail": tails}
    return SecondMomentEnsemble(
        rows=rows, weights=np.ones(rows.shape[:2]),
        increments=np.repeat(tree_moves(mesh.dt)[:, None], mesh.steps, axis=1),
        mesh=mesh, grid=grid, provenance=prov, mean_rows=means)


def solve_sampled_moments(y0: np.ndarray, coeffs: CoefficientField,
                          paths: PathEnsemble, mesh: TimeMesh,
                          grid: SpatialGrid) -> SampledMomentEnsemble:
    """The sampled paths of `solve_forward` in closed form, for coefficients
    uniform over the nodes (`CoefficientField.node_uniform`): one
    `ImplicitHeatSolver.solve_powers` orbit and the path scalars, one
    cumulative product over the increments.  Its rows are one per time
    node, so every quadratic functional is evaluated once per time node,
    not once per path.  It shares the rank-one moments of the closed form
    of `solve_forward_moments`, whose step scalars are exact tree
    expectations where these are means over the sampled paths.
    NumericalError names the first step whose path scalars or rows
    overflow, judged on the logs without an overflow warning."""
    if not coeffs.node_uniform:
        raise ConfigurationError(
            "the sampled closed form needs coefficients uniform over the nodes")
    inc = paths.increments
    if inc.shape[1] != mesh.steps:
        raise ConfigurationError("noise source and time mesh disagree on step count")
    scalars, products, log = _sampled_scalars(coeffs, mesh.dt, inc,
                                              paths.weights)
    rows, rank, means, tails = _closed_form_moments(
        implicit_solver(grid, mesh.dt), y0, mesh.steps, products, log)
    prov = {"scheme": "sampled closed form", "dt": mesh.dt, "h": tuple(grid.h),
            "mode": "sampled", "rank": rank, "discarded_tail": tails}
    return SampledMomentEnsemble(
        rows=rows, weights=np.ones(rows.shape[:2]), increments=inc, mesh=mesh,
        grid=grid, provenance=prov, mean_rows=means, scales=scalars)


def _overflow(steps: int, k: int) -> NumericalError:
    return NumericalError(
        f"moment factor or mean not finite at step {k} of {steps}")


def _exact_scalars(coeffs, dt):
    """The closed-form scalars of the tree expectations, per time node, from
    the (down, up) `step_factors` of the tree moves: the factor scale
    c_0...c_{k-1} with c_j = hypot(down_j, up_j) / sqrt(2), the root mean
    square of the pair (so c_j^2 = d_j^2 + dt b_j^2, the Ito correction),
    the mean scale d_0...d_{k-1} with d_j = (down_j + up_j) / 2, and the
    log of the factor scale, which bounds both since |d_j| <= c_j."""
    with np.errstate(all="ignore"):  # overflow is judged on the logs
        down, up = step_factors(coeffs, dt, tree_moves(dt))[..., 0].T
        c = np.hypot(down, up) * np.sqrt(0.5)
        products = [np.concatenate([[1.0], np.cumprod(f)])
                    for f in (c, 0.5 * (down + up))]
        log = np.concatenate([[0.0], np.cumsum(np.log(c))])
    return products, log


def _sampled_scalars(coeffs, dt, increments, weights):
    """The path scalars s, shape (steps+1, P), s_kp the product of the
    `step_factors` of path p over the steps j < k; per time node the factor
    scale sqrt(sum_p w_p s_kp^2) and the mean scale sum_p w_p s_kp, and the
    log of max_p |s_kp|, which bounds both magnitudes."""
    factors = step_factors(coeffs, dt, increments)[..., 0]
    with np.errstate(all="ignore"):  # overflow is judged on the logs
        s = np.concatenate([np.ones((1, len(weights))),
                            np.cumprod(factors, axis=0)])
        peak = np.max(np.abs(s), axis=1)
        # scaled by the peak, so that the squares do not overflow
        unit = np.where(peak > 0.0, peak, 1.0)[:, None]
        products = [unit[:, 0] * np.sqrt(np.square(s / unit) @ weights),
                    s @ weights]
        return s, products, np.log(peak)  # -inf where every path vanished


def _closed_form_moments(solver, y0, steps, products, log):
    """Factor rows, ranks, mean rows and tails of a rank-one moment
    ensemble: the `OrbitRows` of y0 under `products`, the factor and the
    mean scale per time node, with `log`, the log of a bound on both.  A
    time node whose scales overflow raises NumericalError here, naming the
    first; one whose orbit term overflows raises it when its rows are
    formed.  The rank is 1 where the factor scale and a kept coefficient
    of the orbit are nonzero, and at time node 0."""
    over = ~(log <= LOG_FLOAT_MAX)  # a nan scale counts as overflowing
    if over.any():
        raise _overflow(steps, int(np.argmax(over)))
    rows = OrbitRows(solver, y0, steps, products[0], log)
    # the last power at which a nonzero coefficient is kept
    reach = np.max(rows.last, where=rows.coef != 0.0, initial=-np.inf)
    rank = ((products[0] != 0.0)
            & (np.arange(steps + 1) <= reach)).astype(int)
    rank[0] = 1  # level 0 is y0, as in the recursion
    return rows, rank.tolist(), rows.rescaled(products[1]), [0.0] * (steps + 1)


def _recursive_moments(y0, coeffs, mesh, solver):
    """Factor rows (padded with zero rows to the largest rank), ranks,
    means and discarded tails of the second-moment recursion: a step is
    `tree_step` on the factor rows and the mean row, with the `step_factors`
    of the tree moves, and the children at weight 1/2."""
    means = [y0.copy()]
    factors = [y0[None, :].copy()]
    tails = [0.0]
    moves = tree_moves(mesh.dt)
    # overflow is raised as NumericalError below, and a tail may read inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(mesh.steps):
            # the mean row steps with the factor rows; its two children are
            # the last two rows
            children = tree_step(
                np.concatenate([factors[-1], means[-1][None]]),
                *step_factors(coeffs, mesh.dt, moves, steps=k), solver)
            if not np.isfinite(children).all():
                raise _overflow(mesh.steps, k + 1)
            means.append(0.5 * (children[-2] + children[-1]))
            _, s, vt = np.linalg.svd(np.sqrt(0.5) * children[:-2],
                                     full_matrices=False)
            keep = s > MOMENT_RANK_TOL * s[:1]  # s[:1] is empty for an empty factor
            factors.append(s[keep, None] * vt[keep])
            tails.append(float(np.sum(s[~keep] ** 2)))
    rank = [len(z) for z in factors]
    rows = np.zeros((len(factors), max(rank), len(y0)))
    for row, z in zip(rows, factors):
        row[:len(z)] = z
    return rows, rank, np.stack(means)[:, None], tails


def exp_transform_oracle(coeffs: CoefficientField, paths: PathEnsemble,
                         mesh: TimeMesh) -> dict:
    """Cross-check the scheme against the exponential transform on sampled
    paths.  For constant a and b, z = exp(-b B) y solves z_t - Lap z =
    (a - b^2/2) z pathwise (the Ito correction), and both sides are scalars
    times M^{-k} y0: the path scalars s_kp of `_sampled_scalars`, and e_kp =
    exp(b B_kp) (1 + dt (a - b^2/2))^k.  The spatial factor cancels, so the
    gap of path p is max_k |e_kp - s_kp| / |s_kp|, the strong error of the
    time scheme (Higham, SIAM Review 2001), and no path is solved.  Returns
    the gap per path, its max and its mean; where exp(b B) overflows the
    gap reads inf, without a warning."""
    if not isinstance(paths, PathEnsemble):
        raise ConfigurationError("the transform oracle needs sampled paths")
    if coeffs.a_stored.size > 1 or coeffs.b_stored.size > 1:
        raise ConfigurationError("the transform oracle needs constant a and b")
    a, b = coeffs.a_stored[0, 0], coeffs.b_stored[0, 0]
    inc = paths.increments
    s = _sampled_scalars(coeffs, mesh.dt, inc, paths.weights)[0]
    bm = np.concatenate([np.zeros((1, len(inc))), np.cumsum(inc.T, axis=0)])
    powers = np.arange(mesh.steps + 1)[:, None]
    with np.errstate(all="ignore"):
        e = np.exp(b * bm) * (1.0 + mesh.dt * (a - 0.5 * b ** 2)) ** powers
        gaps = np.max(np.abs(e - s) / np.maximum(np.abs(s), 1e-300), axis=0)
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
    """Audit the `step_factors` of the ensemble's increments for degeneracy.

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
    # per step, the lowest factor and the lowest magnitude of a factor
    lows = np.array([(np.min(f), np.min(np.abs(f))) for f in (
        step_factors(coeffs, dt, ensemble.increments, steps=k)
        for k in range(ensemble.mesh.steps))])
    flagged = np.flatnonzero(lows[:, 1] < DEGENERATE_STEP_TOL).tolist()
    b_sqrt_dt = float(np.max(np.abs(coeffs.b_stored)) * np.sqrt(dt))
    return {"min_factor": float(np.min(lows[:, 0])),
            "sign_loss_steps": np.flatnonzero(lows[:, 0] <= 0.0).tolist(),
            "degenerate_steps": flagged, "invertible": not flagged,
            "b_sqrt_dt": b_sqrt_dt, "a_dt": coeffs.sup_a * dt,
            "noise_step_large": b_sqrt_dt >= 1.0}
