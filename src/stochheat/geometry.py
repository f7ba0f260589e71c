"""Spatial discretization: convex box domains, balls, cutoffs, caloric weight.

The domain is an interval (0, L) or a rectangle (0, L1) x (0, L2) with
homogeneous Dirichlet data.  Fields live on the interior nodes of a uniform
tensor grid; the boundary value 0 is eliminated from all operators.  The
centred gradients are `Stencil`s: banded operators with scalar weights,
applied as `S(rows)` to a field or a batch of rows by slicing its
(..., n1[, n2]) view.  The Laplacian is only ever inverted, in
`forward.ImplicitHeatSolver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, GeometryError

__all__ = [
    "Stencil",
    "SpatialGrid",
    "Ball",
    "CutoffFunction",
    "HeatKernelWeight",
    "build_grid",
    "caloric_defect",
    "build_cutoff",
    "ball_chain",
]


@dataclass(frozen=True)
class Ball:
    """Open ball B_r(x0); 1-D balls are intervals."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise GeometryError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


def _overlap(disp: tuple, shape: tuple) -> tuple:
    """Slices of the nodes x and x + disp that both lie inside the grid."""
    dst = tuple(slice(max(0, -e), n - max(0, e)) for e, n in zip(disp, shape))
    src = tuple(slice(max(0, e), n - max(0, -e)) for e, n in zip(disp, shape))
    return dst, src


class Stencil:
    """A banded operator on the interior nodes of a tensor grid with zero
    Dirichlet ghosts: (S v)(x) = sum_e w_e v(x + e) over displacements e
    (tuples, one entry per axis) with scalar weights w_e.

    `S(rows)` takes a field (n,) or a batch of rows (..., n), like
    `forward.ImplicitHeatSolver.solve`.  The terms are summed in ascending
    displacement order, the column order of a sorted row-major CSR matrix.
    """

    def __init__(self, shape: tuple, weights: dict):
        self.shape = tuple(shape)
        self._terms = []  # (destination, source) index of a row batch, weight
        for disp in sorted(weights):
            dst, src = _overlap(disp, self.shape)
            self._terms.append(((...,) + dst, (...,) + src,
                                float(weights[disp])))

    def __call__(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        field = rows.reshape(rows.shape[:-1] + self.shape)
        out = np.zeros(field.shape)
        for i, (dst, src, w) in enumerate(self._terms):
            if i == 0:  # 0 + w*v is w*v: the first term is written in place
                np.multiply(w, field[src], out=out[dst])
            else:
                out[dst] += w * field[src]
        return out.reshape(rows.shape)


class SpatialGrid:
    """Uniform tensor grid on a box domain, interior (Dirichlet) nodes only.

    Parameters
    ----------
    extents : sequence of (lo, hi) pairs, one per axis.
    shape : interior node count per axis (>= 3 each).
    """

    def __init__(self, extents, shape):
        extents = tuple((float(a), float(b)) for a, b in extents)
        shape = tuple(int(n) for n in shape)
        if len(extents) != len(shape):
            raise ConfigurationError("extents and shape must have equal length")
        if len(shape) not in (1, 2):
            raise ConfigurationError("only 1-D and 2-D grids are supported")
        for (a, b), n in zip(extents, shape):
            if b - a <= 0.0:
                raise ConfigurationError(f"non-positive extent ({a}, {b})")
            if n < 3:
                raise ConfigurationError(f"need at least 3 interior nodes per axis, got {n}")
        self.extents = extents
        self.shape = shape
        self.dim = len(shape)
        self.h = np.array([(b - a) / (n + 1) for (a, b), n in zip(extents, shape)])
        axes = [a + self.h[i] * np.arange(1, n + 1)
                for i, ((a, _), n) in enumerate(zip(extents, shape))]
        if self.dim == 1:
            coords = axes[0][:, None]
        else:
            X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
            coords = np.column_stack([X.ravel(), Y.ravel()])
        coords.flags.writeable = False
        self.coords = coords
        self.n_nodes = coords.shape[0]
        self.quad_weight = float(np.prod(self.h))
        self._gradients = None

    def _unit(self, axis: int, step: int) -> tuple:
        return tuple(step if ax == axis else 0 for ax in range(self.dim))

    def gradient_ops(self) -> tuple[Stencil, ...]:
        """Centered-difference gradient per axis; zero Dirichlet ghosts."""
        if self._gradients is None:
            self._gradients = tuple(
                Stencil(self.shape, {self._unit(axis, -1): -1.0 / (2.0 * h),
                                     self._unit(axis, 1): 1.0 / (2.0 * h)})
                for axis, h in enumerate(self.h))
        return self._gradients

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Nodal gradient of a field; returns shape (..., n_nodes, dim)."""
        return np.stack([op(values) for op in self.gradient_ops()], axis=-1)

    def field_gradient(self, values: np.ndarray) -> np.ndarray:
        """Gradient without boundary conditions (one-sided at the edges).

        For coefficient fields, which need not vanish on the boundary, the
        Dirichlet gradient operator would fabricate O(1/h) edge derivatives.
        A batch of fields (..., n) gives gradients (..., n, dim).
        """
        values = np.asarray(values, dtype=float)
        arr = values.reshape(values.shape[:-1] + self.shape)
        grads = np.gradient(arr, *self.h, axis=tuple(range(-self.dim, 0)))
        if self.dim == 1:
            grads = [grads]
        return np.stack([g.reshape(values.shape) for g in grads], axis=-1)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Quadrature over G (nodal sum; boundary contributes 0)."""
        return self.quad_weight * values.sum(axis=-1)

    def l2_norm(self, values: np.ndarray):
        return np.sqrt(self.integrate(np.asarray(values) ** 2))

    def ball_mask(self, ball: Ball) -> np.ndarray:
        d = np.linalg.norm(self.coords - ball.center_array, axis=1)
        return d <= ball.radius

    def contains_ball(self, ball: Ball) -> bool:
        """True iff the closure of the ball lies strictly inside the box."""
        for (a, b), c in zip(self.extents, ball.center):
            if c - ball.radius <= a or c + ball.radius >= b:
                return False
        return True

    def distance_sq_to(self, x0) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        return ((self.coords - x0) ** 2).sum(axis=1)

    def max_dist_sq(self, x0) -> float:
        """max over the closed box of |x - x0|^2 (attained at a corner)."""
        x0 = np.asarray(x0, dtype=float)
        m = 0.0
        for (a, b), c in zip(self.extents, x0):
            m += max((a - c) ** 2, (b - c) ** 2)
        return float(m)


def build_grid(extents, shape) -> SpatialGrid:
    """Build a uniform tensor grid; see :class:`SpatialGrid` for validation."""
    return SpatialGrid(extents, shape)


@dataclass(frozen=True)
class HeatKernelWeight:
    """Backward Gaussian weight K(x,t) = (T-t+lam)^(-n/2) exp(-|x-x0|^2 / (4(T-t+lam))).

    Caloric: K_t + Delta K = 0 (`caloric_defect` measures it on `values`).
    `values` takes a time or an array of times t and has shape
    t.shape + coords.shape[:-1].
    """

    horizon: float
    shift: float
    center: tuple[float, ...]
    dim: int

    def __post_init__(self):
        if not 0.0 < self.shift <= 1.0:
            raise ConfigurationError(f"kernel shift must lie in (0, 1], got {self.shift}")
        if self.horizon <= 0.0:
            raise ConfigurationError("kernel horizon must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _s(self, t, coords: np.ndarray) -> np.ndarray:
        """T - t + lam at a time or an array of times, all in [0, T], shaped
        t.shape + (1,) * (coords.ndim - 1) to broadcast against the nodes."""
        t = np.asarray(t, dtype=float)
        outside = (t < 0.0) | (t > self.horizon)
        if np.any(outside):
            raise DomainError(
                f"t={t[outside].flat[0]} outside [0, {self.horizon}]")
        s = self.horizon - t + self.shift
        return s.reshape(s.shape + (1,) * (np.ndim(coords) - 1))

    def _dist_sq(self, coords: np.ndarray) -> np.ndarray:
        return ((coords - np.asarray(self.center)) ** 2).sum(axis=-1)

    def values(self, t, coords: np.ndarray) -> np.ndarray:
        s = self._s(t, coords)
        return s ** (-self.dim / 2.0) * np.exp(-self._dist_sq(coords) / (4.0 * s))


def caloric_defect(weight: HeatKernelWeight, coords: np.ndarray,
                   t: float) -> float:
    """max |K_t + Delta K| / max |K_t| over the points `coords` at a time t
    in (0, T), by central differences of `weight.values` with steps on the
    scale s = T - t + lam of K: 3e-4 min(s, t, T - t) in time, 3e-4 sqrt(s)
    in space.  K reads about 1e-7; a K 1% off in its exponent or power, 1e-2."""
    if not 0.0 < t < weight.horizon:
        raise DomainError(f"t={t} must lie in (0, {weight.horizon})")
    s = weight.horizon - t + weight.shift
    dt = 3e-4 * min(s, t, weight.horizon - t)
    before, now, after = weight.values(np.array([t - dt, t, t + dt]), coords)
    k_t = (after - before) / (2.0 * dt)
    h = 3e-4 * np.sqrt(s)
    steps = h * np.eye(coords.shape[-1])[:, None, :]  # one row per axis
    nbrs = weight.values(t, np.concatenate([coords + steps, coords - steps]))
    lap = (nbrs.sum(axis=0) - 2 * len(steps) * now) / h ** 2
    return float(np.max(np.abs(k_t + lap)) / np.max(np.abs(k_t)))


def _bump(s: np.ndarray) -> np.ndarray:
    """Quintic plateau bump q with q(0)=1, q(1)=0, q'(0)=q'(1)=q''(0)=q''(1)=0."""
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def _bump_d1(s: np.ndarray) -> np.ndarray:
    return -30.0 * s**2 * (1.0 - s) ** 2


def _bump_d2(s: np.ndarray) -> np.ndarray:
    return -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass
class CutoffFunction:
    """Radial C^2 cutoff: 1 on the inner ball, 0 outside the outer ball."""

    inner: Ball
    outer: Ball
    values: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    lap: np.ndarray = field(repr=False)


def build_cutoff(inner: Ball, outer: Ball, grid: SpatialGrid) -> CutoffFunction:
    """Assemble the cutoff and its analytic first/second radial derivatives."""
    if inner.center != outer.center:
        raise GeometryError("cutoff balls must be concentric")
    if inner.radius >= outer.radius:
        raise GeometryError("inner cutoff ball must be strictly inside the outer one")
    if not grid.contains_ball(outer):
        raise GeometryError("outer cutoff ball must be compactly contained in the domain")
    x0 = inner.center_array
    r3, r4 = inner.radius, outer.radius
    width = r4 - r3
    rho = np.linalg.norm(grid.coords - x0, axis=1)
    s = np.clip((rho - r3) / width, 0.0, 1.0)
    phi = _bump(s)
    in_annulus = (rho > r3) & (rho < r4)
    dphi_dr = np.where(in_annulus, _bump_d1(s) / width, 0.0)
    d2phi_dr2 = np.where(in_annulus, _bump_d2(s) / width**2, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(rho[:, None] > 0.0, (grid.coords - x0) / rho[:, None], 0.0)
    grad = dphi_dr[:, None] * unit
    lap = d2phi_dr2.copy()
    if grid.dim > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            curv = np.where(rho > 0.0, (grid.dim - 1) * dphi_dr / rho, 0.0)
        lap = lap + curv
    return CutoffFunction(inner=inner, outer=outer, values=phi, grad=grad, lap=lap)


def ball_chain(start: Ball, target: Ball, grid: SpatialGrid):
    """Chain of overlapping balls (S_i, S~_i) linking two balls inside G.

    Consecutive centers are spaced by half the common radius so each bridge
    ball S~_i = B_{rho/4}(c_{i+1}) is compactly inside S_i and S_{i+1}
    (margin rho/4), S~_i concentric with S_{i+1}.  Returns a list of
    (S_i, S~_i) pairs; the last pair carries S~ = None.
    """
    for ball in (start, target):
        if not grid.contains_ball(ball):
            raise GeometryError("chain endpoint ball touches or leaves the domain")
    c0, c1 = start.center_array, target.center_array
    dist = float(np.linalg.norm(c1 - c0))
    rho = min(start.radius, target.radius)
    if dist == 0.0:
        return [(Ball(tuple(c0), start.radius), None)]
    n_steps = int(np.ceil(dist / (rho / 2.0)))
    centers = [c0 + (c1 - c0) * (j / n_steps) for j in range(n_steps + 1)]
    chain = []
    for j, c in enumerate(centers):
        radius = start.radius if j == 0 else rho
        ball = Ball(tuple(c), radius)
        if not grid.contains_ball(ball):
            raise GeometryError(
                "no admissible chain at the requested radii; reduce the radii")
        bridge = Ball(tuple(centers[j + 1]), rho / 4.0) if j < n_steps else None
        chain.append((ball, bridge))
    return chain
