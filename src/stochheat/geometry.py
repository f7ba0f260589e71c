"""Spatial discretization: convex box domains, balls, cutoffs, caloric weight.

The domain is an interval (0, L) or a rectangle (0, L1) x (0, L2) with
homogeneous Dirichlet data.  Fields live on the interior nodes of a uniform
tensor grid; the boundary value 0 is eliminated from all operators.  The
gradient is a centred difference per axis, applied to a field or a batch of
rows by slicing its (..., n1[, n2]) view.  The Laplacian is only ever
inverted, in `forward.ImplicitHeatSolver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigurationError, DomainError, GeometryError

__all__ = [
    "SpatialGrid",
    "Ball",
    "CutoffFunction",
    "HeatKernelWeight",
    "build_grid",
    "caloric_defect",
    "build_cutoff",
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


def _centred_difference(rows, shape: tuple, axis: int, h: float) -> np.ndarray:
    """(v(x + h e) - v(x - h e)) / (2h) along one axis of a field (n,) or a
    batch of rows (..., n) on a grid of `shape`, with zero Dirichlet ghosts:
    a contiguous shift of the flat rows by the axis' stride, with the two
    ends of the axis, where it reads a neighbouring field, set after."""
    rows = np.asarray(rows, dtype=float)
    flat, out = rows.reshape(-1), np.zeros(rows.size)
    stride = math.prod(shape[axis + 1:])
    c = 1.0 / (2.0 * h)
    np.multiply(c, flat[stride:], out=out[:-stride])
    out[stride:] -= c * flat[:-stride]
    field, dv = (a.reshape(rows.shape[:-1] + shape) for a in (rows, out))
    rest = (slice(None),) * (len(shape) - 1 - axis)
    np.multiply(c, field[(..., 1) + rest], out=dv[(..., 0) + rest])
    np.multiply(-c, field[(..., -2) + rest], out=dv[(..., -1) + rest])
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

    def gradient_ops(self, shape: tuple | None = None) -> tuple:
        """Centred-difference gradient per axis, each applied as `op(rows)`
        to a field (n,) or rows (..., n); zero Dirichlet ghosts.  With
        `shape`, the node counts of a box of the grid, the ops act on the
        box's fields, with zero ghosts around the box."""
        if shape is None:
            self._gradients = self._gradients or self.gradient_ops(self.shape)
            return self._gradients
        return tuple(partial(_centred_difference, shape=shape, axis=axis, h=h)
                     for axis, h in enumerate(self.h))

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
    t.shape + coords.shape[:-1]; a tuple of J shifts lam stacks the J
    kernels in front.
    """

    horizon: float
    shift: float | tuple[float, ...]
    center: tuple[float, ...]
    dim: int

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float)
        if not np.all((0.0 < shift) & (shift <= 1.0)):
            raise ConfigurationError(f"kernel shift must lie in (0, 1], got {self.shift}")
        if self.horizon <= 0.0:
            raise ConfigurationError("kernel horizon must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _s(self, t, coords: np.ndarray) -> np.ndarray:
        """T - t + lam at a time or an array of times, all in [0, T], shaped
        lam.shape + t.shape + (1,) * (coords.ndim - 1) to broadcast against
        the nodes."""
        t = np.asarray(t, dtype=float)
        outside = (t < 0.0) | (t > self.horizon)
        if np.any(outside):
            raise DomainError(
                f"t={t[outside].flat[0]} outside [0, {self.horizon}]")
        s = self.horizon - t + np.reshape(
            self.shift, np.shape(self.shift) + (1,) * t.ndim)
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
    """Radial C^2 cutoff: 1 on the inner ball, 0 outside the outer ball.
    `box` is its support box, one slice of node indices per axis."""

    inner: Ball
    outer: Ball
    values: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    lap: np.ndarray = field(repr=False)
    box: tuple = ()


def build_cutoff(inner: Ball, outer: Ball, grid: SpatialGrid) -> CutoffFunction:
    """Assemble the cutoff, its analytic first/second radial derivatives and
    its support box: per axis, the nodes where phi (and so grad phi and Lap
    phi) is nonzero, grown by one node, the reach of the centred difference,
    and clipped to the grid: phi*y vanishes on the margin, so the box's
    fields with zero ghosts give phi*y and S y exactly."""
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
    support = np.nonzero(phi.reshape(grid.shape))
    if not support[0].size:
        raise GeometryError("the outer cutoff ball holds no grid node")
    box = tuple(slice(max(int(i.min()) - 1, 0), min(int(i.max()) + 2, n))
                for i, n in zip(support, grid.shape))
    return CutoffFunction(inner=inner, outer=outer, values=phi, grad=grad,
                          lap=lap, box=box)
