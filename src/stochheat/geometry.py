"""Spatial discretization: convex box domains, balls, cutoffs, caloric weight.

The domain is an interval (0, L) or a rectangle (0, L1) x (0, L2) with
homogeneous Dirichlet data.  Fields live on the interior nodes of a uniform
tensor grid; the boundary value 0 is eliminated from all operators.  The
Laplacian and the centred gradients are `Stencil`s: 3- or 5-point operators
applied by slicing the (n1[, n2], r) view of a field or a batch, which
compose with nodal scalings (the localized gradients and the commutator of
`frequency`).
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
    "kernel_caloric_residual",
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
    Dirichlet ghosts: (S v)(x) = sum_e w_e(x) v(x + e) over displacements e
    (tuples, one entry per axis), each weight w_e a scalar or a nodal field.

    `S @ v` takes a field (n,) or a batch (n, r), like a sparse matrix.  The
    terms are summed in ascending displacement order, the column order of a
    sorted row-major CSR matrix.
    """

    def __init__(self, shape: tuple, weights: dict):
        self.shape = tuple(shape)
        self.weights = dict(weights)
        self._terms = []  # (destination, source) index of a row batch
        for disp in sorted(self.weights):
            dst, src = _overlap(disp, self.shape)
            w = self.weights[disp]
            if np.ndim(w):
                w = np.reshape(w, self.shape)[dst]
            self._terms.append(((...,) + dst, (...,) + src, w))

    @classmethod
    def diagonal(cls, shape, values) -> "Stencil":
        """The nodal multiplication diag(values)."""
        return cls(shape, {(0,) * len(shape): np.asarray(values, dtype=float)})

    def __matmul__(self, v):
        # on the rows (r, n1[, n2]) of v.T, which a batch y.T holds contiguously
        rows = np.asarray(v, dtype=float).T
        field = rows.reshape(rows.shape[:-1] + self.shape)
        out = np.zeros(field.shape)
        for i, (dst, src, w) in enumerate(self._terms):
            if i == 0:  # 0 + w*v is w*v: the first term is written in place
                np.multiply(w, field[src], out=out[dst])
            else:
                out[dst] += w * field[src]
        return out.reshape(rows.shape).T

    def __add__(self, other: "Stencil") -> "Stencil":
        weights = dict(self.weights)
        for disp, w in other.weights.items():
            weights[disp] = weights[disp] + w if disp in weights else w
        return Stencil(self.shape, weights)

    def scaled(self, left=None, right=None) -> "Stencil":
        """diag(left) S diag(right) for nodal fields left and right."""
        weights = {}
        for disp, w in self.weights.items():
            w = np.broadcast_to(w, self.shape)
            if left is not None:
                w = np.reshape(left, self.shape) * w
            if right is not None:
                # right(x + e) at x, zero where x + e is a ghost
                shifted = np.zeros(self.shape)
                dst, src = _overlap(disp, self.shape)
                shifted[dst] = np.reshape(right, self.shape)[src]
                w = w * shifted
            weights[disp] = w
        return Stencil(self.shape, weights)


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
        self.axes = tuple(axes)
        if self.dim == 1:
            coords = axes[0][:, None]
        else:
            X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
            coords = np.column_stack([X.ravel(), Y.ravel()])
        coords.flags.writeable = False
        self.coords = coords
        self.n_nodes = coords.shape[0]
        self.quad_weight = float(np.prod(self.h))
        self._laplacian = None
        self._gradients = None
        self.boundary_coords, self.boundary_normals = self._boundary_nodes()

    def _boundary_nodes(self):
        pts, normals = [], []
        if self.dim == 1:
            (a, b), = self.extents
            pts = [[a], [b]]
            normals = [[-1.0], [1.0]]
        else:
            (a1, b1), (a2, b2) = self.extents
            for y in self.axes[1]:
                pts.append([a1, y]); normals.append([-1.0, 0.0])
                pts.append([b1, y]); normals.append([1.0, 0.0])
            for x in self.axes[0]:
                pts.append([x, a2]); normals.append([0.0, -1.0])
                pts.append([x, b2]); normals.append([0.0, 1.0])
        return np.array(pts, dtype=float), np.array(normals, dtype=float)

    def _unit(self, axis: int, step: int) -> tuple:
        return tuple(step if ax == axis else 0 for ax in range(self.dim))

    def laplacian(self) -> Stencil:
        """Second-order Dirichlet Laplacian (3-point / 5-point stencil)."""
        if self._laplacian is None:
            weights = {self._unit(0, 0): sum(-2.0 / h**2 for h in self.h)}
            for axis, h in enumerate(self.h):
                weights[self._unit(axis, -1)] = 1.0 / h**2
                weights[self._unit(axis, 1)] = 1.0 / h**2
            self._laplacian = Stencil(self.shape, weights)
        return self._laplacian

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
        values = np.asarray(values, dtype=float)
        return np.stack([(op @ values.T).T for op in self.gradient_ops()],
                        axis=-1)

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

    Satisfies K_t + Delta K = 0 in closed form.
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

    def _s(self, t: float) -> float:
        if t < 0.0 or t > self.horizon:
            raise DomainError(f"t={t} outside [0, {self.horizon}]")
        return self.horizon - t + self.shift

    def values(self, t: float, coords: np.ndarray) -> np.ndarray:
        s = self._s(t)
        d2 = ((coords - np.asarray(self.center)) ** 2).sum(axis=-1)
        return s ** (-self.dim / 2.0) * np.exp(-d2 / (4.0 * s))

    def gradient(self, t: float, coords: np.ndarray) -> np.ndarray:
        s = self._s(t)
        k = self.values(t, coords)
        return -(coords - np.asarray(self.center)) * k[..., None] / (2.0 * s)

    def time_derivative(self, t: float, coords: np.ndarray) -> np.ndarray:
        s = self._s(t)
        k = self.values(t, coords)
        d2 = ((coords - np.asarray(self.center)) ** 2).sum(axis=-1)
        return (self.dim / (2.0 * s)) * k - (d2 / (4.0 * s**2)) * k

    def laplacian_closed_form(self, t: float, coords: np.ndarray) -> np.ndarray:
        s = self._s(t)
        k = self.values(t, coords)
        d2 = ((coords - np.asarray(self.center)) ** 2).sum(axis=-1)
        return -(self.dim / (2.0 * s)) * k + (d2 / (4.0 * s**2)) * k


def kernel_caloric_residual(weight: HeatKernelWeight, grid: SpatialGrid, t: float,
                            dt_fd: float = 1e-4) -> dict:
    """max |K_t + Delta K| over interior nodes, closed form and finite differences.

    The closed-form residual vanishes analytically; the finite-difference
    version (forward difference in t, discrete Laplacian in x) calibrates the
    scheme's consistency error.
    """
    if not 0.0 < t < weight.horizon:
        raise DomainError(f"t={t} must lie in (0, {weight.horizon})")
    closed = weight.time_derivative(t, grid.coords) + weight.laplacian_closed_form(t, grid.coords)
    k_now = weight.values(t, grid.coords)
    t2 = min(t + dt_fd, weight.horizon)
    kt_fd = (weight.values(t2, grid.coords) - k_now) / (t2 - t)
    lap_fd = grid.laplacian() @ k_now
    # The discrete Laplacian sees the Dirichlet zero ghost, wrong for K near
    # the boundary; restrict the FD audit to nodes one stencil away from it.
    interior = np.ones(grid.n_nodes, dtype=bool)
    if grid.dim == 1:
        interior[[0, -1]] = False
    else:
        interior = np.zeros(grid.shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        interior = interior.ravel()
    return {
        "closed_form": float(np.max(np.abs(closed))),
        "finite_difference": float(np.max(np.abs((kt_fd + lap_fd)[interior]))) if interior.any() else 0.0,
        "max_kernel": float(np.max(k_now)),
    }


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
