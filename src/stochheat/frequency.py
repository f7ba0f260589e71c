"""Parabolic frequency function for the stochastic heat equation.

With a backward heat-kernel weight K and a spatial cutoff phi, the localized
field Phi = phi*y carries the quantities

    H(t) = E int Phi^2 K,   D(t) = E int |grad Phi|^2 K,   N(t) = 2 D / H,

plus the commutator source F = a*Phi + S y with the static part
S y = -Lap(phi) y - 2 grad(phi).grad y.  Each functional is a contraction
sum_i K(t, x_i) f_i(t) of the kernel against a nodal field f of second
moments of the ensemble: E[y^2], sum_ax E[(d_ax Phi)^2], E[y Sy] and
E[(Sy)^2], which `localized_fields` reads in one `nodal_moment` pass, with
S applied as nodal scalings around the centred differences of
`SpatialGrid.gradient_ops`.  The fields do not depend on the kernel shift:
they are built once, and the drift bound and the lambda sweep of `ucp`
take them and contract them; without a cutoff they are the global,
convex-domain fields.  `compute_hdn` evaluates the kernel once, as one
(time, node) array, and contracts each field with one einsum.  The
derivative identity runs on a fine 400-step ensemble and builds no field:
`identity_traces` takes the global and the localized traces from one
`nodal_moment` pass with the same integrand, whose node weights are the
kernel K and a K and b^2 K, evaluated per tile of time nodes, so it holds
one tile where the fields held five (steps+1, n) arrays, and
`hprime_identity_residual` reduces the traces.
The same code runs on every `forward.Ensemble`, one array of weighted rows
per time node: sampled paths, the 2^d leaf paths of an exact Bernoulli
tree, or second moments, whose factors E[y y^T] = Z^T Z are contracted
like unit-weight paths.  The surveys run moments: the exact ones in tree
mode, and in mc mode, with coefficients uniform over the nodes, the
sampled closed form, whose one row per time node stands for all paths.
Sampled paths are contracted one by one only for space-varying
coefficients in mc mode; the tree serves the tests.

The convex-domain bound needs dK/dnu <= 0 on the boundary.  Since grad K =
-(x - x0) K / (2 (T-t+lambda)), that is (x - x0).nu >= 0, which holds by
construction: `geometry.build_cutoff` refuses a ball B_r4(x0) that is not
strictly inside the box, so x0 lies inside the box in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .forward import CoefficientField
from .geometry import CutoffFunction, HeatKernelWeight, SpatialGrid
from .noise import TimeMesh

__all__ = [
    "LocalizedFields",
    "FrequencyTrace",
    "localized_fields",
    "compute_hdn",
    "identity_traces",
    "hprime_identity_residual",
    "frequency_bound_check",
]

H_FLOOR = 1e-300


@dataclass
class FrequencyTrace:
    times: np.ndarray
    h: np.ndarray
    d: np.ndarray
    n: np.ndarray
    aux: dict = field(default_factory=dict, repr=False)


@dataclass
class LocalizedFields:
    """Kernel-free nodal integrands of one ensemble, each of shape
    (steps+1, n_nodes), with the cutoff (None: phi = 1) and the
    coefficients they were built from.

    `h` = phi^2 E[y^2], `d` = sum_ax E[(d_ax Phi)^2]; `sources` holds
    `phi_f` = E[Phi F], `b_sq` = b^2 phi^2 E[y^2] and `f_sq` = E[F^2].
    """

    grid: SpatialGrid
    mesh: TimeMesh
    cutoff: CutoffFunction | None
    coeffs: CoefficientField
    h: np.ndarray
    d: np.ndarray
    sources: dict

    @property
    def b_norm(self) -> float:
        """W^{1,inf} norm of b over the cutoff support (global without one)."""
        if self.cutoff is None:
            return self.coeffs.sup_b_w1inf
        return self.coeffs.sup_b_over(self.cutoff.values > 0.0)


def _integrand(grid: SpatialGrid, cutoff: CutoffFunction | None,
               names: tuple):
    """The `Ensemble.nodal_moment` integrand that stacks, in the order of
    `names`, nodal terms of a row block y: `y_sq` y^2, `phi_y_sq` Phi^2,
    `grad_y_sq` |grad y|^2, `grad_phi_y_sq` |grad Phi|^2, `y_sy` y Sy,
    `phi_y_sy` Phi Sy and `sy_sq` (Sy)^2, with Phi = phi*y and the
    commutator S y = -Lap(phi) y - 2 grad(phi).grad y of `cutoff`."""
    grads = grid.gradient_ops()

    def integrand(y):
        grad_y = [g(y) for g in grads]
        sy = None if cutoff is None else -cutoff.lap * y - 2.0 * sum(
            cutoff.grad[:, ax] * gy for ax, gy in enumerate(grad_y))
        terms = {
            "y_sq": lambda: np.square(y),
            "phi_y_sq": lambda: cutoff.values ** 2 * np.square(y),
            "grad_y_sq": lambda: sum(np.square(gy) for gy in grad_y),
            "grad_phi_y_sq": lambda: sum(np.square(g(cutoff.values * y))
                                         for g in grads),
            "y_sy": lambda: y * sy,
            "phi_y_sy": lambda: cutoff.values * (y * sy),
            "sy_sq": lambda: np.square(sy)}
        return np.stack([terms[name]() for name in names])

    return integrand


def _coefficient_steps(mesh: TimeMesh) -> np.ndarray:
    """The step min(k, steps-1) whose coefficients hold at time node k,
    since coefficients live on steps."""
    return np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)


def localized_fields(ens, cutoff: CutoffFunction | None,
                     coeffs: CoefficientField) -> LocalizedFields:
    """Nodal second moments of Phi = phi*y, grad Phi and the source F.

    phi = 1 and S = 0 when `cutoff` is None.  The coefficients at time node
    k are those of step min(k, steps-1), since coefficients live on steps.
    """
    grid, mesh = ens.grid, ens.mesh
    phi = np.ones(grid.n_nodes) if cutoff is None else cutoff.values
    names = ("y_sq", "grad_y_sq") if cutoff is None else \
        ("y_sq", "grad_phi_y_sq", "y_sy", "sy_sq")
    y_sq, d, *static = ens.nodal_moment(_integrand(grid, cutoff, names))
    h = phi ** 2 * y_sq
    steps = _coefficient_steps(mesh)
    a_phi = coeffs.a[steps] * phi
    b_phi_sq = (coeffs.b[steps] * phi) ** 2
    y_src, src_sq = static or (0.0, 0.0)
    sources = {"phi_f": a_phi * phi * y_sq + phi * y_src,
               "b_sq": b_phi_sq * y_sq,
               "f_sq": a_phi ** 2 * y_sq + 2.0 * a_phi * y_src + src_sq}
    return LocalizedFields(grid=grid, mesh=mesh, cutoff=cutoff, coeffs=coeffs,
                           h=h, d=d, sources=sources)


def _trace(times: np.ndarray, h: np.ndarray, d: np.ndarray,
           aux: dict) -> FrequencyTrace:
    """The FrequencyTrace of H and D, with N = 2D/H."""
    if np.any(h < 0):
        raise NumericalError("negative weighted energy; quadrature is broken")
    return FrequencyTrace(times=times, h=h, d=d,
                          n=2.0 * d / np.maximum(h, H_FLOOR), aux=aux)


def compute_hdn(fields: LocalizedFields,
                weight: HeatKernelWeight) -> FrequencyTrace:
    """H, D, N and the source integrals of `fields` under the kernel weight.

    aux carries, per time node: `phi_f` = E int Phi F K, `b_sq` =
    E int b^2 Phi^2 K and `f_sq` = E int F^2 K.
    """
    times = fields.mesh.times
    kw = weight.values(times, fields.grid.coords) * fields.grid.quad_weight
    h_arr, d_arr = (np.einsum("ki,ki->k", kw, f) for f in (fields.h, fields.d))
    aux = {name: np.einsum("ki,ki->k", kw, f)
           for name, f in fields.sources.items()}
    return _trace(times, h_arr, d_arr, aux)


def identity_traces(ens, cutoff: CutoffFunction, coeffs: CoefficientField,
                    weight: HeatKernelWeight) -> tuple:
    """The traces of the energy-derivative identity, global (phi = 1) and
    under `cutoff`: the H, D, `phi_f` and `b_sq` of `compute_hdn` on the
    two `localized_fields` of `ens`, from one `nodal_moment` pass that
    holds no (steps+1, n) field.  Each tile of time nodes evaluates the
    kernel K*quad_weight at its own times only, and its y^2, Phi^2,
    |grad y|^2, |grad Phi|^2 and Phi Sy are contracted against the kernel
    and against its products with the nodal a_k and b_k^2 at once.
    Returns the (global, localized) FrequencyTrace pair."""
    grid, mesh = ens.grid, ens.mesh
    steps = _coefficient_steps(mesh)

    def node_weight(nodes):
        kw = weight.values(mesh.times[nodes], grid.coords) * grid.quad_weight
        k = steps[nodes]
        return np.stack([kw, coeffs.a[k] * kw, np.square(coeffs.b[k]) * kw])

    names = ("y_sq", "phi_y_sq", "grad_y_sq", "grad_phi_y_sq", "phi_y_sy")
    # per term: its contraction with K, a K and b^2 K per time node
    term = dict(zip(names, ens.nodal_moment(
        _integrand(grid, cutoff, names), node_weight).swapaxes(0, 1)))
    y_sq, phi_y_sq = term["y_sq"], term["phi_y_sq"]
    return (_trace(mesh.times, y_sq[0], term["grad_y_sq"][0],
                   {"phi_f": y_sq[1], "b_sq": y_sq[2]}),
            _trace(mesh.times, phi_y_sq[0], term["grad_phi_y_sq"][0],
                   {"phi_f": phi_y_sq[1] + term["phi_y_sy"][0],
                    "b_sq": phi_y_sq[2]}))


def hprime_identity_residual(trace: FrequencyTrace, dt: float,
                             rhs_eval: str = "midpoint") -> dict:
    """Residual of the energy-derivative identity

        H'(t) = -2 D(t) + 2 E int Phi F K + E int b^2 Phi^2 K

    on a trace of `compute_hdn` or `identity_traces` at time step dt,
    measured per step as (H_{k+1}-H_k)/dt against the right-hand side,
    normalized by max H.  `rhs_eval` picks the evaluation point: "midpoint"
    (second-order in time, so the spatial floor dominates) or "left"
    (first-order, exposing the O(dt) term for refinement studies).
    """
    if rhs_eval not in ("midpoint", "left"):
        raise NumericalError(f"unknown rhs_eval '{rhs_eval}'")
    rhs = -2.0 * trace.d + 2.0 * trace.aux["phi_f"] + trace.aux["b_sq"]
    lhs = np.diff(trace.h) / dt
    rhs_mid = 0.5 * (rhs[:-1] + rhs[1:]) if rhs_eval == "midpoint" else rhs[:-1]
    scale = max(float(np.max(trace.h)), H_FLOOR)
    res = (lhs - rhs_mid) / scale
    integrated = float(np.sum(np.abs(res)) * dt)
    # magnitude of the cancelling derivative terms, for tolerance budgets
    rhs_scale = float(np.max(np.abs(rhs))) / scale
    return {"residuals": res, "max_residual": float(np.max(np.abs(res))),
            "integrated_residual": integrated, "rhs_scale": rhs_scale,
            "trace": trace}


def frequency_bound_check(fields: LocalizedFields, weight: HeatKernelWeight,
                          slack: float = 1e-9) -> dict:
    """Check the frequency drift inequality over all discrete time pairs.

    General form (fields built with a cutoff): for s < t,

        N(t) - N(s) <= int_s^t [1/(T-tau+lambda) + 2|b|^2] N dtau
                       + 2|b|^2 (t-s) + int_s^t (E int F^2 K)/H dtau,

    with |b| the W^{1,inf} norm over the cutoff support.  The convex variant
    (fields built without a cutoff, convex domain) replaces the source
    integral by the constant (|a|^2 + 2|b|^2)(t-s) and uses the weaker
    Gronwall rate 1/(T-tau+lambda) + |b|^2.
    """
    tr = compute_hdn(fields, weight)
    times = tr.times
    b_norm = fields.b_norm
    kernel_rate = 1.0 / (weight.horizon - times + weight.shift)
    if fields.cutoff is None:
        integrand = (kernel_rate + b_norm ** 2) * tr.n
        const_rate = fields.coeffs.sup_a ** 2 + 2.0 * b_norm ** 2
    else:
        f_over_h = tr.aux["f_sq"] / np.maximum(tr.h, H_FLOOR)
        integrand = (kernel_rate + 2.0 * b_norm ** 2) * tr.n + f_over_h
        const_rate = 2.0 * b_norm ** 2
    dt = fields.mesh.dt
    # cumulative trapezoid of the integrand
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[:-1] + integrand[1:]) * dt)])
    n_nodes = len(times)
    worst = -np.inf
    worst_pair = (0, 0)
    scale = max(float(np.max(np.abs(tr.n))), 1.0)
    for i in range(n_nodes):
        gain = tr.n[i + 1:] - tr.n[i]
        bound = (cum[i + 1:] - cum[i]) + const_rate * (times[i + 1:] - times[i])
        if gain.size:
            viol = np.max(gain - bound)
            if viol > worst:
                worst = float(viol)
                j = int(np.argmax(gain - bound))
                worst_pair = (i, i + 1 + j)
    ok = worst <= slack * scale
    return {"holds": bool(ok), "worst_violation": worst,
            "worst_pair": worst_pair, "relative_violation": worst / scale,
            "b_norm": b_norm, "trace": tr}

