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
they are built once, and the derivative identity, the drift bound and the
lambda sweep of `ucp` take them and contract them; without a cutoff they
are the global, convex-domain fields.  `compute_hdn` evaluates the kernel
once, as one (time, node) array, and contracts each field with one einsum.
The same code runs on every `forward.Ensemble`, one array of weighted rows
per time node: sampled paths, the 2^d leaf paths of an exact Bernoulli
tree, or the exact second moments, whose factors E[y y^T] = Z^T Z are
contracted like unit-weight paths; tree-mode surveys run the moments, and
the tree serves the tests.

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


def localized_fields(ens, cutoff: CutoffFunction | None,
                     coeffs: CoefficientField) -> LocalizedFields:
    """Nodal second moments of Phi = phi*y, grad Phi and the source F.

    phi = 1 and S = 0 when `cutoff` is None.  The coefficients at time node
    k are those of step min(k, steps-1), since coefficients live on steps.
    """
    grid, mesh = ens.grid, ens.mesh
    grads = grid.gradient_ops()
    phi = np.ones(grid.n_nodes) if cutoff is None else cutoff.values

    def integrand(y):  # y^2, |grad Phi|^2 and, with a cutoff, y Sy, (Sy)^2
        terms = [np.square(y), sum(np.square(g(phi * y)) for g in grads)]
        if cutoff is not None:
            sy = -cutoff.lap * y - 2.0 * sum(cutoff.grad[:, ax] * g(y)
                                              for ax, g in enumerate(grads))
            terms += [y * sy, np.square(sy)]
        return np.stack(terms)

    y_sq, d, *static = ens.nodal_moment(integrand)
    h = phi ** 2 * y_sq
    steps = np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)
    a_phi = coeffs.a[steps] * phi
    b_phi_sq = (coeffs.b[steps] * phi) ** 2
    y_src, src_sq = static or (0.0, 0.0)
    sources = {"phi_f": a_phi * phi * y_sq + phi * y_src,
               "b_sq": b_phi_sq * y_sq,
               "f_sq": a_phi ** 2 * y_sq + 2.0 * a_phi * y_src + src_sq}
    return LocalizedFields(grid=grid, mesh=mesh, cutoff=cutoff, coeffs=coeffs,
                           h=h, d=d, sources=sources)


def compute_hdn(fields: LocalizedFields,
                weight: HeatKernelWeight) -> FrequencyTrace:
    """H, D, N and the source integrals of `fields` under the kernel weight.

    aux carries, per time node: `phi_f` = E int Phi F K, `b_sq` =
    E int b^2 Phi^2 K and `f_sq` = E int F^2 K.
    """
    times = fields.mesh.times
    kw = weight.values(times, fields.grid.coords) * fields.grid.quad_weight
    h_arr, d_arr = (np.einsum("ki,ki->k", kw, f) for f in (fields.h, fields.d))
    if np.any(h_arr < 0):
        raise NumericalError("negative weighted energy; quadrature is broken")
    aux = {name: np.einsum("ki,ki->k", kw, f)
           for name, f in fields.sources.items()}
    n_arr = 2.0 * d_arr / np.maximum(h_arr, H_FLOOR)
    return FrequencyTrace(times=times, h=h_arr, d=d_arr, n=n_arr, aux=aux)


def hprime_identity_residual(fields: LocalizedFields,
                             weight: HeatKernelWeight,
                             rhs_eval: str = "midpoint") -> dict:
    """Residual of the energy-derivative identity

        H'(t) = -2 D(t) + 2 E int Phi F K + E int b^2 Phi^2 K

    measured per step as (H_{k+1}-H_k)/dt against the right-hand side,
    normalized by max H.  `rhs_eval` picks the evaluation point: "midpoint"
    (second-order in time, so the spatial floor dominates) or "left"
    (first-order, exposing the O(dt) term for refinement studies).
    """
    if rhs_eval not in ("midpoint", "left"):
        raise NumericalError(f"unknown rhs_eval '{rhs_eval}'")
    tr = compute_hdn(fields, weight)
    dt = fields.mesh.dt
    rhs = -2.0 * tr.d + 2.0 * tr.aux["phi_f"] + tr.aux["b_sq"]
    lhs = np.diff(tr.h) / dt
    rhs_mid = 0.5 * (rhs[:-1] + rhs[1:]) if rhs_eval == "midpoint" else rhs[:-1]
    scale = max(float(np.max(tr.h)), H_FLOOR)
    res = (lhs - rhs_mid) / scale
    integrated = float(np.sum(np.abs(res)) * dt)
    # magnitude of the cancelling derivative terms, for tolerance budgets
    rhs_scale = float(np.max(np.abs(rhs))) / scale
    return {"residuals": res, "max_residual": float(np.max(np.abs(res))),
            "integrated_residual": integrated, "rhs_scale": rhs_scale,
            "trace": tr}


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

