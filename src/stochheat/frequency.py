"""Parabolic frequency function for the stochastic heat equation.

With a backward heat-kernel weight K and a spatial cutoff phi, the localized
field Phi = phi*y carries the quantities

    H(t) = E int Phi^2 K,   D(t) = E int |grad Phi|^2 K,   N(t) = 2 D / H,

plus the commutator source F = a*Phi + S y with the static part
S y = -Lap(phi) y - 2 grad(phi).grad y.  Each functional is a contraction
sum_i K(t, x_i) f_i(t) of the kernel against a nodal field f of second
moments of the ensemble: E[y^2], sum_ax E[(d_ax Phi)^2], E[y Sy] and
E[(Sy)^2], with S applied as nodal scalings around the centred
differences of `SpatialGrid.gradient_ops`; without a cutoff (phi = 1,
S = 0) they are the global, convex-domain functionals.  `kernel_traces`
is the one route to them: one `nodal_moment` pass per call, whose tiles
of time nodes form the fields of the quantities the caller asks for and
contract them at once with a stack of kernels evaluated at the tile's
times, so no (steps+1, n) field is held.  The derivative identity asks
for H, D, E int Phi F K and E int b^2 Phi^2 K on a fine 400-step
ensemble (`hprime_identity_residual` reduces them), the two drift bounds
for H, D and E int F^2 K from one pass on the experiment's ensemble, and
the lambda sweep of `ucp` for the localized H and E int F^2 K under all
its shifts on its time window.
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

__all__ = [
    "FrequencyTrace",
    "b_norm",
    "heat_kernel",
    "kernel_traces",
    "hprime_identity_residual",
    "frequency_bound_check",
]

H_FLOOR = 1e-300


@dataclass
class FrequencyTrace:
    """Kernel-weighted traces per time node, each of shape (kernels...,
    times): H, D (None when not asked for) and, in aux, the source
    integrals asked for."""

    times: np.ndarray
    h: np.ndarray
    d: np.ndarray | None = None
    aux: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> np.ndarray:
        return 2.0 * self.d / np.maximum(self.h, H_FLOOR)


def b_norm(coeffs: CoefficientField, cutoff: CutoffFunction | None) -> float:
    """W^{1,inf} norm of b over the cutoff support (global without one)."""
    if cutoff is None:
        return coeffs.sup_b_w1inf
    return coeffs.sup_b_over(cutoff.values > 0.0)


def _integrand(grid: SpatialGrid, cutoff: CutoffFunction | None,
               names: tuple):
    """The `Ensemble.nodal_moment` integrand that stacks, in the order of
    `names`, nodal terms of a row block y: `y_sq` y^2, `grad_y_sq`
    |grad y|^2, `grad_phi_y_sq` |grad Phi|^2, `y_sy` y Sy and `sy_sq`
    (Sy)^2, with Phi = phi*y and the commutator S y = -Lap(phi) y
    - 2 grad(phi).grad y of `cutoff`."""
    grads = grid.gradient_ops()

    def integrand(y):
        grad_y = [g(y) for g in grads]
        sy = None if cutoff is None else -cutoff.lap * y - 2.0 * sum(
            cutoff.grad[:, ax] * gy for ax, gy in enumerate(grad_y))
        terms = {
            "y_sq": lambda: np.square(y),
            "grad_y_sq": lambda: sum(np.square(gy) for gy in grad_y),
            "grad_phi_y_sq": lambda: sum(np.square(g(cutoff.values * y))
                                         for g in grads),
            "y_sy": lambda: y * sy,
            "sy_sq": lambda: np.square(sy)}
        return np.stack([terms[name]() for name in names])

    return integrand


# quantity -> (the `_integrand` terms it reads, its nodal field from their
# moments m, the coefficients a, b at the time nodes and the cutoff phi):
# h = Phi^2, d = |grad Phi|^2, phi_f = Phi F, b_sq = b^2 Phi^2 and f_sq =
# F^2 with F = a Phi + S y, so that each is the node weight K, a K, b^2 K
# or a^2 K against a term; the global fields read phi = 1 and S = 0
_LOCAL = {
    "h": (("y_sq",), lambda m, a, b, phi: phi ** 2 * m["y_sq"]),
    "d": (("grad_phi_y_sq",), lambda m, a, b, phi: m["grad_phi_y_sq"]),
    "phi_f": (("y_sq", "y_sy"), lambda m, a, b, phi:
              a * phi * phi * m["y_sq"] + phi * m["y_sy"]),
    "b_sq": (("y_sq",), lambda m, a, b, phi: (b * phi) ** 2 * m["y_sq"]),
    "f_sq": (("y_sq", "y_sy", "sy_sq"), lambda m, a, b, phi:
             (a * phi) ** 2 * m["y_sq"] + 2.0 * (a * phi) * m["y_sy"]
             + m["sy_sq"]),
}
_GLOBAL = {
    "h": (("y_sq",), lambda m, a, b, phi: m["y_sq"]),
    "d": (("grad_y_sq",), lambda m, a, b, phi: m["grad_y_sq"]),
    "phi_f": (("y_sq",), lambda m, a, b, phi: a * m["y_sq"]),
    "b_sq": (("y_sq",), lambda m, a, b, phi: b ** 2 * m["y_sq"]),
    "f_sq": (("y_sq",), lambda m, a, b, phi: a ** 2 * m["y_sq"]),
}


def heat_kernel(weight: HeatKernelWeight, grid: SpatialGrid):
    """The `kernel` of `kernel_traces` for `weight`: times -> K*quad_weight
    at the nodes, shape (J, k, n) for a tuple of J shifts, else (k, n)."""
    return lambda t: weight.values(t, grid.coords) * grid.quad_weight


def kernel_traces(ens, cutoff: CutoffFunction | None,
                  coeffs: CoefficientField, kernel, global_terms=(),
                  local_terms=(), nodes=slice(None)) -> tuple:
    """The kernel-weighted traces of `ens`, global (phi = 1) and under
    `cutoff`, from one `nodal_moment` pass over the time nodes `nodes`.

    `kernel(times)` gives K*quad_weight at those times, shape (J..., k, n);
    `global_terms` and `local_terms` name the quantities each trace holds
    (with "h"): `h` = E int Phi^2 K, `d` = E int |grad Phi|^2 K, `phi_f` =
    E int Phi F K, `b_sq` = E int b^2 Phi^2 K and `f_sq` = E int F^2 K.
    Each tile of time nodes forms the nodal fields of those quantities from
    the moments of the terms they read, with the coefficients of step
    min(k, steps-1) at time node k (coefficients live on steps), and
    contracts them with the kernel at its own times only.  Returns the
    (global, localized) FrequencyTrace pair, each None when no quantity is
    asked of it, with arrays of shape (J..., time nodes); a negative H
    raises NumericalError."""
    grid, mesh = ens.grid, ens.mesh
    steps = np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)
    phi = None if cutoff is None else cutoff.values
    asks = [(q, table) for table, terms in ((_GLOBAL, global_terms),
                                            (_LOCAL, local_terms))
            for q in terms]
    names = list(dict.fromkeys(t for q, table in asks for t in table[q][0]))

    def contract(span, moment):
        m = dict(zip(names, moment))
        a, b = coeffs.a[steps[span]], coeffs.b[steps[span]]
        k_w = kernel(mesh.times[span])
        return np.stack([np.einsum("...ki,ki->...k", k_w,
                                   table[q][1](m, a, b, phi))
                         for q, table in asks], axis=-2)

    out = ens.nodal_moment(_integrand(grid, cutoff, names), contract, nodes)
    if np.any(out[..., [q == "h" for q, _ in asks], :] < 0):
        raise NumericalError("negative weighted energy; quadrature is broken")
    traces = [{q: out[..., i, :] for i, (q, t) in enumerate(asks)
               if t is table} for table in (_GLOBAL, _LOCAL)]
    return tuple(FrequencyTrace(mesh.times[nodes], tr.pop("h"),
                                tr.pop("d", None), tr) if tr else None
                 for tr in traces)


def hprime_identity_residual(trace: FrequencyTrace, dt: float,
                             rhs_eval: str = "midpoint") -> dict:
    """Residual of the energy-derivative identity

        H'(t) = -2 D(t) + 2 E int Phi F K + E int b^2 Phi^2 K

    on a trace of `kernel_traces` (one kernel, every time node, with `d`,
    `phi_f` and `b_sq`) at time step dt,
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


def frequency_bound_check(trace: FrequencyTrace, weight: HeatKernelWeight,
                          coeffs: CoefficientField,
                          cutoff: CutoffFunction | None = None,
                          slack: float = 1e-9) -> dict:
    """Check the frequency drift inequality over all discrete time pairs.

    `trace` is a `kernel_traces` trace under `weight`, with one kernel and
    on every time node.  General form (the localized trace of `cutoff`,
    with its `f_sq`): for s < t,

        N(t) - N(s) <= int_s^t [1/(T-tau+lambda) + 2|b|^2] N dtau
                       + 2|b|^2 (t-s) + int_s^t (E int F^2 K)/H dtau,

    with |b| the W^{1,inf} norm over the cutoff support.  The convex variant
    (cutoff None: the global trace, convex domain) replaces the source
    integral by the constant (|a|^2 + 2|b|^2)(t-s) and uses the weaker
    Gronwall rate 1/(T-tau+lambda) + |b|^2.
    """
    times, n = trace.times, trace.n
    norm = b_norm(coeffs, cutoff)
    kernel_rate = 1.0 / (weight.horizon - times + weight.shift)
    if cutoff is None:
        integrand = (kernel_rate + norm ** 2) * n
        const_rate = coeffs.sup_a ** 2 + 2.0 * norm ** 2
    else:
        f_over_h = trace.aux["f_sq"] / np.maximum(trace.h, H_FLOOR)
        integrand = (kernel_rate + 2.0 * norm ** 2) * n + f_over_h
        const_rate = 2.0 * norm ** 2
    dt = times[1] - times[0]
    # cumulative trapezoid of the integrand
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[:-1] + integrand[1:]) * dt)])
    # the excess of the pair s = t_i < t = t_j is g_j - g_i: the worst pair
    # is the first i of the largest excess, with the first later max of g
    g = n - cum - const_rate * times
    later = np.maximum.accumulate(g[::-1])[::-1][1:]  # max of g after i
    i = int(np.argmax(later - g[:-1]))
    worst = float(later[i] - g[i])
    worst_pair = (i, i + 1 + int(np.argmax(g[i + 1:])))
    scale = max(float(np.max(np.abs(n))), 1.0)
    ok = worst <= slack * scale
    return {"holds": bool(ok), "worst_violation": worst,
            "worst_pair": worst_pair, "relative_violation": worst / scale,
            "b_norm": norm, "trace": trace}

