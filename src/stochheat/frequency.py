"""Parabolic frequency function for the stochastic heat equation.

With a backward heat-kernel weight K and a spatial cutoff phi, the localized
field Phi = phi*y carries the quantities

    H(t) = E int Phi^2 K,   D(t) = E int |grad Phi|^2 K,   N(t) = 2 D / H,

plus the commutator source F = a*Phi + S y with the static part
S y = -Lap(phi) y - 2 grad(phi).grad y.  Each functional is a contraction
sum_i K(t, x_i) f_i(t) of the kernel against a nodal field f of second
moments: E[Phi^2], E[|grad Phi|^2], E[Phi Sy] and E[(Sy)^2], by centred
differences (`SpatialGrid.gradient_ops`), formed exactly on the cutoff's
support box (`geometry.build_cutoff`), outside which they vanish; without
a cutoff (phi = 1, S = 0) they are the global, convex-domain functionals
on the grid.  `kernel_traces` is the one route to them, one `nodal_moment`
pass per call with no (steps+1, n) field: the derivative identity asks for
H, D, E int Phi F K and E int b^2 Phi^2 K on a fine 400-step ensemble
(`hprime_identity_residual` reduces them), the drift bounds for H, D and
E int F^2 K from one pass on the experiment's ensemble, and the lambda
sweep of `ucp` for the localized H and E int F^2 K under all its shifts.
The same code runs on every `forward.Ensemble`: sampled paths, the 2^d
leaf paths of a Bernoulli tree, or second moments, whose factors E[y y^T]
= Z^T Z are contracted like unit-weight paths (the surveys run the exact
moments in tree mode and, for node-uniform coefficients, the sampled
closed form in mc mode, one row per time node for all paths).

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


def _block(grid: SpatialGrid, cutoff: CutoffFunction | None, asks):
    """(terms, nodes, integrand) of the trace of the quantities `asks`
    under `cutoff`, or global (phi = 1, S = 0: no term of S y).  The nodes
    are the cutoff's support box (an index array) or the grid (a slice),
    and the `Ensemble.nodal_moment` integrand lists the terms of a row
    block y there, each formed once: `sq` Phi^2, `grad_sq` |grad Phi|^2
    (centred differences of Phi), `cross` Phi Sy and `s_sq` (Sy)^2, with
    Phi = phi*y and S y = -Lap(phi) y - 2 grad(phi).grad y, exact on the
    box's fields with zero ghosts (see `geometry.build_cutoff`)."""
    names = list(dict.fromkeys(t for q in asks for t in _FIELDS[q][0]
                               if cutoff or t in ("sq", "grad_sq")))
    box = cutoff.box if cutoff else (slice(None),) * grid.dim
    nodes = np.arange(grid.n_nodes).reshape(grid.shape)[box]
    grads = grid.gradient_ops(nodes.shape)
    nodes = nodes.ravel() if cutoff else slice(None)
    phi, lap, grad_phi = (cutoff.values[nodes], cutoff.lap[nodes],
                          cutoff.grad[nodes]) if cutoff else (None,) * 3

    def integrand(y):
        lead = y.shape[:-1]
        y = y.reshape(lead + grid.shape)[(...,) + box].reshape(lead + (-1,))
        big, sy = (y, None) if not cutoff else (phi * y, -lap * y - 2.0 * sum(
            grad_phi[:, ax] * g(y) for ax, g in enumerate(grads)))
        made = {"sq": lambda: np.square(big),
                "grad_sq": lambda: sum(np.square(g(big)) for g in grads),
                "cross": lambda: big * sy,
                "s_sq": lambda: np.square(sy)}
        return [made[name]() for name in names]

    return names, nodes, integrand


# quantity -> (the `_block` terms it reads, its nodal field from their
# moments m and the coefficients a, b at the time nodes): h = Phi^2, d =
# |grad Phi|^2, phi_f = Phi F, b_sq = b^2 Phi^2 and f_sq = F^2 with F =
# a Phi + S y; the global fields (phi = 1, S = 0) read no term of S y
_FIELDS = {
    "h": (("sq",), lambda m, a, b: m["sq"]),
    "d": (("grad_sq",), lambda m, a, b: m["grad_sq"]),
    "phi_f": (("sq", "cross"), lambda m, a, b:
              a * m["sq"] + m.get("cross", 0.0)),
    "b_sq": (("sq",), lambda m, a, b: b ** 2 * m["sq"]),
    "f_sq": (("sq", "cross", "s_sq"), lambda m, a, b:
             a ** 2 * m["sq"] + 2.0 * a * m.get("cross", 0.0)
             + m.get("s_sq", 0.0)),
}


def heat_kernel(weight: HeatKernelWeight, grid: SpatialGrid):
    """The `kernel` of `kernel_traces` for `weight`: (times, coords) ->
    K*quad_weight there: (J, k, m) for a tuple of J shifts, else (k, m)."""
    return lambda t, coords: weight.values(t, coords) * grid.quad_weight


def kernel_traces(ens, cutoff: CutoffFunction | None,
                  coeffs: CoefficientField, kernel, global_terms=(),
                  local_terms=(), nodes=slice(None)) -> tuple:
    """The kernel-weighted traces of `ens`, global (phi = 1) and under
    `cutoff`, from one `nodal_moment` pass over the time nodes `nodes`.

    `kernel(times, coords)` gives K*quad_weight at those times and points,
    shape (J..., k, len(coords)); `global_terms` and `local_terms` name the
    quantities each trace holds (with "h"): `h` = E int Phi^2 K, `d` =
    E int |grad Phi|^2 K, `phi_f` = E int Phi F K, `b_sq` = E int b^2
    Phi^2 K and `f_sq` = E int F^2 K.  Each tile of time nodes forms the
    nodal fields of those quantities from the moments of the terms they
    read, with the coefficients of step min(k, steps-1) at time node k
    (coefficients live on steps, and broadcast from their stored shapes),
    and contracts them with the kernel, evaluated once per tile at its own
    times: on the grid, or on the cutoff's support box (outside which the
    localized fields vanish) when no global quantity is asked.  Returns
    the (global, localized) FrequencyTrace pair, each None when no
    quantity is asked of it, with arrays of shape (J..., time nodes); a
    negative H raises NumericalError."""
    grid, mesh = ens.grid, ens.mesh
    steps = np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)
    blocks = [(local, asks, *_block(grid, cut, asks)) for local, (cut, asks)
              in enumerate(((None, global_terms), (cutoff, local_terms)))
              if asks]
    k_nodes = blocks[0][3]  # the kernel's nodes: the grid's if asked

    def contract(span, moments):
        a, b = (c[steps[span]] if len(c) > 1 else c
                for c in (coeffs.a_stored, coeffs.b_stored))
        k_w = kernel(mesh.times[span], grid.coords[k_nodes])
        moments, out = iter(moments), []
        for _, asks, names, at, _ in blocks:
            m = dict(zip(names, moments))
            ab = [c[:, at] if c.shape[1] > 1 else c for c in (a, b)]
            k_at = k_w if at is k_nodes else k_w[..., at]
            out += [np.einsum("...ki,ki->...k", k_at, _FIELDS[q][1](m, *ab))
                    for q in asks]
        return np.stack(out, axis=-2)

    out = ens.nodal_moment(lambda y: [t for *_, terms in blocks
                                      for t in terms(y)], contract, nodes)
    asks = [(q, local) for local, terms, *_ in blocks for q in terms]
    if np.any(out[..., [q == "h" for q, _ in asks], :] < 0):
        raise NumericalError("negative weighted energy; quadrature is broken")
    traces = [{q: out[..., i, :] for i, (q, loc) in enumerate(asks)
               if loc == local} for local in (0, 1)]
    return tuple(FrequencyTrace(mesh.times[nodes], tr.pop("h"),
                                tr.pop("d", None), tr) if tr else None
                 for tr in traces)


def hprime_identity_residual(trace: FrequencyTrace, dt: float) -> dict:
    """Residual of the energy-derivative identity

        H'(t) = -2 D(t) + 2 E int Phi F K + E int b^2 Phi^2 K

    on a trace of `kernel_traces` (one kernel, every time node, with `d`,
    `phi_f` and `b_sq`) at time step dt, measured per step as
    (H_{k+1}-H_k)/dt against the right-hand side at the step's midpoint
    (second order in time, so the spatial floor dominates), normalized by
    max H.
    """
    rhs = -2.0 * trace.d + 2.0 * trace.aux["phi_f"] + trace.aux["b_sq"]
    lhs = np.diff(trace.h) / dt
    rhs_mid = 0.5 * (rhs[:-1] + rhs[1:])
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

