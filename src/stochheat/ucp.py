"""Quantitative unique continuation for the stochastic heat equation.

Explicit interpolation constants for the convex case, the Gaussian-weighted
three-ball inequality at the terminal time, the dyadic selection of the
kernel shift lambda, and propagation of numerical vanishing along ball
chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .forward import CoefficientField, energy_trace
from .frequency import localized_fields
from .geometry import (Ball, CutoffFunction, HeatKernelWeight, SpatialGrid,
                       ball_chain)
from .noise import TimeMesh

__all__ = [
    "UcpConstants",
    "compute_constants",
    "default_tolerance",
    "amplitude_profile",
    "select_lambda",
    "three_ball_check",
    "quantitative_ucp_check",
    "propagate_vanishing",
]

LAMBDA_GRID = 0.5 ** np.arange(41)
T_GRID_POINTS = 1024
VANISHING_REL = 1e-12


def default_tolerance(mesh: TimeMesh, grid: SpatialGrid, scale: float = 1.0) -> float:
    """Discretization budget for inequalities that are exact in the continuum."""
    h_max = float(np.max(grid.h))
    return 5.0 * (mesh.dt + h_max ** 2) * scale


@dataclass(frozen=True)
class UcpConstants:
    """Explicit constants of the convex-domain interpolation inequality."""

    r: float
    m: float
    horizon: float
    dim: int
    sup_a: float
    sup_b: float
    log_ratio: float          # ln(E||y0||^2 / E||yT||^2), clamped at 0
    big_d: float              # includes the endpoint-ratio log term
    big_j: float              # log-free companion of big_d
    delta: float
    beta: float
    lambda_tilde: float
    theta: float              # observation-time exponent (horizon-frozen form)
    gamma: float
    variants: dict

    def identity_residuals(self) -> dict:
        """Re-derive the defining algebraic identities; all should be ~eps."""
        denom = self.r ** 2 * self.horizon + 8.0 * self.m * (self.horizon + 1.0) \
            * np.exp(self.horizon * self.sup_b ** 2)
        return {
            "delta": abs(self.delta * denom - self.r ** 2 * self.horizon)
            / max(denom, 1.0),
            "beta": abs(self.beta * denom - 4.0 * self.m * self.horizon * self.big_j)
            / max(denom, 1.0),
            "lambda_tilde": abs(self.lambda_tilde * 16.0 * self.big_d - self.r ** 2),
        }


def _bracket_terms(m: float, t: np.ndarray, sup_b: float) -> np.ndarray:
    return 8.0 * m * (t + 1.0) * np.exp(t * sup_b ** 2)


def _big_j_at(t, m, sup_a, sup_b, dim):
    t = np.asarray(t, dtype=float)
    core = m / t ** 2 + 4.0 * sup_a + t * sup_a ** 2 + 2.0 * (1.0 + t) * sup_b ** 2
    return (t + 1.0) * np.exp(t * sup_b ** 2) * core + dim / 2.0


def compute_constants(grid: SpatialGrid, x0, r: float, horizon: float,
                      coeffs: CoefficientField, energy0: float,
                      energy_t: float) -> UcpConstants:
    """Evaluate the explicit interpolation constants from solution endpoints.

    energy0 / energy_t are E||y(0)||^2 and E||y(T)||^2.  A vanishing terminal
    energy puts us in the backward-uniqueness branch where the interpolation
    inequality is vacuous.
    """
    if energy_t <= 0.0:
        raise DomainError(
            "terminal energy vanishes: apply the backward-uniqueness branch")
    if r <= 0.0 or horizon <= 0.0:
        raise ConfigurationError("need r > 0 and horizon > 0")
    m = grid.max_dist_sq(x0)
    sup_a, sup_b = coeffs.sup_a, coeffs.sup_b_w1inf
    t_cap = horizon
    log_ratio = max(np.log(energy0 / energy_t), 0.0) if energy0 > 0 else 0.0
    big_j = float(_big_j_at(t_cap, m, sup_a, sup_b, grid.dim))
    big_d = big_j + 2.0 * (t_cap + 1.0) / t_cap * np.exp(t_cap * sup_b ** 2) * log_ratio
    denom = r ** 2 * t_cap + _bracket_terms(m, np.array(t_cap), sup_b)
    delta = r ** 2 * t_cap / denom
    beta = 4.0 * m * t_cap * big_j / denom
    lambda_tilde = r ** 2 / (16.0 * big_d)
    # observation-time exponents, maximized on a positive grid (both formulas
    # degenerate at t = 0)
    t_grid = np.linspace(horizon / T_GRID_POINTS, horizon, T_GRID_POINTS)
    theta_frozen = t_grid * big_j / (2.0 * (t_grid + 1.0)
                                     * np.exp(t_grid * sup_b ** 2))
    theta_subst = t_grid * _big_j_at(t_grid, m, sup_a, sup_b, grid.dim) \
        / (2.0 * (t_grid + 1.0) * np.exp(t_grid * sup_b ** 2))
    gamma_grid = _bracket_terms(m, t_grid, sup_b) \
        / (r ** 2 * t_grid + _bracket_terms(m, t_grid, sup_b))
    theta = float(np.max(theta_frozen))
    gamma = float(np.max(gamma_grid))
    variants = {"theta_frozen": theta, "theta_substituted": float(np.max(theta_subst)),
                "gamma_grid_max": gamma}
    return UcpConstants(r=float(r), m=float(m), horizon=float(horizon),
                        dim=grid.dim, sup_a=float(sup_a), sup_b=float(sup_b),
                        log_ratio=float(log_ratio), big_d=float(big_d),
                        big_j=float(big_j), delta=float(delta), beta=float(beta),
                        lambda_tilde=float(lambda_tilde), theta=theta,
                        gamma=float(gamma), variants=variants)


def amplitude_profile(ens, coeffs: CoefficientField, cutoff: CutoffFunction,
                      epsilon: float, lambdas=LAMBDA_GRID) -> dict:
    """Localized-energy amplitude A(lambda) over a shift grid.

    A(lambda) = ((T+lambda)/eps) * exp(2T|b|^2) * [ln(H(T-2eps)/H(T-eps))
                + eps + eps(1+2T)|b|^2 + (eps+1) * int_{T-2eps}^T (E int F^2 K)/H]

    with |b| the W^{1,inf} norm over the cutoff support and H the localized
    weighted energy at shift lambda.
    """
    mesh, grid = ens.mesh, ens.grid
    horizon = mesh.horizon
    if not 0.0 < 2.0 * epsilon < horizon:
        raise ConfigurationError("need 0 < 2*epsilon < horizon")
    center = cutoff.inner.center
    k2 = int(round((horizon - 2.0 * epsilon) / mesh.dt))
    k1 = int(round((horizon - epsilon) / mesh.dt))
    fields = localized_fields(ens, cutoff, coeffs)
    b_norm = coeffs.sup_b_over(fields.support_mask)
    profile = []
    for lam in np.atleast_1d(lambdas):
        weight = HeatKernelWeight(horizon=horizon, shift=float(lam),
                                  center=center, dim=grid.dim)
        tr = fields.contract(weight)
        h_arr = np.maximum(tr.h, 1e-300)
        log_term = max(float(np.log(h_arr[k2] / h_arr[k1])), 0.0)
        f_over_h = tr.aux["f_sq"] / h_arr
        integral = float(np.trapezoid(f_over_h[k2:], dx=mesh.dt))
        bracket = log_term + epsilon + epsilon * (1.0 + 2.0 * horizon) * b_norm ** 2 \
            + (epsilon + 1.0) * integral
        a_val = ((horizon + float(lam)) / epsilon) \
            * np.exp(2.0 * horizon * b_norm ** 2) * bracket
        profile.append((float(lam), float(a_val)))
    return {"profile": profile, "epsilon": float(epsilon)}


def select_lambda(profile, r: float, dim: int) -> dict:
    """Pick the largest dyadic shift whose selection bracket stays >= 1/2.

    `profile` is a sequence of (lambda, A(lambda)) pairs; the bracket is
    1 - (8*lambda/r^2)(A + dim/2).
    """
    best = None
    rows = []
    for lam, a_val in profile:
        bracket = 1.0 - (8.0 * lam / r ** 2) * (a_val + dim / 2.0)
        rows.append({"lambda": float(lam), "amplitude": float(a_val),
                     "bracket": float(bracket)})
        if bracket >= 0.5 and (best is None or lam > best["lambda"]):
            best = rows[-1]
    return {"qualifies": best is not None,
            "lambda1": best["lambda"] if best else None,
            "bracket": best["bracket"] if best else None,
            "profile": rows}


def three_ball_check(ens, x0, r1: float, r2: float, lambda1: float,
                     tol: float = 0.0) -> dict:
    """Terminal-time Gaussian-weighted two-ball comparison.

    E int_{B_{r2}} |x-x0|^2 y(T)^2 vartheta <= r1^2 E int_{B_{r1}} y(T)^2
    vartheta, with vartheta = exp(-|x-x0|^2 / (4 lambda1)); both sides share
    the quadrature and the weight.
    """
    if not 0.0 < r1 < r2:
        raise ConfigurationError("need 0 < r1 < r2")
    grid = ens.grid
    d2 = grid.distance_sq_to(x0)
    theta_w = np.exp(-d2 / (4.0 * lambda1))
    in1 = d2 < r1 ** 2
    in2 = d2 < r2 ** 2
    terminal = grid.quad_weight * ens.nodal_moment()[-1]
    lhs = terminal @ (in2 * d2 * theta_w)
    rhs = r1 ** 2 * (terminal @ (in1 * theta_w))
    return {"lhs": float(lhs), "rhs": float(rhs), "lambda1": float(lambda1),
            "pass": bool(lhs <= rhs * (1.0 + tol) + tol * max(rhs, 1e-300))}


def quantitative_ucp_check(ens, ball: Ball, constants: UcpConstants,
                           tol: float = 0.0) -> dict:
    """Interpolation inequality between global endpoints and local terminal mass.

    E||y(T)||^2 <= 2^delta exp(beta) (E||y(0)||^2)^{1-delta}
                  (E int_{B_r} y(T)^2)^delta.
    """
    energy = energy_trace(ens)
    lhs, e0 = energy[-1], energy[0]
    local = energy_trace(ens, ens.grid.ball_mask(ball))[-1]
    delta = constants.delta
    rhs = 2.0 ** delta * np.exp(constants.beta) * e0 ** (1.0 - delta) \
        * local ** delta
    note = None
    if lhs <= VANISHING_REL * max(e0, 1e-300):
        note = "terminal state numerically vanishes: backward-uniqueness branch"
    return {"lhs": float(lhs), "rhs": float(rhs), "delta": delta,
            "beta": constants.beta, "local_mass": float(local),
            "pass": bool(lhs <= rhs * (1.0 + tol)), "note": note}


def propagate_vanishing(ens, seed_ball: Ball, target_ball: Ball) -> dict:
    """Walk a ball chain checking whether terminal-time vanishing propagates.

    Vanishing on a ball means its weighted mass at the final time is below
    VANISHING_REL times the global mass; each chain link then asks whether the
    bridge ball (compactly inside both neighbours) inherits it.
    """
    grid = ens.grid
    chain = ball_chain(seed_ball, target_ball, grid)
    terminal = grid.quad_weight * ens.nodal_moment()[-1]
    global_mass = terminal.sum()
    floor = VANISHING_REL * max(global_mass, 1e-300)

    def rel_mass(ball):
        return terminal @ grid.ball_mask(ball).astype(float)

    steps = []
    propagated = True
    for i, (ball, bridge) in enumerate(chain):
        mass = rel_mass(ball)
        vanishes = mass <= floor
        rec = {"index": i, "center": ball.center, "radius": ball.radius,
               "mass": float(mass), "vanishes": bool(vanishes)}
        if bridge is not None:
            bmass = rel_mass(bridge)
            rec["bridge_mass"] = float(bmass)
            rec["bridge_vanishes"] = bool(bmass <= floor)
            if vanishes and not rec["bridge_vanishes"]:
                rec["flag"] = "vanishing failed to propagate across the bridge"
        steps.append(rec)
        if not vanishes:
            propagated = False
            break
    target_mass = rel_mass(target_ball)
    verdict = propagated and target_mass <= floor
    return {"steps": steps, "global_mass": float(global_mass),
            "target_mass": float(target_mass), "threshold": VANISHING_REL,
            "verdict": bool(verdict),
            "failed_at": None if propagated else steps[-1]["index"]}
