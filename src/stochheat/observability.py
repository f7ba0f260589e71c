"""Observability from measurable time sets for the stochastic heat equation.

Machinery: density-point geometric sequences t_m inside a finite union of
intervals E, the epsilon-interpolation split of the global energy, the
epsilon_m recursion with its matching condition, the telescoping sum, and
the final observability inequality

    E ||y(T)||^2  <=  C * E int_E int_{G0} y^2,

with every constant explicit.  `epsilon_sequence` builds all the constants
in one call, running the recursion on log eps so that large coefficients
underflow eps_m to 0 rather than turn it into NaN.  One time-set measure,
`MeasurableTimeSet.measure_between` on arrays of endpoints, serves the
sequence gaps, the observation mass and the control's step weights.  The
checks read the energy trace and the local trace on the observation ball
(`forward.energy_trace`), each computed once by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .forward import CoefficientField
from .noise import TimeMesh
from .ucp import UcpConstants

__all__ = [
    "MeasurableTimeSet",
    "DensitySequence",
    "ObservabilityConstants",
    "growth_rate",
    "density_sequence",
    "interpolation_split",
    "epsilon_sequence",
    "observation_mass",
    "telescoping_check",
    "energy_estimate_check",
]

DEFAULT_Z = 2.0
DEFAULT_DEPTH = 8
SCAN_POINTS = 2 ** 10
SIGMA_THRESHOLD = 1e-8
IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class MeasurableTimeSet:
    """Finite union of disjoint open intervals in (0, horizon)."""

    intervals: tuple
    horizon: float

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ConfigurationError("time set needs at least one interval")
        ivs = tuple(sorted(ivs))
        prev_end = 0.0
        for a, b in ivs:
            if not 0.0 <= a < b <= self.horizon:
                raise ConfigurationError(f"interval ({a}, {b}) outside (0, {self.horizon})")
            if a < prev_end:
                raise ConfigurationError("time-set intervals overlap")
            prev_end = b
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def measure_between(self, s, t):
        """|E intersect (s, t)|, elementwise on (arrays of) endpoints; the
        intervals are summed in order, so a scalar call is the plain sum."""
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        total = np.zeros(np.shape(lo))
        for a, b in self.intervals:
            total += np.maximum(0.0, np.minimum(b, hi) - np.maximum(a, lo))
        return total[()]

    def longest_interval(self):
        return max(self.intervals, key=lambda iv: iv[1] - iv[0])


@dataclass
class DensitySequence:
    """Geometric sequence t_{m+1} = t0 + z^{-m} (t1 - t0) inside E."""

    t0: float
    t1: float
    z: float
    depth: int
    times: np.ndarray            # t_1 .. t_{depth+1}, strictly decreasing to t0
    gap_measures: np.ndarray     # |E cap (t_{m+1}, t_m)| for m = 1..depth
    found: bool                  # every gap t_m - t_{m+1} <= 3 gap_measures
    best_margin: float


def density_sequence(time_set: MeasurableTimeSet, z: float = DEFAULT_Z,
                     depth: int = DEFAULT_DEPTH) -> DensitySequence:
    """Construct the sequence from a density point of E.

    t0 is the midpoint of the longest maximal interval of E (a genuine
    density point for interval unions); t1 is the candidate of a dyadic grid
    in (t0, horizon) nearest t0 at which every gap satisfies
    t_m - t_{m+1} <= 3 |E cap (t_{m+1}, t_m)|, or else the candidate with
    the smallest worst-gap margin.
    """
    if z <= 1.0:
        raise ConfigurationError("sequence ratio z must exceed 1")
    lo, hi = time_set.longest_interval()
    t0 = 0.5 * (lo + hi)
    t1 = t0 + (time_set.horizon - t0) * np.arange(1, SCAN_POINTS + 1) \
        / (SCAN_POINTS + 1)
    # one row t_1 .. t_{depth+1} per candidate t1
    times = t0 + z ** -np.arange(depth + 1.0) * (t1[:, None] - t0)
    measures = time_set.measure_between(times[:, 1:], times[:, :-1])
    margins = np.max(-np.diff(times) - 3.0 * measures, axis=1)
    found = margins <= 1e-15
    i = int(np.argmax(found)) if found.any() else int(np.argmin(margins))
    return DensitySequence(t0=t0, t1=float(t1[i]), z=z, depth=depth,
                           times=times[i], gap_measures=measures[i],
                           found=bool(found[i]), best_margin=float(margins[i]))


def growth_rate(coeffs: CoefficientField, variant: str = "max") -> float:
    """Energy growth rate C(a,b) per unit time.

    `derivation` uses 2|a| + |b|^2 (what a Gronwall bound on the second
    moment yields); `printed` uses 2|a|^2 + |b|^2; `max` takes the larger so
    downstream inequalities hold under either reading.
    """
    a, b = coeffs.sup_a, coeffs.sup_b_w1inf
    rates = {"derivation": 2.0 * a + b ** 2, "printed": 2.0 * a ** 2 + b ** 2}
    rates["max"] = max(rates["derivation"], rates["printed"])
    if variant not in rates:
        raise ConfigurationError(f"unknown growth-rate variant '{variant}'")
    return rates[variant]


@dataclass(frozen=True)
class ObservabilityConstants:
    """All constants of the measurable-time observability chain."""

    theta: float
    gamma: float
    c_abt: float                  # C(a,b,T) = growth rate x horizon
    z: float
    eps1: float
    eps: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)
    c_explicit: float
    log_c_explicit: float
    rate_variants: dict
    # largest excess of the induction bound log eps_m <= log eps_1 and of
    # the matching condition log sigma_m = log alpha_{m+1} - C over their
    # rounding slack, as a ratio to it: <= 1 where they hold
    induction_ratio: float
    matching_ratio: float

    @property
    def identities_hold(self) -> bool:
        return self.induction_ratio <= 1.0 and self.matching_ratio <= 1.0


def epsilon_sequence(ucp_constants: UcpConstants, coeffs: CoefficientField,
                     horizon: float, gap_measures: np.ndarray,
                     z: float = DEFAULT_Z,
                     variant: str = "max") -> ObservabilityConstants:
    """The constants of the chain on the gaps of a density sequence, with
    C = C(a,b,T) the `growth_rate` times the horizon.

    eps_1 = e^{-C} / (3z) and eps_{m+1}^gamma = eps_m^{gamma+1} e^{C}
    gap_m / gap_{m+1}; alpha_m = eps_m^gamma gap_m and sigma_m =
    eps_m^{gamma+1} gap_m.  The recursion runs on log eps, so a large C
    underflows eps_m, alpha_m and sigma_m to 0 instead of making 0 * inf
    = NaN, and C_explicit = 2 e^{2C + Theta} / alpha_1 keeps its log when it
    overflows.  The induction bound eps_m <= eps_1 and the matching
    condition sigma_m = alpha_{m+1} e^{-C} are measured on the logs against
    the rounding of sums of their size (`induction_ratio`,
    `matching_ratio`).
    """
    gaps = np.asarray(gap_measures, dtype=float)
    if np.any(gaps <= 0.0):
        raise ConfigurationError("all gap measures must be positive")
    g, c = ucp_constants.gamma, growth_rate(coeffs, variant) * horizon
    log_gaps = np.log(gaps)
    log_eps = np.empty(len(gaps))
    log_eps[0] = -c - np.log(3.0 * z)
    for m in range(len(gaps) - 1):
        log_eps[m + 1] = ((g + 1.0) * log_eps[m] + c + log_gaps[m]
                          - log_gaps[m + 1]) / g
    # each condition's largest excess over its rounding slack
    slack = IDENTITY_RTOL * np.maximum(1.0, np.abs(log_eps[1:]))
    induction = np.max((log_eps[1:] - log_eps[0]) / slack, initial=-np.inf)
    log_alpha = g * log_eps + log_gaps
    log_sigma = (g + 1.0) * log_eps + log_gaps
    slack = IDENTITY_RTOL * 10 * np.maximum(1.0, np.abs(log_sigma[:-1]))
    matching = np.max(np.abs(log_sigma[:-1] - (log_alpha[1:] - c)) / slack,
                      initial=-np.inf)
    # the explicit constant is doubly exponential in the coefficient norms
    # and routinely overflows; keep the log alongside the (possibly inf) value
    log_c = np.log(2.0) - log_alpha[0] + 2.0 * c + ucp_constants.theta
    with np.errstate(over="ignore"):
        c_explicit = float(np.exp(log_c))
    eps = np.exp(log_eps)
    return ObservabilityConstants(
        theta=ucp_constants.theta, gamma=g, c_abt=c, z=z, eps1=float(eps[0]),
        eps=eps, alpha=np.exp(log_alpha), sigma=np.exp(log_sigma),
        c_explicit=c_explicit, log_c_explicit=float(log_c),
        rate_variants={name: growth_rate(coeffs, name) * horizon
                       for name in ("derivation", "printed", "max")},
        induction_ratio=float(induction), matching_ratio=float(matching))


def interpolation_split(energy: np.ndarray, local_energy: np.ndarray,
                        constants: ObservabilityConstants, eps: float,
                        k: int, tol: float = 0.0) -> dict:
    """Split of the global energy at time node k:

        E||y(t)||^2 <= (2/eps^gamma) e^Theta E||y(t)||^2_{L2(B_r)}
                      + eps E||y(0)||^2.
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must lie in (0, 1)")
    lhs = energy[k]
    with np.errstate(over="ignore"):
        rhs = (2.0 / eps ** constants.gamma) * np.exp(constants.theta) \
            * local_energy[k] + eps * energy[0]
    return {"lhs": float(lhs), "rhs": float(rhs), "eps": eps,
            "margin": float(rhs - lhs),
            "pass": bool(lhs <= rhs * (1.0 + tol) + tol)}


def observation_mass(local: np.ndarray, mesh: TimeMesh,
                     time_set: MeasurableTimeSet,
                     s: float | None = None, t: float | None = None) -> float:
    """E int_{E cap (s,t)} int_{B} y^2 dx dtau by trapezoid over time cells,
    from the trace `local` of E int_B y^2 per time node
    (`energy_trace(ens, mask)`)."""
    lo = np.maximum(mesh.times[:-1], 0.0 if s is None else s)
    hi = np.minimum(mesh.times[1:], mesh.horizon if t is None else t)
    overlap = np.where(hi > lo, time_set.measure_between(lo, hi), 0.0)
    # cells E does not meet stay out of the sum: 0 * inf is NaN
    k = np.flatnonzero(overlap > 0.0)
    return float(np.sum(overlap[k] * 0.5 * (local[k] + local[k + 1])))


def _nearest_node(mesh: TimeMesh, t: float) -> int:
    return int(np.clip(round(t / mesh.dt), 0, mesh.steps))


def telescoping_check(energy: np.ndarray, local: np.ndarray, mesh: TimeMesh,
                      time_set: MeasurableTimeSet, seq: DensitySequence,
                      constants: ObservabilityConstants, tol: float) -> dict:
    """Assemble the per-gap inequalities, their telescoped sum, and the
    final observability inequality, from the energy trace and the local
    trace on the observation ball B (`energy_trace`).

    Per gap m:  alpha_m e^{-C} E||y(t_m)||^2
                  <= 2 e^Theta (observation over E cap gap)
                     + sigma_m E||y(t_{m+1})||^2.
    Summed:     alpha_1 e^{-C} E||y(t_1)||^2 - sigma_n E||y(t_{n+1})||^2
                  <= 2 e^Theta E int_E int_B y^2.
    Final:      E||y(T)||^2 <= C_explicit * E int_E int_B y^2, and the empirical
    sharp constant C_emp = LHS / observation mass is reported alongside.
    """
    c = constants.c_abt
    n = len(constants.alpha)
    gap_records = []
    for m in range(n):
        t_hi, t_lo = seq.times[m], seq.times[m + 1]
        e_hi = energy[_nearest_node(mesh, t_hi)]
        e_lo = energy[_nearest_node(mesh, t_lo)]
        obs = observation_mass(local, mesh, time_set, s=t_lo, t=t_hi)
        lhs = constants.alpha[m] * np.exp(-c) * e_hi
        with np.errstate(over="ignore"):
            rhs = 2.0 * np.exp(constants.theta) * obs + constants.sigma[m] * e_lo
        gap_records.append({"m": m + 1, "lhs": float(lhs), "rhs": float(rhs),
                            "observation": float(obs),
                            "pass": bool(lhs <= rhs * (1.0 + tol) + tol)})
    obs_full = observation_mass(local, mesh, time_set)
    e_t1 = energy[_nearest_node(mesh, seq.times[0])]
    e_tail = energy[_nearest_node(mesh, seq.times[-1])]
    summed_lhs = constants.alpha[0] * np.exp(-c) * e_t1 \
        - constants.sigma[-1] * e_tail
    with np.errstate(over="ignore"):
        summed_rhs = 2.0 * np.exp(constants.theta) * obs_full
    final_lhs = energy[-1]
    if obs_full <= 0.0 and final_lhs > tol:
        raise NumericalError(
            "zero observation mass with nonzero terminal energy: "
            "discrete observability failure")
    c_emp = final_lhs / obs_full if obs_full > 0.0 else 0.0
    final_rhs = constants.c_explicit * obs_full
    return {"per_gap": gap_records,
            "summed": {"lhs": float(summed_lhs), "rhs": float(summed_rhs),
                       "pass": bool(summed_lhs <= summed_rhs * (1.0 + tol) + tol)},
            "final": {"lhs": float(final_lhs), "rhs": float(final_rhs),
                      "c_explicit": float(constants.c_explicit),
                      "c_emp": float(c_emp),
                      "pass": bool(final_lhs <= final_rhs * (1.0 + tol) + tol)},
            "sigma_tail": float(constants.sigma[-1]),
            "sigma_small": bool(constants.sigma[-1] <= SIGMA_THRESHOLD)}


def energy_estimate_check(energy: np.ndarray, mesh: TimeMesh,
                          coeffs: CoefficientField, tol: float,
                          variant: str = "max") -> dict:
    """Pointwise-in-time growth bound E||y(t)||^2 <= e^{C(a,b) t} E||y(0)||^2
    on the energy trace, compared as E(t) e^{-Ct} against E(0) so that a
    bound too large for a float reads as met, not as inf/inf.  The worst
    relative excess is taken over t_k, k >= 1: at t = 0 it is 0 by
    construction."""
    rate = growth_rate(coeffs, variant)
    e0 = energy[0]
    rel = (energy[1:] * np.exp(-rate * mesh.times[1:]) - e0) / max(e0, 1e-300)
    worst = float(np.max(rel))
    return {"pass": bool(worst <= tol), "worst_relative_excess": worst,
            "rate": rate, "variant": variant}
