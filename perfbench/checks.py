"""Reference computations and output checks of the stochheat benchmark.

Each reference is computed here with dense numpy from the configuration and
the program's inputs (grid nodes, initial field, the control datum), never by
calling the program function whose output is checked.  Every check returns a
list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import os

import numpy as np

# relative agreement required between a program output and its dense
# reference; both sides are exact computations that differ by round-off
REFERENCE_RTOL = 1e-10
# how many standard errors a Monte Carlo mean may lie from its exact value
MC_SE_LIMIT = 4.0


def dense_laplacian(shape, h) -> np.ndarray:
    """Dirichlet 3-point (1-D) or 5-point (2-D) Laplacian as a dense matrix."""
    mats = []
    for n, hx in zip(shape, h):
        mats.append((np.diag(np.full(n - 1, 1.0), -1) - 2.0 * np.eye(n)
                     + np.diag(np.full(n - 1, 1.0), 1)) / hx ** 2)
    if len(mats) == 1:
        return mats[0]
    n1, n2 = shape
    return np.kron(mats[0], np.eye(n2)) + np.kron(np.eye(n1), mats[1])


def implicit_inverse(shape, h, dt: float) -> np.ndarray:
    """Dense inverse of the implicit step matrix I - dt * Laplacian."""
    lap = dense_laplacian(shape, h)
    return np.linalg.inv(np.eye(lap.shape[0]) - dt * lap)


def reference_energy_trace(y0, a, b, shape, h, horizon: float,
                           steps: int) -> np.ndarray:
    """E ||y(t_k)||^2 from the dense second-moment recursion.

    P_{k+1} = M^{-1} (D P D + dt B P B) M^{-T} with D = diag(1 + dt a) and
    B = diag(b), for the implicit Euler-Maruyama step with increments of
    mean 0 and variance dt (the tree and the Gaussian ensemble alike).
    """
    dt = horizon / steps
    m_inv = implicit_inverse(shape, h, dt)
    y0 = np.asarray(y0, dtype=float)
    n = y0.size
    drift = 1.0 + dt * np.broadcast_to(np.asarray(a, dtype=float), (n,))
    noise = np.broadcast_to(np.asarray(b, dtype=float), (n,))
    cell = float(np.prod(h))
    p = np.outer(y0, y0)
    energies = [cell * np.trace(p)]
    for _ in range(steps):
        p = drift[:, None] * p * drift[None, :] \
            + dt * noise[:, None] * p * noise[None, :]
        p = m_inv @ p @ m_inv.T
        energies.append(cell * np.trace(p))
    return np.array(energies)


def path_energies(values: np.ndarray, cell: float) -> np.ndarray:
    """||y_p(t_k)||^2 per path and time node from (paths, times, nodes)."""
    return cell * np.einsum("pkn,pkn->pk", values, values)


def check_close(label: str, value: float, reference: float,
                rtol: float = REFERENCE_RTOL) -> list:
    gap = abs(float(value) - float(reference)) / max(abs(float(reference)),
                                                     1e-300)
    if not gap <= rtol:
        return [f"{label}: {value!r} vs reference {reference!r} "
                f"(relative gap {gap:.3e} > {rtol:.0e})"]
    return []


def check_energy_trace(ensemble_energy: np.ndarray,
                       reference: np.ndarray) -> list:
    """Tree expectation E ||y(t_k)||^2 against the dense recursion."""
    if ensemble_energy.shape != reference.shape:
        return [f"energy trace has shape {ensemble_energy.shape}, "
                f"reference {reference.shape}"]
    failures = []
    for k, (value, ref) in enumerate(zip(ensemble_energy, reference)):
        failures += check_close(f"E||y(t_{k})||^2", value, ref)
    return failures


def check_mc_energy(per_path: np.ndarray, exact: float) -> list:
    """Monte Carlo mean of ||y(T)||^2 within MC_SE_LIMIT standard errors."""
    mean = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(per_path.size))
    z = (mean - exact) / se if se > 0.0 else np.inf
    if not abs(z) <= MC_SE_LIMIT:
        return [f"MC mean of ||y(T)||^2 = {mean!r} lies {z:.2f} standard "
                f"errors from the exact {exact!r}"]
    return []


def check_records(report: dict, known_failures=()) -> tuple:
    """Split the report's failed check records into (known, unexpected)."""
    failed = [rec["name"] for rec in report["checks"] if not rec["pass"]]
    known = [name for name in failed if name in known_failures]
    return known, [f"check record {name} has pass: false"
                   for name in failed if name not in known_failures]


def record_lhs(report: dict, name: str):
    """The lhs of the report's check record `name`, or None if absent."""
    for rec in report["checks"]:
        if rec["name"] == name:
            return rec.get("lhs")
    return None


def check_terminal_energy(report: dict, reference: float,
                          rtol: float = REFERENCE_RTOL) -> list:
    """The simulate report's terminal energy against a reference value."""
    energy = record_lhs(report, "terminal_energy_finite")
    if energy is None:
        return ["report has no terminal_energy_finite value"]
    return check_close("simulate terminal energy", energy, reference, rtol)


def check_gramian_duality(report: dict, cell: float) -> list:
    """In the control report, h <Lambda u, u> equals the observed mass of
    the dual flow from u (the adjoint backward mode is the exact transpose
    of the dual forward step)."""
    quad = record_lhs(report, "gramian_positivity")
    mass = record_lhs(report, "dual_support_mass_positive")
    if quad is None or mass is None:
        return ["report lacks the gramian_positivity or "
                "dual_support_mass_positive value"]
    return check_close("report h<Lambda u, u> vs observed mass",
                       cell * quad, mass)


def level_weights(intervals, horizon: float, steps: int) -> np.ndarray:
    """Actuation measure per time step: the overlap of E1 with the cell,
    kept when it covers at least half of the cell."""
    dt = horizon / steps
    weights = np.zeros(steps)
    for k in range(steps):
        lo, hi = k * dt, (k + 1) * dt
        overlap = sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in intervals)
        if overlap >= 0.5 * dt:
            weights[k] = overlap
    return weights


def reference_observed_mass(u, a: float, b: float, coords, mask_center,
                            mask_radius: float, intervals, h: float,
                            horizon: float, depth: int) -> float:
    """Observed mass sum_k w_k E ||chi_G0 y_k||^2 of the dual flow from u,
    propagated densely level by level over the binary tree (1-D grid)."""
    dt = horizon / depth
    coords = np.asarray(coords, dtype=float).ravel()
    m_inv = implicit_inverse((coords.size,), (h,), dt)
    mask = np.abs(coords - mask_center[0]) <= mask_radius
    weights = level_weights(intervals, horizon, depth)
    minus = 1.0 - dt * a - np.sqrt(dt) * b
    plus = 1.0 - dt * a + np.sqrt(dt) * b
    level = np.asarray(u, dtype=float)[None, :]
    mass = 0.0
    for k in range(depth):
        if weights[k] > 0.0:
            observed = level[:, mask]
            mass += weights[k] * h * float(np.mean(np.sum(observed ** 2,
                                                          axis=1)))
        children = np.empty((2 * level.shape[0], level.shape[1]))
        children[0::2] = minus * level
        children[1::2] = plus * level
        level = children @ m_inv.T
    return mass


def read_outputs(out_dir: str) -> dict:
    """Bytes of every report file in out_dir, timing sidecars excluded."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".timing.txt"):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def check_identical(first: dict, later: dict) -> list:
    """Reports of a later pass must equal the first pass byte for byte."""
    failures = []
    for name in sorted(set(first) | set(later)):
        if first.get(name) != later.get(name):
            failures.append(f"report file {name} differs between passes")
    return failures
