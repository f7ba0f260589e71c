"""Brownian randomness: sampled increment ensembles and an exact Bernoulli tree.

Sampled mode draws Gaussian increments with a counter-based generator keyed by
(seed, path), so any single path is recomputable without materializing the
ensemble.  Tree mode replaces the Brownian filtration by the full binary tree
of +-sqrt(dt) increments: the first two moments match and every expectation
becomes an exact finite sum over the tree's history levels.  The control
solves of `control` build those levels, and so does `forward.solve_forward`,
the tests' brute-force reference; tree-mode surveys build no tree, since
`forward.solve_forward_moments` gives the same expectations at any depth.
`build_tree` caps the depth, so the cap bounds control runs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigurationError, ResourceError

__all__ = [
    "TimeMesh",
    "PathEnsemble",
    "BernoulliTree",
    "sample_ensemble",
    "path_increments",
    "build_tree",
]

DEFAULT_TREE_CAP = 16


@dataclass(frozen=True)
class TimeMesh:
    """Uniform partition of [0, T] into `steps` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ConfigurationError("time horizon must be positive")
        if self.steps < 1:
            raise ConfigurationError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def path_increments(seed: int, omega: int, mesh: TimeMesh) -> np.ndarray:
    """Increments of path `omega`, reproducible independently of the ensemble."""
    rng = Generator(Philox(key=[int(seed), int(omega)]))
    return np.sqrt(mesh.dt) * rng.standard_normal(mesh.steps)


@dataclass(frozen=True)
class PathEnsemble:
    """Monte Carlo increment ensemble; increments has shape (n_paths, steps)."""

    mesh: TimeMesh
    seed: int
    increments: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_paths, 1.0 / self.n_paths)


def sample_ensemble(mesh: TimeMesh, n_paths: int, seed: int) -> PathEnsemble:
    """Draw `n_paths` Gaussian N(0, dt) increment paths."""
    if n_paths < 1:
        raise ConfigurationError("need at least one path")
    inc = np.stack([path_increments(seed, omega, mesh) for omega in range(n_paths)])
    inc.flags.writeable = False
    return PathEnsemble(mesh=mesh, seed=seed, increments=inc)


@dataclass(frozen=True)
class BernoulliTree:
    """Full binary tree of +-sqrt(dt) increments, one level per time step.

    History level k holds 2^k nodes of weight 2^-k; node h has the children
    2h (down move) and 2h+1 (up move) of `forward.tree_moves`.  Terminal
    data of the control solves has one row per leaf, `n_leaves` = 2^depth.
    """

    mesh: TimeMesh

    @property
    def depth(self) -> int:
        return self.mesh.steps

    @property
    def n_leaves(self) -> int:
        return 2**self.depth


def build_tree(mesh: TimeMesh, cap: int = DEFAULT_TREE_CAP) -> BernoulliTree:
    """Build the exact-filtration tree; depth beyond `cap` is refused."""
    if mesh.steps > cap:
        raise ResourceError(f"tree depth {mesh.steps} exceeds cap {cap}")
    return BernoulliTree(mesh=mesh)
