"""Brownian randomness: sampled increment ensembles and an exact Bernoulli tree.

Sampled mode draws Gaussian increments with a counter-based generator keyed by
(seed, path), so any single path is recomputable without materializing the
ensemble.  Tree mode replaces the Brownian filtration by the full binary tree
of +-sqrt(dt) increments: the first two moments match and every expectation
becomes an exact finite sum over the tree's 2^d leaf paths, each of weight
2^-d.  A tree gives its paths as `increments` and `weights`, like a
`PathEnsemble`, so `forward.solve_forward`, the tests' brute-force
reference, iterates both alike; the control solves of `control` run on the
tree's history levels instead.  Tree-mode surveys build no tree, since
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

    Its 2^depth leaves are the paths of the tree, each of weight 2^-depth:
    leaf l moves up (+sqrt(dt)) at step k when bit depth-1-k of l is set, so
    history node h of level k (2^k nodes, weight 2^-k) is the shared prefix
    of the leaves l with l >> (depth - k) = h, and has the children 2h (down
    move) and 2h+1 (up move) of `forward.tree_moves`.  Terminal data of the
    control solves has one row per leaf, `n_leaves` = 2^depth.
    """

    mesh: TimeMesh

    @property
    def depth(self) -> int:
        return self.mesh.steps

    @property
    def n_leaves(self) -> int:
        return 2**self.depth

    @property
    def increments(self) -> np.ndarray:
        """The increments of every leaf, shape (n_leaves, depth)."""
        bits = np.arange(self.n_leaves)[:, None] \
            >> np.arange(self.depth - 1, -1, -1) & 1
        return np.sqrt(self.mesh.dt) * (2.0 * bits - 1.0)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_leaves, 2.0 ** -self.depth)


def build_tree(mesh: TimeMesh, cap: int = DEFAULT_TREE_CAP) -> BernoulliTree:
    """Build the exact-filtration tree; depth beyond `cap` is refused."""
    if mesh.steps > cap:
        raise ResourceError(f"tree depth {mesh.steps} exceeds cap {cap}")
    return BernoulliTree(mesh=mesh)
