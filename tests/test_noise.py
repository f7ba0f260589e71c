"""Time meshes, Bernoulli trees and Monte Carlo ensembles."""

import numpy as np
import pytest

from stochheat import (ConfigurationError, ResourceError, TimeMesh,
                       build_tree, path_increments, sample_ensemble)
from stochheat.forward import tree_moves


def test_mesh_basics():
    mesh = TimeMesh(horizon=1.0, steps=4)
    assert mesh.dt == 0.25
    assert np.allclose(mesh.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ConfigurationError):
        TimeMesh(horizon=-1.0, steps=4)
    with pytest.raises(ConfigurationError):
        TimeMesh(horizon=1.0, steps=0)


def test_tree_increment_moments_exact():
    # B(t_k) per history node of level k, node h having the children 2h
    # (down) and 2h+1 (up): E B(t_k) = 0 and E B(t_j) B(t_k) = t_min(j,k)
    # under the weights 2^-k, to rounding
    mesh = TimeMesh(horizon=0.5, steps=6)
    tree = build_tree(mesh)
    levels = [np.zeros(1)]
    for _ in range(tree.depth):
        levels.append((levels[-1][:, None] + tree_moves(mesh.dt)).reshape(-1))
    assert len(levels[-1]) == tree.n_leaves == 64
    for k, b_k in enumerate(levels):
        w = np.full(2 ** k, 2.0 ** -k)
        assert w.sum() == 1.0
        assert abs(w @ b_k) < 1e-15
        for j in range(k + 1):
            b_j = levels[j][np.arange(2 ** k) >> (k - j)]
            assert abs(w @ (b_j * b_k) - mesh.times[j]) < 1e-15


def test_tree_depth_cap():
    with pytest.raises(ResourceError):
        build_tree(TimeMesh(horizon=1.0, steps=20), cap=16)


def test_path_increments_reproducible_and_independent_of_ensemble():
    mesh = TimeMesh(horizon=1.0, steps=10)
    one = path_increments(3, 5, mesh)
    ens = sample_ensemble(mesh, 8, seed=3)
    assert np.array_equal(ens.increments[5], one)
    again = sample_ensemble(mesh, 6, seed=3)
    assert np.array_equal(again.increments[5], one)


def test_sample_ensemble_statistics():
    mesh = TimeMesh(horizon=1.0, steps=50)
    ens = sample_ensemble(mesh, 400, seed=0)
    assert ens.increments.shape == (400, 50)
    std = ens.increments.std()
    assert abs(std - np.sqrt(mesh.dt)) < 0.01
    assert not ens.increments.flags.writeable
    with pytest.raises(ConfigurationError):
        sample_ensemble(mesh, 0, seed=1)
