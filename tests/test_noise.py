"""Time meshes, Bernoulli trees and Monte Carlo ensembles."""

import numpy as np
import pytest

from stochheat import (ConfigurationError, ResourceError, TimeMesh,
                       build_tree, noise, path_increments, sample_ensemble)
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


def test_sampled_increments_are_the_keyed_philox_streams():
    # path omega of seed s is sqrt(dt) times the standard normals of a
    # generator built fresh on the key (s, omega), written out longhand
    from numpy.random import Generator, Philox
    mesh = TimeMesh(horizon=0.5, steps=7)
    for seed in (0, 3, 1234, 2**40 + 5):
        ens = sample_ensemble(mesh, 12, seed=seed)
        for omega in (0, 1, 5, 11):
            ref = np.sqrt(mesh.dt) \
                * Generator(Philox(key=[seed, omega])).standard_normal(7)
            assert np.array_equal(ens.increments[omega], ref)
            assert np.array_equal(path_increments(seed, omega, mesh), ref)


def test_sample_ensemble_statistics():
    mesh = TimeMesh(horizon=1.0, steps=50)
    ens = sample_ensemble(mesh, 400, seed=0)
    assert ens.increments.shape == (400, 50)
    std = ens.increments.std()
    assert abs(std - np.sqrt(mesh.dt)) < 0.01
    assert not ens.increments.flags.writeable
    with pytest.raises(ConfigurationError):
        sample_ensemble(mesh, 0, seed=1)


def test_sample_ensemble_refuses_an_increment_table_above_the_cap(
        monkeypatch):
    # 1000 paths of 10 steps are 80000 bytes: above a 1 KiB cap the request
    # is refused, naming the key, before a generator or a row is made; 12
    # paths (960 bytes) stay within it
    mesh = TimeMesh(horizon=1.0, steps=10)
    monkeypatch.setattr(noise, "INCREMENT_BYTES_CAP", 1024)
    assert sample_ensemble(mesh, 12, seed=1).increments.shape == (12, 10)

    def refused(*args):
        raise AssertionError("increments drawn above the cap")

    monkeypatch.setattr(noise, "_philox_increments", refused)
    with pytest.raises(ResourceError, match="mc.paths = 1000"):
        sample_ensemble(mesh, 1000, seed=1)
