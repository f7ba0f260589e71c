"""Weighted energies H, D, the frequency ratio N, and their inequalities."""

import numpy as np
import pytest

from stochheat import (Ball, CoefficientField, HeatKernelWeight, TimeMesh,
                       build_cutoff, build_grid, build_tree, compute_hdn,
                       frequency_bound_check, hprime_identity_residual,
                       identity_traces, localized_fields, sample_ensemble,
                       solve_forward, solve_forward_moments,
                       solve_sampled_moments)
from stochheat import forward, frequency
from stochheat.errors import NumericalError
from stochheat.frequency import FrequencyTrace
from stochheat.ucp import default_tolerance


@pytest.fixture(scope="module")
def weight():
    return HeatKernelWeight(horizon=0.5, shift=0.25, center=(0.5,), dim=1)


def test_hdn_positive_and_shapes(tree_ensemble, weight, coeffs):
    tr = compute_hdn(localized_fields(tree_ensemble, None, coeffs), weight)
    steps = tree_ensemble.mesh.steps
    assert tr.h.shape == (steps + 1,)
    assert np.all(tr.h > 0.0)
    assert np.all(tr.d >= 0.0)
    assert np.allclose(tr.n, 2.0 * tr.d / tr.h)


def test_hdn_brute_force_oracle(tree_ensemble, weight, grid, coeffs):
    # recompute H and D at one time node by direct quadrature over the
    # 2^d leaf paths of the tree, each of probability 2^-d
    k, d = 4, tree_ensemble.mesh.steps
    t = tree_ensemble.mesh.times[k]
    kv = weight.values(t, grid.coords)
    y = tree_ensemble.rows[k]
    w = np.full(2 ** d, 2.0 ** -d)
    h_direct = float(w @ ((y ** 2 * kv) @ np.ones(grid.n_nodes))) \
        * grid.quad_weight
    gy = np.stack([grid.gradient(y[p]) for p in range(y.shape[0])])
    d_direct = float(w @ ((gy[:, :, 0] ** 2 * kv).sum(axis=1))) \
        * grid.quad_weight
    tr = compute_hdn(localized_fields(tree_ensemble, None, coeffs), weight)
    assert np.isclose(tr.h[k], h_direct, rtol=1e-12)
    assert np.isclose(tr.d[k], d_direct, rtol=1e-12)
    # localized field Phi = phi*y under random bounded coefficients, with the
    # source F = a*Phi - y*Lap(phi) - 2 grad(phi).grad(y) built per path; at
    # the last node the coefficients are those of the last step
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    mesh = tree_ensemble.mesh
    rough = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    tr = compute_hdn(localized_fields(tree_ensemble, cutoff, rough), weight)
    for k in (4, mesh.steps):
        kv = weight.values(mesh.times[k], grid.coords)
        y = tree_ensemble.rows[k]
        a = rough.a[min(k, mesh.steps - 1)]
        b = rough.b[min(k, mesh.steps - 1)]
        big_phi = cutoff.values * y
        grad_phi = np.stack([grid.gradient(row)[:, 0] for row in big_phi])
        grad_y = np.stack([grid.gradient(row)[:, 0] for row in y])
        src = a * big_phi - y * cutoff.lap - 2.0 * cutoff.grad[:, 0] * grad_y

        def direct(integrand):
            return float(w @ ((integrand * kv).sum(axis=1))) * grid.quad_weight

        assert np.isclose(tr.h[k], direct(big_phi ** 2), rtol=1e-12)
        assert np.isclose(tr.d[k], direct(grad_phi ** 2), rtol=1e-12)
        assert np.isclose(tr.aux["phi_f"][k], direct(big_phi * src),
                          rtol=1e-12)
        assert np.isclose(tr.aux["b_sq"][k], direct(b ** 2 * big_phi ** 2),
                          rtol=1e-12)
        assert np.isclose(tr.aux["f_sq"][k], direct(src ** 2), rtol=1e-12)


GRIDS = pytest.mark.parametrize("extents, shape, center", [
    ([(0.0, 1.0)], (31,), (0.5,)),
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11), (0.5, 1.0)),
    ([(0.0, 1.0), (0.0, 1.0)], (15, 15), (0.5, 0.5)),
], ids=["1d", "2d", "2d-15x15"])


def _tree_lab(extents, shape, center):
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.3, steps=5)
    coeffs = CoefficientField.random_bounded(grid, mesh, 4, 0.5, 0.5)
    y0 = np.prod(np.sin(np.pi * grid.coords / grid.coords.max(axis=0)),
                 axis=1)
    ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid)
    cutoff = build_cutoff(Ball(center, 0.2), Ball(center, 0.4), grid)
    return ens, cutoff, coeffs


@GRIDS
def test_localized_fields_match_sparse_commutator(extents, shape, center,
                                                  sparse_operators,
                                                  assert_rel_close):
    # the stencil-built localized gradients grad(phi *) and commutator
    # S = -diag(Lap phi) - 2 sum diag(d phi) d against the same fields
    # built from scipy.sparse matrices and summed time node by time node
    import scipy.sparse as sp
    ens, cutoff, coeffs = _tree_lab(extents, shape, center)
    mesh = ens.mesh
    fields = localized_fields(ens, cutoff, coeffs)
    _, grads = sparse_operators(ens.grid)
    static = -sp.diags(cutoff.lap)
    for ax, g in enumerate(grads):
        static = static - 2.0 * sp.diags(cutoff.grad[:, ax]) @ g
    static = sp.csr_matrix(static)
    loc = [sp.csr_matrix(g @ sp.diags(cutoff.values)) for g in grads]

    def expect(f):  # E f(y(t_k)) per time node
        return np.stack([w @ f(y) for w, y in zip(ens.weights, ens.rows)])

    assert_rel_close(fields.d, expect(
        lambda y: sum(np.square((g @ y.T).T) for g in loc)))
    steps = np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)
    a_phi = coeffs.a[steps] * cutoff.values
    y_sq = expect(np.square)
    y_src = expect(lambda y: y * (static @ y.T).T)
    assert_rel_close(fields.sources["phi_f"],
                     a_phi * cutoff.values * y_sq + cutoff.values * y_src)
    assert_rel_close(fields.sources["f_sq"],
                     a_phi ** 2 * y_sq + 2.0 * a_phi * y_src
                     + expect(lambda y: np.square((static @ y.T).T)))


@GRIDS
def test_localized_fields_read_the_ensemble_once(extents, shape, center,
                                                 monkeypatch):
    # every field of a build, with or without a cutoff, comes from one
    # nodal_moment pass over the ensemble
    ens, cutoff, coeffs = _tree_lab(extents, shape, center)
    calls = []
    moment = forward.Ensemble.nodal_moment

    def counting(self, *args, **kwargs):
        calls.append(args)
        return moment(self, *args, **kwargs)

    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    for cut in (None, cutoff):
        calls.clear()
        localized_fields(ens, cut, coeffs)
        assert len(calls) == 1


def test_compute_hdn_evaluates_the_kernel_once(tree_ensemble, weight, coeffs,
                                               monkeypatch):
    # one (time, node) kernel array per call, not one evaluation per time
    fields = localized_fields(tree_ensemble, None, coeffs)
    calls = []
    values = HeatKernelWeight.values

    def counting(self, t, coords):
        calls.append(np.shape(t))
        return values(self, t, coords)

    monkeypatch.setattr(HeatKernelWeight, "values", counting)
    compute_hdn(fields, weight)
    assert calls == [fields.mesh.times.shape]


def test_hdn_scale_invariance_of_n(y0, coeffs, tree, mesh, grid, weight):
    base = solve_forward(y0, coeffs, tree, mesh, grid)
    scaled = solve_forward(3.0 * y0, coeffs, tree, mesh, grid)
    n1 = compute_hdn(localized_fields(base, None, coeffs), weight).n
    n2 = compute_hdn(localized_fields(scaled, None, coeffs), weight).n
    assert np.allclose(n1, n2, rtol=1e-12)


def test_hdn_agrees_between_tree_and_moments(y0, coeffs, tree, mesh, grid,
                                             weight):
    ens = solve_forward(y0, coeffs, tree, mesh, grid)
    mom = solve_forward_moments(y0, coeffs, mesh, grid)
    t1 = compute_hdn(localized_fields(ens, None, coeffs), weight)
    t2 = compute_hdn(localized_fields(mom, None, coeffs), weight)
    assert np.allclose(t1.h, t2.h, rtol=1e-10)
    assert np.allclose(t1.d, t2.d, rtol=1e-10)


def _integrated_residual(steps, mode):
    fine_grid = build_grid([(0.0, 1.0)], (63,))
    x = fine_grid.coords[:, 0]
    y0 = np.sin(np.pi * x)
    mesh = TimeMesh(horizon=0.1, steps=steps)
    coeffs = CoefficientField.constant(fine_grid, mesh, 0.3, 0.4)
    mom = solve_forward_moments(y0, coeffs, mesh, fine_grid)
    w = HeatKernelWeight(horizon=0.1, shift=0.25, center=(0.5,), dim=1)
    return hprime_identity_residual(
        compute_hdn(localized_fields(mom, None, coeffs), w), mesh.dt,
        rhs_eval=mode)["integrated_residual"]


def test_hprime_identity_residual_refines():
    # the energy-derivative identity residual shrinks under dt refinement
    # (moment recursion keeps expectations exact at every depth)
    coarse = _integrated_residual(10, "midpoint")
    fine = _integrated_residual(40, "midpoint")
    assert fine < coarse
    assert fine < 0.05


def test_hprime_left_mode_is_first_order():
    # left-endpoint evaluation exposes the O(dt) term: successive Richardson
    # differences halve (the spatial floor cancels in the differences)
    res = {s: _integrated_residual(s, "left") for s in (10, 20, 40)}
    ratio = (res[10] - res[20]) / (res[20] - res[40])
    assert 1.4 < ratio < 2.6


def test_hprime_rejects_unknown_mode(tree_ensemble, weight, coeffs):
    with pytest.raises(NumericalError):
        hprime_identity_residual(
            compute_hdn(localized_fields(tree_ensemble, None, coeffs), weight),
            tree_ensemble.mesh.dt, rhs_eval="right")


def test_frequency_bound_holds(tree_ensemble, weight, coeffs, grid, mesh):
    # the general form on fields built with a cutoff, the convex variant on
    # fields built without one
    tol = default_tolerance(mesh, grid)
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    rep = frequency_bound_check(localized_fields(tree_ensemble, cutoff, coeffs),
                                weight, slack=tol)
    assert rep["holds"]
    rep_convex = frequency_bound_check(
        localized_fields(tree_ensemble, None, coeffs), weight, slack=tol)
    assert rep_convex["holds"]


def test_frequency_bound_localized_b_norm(tree_ensemble, weight, grid, mesh):
    # the bound must use the W^{1,inf} norm of b over the cutoff support,
    # not the global one
    b = np.where(np.abs(grid.coords[:, 0] - 0.5) < 0.3, 0.1, 5.0)
    coeffs = CoefficientField(grid, mesh, a=0.0, b=b)
    cutoff = build_cutoff(Ball((0.5,), 0.1), Ball((0.5,), 0.15), grid)
    rep = frequency_bound_check(localized_fields(tree_ensemble, cutoff, coeffs),
                                weight)
    assert rep["b_norm"] < 5.0
    # without a cutoff the norm is the global one
    rep = frequency_bound_check(localized_fields(tree_ensemble, None, coeffs),
                                weight)
    assert rep["b_norm"] >= 5.0


def test_frequency_bound_worst_pair_is_the_first_maximum(tree_ensemble,
                                                        weight, grid, mesh,
                                                        monkeypatch):
    # with b = 0 and a source cancelling the drift integrand the excess is
    # N(t_j) - N(t_i) exactly; N takes few values, so the worst value is
    # tied between many pairs and the first in row-major order is reported
    rng = np.random.Generator(np.random.Philox(key=[15, 3]))
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    fields = localized_fields(tree_ensemble, cutoff,
                              CoefficientField.constant(grid, mesh, 0.3, 0.0))
    assert fields.b_norm == 0.0
    times = mesh.times
    rate = 1.0 / (weight.horizon - times + weight.shift)
    i, j = np.triu_indices(len(times), 1)  # the pairs in row-major order
    ties = 0
    for _ in range(20):
        n = rng.integers(0, 4, len(times)) * 0.5
        trace = FrequencyTrace(times=times, h=np.ones(len(times)), d=0.5 * n,
                               n=n, aux={"f_sq": -rate * n})
        monkeypatch.setattr(frequency, "compute_hdn", lambda f, w: trace)
        rep = frequency_bound_check(fields, weight)
        excess = n[j] - n[i]
        first = int(np.argmax(excess))
        assert rep["worst_violation"] == excess[first]
        assert rep["worst_pair"] == (i[first], j[first])
        ties += np.count_nonzero(excess == excess[first]) > 1
    assert ties >= 10


def _identity_lab(extents, shape, center, kind, source, steps=6):
    """An ensemble with its cutoff, coefficients and kernel weight: `kind`
    is constant, random (constant in time) or varying (in time and over
    the nodes) coefficients, `source` the Bernoulli tree's paths, the exact
    moments or the sampled closed form."""
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.3, steps=steps)
    lo = np.array([e[0] for e in extents])
    width = np.array([e[1] - e[0] for e in extents])
    unit = (grid.coords - lo) / width
    if kind == "constant":
        coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    elif kind == "random":
        coeffs = CoefficientField.random_bounded(grid, mesh, 4, 0.5, 0.5)
    else:
        ramp = np.linspace(0.5, 1.5, steps)[:, None]
        coeffs = CoefficientField(grid, mesh, a=ramp * (0.3 + unit[:, 0]),
                                  b=ramp[::-1] * (0.4 - 0.2 * unit[:, -1]))
    y0 = np.prod(np.sin(np.pi * unit), axis=1) * (1.0 + 0.5 * unit[:, 0])
    if source == "tree":
        ens = solve_forward(y0, coeffs, build_tree(mesh), mesh, grid)
    elif source == "moments":
        ens = solve_forward_moments(y0, coeffs, mesh, grid)
    else:
        ens = solve_sampled_moments(y0, coeffs, sample_ensemble(mesh, 64, 3),
                                    mesh, grid)
    cutoff = build_cutoff(Ball(center, 0.2), Ball(center, 0.4), grid)
    weight = HeatKernelWeight(horizon=0.3, shift=0.25, center=center,
                              dim=grid.dim)
    return ens, cutoff, coeffs, weight


_1D = ([(0.0, 1.0)], (31,), (0.5,))
_2D = ([(0.0, 1.0), (0.0, 2.0)], (7, 11), (0.5, 1.0))


@pytest.mark.parametrize("block", ["default", "uneven"])
@pytest.mark.parametrize("lab, kind, source", [
    (_1D, "constant", "tree"), (_1D, "constant", "moments"),
    (_1D, "constant", "sampled"), (_1D, "random", "tree"),
    (_1D, "random", "moments"), (_1D, "varying", "moments"),
    (_2D, "constant", "tree"), (_2D, "constant", "moments"),
    (_2D, "constant", "sampled"), (_2D, "random", "moments"),
    (_2D, "varying", "tree"),
], ids=lambda v: v if isinstance(v, str) else f"{len(v[0])}d")
def test_identity_traces_match_the_field_route(lab, kind, source, block,
                                               monkeypatch, assert_rel_close):
    # the one tiled pass gives the H, D, phi_f and b_sq traces of
    # compute_hdn on the global and the cutoff fields, on every ensemble
    # kind; "uneven" tiles split the time nodes (and the tree's rows) into
    # blocks that do not divide them
    ens, cutoff, coeffs, weight = _identity_lab(*lab, kind, source)
    refs = [compute_hdn(localized_fields(ens, cut, coeffs), weight)
            for cut in (None, cutoff)]
    if block == "uneven":
        # blocks of 5 rows: 5 time nodes per tile for one row per time
        # node, else 1 time node and 5 rows
        monkeypatch.setattr(forward, "MOMENT_BLOCK_BYTES",
                            5 * 8 * ens.grid.n_nodes)
        assert len(ens.rows) % 5 and len(ens.rows[0]) % 5
    traces = identity_traces(ens, cutoff, coeffs, weight)
    for tr, ref in zip(traces, refs):
        for name in ("h", "d"):
            assert_rel_close(getattr(tr, name), getattr(ref, name))
        for name in ("phi_f", "b_sq"):
            assert_rel_close(tr.aux[name], ref.aux[name])
        assert np.array_equal(tr.times, ref.times)
        assert np.allclose(tr.n, ref.n, rtol=1e-12)


def test_identity_pass_memory_is_one_tile():
    # at 2-D 31x31 on the 400-step mesh of frequency, the pass holds about
    # one tile of MOMENT_BLOCK_BYTES per term and weight, not the (401, n)
    # fields of the field route
    import tracemalloc
    ens, cutoff, coeffs, weight = _identity_lab(
        [(0.0, 1.0), (0.0, 1.0)], (31, 31), (0.5, 0.5), "constant",
        "moments", steps=400)
    tracemalloc.start()
    try:
        identity_traces(ens, cutoff, coeffs, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak
