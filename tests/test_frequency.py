"""Weighted energies H, D, the frequency ratio N, and their inequalities."""

import numpy as np
import pytest

from stochheat import (Ball, CoefficientField, HeatKernelWeight, TimeMesh,
                       b_norm, build_cutoff, build_grid, build_tree,
                       frequency_bound_check, hprime_identity_residual,
                       heat_kernel, kernel_traces, sample_ensemble,
                       solve_forward, solve_forward_moments,
                       solve_sampled_moments)
from stochheat import forward, frequency
from stochheat.frequency import FrequencyTrace
from stochheat.ucp import default_tolerance

QUANTITIES = ("h", "d", "phi_f", "b_sq", "f_sq")
IDENTITY = ("h", "d", "phi_f", "b_sq")


@pytest.fixture(scope="module")
def weight():
    return HeatKernelWeight(horizon=0.5, shift=0.25, center=(0.5,), dim=1)


def _global(ens, coeffs, weight, terms=("h", "d")):
    """The global trace of `ens` under one kernel weight."""
    return kernel_traces(ens, None, coeffs, heat_kernel(weight, ens.grid),
                         terms)[0]


def _local(ens, cutoff, coeffs, weight, terms=QUANTITIES):
    """The localized trace of `ens` under one kernel weight."""
    return kernel_traces(ens, cutoff, coeffs, heat_kernel(weight, ens.grid),
                         local_terms=terms)[1]


def test_hdn_positive_and_shapes(tree_ensemble, weight, coeffs, grid):
    tr = _global(tree_ensemble, coeffs, weight)
    steps = tree_ensemble.mesh.steps
    assert tr.h.shape == (steps + 1,)
    assert np.all(tr.h > 0.0)
    assert np.all(tr.d >= 0.0)
    assert np.allclose(tr.n, 2.0 * tr.d / tr.h)
    # a weight with a tuple of shifts gives one row per shift; a trace
    # nobody asks for is None
    shifts = HeatKernelWeight(horizon=0.5, shift=(0.25, 0.05),
                              center=(0.5,), dim=1)
    other = HeatKernelWeight(horizon=0.5, shift=0.05, center=(0.5,), dim=1)
    stacked, none = kernel_traces(tree_ensemble, None, coeffs,
                                  heat_kernel(shifts, grid), ("h", "d"))
    assert none is None and stacked.h.shape == (2, steps + 1)
    assert np.array_equal(stacked.h[0], tr.h)
    assert np.array_equal(stacked.d[1], _global(tree_ensemble, coeffs, other).d)


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
    tr = _global(tree_ensemble, coeffs, weight)
    assert np.isclose(tr.h[k], h_direct, rtol=1e-12)
    assert np.isclose(tr.d[k], d_direct, rtol=1e-12)
    # localized field Phi = phi*y under random bounded coefficients, with the
    # source F = a*Phi - y*Lap(phi) - 2 grad(phi).grad(y) built per path; at
    # the last node the coefficients are those of the last step
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    mesh = tree_ensemble.mesh
    rough = CoefficientField.random_bounded(grid, mesh, 5, 0.5, 0.5)
    tr = _local(tree_ensemble, cutoff, rough, weight)
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


# the "edge" cutoffs (radii 0.2, 0.4) reach the first interior node, so the
# support box's one-node margin is clipped at the grid edge: in 1-D on the
# left, in 2-D on both ends of axis 0 (the box spans it) and the start of
# axis 1
GRIDS = pytest.mark.parametrize("extents, shape, center", [
    ([(0.0, 1.0)], (31,), (0.5,)),
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11), (0.5, 1.0)),
    ([(0.0, 1.0), (0.0, 1.0)], (15, 15), (0.5, 0.5)),
    ([(0.0, 1.0)], (31,), (0.41,)),
    ([(0.0, 1.0), (0.0, 2.0)], (7, 11), (0.5, 0.45)),
], ids=["1d", "2d", "2d-15x15", "1d-edge", "2d-edge"])


def _lab(extents, shape, center, kind, source, steps=6):
    """An ensemble with its cutoff, coefficients and kernel weight: `kind`
    is constant, random (constant in time) or varying (in time and over
    the nodes) coefficients, or uniform ones that vary in time only,
    `source` the Bernoulli tree's paths, the exact moments or the sampled
    closed form (which needs coefficients uniform over the nodes)."""
    grid = build_grid(extents, shape)
    mesh = TimeMesh(horizon=0.3, steps=steps)
    lo = np.array([e[0] for e in extents])
    width = np.array([e[1] - e[0] for e in extents])
    unit = (grid.coords - lo) / width
    ramp = np.linspace(0.5, 1.5, steps)[:, None]
    if kind == "constant":
        coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    elif kind == "random":
        coeffs = CoefficientField.random_bounded(grid, mesh, 4, 0.5, 0.5)
    elif kind == "uniform":
        ones = np.ones(grid.n_nodes)
        coeffs = CoefficientField(grid, mesh, a=0.3 * ramp * ones,
                                  b=0.4 * ramp[::-1] * ones)
    else:
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


def _stack(weights, grid):
    """A `kernel_traces` kernel stacking the kernels of several weights."""
    return lambda t, coords: np.stack([w.values(t, coords)
                                       for w in weights]) * grid.quad_weight


def _five_row_blocks(monkeypatch, ens):
    """Tiles of 5 rows: 5 time nodes per tile for one row per time node,
    else 1 time node and 5 rows; 5 does not divide the time nodes."""
    monkeypatch.setattr(forward, "MOMENT_BLOCK_BYTES",
                        5 * 8 * ens.grid.n_nodes)
    assert len(ens.rows) % 5


# (source, coefficient kind) pairs of the sparse reference
SOURCES = [("tree", "constant"), ("tree", "varying"), ("tree", "random"),
           ("moments", "constant"), ("moments", "varying"),
           ("moments", "random"), ("sampled", "constant"),
           ("sampled", "uniform")]


@GRIDS
def test_localized_fields_match_sparse_commutator(extents, shape, center,
                                                  sparse_operators,
                                                  assert_rel_close,
                                                  monkeypatch):
    # every quantity of kernel_traces, global and under the cutoff, for a
    # stack of two kernels, against Phi = phi*y, grad Phi and F = a Phi + S y
    # built row by row from scipy.sparse matrices (S = -diag(Lap phi)
    # - 2 sum diag(d phi) d), summed time node by time node and contracted
    # node by node; on tree paths, exact moments and the sampled closed
    # form, at the default tile size and at tiles of 5 rows, and over a
    # window of time nodes
    import scipy.sparse as sp
    edge = {(0.41,): (slice(0, 26),), (0.5, 0.45): (slice(0, 7), slice(0, 6))}
    for source, kind in SOURCES:
        ens, cutoff, coeffs, weight = _lab(extents, shape, center, kind,
                                           source)
        grid, mesh = ens.grid, ens.mesh
        if center in edge:  # the boxes clipped at the grid edge
            assert cutoff.box == edge[center]
        other = HeatKernelWeight(horizon=0.3, shift=0.05,
                                 center=grid.coords[1], dim=grid.dim)
        _, grads = sparse_operators(grid)
        static = -sp.diags(cutoff.lap)
        for ax, g in enumerate(grads):
            static = static - 2.0 * sp.diags(cutoff.grad[:, ax]) @ g
        static = sp.csr_matrix(static)
        ref = {False: {q: [] for q in QUANTITIES},
               True: {q: [] for q in QUANTITIES}}
        for k, (w, y) in enumerate(zip(ens.weights, ens.rows)):
            step = min(k, mesh.steps - 1)
            a, b = coeffs.a[step], coeffs.b[step]
            kw = np.stack([wt.values(mesh.times[k], grid.coords)
                           for wt in (weight, other)]) * grid.quad_weight
            for local in (False, True):
                phi = cutoff.values if local else np.ones(grid.n_nodes)
                big_phi = phi * y
                src = a * big_phi + ((static @ y.T).T if local else 0.0)
                grad_sq = sum(np.square((g @ big_phi.T).T) for g in grads)
                for q, f in (("h", big_phi ** 2), ("d", grad_sq),
                             ("phi_f", big_phi * src),
                             ("b_sq", (b * big_phi) ** 2),
                             ("f_sq", src ** 2)):
                    ref[local][q].append(kw @ (w @ f))
        for block in ("default", "five"):
            if block == "five":
                _five_row_blocks(monkeypatch, ens)
            traces = kernel_traces(ens, cutoff, coeffs,
                                   _stack([weight, other], grid),
                                   QUANTITIES, QUANTITIES)
            for tr, local in zip(traces, (False, True)):
                assert np.array_equal(tr.times, mesh.times)
                for q in QUANTITIES:
                    value = tr.h if q == "h" else tr.d if q == "d" \
                        else tr.aux[q]
                    expected = np.array(ref[local][q]).T
                    for j in range(2):
                        assert_rel_close(value[j], expected[j])
            monkeypatch.undo()
        # the last four time nodes alone, as the lambda sweep asks
        _, window = kernel_traces(ens, cutoff, coeffs,
                                  _stack([weight, other], grid),
                                  local_terms=("h", "f_sq"),
                                  nodes=slice(mesh.steps - 3, None))
        assert np.array_equal(window.times, mesh.times[-4:])
        assert window.d is None and set(window.aux) == {"f_sq"}
        for j in range(2):
            assert_rel_close(window.h[j], np.array(ref[True]["h"]).T[j, -4:])
            assert_rel_close(window.aux["f_sq"][j],
                             np.array(ref[True]["f_sq"]).T[j, -4:])


def _count_passes(monkeypatch):
    """Patch `Ensemble.nodal_moment` to record each pass's reduction."""
    passes = []
    moment = forward.Ensemble.nodal_moment

    def counting(self, *args, **kwargs):
        passes.append(args[1] if len(args) > 1 else kwargs.get("contract"))
        return moment(self, *args, **kwargs)

    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    return passes


@GRIDS
def test_kernel_traces_read_the_ensemble_once(extents, shape, center,
                                              monkeypatch):
    # every kernel_traces call, for the global trace, the localized one,
    # both, or a window of time nodes, makes one nodal_moment pass over the
    # ensemble, reduced tile by tile
    ens, cutoff, coeffs, weight = _lab(extents, shape, center, "random",
                                       "tree", steps=5)
    kernel = heat_kernel(weight, ens.grid)
    passes = _count_passes(monkeypatch)
    for asks in [dict(global_terms=QUANTITIES),
                 dict(local_terms=QUANTITIES),
                 dict(global_terms=("h", "d"), local_terms=("h", "f_sq")),
                 dict(local_terms=("h", "f_sq"), nodes=slice(2, None))]:
        passes.clear()
        kernel_traces(ens, cutoff, coeffs, kernel, **asks)
        assert len(passes) == 1 and passes[0] is not None, asks


def test_kernel_traces_evaluate_the_kernel_per_tile(monkeypatch):
    # kernel(times) runs once per tile of time nodes, at that tile's times
    # only: in tiles of 5 over all 7 time nodes (one row per time node),
    # and over a window of 4
    ens, cutoff, coeffs, weight = _lab(*_1D, "constant", "moments")
    _five_row_blocks(monkeypatch, ens)
    calls = []
    values = HeatKernelWeight.values

    def counting(self, t, coords):
        calls.append(np.array(t))
        return values(self, t, coords)

    monkeypatch.setattr(HeatKernelWeight, "values", counting)
    times = ens.mesh.times
    for nodes, sizes in ((slice(None), [5, 2]), (slice(3, None), [4])):
        calls.clear()
        kernel_traces(ens, cutoff, coeffs, heat_kernel(weight, ens.grid),
                      QUANTITIES, QUANTITIES, nodes=nodes)
        assert [len(t) for t in calls] == sizes
        assert np.array_equal(np.concatenate(calls), times[nodes])


def test_hdn_scale_invariance_of_n(y0, coeffs, tree, mesh, grid, weight):
    base = solve_forward(y0, coeffs, tree, mesh, grid)
    scaled = solve_forward(3.0 * y0, coeffs, tree, mesh, grid)
    n1 = _global(base, coeffs, weight).n
    n2 = _global(scaled, coeffs, weight).n
    assert np.allclose(n1, n2, rtol=1e-12)


def test_hdn_agrees_between_tree_and_moments(y0, coeffs, tree, mesh, grid,
                                             weight):
    ens = solve_forward(y0, coeffs, tree, mesh, grid)
    mom = solve_forward_moments(y0, coeffs, mesh, grid)
    t1 = _global(ens, coeffs, weight)
    t2 = _global(mom, coeffs, weight)
    assert np.allclose(t1.h, t2.h, rtol=1e-10)
    assert np.allclose(t1.d, t2.d, rtol=1e-10)


def _identity_report(steps):
    fine_grid = build_grid([(0.0, 1.0)], (63,))
    x = fine_grid.coords[:, 0]
    y0 = np.sin(np.pi * x)
    mesh = TimeMesh(horizon=0.1, steps=steps)
    coeffs = CoefficientField.constant(fine_grid, mesh, 0.3, 0.4)
    mom = solve_forward_moments(y0, coeffs, mesh, fine_grid)
    w = HeatKernelWeight(horizon=0.1, shift=0.25, center=(0.5,), dim=1)
    return hprime_identity_residual(_global(mom, coeffs, w, IDENTITY),
                                    mesh.dt), mesh.dt


def test_hprime_identity_residual_refines():
    # the energy-derivative identity residual shrinks under dt refinement
    # (moment recursion keeps expectations exact at every depth)
    coarse = _identity_report(10)[0]["integrated_residual"]
    fine = _identity_report(40)[0]["integrated_residual"]
    assert fine < coarse
    assert fine < 0.05


def test_hprime_left_mode_is_first_order(left_endpoint_residual):
    # left-endpoint evaluation exposes the O(dt) term: successive Richardson
    # differences halve (the spatial floor cancels in the differences)
    res = {s: left_endpoint_residual(*_identity_report(s))
           for s in (10, 20, 40)}
    ratio = (res[10] - res[20]) / (res[20] - res[40])
    assert 1.4 < ratio < 2.6


def test_frequency_bound_holds(tree_ensemble, weight, coeffs, grid, mesh):
    # the general form on the localized trace, the convex variant on the
    # global one, both from one pass
    tol = default_tolerance(mesh, grid)
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    convex, local = kernel_traces(tree_ensemble, cutoff, coeffs,
                                  heat_kernel(weight, grid), ("h", "d"),
                                  ("h", "d", "f_sq"))
    rep = frequency_bound_check(local, weight, coeffs, cutoff, slack=tol)
    assert rep["holds"]
    rep_convex = frequency_bound_check(convex, weight, coeffs, slack=tol)
    assert rep_convex["holds"]


def test_frequency_bound_localized_b_norm(tree_ensemble, weight, grid, mesh):
    # the bound must use the W^{1,inf} norm of b over the cutoff support,
    # not the global one
    b = np.where(np.abs(grid.coords[:, 0] - 0.5) < 0.3, 0.1, 5.0)
    coeffs = CoefficientField(grid, mesh, a=0.0, b=b)
    cutoff = build_cutoff(Ball((0.5,), 0.1), Ball((0.5,), 0.15), grid)
    rep = frequency_bound_check(_local(tree_ensemble, cutoff, coeffs, weight),
                                weight, coeffs, cutoff)
    assert rep["b_norm"] == b_norm(coeffs, cutoff) < 5.0
    # without a cutoff the norm is the global one
    rep = frequency_bound_check(_global(tree_ensemble, coeffs, weight),
                                weight, coeffs)
    assert rep["b_norm"] == b_norm(coeffs, None) >= 5.0


def test_frequency_bound_worst_pair_is_the_first_maximum(weight, grid, mesh):
    # with b = 0 and a source cancelling the drift integrand the excess is
    # N(t_j) - N(t_i) exactly; N takes few values, so the worst value is
    # tied between many pairs and the first in row-major order is reported
    rng = np.random.Generator(np.random.Philox(key=[15, 3]))
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.0)
    assert b_norm(coeffs, cutoff) == 0.0
    times = mesh.times
    rate = 1.0 / (weight.horizon - times + weight.shift)
    i, j = np.triu_indices(len(times), 1)  # the pairs in row-major order
    ties = 0
    for _ in range(20):
        n = rng.integers(0, 4, len(times)) * 0.5
        trace = FrequencyTrace(times=times, h=np.ones(len(times)), d=0.5 * n,
                               aux={"f_sq": -rate * n})
        rep = frequency_bound_check(trace, weight, coeffs, cutoff)
        excess = n[j] - n[i]
        first = int(np.argmax(excess))
        assert rep["worst_violation"] == excess[first]
        assert rep["worst_pair"] == (i[first], j[first])
        ties += np.count_nonzero(excess == excess[first]) > 1
    assert ties >= 10


def test_frequency_bound_matches_all_pairs(tree_ensemble, weight, grid,
                                           mesh):
    # the worst excess and its pair against the excess of every pair s < t
    # evaluated one by one, for the general and the convex form, under
    # random bounded coefficients
    cutoff = build_cutoff(Ball((0.5,), 0.18), Ball((0.5,), 0.24), grid)
    coeffs = CoefficientField.random_bounded(grid, mesh, 7, 0.5, 0.5)
    convex, local = kernel_traces(tree_ensemble, cutoff, coeffs,
                                  heat_kernel(weight, grid), ("h", "d"),
                                  ("h", "d", "f_sq"))
    t = mesh.times
    rate = 1.0 / (weight.horizon - t + weight.shift)
    for tr, cut in ((local, cutoff), (convex, None)):
        rep = frequency_bound_check(tr, weight, coeffs, cut)
        norm, n = b_norm(coeffs, cut), 2.0 * tr.d / tr.h
        if cut is None:
            drift = (rate + norm ** 2) * n
            const = coeffs.sup_a ** 2 + 2.0 * norm ** 2
        else:
            drift = (rate + 2.0 * norm ** 2) * n + tr.aux["f_sq"] / tr.h
            const = 2.0 * norm ** 2
        cum = np.cumsum(np.r_[0.0, np.diff(t) * (drift[1:] + drift[:-1]) / 2])
        excess = {(i, j): n[j] - n[i] - (cum[j] - cum[i]) - const * (t[j] - t[i])
                  for i in range(len(t)) for j in range(i + 1, len(t))}
        pair = max(excess, key=excess.get)  # the first maximum
        assert rep["worst_pair"] == pair
        assert rep["worst_violation"] == pytest.approx(
            excess[pair], rel=1e-12, abs=1e-12 * np.max(np.abs(n)))


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
                                               sparse_operators, monkeypatch,
                                               assert_rel_close):
    # the identity's traces (h, d, phi_f, b_sq, global and localized) of
    # the tiled pass against the field route: the (steps+1, n) nodal fields
    # y^2, |grad y|^2, |grad(phi y)|^2 and y Sy, formed on the whole grid
    # with scipy sparse operators in one unreduced nodal_moment pass and
    # contracted with the kernel over all time nodes afterwards; "uneven"
    # tiles of 5 rows split the time nodes (and the tree's rows) into
    # blocks that do not divide them
    import scipy.sparse as sp
    ens, cutoff, coeffs, weight = _lab(*lab, kind, source)
    grid, mesh = ens.grid, ens.mesh
    _, grads = sparse_operators(grid)
    static = -sp.diags(cutoff.lap)
    for ax, g in enumerate(grads):
        static = static - 2.0 * sp.diags(cutoff.grad[:, ax]) @ g

    def fields_of(y):
        flat = y.reshape(-1, grid.n_nodes).T
        grad_sq = [sum(np.square(g @ v) for g in grads).T.reshape(y.shape)
                   for v in (flat, cutoff.values[:, None] * flat)]
        return np.stack([np.square(y), *grad_sq,
                         y * (static @ flat).T.reshape(y.shape)])

    y_sq, grad_y_sq, grad_phi_sq, y_sy = ens.nodal_moment(fields_of)
    steps = np.minimum(np.arange(mesh.steps + 1), mesh.steps - 1)
    a, b, phi = coeffs.a[steps], coeffs.b[steps], cutoff.values
    kw = weight.values(mesh.times, grid.coords) * grid.quad_weight
    fields = ({"h": y_sq, "d": grad_y_sq, "phi_f": a * y_sq,
               "b_sq": b ** 2 * y_sq},
              {"h": phi ** 2 * y_sq, "d": grad_phi_sq,
               "phi_f": a * phi ** 2 * y_sq + phi * y_sy,
               "b_sq": (b * phi) ** 2 * y_sq})
    if block == "uneven":
        _five_row_blocks(monkeypatch, ens)
        assert len(ens.rows[0]) % 5
    traces = kernel_traces(ens, cutoff, coeffs, heat_kernel(weight, grid),
                           IDENTITY, IDENTITY)
    for tr, ref in zip(traces, fields):
        ref = {q: np.einsum("ki,ki->k", kw, f) for q, f in ref.items()}
        assert_rel_close(tr.h, ref["h"])
        assert_rel_close(tr.d, ref["d"])
        for q in ("phi_f", "b_sq"):
            assert_rel_close(tr.aux[q], ref[q])
        assert np.array_equal(tr.times, mesh.times)
        assert np.allclose(tr.n, 2.0 * ref["d"] / ref["h"], rtol=1e-12)


def test_identity_pass_memory_is_one_tile():
    # at 2-D 31x31 on the 400-step mesh of frequency, the identity's pass
    # holds about one tile of MOMENT_BLOCK_BYTES per term and field, not
    # (401, n) fields
    import tracemalloc
    ens, cutoff, coeffs, weight = _lab(
        [(0.0, 1.0), (0.0, 1.0)], (31, 31), (0.5, 0.5), "constant",
        "moments", steps=400)
    tracemalloc.start()
    try:
        kernel_traces(ens, cutoff, coeffs, heat_kernel(weight, ens.grid),
                      IDENTITY, IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak
