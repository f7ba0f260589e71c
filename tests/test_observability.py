"""Time sets, density sequences, the epsilon recursion, and observability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import (Ball, CoefficientField, MeasurableTimeSet, TimeMesh,
                       build_grid, build_tree, compute_constants,
                       density_sequence, energy_estimate_check, energy_trace,
                       epsilon_sequence, solve_forward, telescoping_check)
from stochheat import cli, forward
from stochheat import config as cfgmod
from stochheat.errors import ConfigurationError
from stochheat.observability import (growth_rate, interpolation_split,
                                     observation_mass)
from stochheat.ucp import default_tolerance

E_DEFAULT = ((0.1, 0.2), (0.3, 0.45))


@pytest.fixture(scope="module")
def time_set():
    return MeasurableTimeSet(E_DEFAULT, horizon=0.5)


@pytest.fixture(scope="module")
def setup():
    grid = build_grid([(0.0, 1.0)], (31,))
    mesh = TimeMesh(horizon=0.5, steps=10)
    tree = build_tree(mesh)
    coeffs = CoefficientField.constant(grid, mesh, 0.3, 0.4)
    x = grid.coords[:, 0]
    y0 = np.sin(np.pi * x) * (1.0 + np.exp(-(x - 0.5) ** 2 / (2 * 0.12 ** 2)))
    ens = solve_forward(y0, coeffs, tree, mesh, grid)
    return grid, mesh, coeffs, ens


def test_time_set_measure(time_set):
    assert np.isclose(time_set.measure, 0.25, rtol=1e-14)
    assert np.isclose(time_set.measure_between(0.15, 0.35), 0.1, rtol=1e-12)
    assert time_set.measure_between(0.21, 0.29) == 0.0
    assert time_set.longest_interval() == (0.3, 0.45)


@settings(max_examples=50, deadline=None)
@given(s=st.floats(0.0, 0.5), t=st.floats(0.0, 0.5))
def test_time_set_measure_between_properties(time_set, s, t):
    m = time_set.measure_between(s, t)
    assert 0.0 <= m <= abs(t - s) + 1e-15
    assert m <= time_set.measure + 1e-15
    # symmetry in the endpoints
    assert m == time_set.measure_between(t, s)


def _scalar_measure(time_set, s, t):
    # |E cap (s, t)| one pair of endpoints at a time, as a generator sum
    lo, hi = min(s, t), max(s, t)
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in time_set.intervals)


@st.composite
def _sets_and_endpoints(draw):
    # intervals between sorted cut points of [0, 1], consecutive ones
    # possibly touching; endpoints in either order, outside (0, 1) or on a cut
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7,
                                unique=True)))
    keep = draw(st.lists(st.booleans(), min_size=len(cuts) - 1,
                         max_size=len(cuts) - 1).filter(any))
    time_set = MeasurableTimeSet(
        tuple((a, b) for a, b, k in zip(cuts, cuts[1:], keep) if k),
        horizon=1.0)
    point = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(cuts))
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))
    return time_set, pairs


@settings(max_examples=100, deadline=None)
@given(_sets_and_endpoints())
def test_time_set_measure_between_on_arrays(case):
    # one call on arrays of endpoints equals the scalar sum per pair, bit
    # for bit, and a scalar call returns that sum too
    time_set, pairs = case
    s, t = (np.array(side) for side in zip(*pairs))
    expected = [_scalar_measure(time_set, a, b) for a, b in pairs]
    assert time_set.measure_between(s, t).tolist() == expected
    assert time_set.measure_between(s[:, None], t[:, None])[:, 0].tolist() \
        == expected
    assert time_set.measure_between(*pairs[0]) == expected[0]


def test_time_set_validation():
    with pytest.raises(ConfigurationError):
        MeasurableTimeSet(((0.1, 0.3), (0.2, 0.4)), horizon=0.5)  # overlap
    with pytest.raises(ConfigurationError):
        MeasurableTimeSet(((0.1, 0.6),), horizon=0.5)  # outside horizon
    with pytest.raises(ConfigurationError):
        MeasurableTimeSet((), horizon=0.5)


def test_density_sequence_default(time_set):
    seq = density_sequence(time_set)
    # found: every gap is at most three times the measure of E inside it
    assert seq.found
    assert np.all(-np.diff(seq.times) <= 3.0 * seq.gap_measures + 1e-15)
    # t0 is the midpoint of the longest maximal interval
    assert np.isclose(seq.t0, 0.375, rtol=1e-12)
    # strictly decreasing times converging toward t0
    assert np.all(np.diff(seq.times) < 0.0)
    assert seq.times[-1] > seq.t0
    # geometric gaps with ratio z
    gaps = -np.diff(seq.times)
    assert np.allclose(gaps[:-1] / gaps[1:], seq.z, rtol=1e-10)
    # the three-times-measure condition, exactly as asserted downstream
    assert np.all(gaps <= 3.0 * seq.gap_measures + 1e-15)


@pytest.mark.parametrize("intervals, horizon", [
    (E_DEFAULT, 0.5),
    (((0.05, 0.06), (0.3, 0.31), (0.4, 0.48)), 0.5),
    # too thin for any candidate: the best margin is reported, not found
    (((0.1, 0.1001),), 1.0)], ids=["default", "three", "thin"])
def test_density_sequence_matches_the_candidate_scan(intervals, horizon):
    # the scan one candidate t1 at a time, nearest t0 first, stopping at
    # the first that meets every gap condition, else keeping the best margin
    time_set = MeasurableTimeSet(intervals, horizon=horizon)
    seq = density_sequence(time_set)
    scans = 2 ** 10
    best = None
    for i in range(1, scans + 1):
        t1 = seq.t0 + (horizon - seq.t0) * i / (scans + 1)
        times = seq.t0 + seq.z ** -np.arange(seq.depth + 1.0) * (t1 - seq.t0)
        measures = np.array([_scalar_measure(time_set, times[m + 1], times[m])
                             for m in range(seq.depth)])
        margin = float(np.max(-np.diff(times) - 3.0 * measures))
        if margin <= 1e-15 or best is None or margin < best[0]:
            best = (margin, t1, times, measures)
        if margin <= 1e-15:
            break
    margin, t1, times, measures = best
    assert (seq.found, seq.best_margin, seq.t1) == (margin <= 1e-15, margin, t1)
    assert seq.times.tolist() == times.tolist()
    assert seq.gap_measures.tolist() == measures.tolist()
    assert seq.found == (intervals != ((0.1, 0.1001),))


def test_density_sequence_needs_ratio_above_one(time_set):
    with pytest.raises(ConfigurationError):
        density_sequence(time_set, z=1.0)


def test_growth_rate_variants(setup):
    _, _, coeffs, _ = setup
    d = growth_rate(coeffs, "derivation")
    p = growth_rate(coeffs, "printed")
    m = growth_rate(coeffs, "max")
    assert np.isclose(d, 2 * 0.3 + 0.4 ** 2, rtol=1e-14)
    assert np.isclose(p, 2 * 0.3 ** 2 + 0.4 ** 2, rtol=1e-14)
    assert m == max(d, p)
    with pytest.raises(ConfigurationError):
        growth_rate(coeffs, "bogus")


def _obs_constants(setup, gap_measures):
    grid, mesh, coeffs, ens = setup
    energy = energy_trace(ens)
    ucp_c = compute_constants(grid, (0.5,), 0.08, mesh.horizon, coeffs,
                              energy[0], energy[-1])
    return epsilon_sequence(ucp_c, coeffs, mesh.horizon, gap_measures)


def test_epsilon_recursion_identities(setup, time_set):
    seq = density_sequence(time_set)
    oc = _obs_constants(setup, seq.gap_measures)
    g, c = oc.gamma, oc.c_abt
    # recursion identity, re-derived independently at each index
    for m in range(len(oc.eps) - 1):
        lhs = oc.eps[m + 1] ** g
        rhs = oc.eps[m] ** (g + 1.0) * np.exp(c) \
            * seq.gap_measures[m] / seq.gap_measures[m + 1]
        assert np.isclose(lhs, rhs, rtol=1e-12)
    # induction bound and the matching condition, and their measured
    # excess over the rounding slack
    assert np.all(oc.eps <= oc.eps1 * (1.0 + 1e-12))
    assert np.allclose(oc.sigma[:-1], oc.alpha[1:] * np.exp(-c), rtol=1e-11)
    assert oc.induction_ratio < 0.0 and 0.0 <= oc.matching_ratio <= 1.0
    assert oc.identities_hold
    # final constant: log form always finite, exp form may saturate
    assert np.isfinite(oc.log_c_explicit)
    expected_log = np.log(2.0) - np.log(oc.alpha[0]) + 2.0 * c + oc.theta
    assert np.isclose(oc.log_c_explicit, expected_log, rtol=1e-12)


def test_epsilon_induction_violation_is_measured(setup):
    # a gap far larger than the next pushes eps_2 above eps_1: the excess
    # is reported, not raised
    oc = _obs_constants(setup, np.array([1.0, 1e-3, 5e-4]))
    assert oc.eps[1] > oc.eps1
    assert oc.induction_ratio > 1.0 and not oc.identities_hold


def test_epsilon_recursion_rejects_zero_gaps(setup, time_set):
    with pytest.raises(ConfigurationError):
        _obs_constants(setup, np.array([0.1, 0.0]))


def test_interpolation_split(setup, time_set):
    grid, mesh, coeffs, ens = setup
    oc = _obs_constants(setup, density_sequence(time_set).gap_measures)
    energy = energy_trace(ens)
    local = energy_trace(ens, grid.ball_mask(Ball((0.5,), 0.08)))
    rep = interpolation_split(energy, local, oc, eps=0.5, k=mesh.steps,
                              tol=default_tolerance(mesh, grid))
    assert rep["pass"]
    with pytest.raises(ConfigurationError):
        interpolation_split(energy, local, oc, eps=1.5, k=0)


def test_observation_mass_manual_oracle(setup, time_set):
    grid, mesh, _, ens = setup
    ball = Ball((0.5,), 0.08)
    traced = energy_trace(ens, grid.ball_mask(ball))
    total = observation_mass(traced, mesh, time_set)
    # manual trapezoid over the same cells, of the explicit sums over the
    # 2^d leaf paths of the tree, each of probability 2^-d
    d = grid.ball_mask(ball).astype(float)
    w = grid.quad_weight
    local = np.array([w * sum(2.0 ** -mesh.steps * float(row ** 2 @ d)
                              for row in ens.rows[k])
                      for k in range(mesh.steps + 1)])
    manual = 0.0
    for k in range(mesh.steps):
        ov = time_set.measure_between(mesh.times[k], mesh.times[k + 1])
        manual += ov * 0.5 * (local[k] + local[k + 1])
    assert np.isclose(total, manual, rtol=1e-14)
    # restricting the window can only reduce the mass
    part = observation_mass(traced, mesh, time_set, s=0.3, t=0.45)
    assert 0.0 < part <= total + 1e-15


def test_observation_mass_skips_cells_outside_the_time_set(setup):
    # E meets none of the cells (0, 0.05), (0.05, 0.1), (0.2, 0.25) and
    # (0.25, 0.3): an inf trace value at nodes only they share never enters
    # the sum as 0 * inf
    grid, mesh, _, ens = setup
    time_set = MeasurableTimeSet(((0.12, 0.18), (0.32, 0.43)), horizon=0.5)
    traced = energy_trace(ens, grid.ball_mask(Ball((0.5,), 0.08)))
    blown = traced.copy()
    blown[[0, 5]] = np.inf
    for window in ({}, {"s": 0.05, "t": 0.45}):
        mass = observation_mass(blown, mesh, time_set, **window)
        assert np.isfinite(mass)
        assert mass == observation_mass(traced, mesh, time_set, **window)


def test_telescoping_chain(setup, time_set):
    grid, mesh, _, ens = setup
    seq = density_sequence(time_set)
    oc = _obs_constants(setup, seq.gap_measures)
    local = energy_trace(ens, grid.ball_mask(Ball((0.5,), 0.08)))
    rep = telescoping_check(energy_trace(ens), local, mesh, time_set, seq, oc,
                            tol=default_tolerance(mesh, grid))
    assert all(g["pass"] for g in rep["per_gap"])
    assert rep["summed"]["pass"]
    assert rep["final"]["pass"]
    assert np.isfinite(rep["final"]["c_emp"])
    assert rep["final"]["c_emp"] <= rep["final"]["c_explicit"]
    assert rep["sigma_small"]


def test_constants_with_an_overflowing_rate(setup, time_set):
    # at a = -50, C(a,b,T) = 2500 and e^C overflows a float: eps_m, alpha_m
    # and sigma_m underflow to 0 instead of 0 * inf = NaN, C_explicit is inf
    # with a finite log, and the chain's inequalities hold on the decayed
    # traces
    grid, mesh, _, ens = setup
    strong = CoefficientField.constant(grid, mesh, -50.0, 0.4)
    decayed = solve_forward(ens.rows[0, 0], strong, build_tree(mesh), mesh,
                            grid)
    energy = energy_trace(decayed)
    ucp_c = compute_constants(grid, (0.5,), 0.08, mesh.horizon, strong,
                              energy[0], energy[-1])
    seq = density_sequence(time_set)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        oc = epsilon_sequence(ucp_c, strong, mesh.horizon, seq.gap_measures)
    assert oc.c_abt > 2000.0
    for values in (oc.eps, oc.alpha, oc.sigma):
        assert np.all(values == 0.0)
    assert oc.c_explicit == np.inf and np.isfinite(oc.log_c_explicit)
    local = energy_trace(decayed, grid.ball_mask(Ball((0.5,), 0.08)))
    rep = telescoping_check(energy, local, mesh, time_set, seq, oc,
                            tol=default_tolerance(mesh, grid))
    assert all(g["pass"] for g in rep["per_gap"])
    assert rep["summed"]["pass"] and rep["final"]["pass"]
    assert not np.isnan(rep["summed"]["lhs"])


def test_energy_estimate(setup):
    grid, mesh, coeffs, ens = setup
    for variant in ("derivation", "printed", "max"):
        rep = energy_estimate_check(energy_trace(ens), mesh, coeffs,
                                    default_tolerance(mesh, grid),
                                    variant=variant)
        assert rep["pass"], variant


def test_energy_estimate_with_an_overflowing_bound(setup):
    # at a = -50 the bound e^{Ct} E(0) overflows a float; the decaying
    # energy meets it, so the excess is finite and the check passes
    grid, mesh, _, ens = setup
    strong = CoefficientField.constant(grid, mesh, -50.0, 0.4)
    decayed = solve_forward(ens.rows[0, 0], strong, build_tree(mesh), mesh,
                            grid)
    with np.errstate(over="ignore"):
        assert np.exp(growth_rate(strong) * mesh.horizon) == np.inf
    rep = energy_estimate_check(energy_trace(decayed), mesh, strong,
                                default_tolerance(mesh, grid))
    assert np.isfinite(rep["worst_relative_excess"])
    assert rep["pass"]


def test_energy_estimate_excess_skips_the_initial_time(setup):
    # on a decaying trace every E(t_k) e^{-C t_k}, k >= 1, lies below E(0);
    # the t = 0 term, 0 by construction, is not part of the maximum
    grid, mesh, coeffs, _ = setup
    energy = np.exp(-np.linspace(0.0, 2.0, mesh.steps + 1))
    rep = energy_estimate_check(energy, mesh, coeffs,
                                default_tolerance(mesh, grid))
    rate = growth_rate(coeffs)
    expected = np.max(energy[1:] * np.exp(-rate * mesh.times[1:]) - 1.0)
    assert rep["worst_relative_excess"] < 0.0
    assert rep["worst_relative_excess"] == pytest.approx(expected, rel=1e-12)
    assert rep["pass"]


def test_observe_reads_each_trace_once(monkeypatch):
    # run_observe reads the energy trace and the local trace from one moment
    # pass and passes them to the telescoping check and the growth estimate
    calls = []
    moment = forward.Ensemble.nodal_moment

    def counting(self, *args, **kwargs):
        calls.append(args)
        return moment(self, *args, **kwargs)

    exp = cli.Experiment(cfgmod.merge_config({}))
    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    cli.run_observe(exp)
    assert calls == [()]
