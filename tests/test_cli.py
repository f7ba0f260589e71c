"""Configuration parsing, report serialization, and the command line."""

import csv
import io
import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochheat import cli, forward, frequency, geometry
from stochheat import control as ctl
from stochheat import config as cfgmod
from stochheat import report as repmod
from stochheat import ucp as ucpmod
from stochheat.cli import main
from stochheat.errors import ConfigurationError, ShapeError
from stochheat.geometry import HeatKernelWeight
from stochheat.noise import BernoulliTree, build_tree


def test_parse_value_types():
    assert cfgmod.parse_value("true") is True
    assert cfgmod.parse_value("False") is False
    assert cfgmod.parse_value("42") == 42
    assert cfgmod.parse_value("0.5") == 0.5
    assert cfgmod.parse_value("0.1, 0.2,0.3") == (0.1, 0.2, 0.3)
    assert cfgmod.parse_value("tree") == "tree"


def test_parse_config_lines_and_comments():
    cfg = cfgmod.parse_config("# header\ncoeff.a = 0.1  # inline\n\nseed=7\n")
    assert cfg == {"coeff.a": 0.1, "seed": 7}
    with pytest.raises(ConfigurationError):
        cfgmod.parse_config("not a key value line\n")
    with pytest.raises(ConfigurationError):
        cfgmod.parse_config("= 3\n")
    # a repeated key names itself and both of its lines
    with pytest.raises(ConfigurationError,
                       match=r"tree\.depth .* lines 2 and 4"):
        cfgmod.parse_config("# depth\ntree.depth = 6\nseed = 1\ntree.depth = 10\n")


def test_merge_rejects_unknown_keys():
    merged = cfgmod.merge_config({"coeff.a": 0.9})
    assert merged["coeff.a"] == 0.9
    assert merged["coeff.b"] == cfgmod.DEFAULTS["coeff.b"]
    with pytest.raises(ConfigurationError):
        cfgmod.merge_config({"coeff.bogus": 1.0})


def test_config_hash_stable_and_sensitive():
    base = cfgmod.merge_config()
    assert cfgmod.config_hash(base) == cfgmod.config_hash(dict(base))
    changed = cfgmod.merge_config({"seed": 999})
    assert cfgmod.config_hash(changed) != cfgmod.config_hash(base)
    # serialization is sorted, one key per line, newline-terminated
    text = cfgmod.canonical_serialization(base)
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert text.endswith("\n")


def test_validate_config_errors():
    bad = cfgmod.merge_config({"geometry.r2": 0.05})  # violates r1 < r2
    with pytest.raises(ConfigurationError):
        cfgmod.validate_config(bad)
    bad = cfgmod.merge_config({"noise.mode": "exact"})
    with pytest.raises(ConfigurationError):
        cfgmod.validate_config(bad)
    bad = cfgmod.merge_config({"ucp.epsilon": 0.3})
    with pytest.raises(ConfigurationError):
        cfgmod.validate_config(bad)
    # int() would truncate a fractional count, and an unknown variant would
    # pass simulate and fail only observe
    for key, value in (("tree.depth", 6.7), ("mc.paths", 100.5),
                       ("control.nodes", 15.5), ("control.depth", 6.7),
                       ("seed", 1.5), ("constants.variant", "typo")):
        bad = cfgmod.merge_config({key: value})
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            cfgmod.validate_config(bad)
    cfgmod.validate_config(cfgmod.merge_config())  # defaults are valid


def test_check_record_margin():
    rec = repmod.check_record("x", True, lhs=np.float64(1.0), rhs=2.0,
                              note="n")
    assert rec == {"name": "x", "pass": True, "lhs": 1.0, "rhs": 2.0,
                   "margin": 1.0, "note": "n"}
    assert repmod.all_pass([rec])
    assert not repmod.all_pass([rec, {"name": "y", "pass": False}])


def test_sanitize_numpy_types():
    out = repmod.sanitize({"a": np.float64(1.5), "b": np.arange(3),
                           "c": np.bool_(True), "d": (np.int64(2),)})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": True, "d": [2]}
    assert json.dumps(out)


def test_write_report_byte_stable(tmp_path):
    report = {"experiment": "t", "checks": [repmod.check_record("c", True)],
              "value": np.float64(0.1)}
    tables = {"tab": {"header": ["k", "v"],
                      "columns": [np.array([1]), np.array([0.25])]}}
    p1 = repmod.write_report(report, str(tmp_path / "a"), "t", tables=tables)
    p2 = repmod.write_report(report, str(tmp_path / "b"), "t", tables=tables)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    csv1 = open(str(tmp_path / "a" / "t.tab.csv")).read()
    assert csv1 == "k,v\n1,0.25\n"
    payload = json.load(open(p1))
    assert payload["schema_version"] == "1"


@pytest.mark.parametrize("table", [
    {"header": ["k", "v"], "columns": [np.arange(3), np.zeros(2)]},
    {"header": ["k", "v"], "columns": [np.arange(3)]},
    {"header": ["k"], "columns": [np.arange(3), np.zeros(3)]},
    {"header": ["k", "v"], "columns": [np.arange(3), np.zeros((3, 1))]},
], ids=["lengths", "fewer-columns", "more-columns", "2d-column"])
def test_write_report_refuses_ragged_tables(tmp_path, table):
    # zip would silently cut the rows to the shortest column
    good = {"header": ["k"], "columns": [np.arange(3)]}
    with pytest.raises(ShapeError):
        repmod.write_report({"experiment": "t"}, str(tmp_path / "out"), "t",
                            tables={"good": good, "bad": table})
    assert not (tmp_path / "out").exists()


def _oracle_csv(header, columns, kinds) -> str:
    """The table as written cell by cell through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([int(v) if kind == "int" else repr(float(v))
                         for v, kind in zip(row, kinds)])
    return buf.getvalue()


# signed zeros, infinities, nan, subnormals and both sides of repr's switch
# to exponent notation (below 1e-4 and from 1e16 on)
_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-5, 1e-4, np.nextafter(1e-4, 0.0),
                1e16, -1e16, np.nextafter(1e16, 0.0), 1e300, 0.1]


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["int", "float"]), min_size=1,
                          max_size=4))
    floats = st.sampled_from(_EDGE_FLOATS) | st.floats(width=64)
    ints = st.integers(-2 ** 63, 2 ** 63 - 1)
    columns = [np.array(draw(st.lists(ints if kind == "int" else floats,
                                      min_size=n_rows, max_size=n_rows)),
                        dtype=np.int64 if kind == "int" else np.float64)
               for kind in kinds]
    return [f"c{i}" for i in range(len(kinds))], columns, kinds


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_write_report_matches_per_cell_oracle(table):
    header, columns, kinds = table
    with tempfile.TemporaryDirectory() as out:
        repmod.write_report({}, out, "t", tables={
            "tab": {"header": header, "columns": columns}})
        with open(os.path.join(out, "t.tab.csv"), newline="") as fh:
            text = fh.read()
    assert text == _oracle_csv(header, columns, kinds)


def _fast_text(extra=""):
    # a reduced configuration so CLI round-trips stay quick
    return ("grid.nodes = 31\ntree.depth = 6\ncontrol.depth = 6\n"
            "ucp.kernel_shift = 0.25\n" + extra)


# the 2-D 7x7 grid with the actuator G0 around (0.5, 0.5)
_CONTROL_2D = ("domain.extents = 0,1,0,1\ngrid.nodes = 7\n"
               "control.nodes = 7\ntree.depth = 6\ncontrol.depth = 6\n"
               "geometry.x0 = 0.5,0.5\ngeometry.g0_center = 0.5,0.5\n"
               "control.g0_center = 0.5,0.5\n")


def _fast_config(tmp_path, extra=""):
    path = tmp_path / "fast.cfg"
    path.write_text(_fast_text(extra))
    return str(path)


def test_cli_simulate_pass(tmp_path, capsys):
    code = main(["simulate", "--config", _fast_config(tmp_path),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    report = json.load(open(tmp_path / "out" / "simulate.json"))
    assert report["experiment"] == "simulate"
    assert all(rec["pass"] for rec in report["checks"])
    assert os.path.exists(tmp_path / "out" / "simulate.timing.txt")


def test_cli_bad_config_exit_2(tmp_path, capsys):
    # (subcommand, config, expected text): every package error raised before
    # the report is written exits 2 with one line naming its class
    cases = [
        ("simulate", "coeff.bogus = 1\n", "ConfigurationError"),
        ("frequency", _fast_text("geometry.r4 = 0.6\n"), "GeometryError"),
        ("ucp", _fast_text("geometry.r4 = 0.6\n"), "GeometryError"),
        # only the control tree is capped: surveys build no tree
        ("control", "control.depth = 17\n", "ResourceError"),
        # tree.depth is the one survey step count; a key given twice
        ("simulate", "time.steps = 10\n", "time.steps"),
        ("simulate", "tree.depth = 6\ntree.depth = 10\n",
         "tree.depth is set twice, on lines 1 and 2"),
        # a point of the wrong dimension; control.* only where control runs
        ("simulate", "geometry.x0 = 0.5,0.5\n", "ConfigurationError"),
        ("simulate", "geometry.g0_center = 0.5,0.5\n", "ConfigurationError"),
        ("control", "control.g0_center = 0.5,0.5\n", "ConfigurationError"),
        # scalar interval keys, a fractional node count
        ("observe", "time_set.e = 0.3\n", "ConfigurationError"),
        ("control", "control.e1 = 0.3\n", "ConfigurationError"),
        ("simulate", "domain.extents = 1\n", "ConfigurationError"),
        ("simulate", "grid.nodes = 15.5\n", "ConfigurationError"),
        # a word or a pair where a number belongs
        ("simulate", "tree.depth = abc\n", "ConfigurationError"),
        ("control", "control.g0_radius = abc\n", "ConfigurationError"),
        ("simulate", "time.horizon = 0.5,1\n", "ConfigurationError"),
        # a G0 or actuator ball that holds no grid node, named by its keys
        ("ucp", "geometry.g0_center = 1.5\n",
         "geometry.g0_center/geometry.g0_radius"),
        ("control", "control.g0_center = 1.5\n",
         "control.g0_center/control.g0_radius"),
        # an observation ball B_{0.8 r_G0}(x0) or B_{r1}(x0) with no node
        ("ucp", _fast_text("geometry.x0 = 0.508\ngeometry.g0_radius = 0.005\n"),
         "geometry.x0/geometry.g0_radius"),
        ("ucp", _fast_text("geometry.x0 = 0.508\ngeometry.r1 = 0.005\n"),
         "geometry.x0/geometry.r1"),
        # an unknown coefficient kind, a nonpositive tolerance scale (from
        # the config or the command line) or control accuracy
        ("verify", "coeff.kind = bogus\n", "coeff.kind"),
        ("verify", "tol_scale = -1\n", "tol_scale"),
        ("verify", "tol_scale = 0\n", "tol_scale"),
        (("verify", "--tol-scale", "-1"), "", "tol_scale"),
        ("control", "control.accuracy = -0.5\n", "control.accuracy"),
        # at dt = 0.05, T - 2 eps and T - eps share one time node, which
        # would zero the log term of A(lambda)
        ("ucp", "ucp.epsilon = 0.01\n", "ucp.epsilon = 0.01"),
        ("ucp", "ucp.epsilon = 0.03\n", "ucp.epsilon = 0.03"),
    ]
    for i, (sub, text, error) in enumerate(cases):
        bad = tmp_path / f"bad{i}.cfg"
        bad.write_text(text)
        args = list(sub) if isinstance(sub, tuple) else [sub]
        code = main(args + ["--config", str(bad),
                            "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, (sub, text)
        assert "configuration error" in err
        assert error in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_non_finite_numbers_exit_2(tmp_path, capsys, bad):
    # every numeric key, in a tuple at its first entry, and --tol-scale:
    # refused before any solve, with one line naming the key
    runs = [([f"--tol-scale={bad}"], "", "tol_scale")]
    for key, default in cfgmod.DEFAULTS.items():
        if isinstance(default, str):
            continue
        rest = [repr(float(v)) for v in default[1:]] \
            if isinstance(default, tuple) else []
        runs.append(([], f"{key} = {','.join([bad] + rest)}\n", key))
    for i, (flags, text, key) in enumerate(runs):
        cfg = tmp_path / f"bad{i}.cfg"
        cfg.write_text(text)
        code = main(["verify", "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, (flags, text)
        assert f"ConfigurationError: {key} must be" in err, err
        assert err.count("\n") == 1
    assert len(runs) > 25 and not (tmp_path / "out").exists()


def test_cli_overflowing_moments_exit_2(tmp_path, capsys):
    # b = 1e100 overflows the moments at step 4 of 6: closed form and
    # recursion alike exit 2 with one line and no traceback
    for text in ("coeff.b = 1e100\n",
                 "coeff.kind = random\ncoeff.b_bound = 1e100\n"):
        for sub in ("simulate", "verify"):
            code = main([sub, "--config", _fast_config(tmp_path, text),
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (text, sub)
            assert "NumericalError" in err and "at step 4 of 6" in err, err
            assert err.count("\n") == 1 and "Traceback" not in err
    # finite factors whose expectation E[y^2] = Z^T Z overflows: b = 1e20
    # at the default depth 10, and b = 100 on the 400-step fine mesh of
    # frequency, where E[y^2] overflows at node 275 and the field b^2 E[y^2]
    # of the identity's E int b^2 y^2 K at node 272; nodal_moment names the
    # first time node that overflows
    cfg = tmp_path / "overflow.cfg"
    for text, sub, node in (
            ("grid.nodes = 31\ncoeff.b = 1e20\n", "simulate", "9 of 10"),
            (_fast_text("coeff.b = 100\n"), "verify", "272 of 400")):
        cfg.write_text(text)
        code = main([sub, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, (text, sub)
        assert "NumericalError" in err \
            and f"expectation not finite at time node {node}" in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # b = 1e10 stays finite over the survey steps: simulate runs, and only
    # the transform oracle, whose paths overflow, fails, with no warning
    code = main(["simulate", "--config",
                 _fast_config(tmp_path, "coeff.b = 1e10\n"),
                 "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""
    assert code == 1
    report = json.load(open(tmp_path / "out" / "simulate.json"))
    assert [(r["name"], r["pass"]) for r in report["checks"]] == [
        ("step_invertibility", True), ("terminal_energy_finite", True),
        ("transform_oracle_gap_bounded", False)]
    # mc mode at the defaults: the sampled closed form judges its path
    # scalars on the logs, so b = 1e100 and b = 1e20 exit 2 with one line
    # and no warning, and b = 1e10 and b = 100 run and fail the oracle
    cfg = tmp_path / "mc.cfg"
    for b, exit_code, lines in (("1e100", 2, 1), ("1e20", 2, 1),
                                ("1e10", 1, 0), ("100", 1, 0)):
        cfg.write_text(f"coeff.b = {b}\n")
        code = main(["simulate", "--config", str(cfg), "--mode", "mc",
                     "--out", str(tmp_path / "mc")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (exit_code, lines), (b, err)
        assert "NumericalError" in err if lines else err == ""


def test_cli_ucp_g0_touching_the_boundary(tmp_path, capsys):
    # a G0 ball that reaches past the boundary still gets its masses
    code = main(["ucp", "--config",
                 _fast_config(tmp_path, "geometry.g0_center = 0.05\n"),
                 "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    with open(tmp_path / "out" / "ucp.json") as fh:
        leaf = json.load(fh)["details"]["vanishing_propagation"]
    assert set(leaf) == {"verdict", "target_mass", "global_mass"}
    assert leaf["verdict"] is False
    assert 0.0 < leaf["target_mass"] < leaf["global_mass"]


@pytest.mark.parametrize("overrides", [
    {"coeff.kind": "random", "grid.nodes": 15, "tree.depth": 6},
    {"coeff.a": -20.0, "coeff.b": 0.0},
], ids=["random-ranks", "vanishing-factor"])
def test_experiment_values_is_a_writable_view(overrides):
    # a moment rank that changes between time nodes, and a factor that
    # vanishes from step 1 on (1 + dt a = 0): values reads the padded rows
    # and a write through it moves nodal_moment
    ens = cli.Experiment(cfgmod.merge_config(overrides)).ensemble
    ranks = ens.provenance["rank"]
    assert len(set(ranks)) > 1
    assert ens.values.shape == (max(ranks),) + ens.rows.shape[::2]
    assert np.shares_memory(ens.values, ens.rows)
    assert not any(z[r:].any() for z, r in zip(ens.rows, ranks))
    before = ens.nodal_moment()
    ens.values[0, 0, :] *= 2.0
    assert np.array_equal(ens.nodal_moment()[0], 4.0 * before[0])
    assert np.array_equal(ens.nodal_moment()[1:], before[1:])


def test_one_default_moment_pass_per_experiment(monkeypatch):
    # simulate, ucp and observe read the one cached `Experiment.moment`;
    # the other three are `kernel_traces` passes: the fine identity and
    # both drift bounds in frequency, and the lambda sweep in ucp
    calls = []
    moment = forward.Ensemble.nodal_moment

    def counting(self, *args, **kwargs):
        calls.append(args)
        return moment(self, *args, **kwargs)

    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting)
    exp = cli.Experiment(cfgmod.merge_config({}))
    for name in ("simulate", "frequency", "ucp", "observe"):
        cli.SUBCOMMANDS[name](exp)
    assert len(calls) == 4
    assert calls.count(()) == 1


def test_tree_survey_runs_past_the_control_depth_cap(tmp_path, capsys):
    # the exact moments of a tree-mode survey need no tree, so a depth above
    # the control cap of 16 runs, at rank one for constant coefficients
    config = tmp_path / "deep.cfg"
    config.write_text("grid.nodes = 31\ntree.depth = 20\n")
    code = main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code != 2
    exp = cli.Experiment(cfgmod.merge_config({"grid.nodes": 31,
                                              "tree.depth": 20}))
    assert isinstance(exp.ensemble, forward.SecondMomentEnsemble)
    assert exp.ensemble.provenance["rank"] == [1] * 21


def test_tree_survey_builds_no_tree(monkeypatch):
    # a tree-mode survey pass builds the exact moments twice (the
    # experiment's ensemble and the fine one of frequency) and solves no
    # Bernoulli tree; with constant coefficients both are the closed form,
    # which runs no SVD, and random ones take the SVD recursion
    trees, moments, svds = [], [], []
    paths = cli.solve_forward
    recursion = cli.solve_forward_moments
    svd = np.linalg.svd

    def counting_paths(y0, coeffs, noise, *args, **kwargs):
        if isinstance(noise, BernoulliTree):
            trees.append(noise)
        return paths(y0, coeffs, noise, *args, **kwargs)

    def counting_moments(*args, **kwargs):
        moments.append(args)
        return recursion(*args, **kwargs)

    def counting_svd(*args, **kwargs):
        svds.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_forward", counting_paths)
    monkeypatch.setattr(cli, "solve_forward_moments", counting_moments)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for kind in ("constant", "random"):
        exp = cli.Experiment(cfgmod.merge_config(
            cfgmod.parse_config(_fast_text(f"coeff.kind = {kind}\n"))))
        for name in ("simulate", "frequency", "ucp", "observe"):
            cli.SUBCOMMANDS[name](exp)
        assert len(trees) == 0 and len(moments) == 2
        assert (len(svds) == 0) == (kind == "constant"), (kind, len(svds))
        moments.clear()
        svds.clear()


def test_mc_survey_solves_no_path(monkeypatch):
    # with constant coefficients an mc survey pass runs no `solve_forward`,
    # not even for the transform oracle, and every integrand of
    # `nodal_moment` sees one row per time node; random coefficients solve
    # and contract every sampled path
    solved, rows_seen = [], []
    paths = cli.solve_forward
    moment = forward.Ensemble.nodal_moment

    def counting_paths(y0, coeffs, noise, *args, **kwargs):
        solved.append(len(noise.increments))
        return paths(y0, coeffs, noise, *args, **kwargs)

    def counting_moment(self, integrand=np.square, *args):
        def watched(rows):
            rows_seen.append(rows.shape[1])
            return integrand(rows)
        return moment(self, watched, *args)

    monkeypatch.setattr(cli, "solve_forward", counting_paths)
    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting_moment)
    for kind, n_paths, rows in (("constant", [], 1), ("random", [256], 256)):
        exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(
            _fast_text(f"coeff.kind = {kind}\nnoise.mode = mc\n"
                       "mc.paths = 256\n"))))
        for name in ("simulate", "frequency", "ucp", "observe"):
            cli.SUBCOMMANDS[name](exp)
        assert solved == n_paths, kind
        # at least one integrand call per pass: the moment, the drift
        # bounds, the lambda sweep and the fine identity pass
        assert max(rows_seen) == rows and len(rows_seen) >= 4, kind
        solved.clear()
        rows_seen.clear()


def _numbers_close(a, b, path=""):
    """Paths of the leaves where two report trees differ: keys, strings,
    bools and ints exactly, floats beyond rtol 1e-12, with an absolute
    1e-14 only where one of the two reads 0."""
    if isinstance(a, dict):
        if not isinstance(b, dict) or set(a) != set(b):
            return [path]
        return [p for k in a for p in _numbers_close(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return [path]
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in _numbers_close(x, y, f"{path}[{i}]")]
    if isinstance(a, float) and isinstance(b, float):
        floor = 1e-14 if a == 0.0 or b == 0.0 else 0.0
        close = a == b or abs(a - b) <= max(
            1e-12 * max(abs(a), abs(b)), floor)
        return [] if close else [path]
    return [] if type(a) is type(b) and a == b else [path]


@pytest.mark.parametrize("kind", ["constant", "random"])
def test_tree_survey_matches_the_brute_force_tree(tmp_path, capsys,
                                                  monkeypatch, kind):
    # verify on the exact moments and on the full Bernoulli tree of
    # `solve_forward`: the same verdicts and the same numbers
    config = _fast_config(tmp_path, f"coeff.kind = {kind}\n")
    reports = []
    for name in ("moments", "tree"):
        if name == "tree":
            monkeypatch.setattr(cli.Experiment, "ensemble", property(
                lambda exp: forward.solve_forward(
                    exp.y0, exp.coeffs, build_tree(exp.mesh), exp.mesh,
                    exp.grid)))
        code = main(["verify", "--config", config,
                     "--out", str(tmp_path / name)])
        reports.append((code, json.load(open(tmp_path / name / "verify.json"))))
    capsys.readouterr()
    (code_m, moments), (code_t, tree) = reports
    assert code_m == code_t
    assert [(r["name"], r["pass"]) for r in moments["checks"]] \
        == [(r["name"], r["pass"]) for r in tree["checks"]]
    assert _numbers_close(moments, tree) == []


@pytest.mark.parametrize("text", ["", _CONTROL_2D], ids=["1d", "2d-7x7"])
def test_mc_survey_matches_the_path_solve(tmp_path, capsys, monkeypatch,
                                          text):
    # the surveys on the sampled closed form and on the same 256 paths
    # solved one by one by `solve_forward`: the same exit codes, verdicts,
    # exclusions and counts, and the same numbers to rounding
    config = tmp_path / "mc.cfg"
    config.write_text(text + "noise.mode = mc\nmc.paths = 256\n")
    reports = {}
    for name in ("closed", "paths"):
        if name == "paths":
            monkeypatch.setattr(cli.Experiment, "ensemble", property(
                lambda exp: forward.solve_forward(
                    exp.y0, exp.coeffs, exp.paths, exp.mesh, exp.grid)))
        for sub in ("simulate", "frequency", "ucp", "observe"):
            code = main([sub, "--config", str(config),
                         "--out", str(tmp_path / name)])
            assert capsys.readouterr().err == ""
            reports[name, sub] = (code, json.load(
                open(tmp_path / name / f"{sub}.json")))
    for sub in ("simulate", "frequency", "ucp", "observe"):
        (code_c, closed), (code_p, paths) = (reports[name, sub]
                                             for name in ("closed", "paths"))
        assert code_c == code_p, sub
        assert [(r["name"], r["pass"], r.get("excluded")) for r in
                closed["checks"]] == [(r["name"], r["pass"], r.get("excluded"))
                                      for r in paths["checks"]]
        assert _numbers_close(closed, paths) == [], sub


def test_cli_scalar_points_run_like_tuples(tmp_path, capsys):
    # a scalar point is the 1-D point (x,): same exit code, same report
    points = ("geometry.x0", "geometry.g0_center", "control.g0_center")
    codes, reports = [], []
    for name, value in (("scalar", "0.45"), ("tuple", "0.45,")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_fast_text("".join(f"{key} = {value}\n"
                                          for key in points)))
        codes.append(main(["verify", "--config", str(cfg),
                           "--out", str(tmp_path / name)]))
        reports.append(open(tmp_path / name / "verify.json", "rb").read())
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["details"]["ucp"]["constants"]
    capsys.readouterr()


def test_cli_missing_config_exit_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_seed_override_changes_hash(tmp_path, capsys):
    cfg = _fast_config(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "77",
                 "--out", out2]) == 0
    h1 = json.load(open(os.path.join(out1, "simulate.json")))["config_hash"]
    h2 = json.load(open(os.path.join(out2, "simulate.json")))["config_hash"]
    assert h1 != h2
    capsys.readouterr()


def test_cli_mc_mode(tmp_path, capsys):
    code = main(["simulate", "--config",
                 _fast_config(tmp_path, "mc.paths = 32\n"),
                 "--mode", "mc", "--out", str(tmp_path / "out")])
    assert code == 0
    capsys.readouterr()


def test_cli_2d_verify_runs_control(tmp_path, capsys):
    # 2-D end to end, control included.  Known failure at this config:
    # approximate control; its target varies in x only, so it carries the
    # odd modes in y, and the 5-node actuator around (0.5, 0.5) reaches few
    # of them.  Null control passes although that actuator leaves the
    # Gramian singular: the closed form is the minimum-norm least-squares
    # solution, and the free flow has damped the unreachable modes
    cfg = tmp_path / "2d.cfg"
    cfg.write_text(_CONTROL_2D)
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code != 2
    report = json.load(open(out / "verify.json"))
    known = {"control.approximate_control"}
    failed = {rec["name"] for rec in report["checks"] if not rec["pass"]}
    assert failed <= known, failed
    assert "control.duality_identity_adjoint" in \
        {rec["name"] for rec in report["checks"]}
    lines = (out / "verify.control_control.csv").read_text().splitlines()
    assert lines[0] == "node,x,y,value" and len(lines) == 1 + 49
    assert {len(line.split(",")) for line in lines} == {4}


@pytest.mark.parametrize("text", [_fast_text(), _CONTROL_2D],
                         ids=["1d", "2d-7x7"])
def test_control_csv_is_the_masked_null_control(tmp_path, monkeypatch, text):
    # the table is the null control's dual datum, one row per control-grid
    # node; the `dual_control` of the datum read back from it gives the
    # null control on G0 at every level of positive weight (by level, tree
    # node, grid node index) bit for bit
    captured = []
    synthesize = ctl.synthesize_null_control

    def capturing(*args, **kwargs):
        captured.append((args, synthesize(*args, **kwargs)))
        return captured[-1][1]

    monkeypatch.setattr(ctl, "synthesize_null_control", capturing)
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(text)))
    _, _, tables = cli.run_control(exp)
    repmod.write_report({}, str(tmp_path), "control", tables=tables)
    lines = (tmp_path / "control.control.csv").read_text().splitlines()
    (args, (ctrl, _)), = captured
    coeffs, ball, time_set, mesh, grid, tree = args[3:]
    assert lines[0] == ",".join(["node"] + ["x", "y"][:grid.dim] + ["value"])
    cells = [line.split(",") for line in lines[1:]]
    assert [int(c[0]) for c in cells] == list(range(grid.n_nodes))
    assert [[float(x) for x in c[1:-1]] for c in cells] == grid.coords.tolist()
    datum = np.array([float(c[-1]) for c in cells])
    regenerated = ctl.dual_control(datum, coeffs, ball, time_set, mesh, grid,
                                   tree)

    def rows(field):
        expected = []
        for k, level in enumerate(field.levels):
            if field.weights[k] <= 0.0:
                continue
            for node in range(level.shape[0]):
                for i in range(grid.n_nodes):
                    if field.mask[i]:
                        expected.append(",".join(
                            [str(k), str(node)]
                            + [repr(float(x)) for x in grid.coords[i]]
                            + [repr(float(level[node, i]))]))
        return expected

    expected = rows(ctrl)
    assert len(expected) > 0 and rows(regenerated) == expected


def test_cli_2d_frequency_at_31x31(tmp_path, capsys):
    # the 400-step moment recursion on 961 nodes holds factors, not a dense
    # 961 x 961 matrix per time node (about 3 GB)
    cfg = tmp_path / "2d31.cfg"
    cfg.write_text("domain.extents = 0,1,0,1\ngrid.nodes = 31\n"
                   "tree.depth = 6\ngeometry.x0 = 0.5,0.5\n"
                   "geometry.g0_center = 0.5,0.5\n")
    out = tmp_path / "out"
    code = main(["frequency", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.load(open(out / "frequency.json"))
    assert report["checks"] and all(rec["pass"] for rec in report["checks"])


def test_one_factorization_per_run(monkeypatch):
    # every tree, dual, adjoint and sampled solve of a run shares the one
    # solver of I - dt Lap for its (grid, dt); the independent mode's
    # potential, constant or not, is a shift of it, so its solve on the
    # run's grid and tree builds none
    built, calls = [], []
    init = forward.ImplicitHeatSolver.__init__
    backward = ctl.solve_backward_tree

    def counting_init(self, grid, dt):
        built.append(dt)
        init(self, grid, dt)

    def recording_backward(*args, **kwargs):
        calls.append(args)
        return backward(*args, **kwargs)

    monkeypatch.setattr(forward.ImplicitHeatSolver, "__init__", counting_init)
    monkeypatch.setattr(ctl, "solve_backward_tree", recording_backward)
    for kind in ("constant", "random"):
        exp = cli.Experiment(cfgmod.merge_config(
            cfgmod.parse_config(_fast_text(f"coeff.kind = {kind}\n"))))
        cli.run_control(exp)
        assert len(built) == 1
        z_term, coeffs, mesh, grid, tree = calls[-1][:5]
        solves = backward(z_term, coeffs, mesh, grid, tree,
                          mode="independent").solves  # per step, depth 6
        assert len(built) == 1
        if kind == "constant":
            assert solves == [1] * 6
        else:
            assert min(solves) > 1
        built.clear()
        calls.clear()
    cli.run_simulate(exp)
    assert len(built) == 1


def test_cli_memory_error_exit_2(tmp_path, capsys):
    # 10^15 paths of 10 increments are 8e16 bytes: the increment cap
    # refuses them before any allocation.  A 10^15-node 1-D grid is beyond
    # a 47-bit address space: its allocation fails at once.  Each is
    # reported in one line
    cases = [("noise.mode = mc\nmc.paths = 1000000000000000\n",
              "ResourceError: mc.paths"),
             ("grid.nodes = 1000000000000000\n", "MemoryError")]
    for text, kind in cases:
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and kind in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "simulate.json").exists()


def test_cli_control_on_a_semidefinite_gramian_exit_1(tmp_path, capsys):
    # at 3 control nodes the Gramian is positive semidefinite up to
    # round-off (lambda_min -2.4e-19 against lambda_max 2.2e-2): the null
    # control's CG meets a null direction and stops, the closed form still
    # drives z(0) below 1e-6, and the run reports, exiting 1
    path = tmp_path / "small.cfg"
    path.write_text("control.nodes = 3\n")
    code = main(["control", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""
    assert code == 1
    report = json.load(open(tmp_path / "out" / "control.json"))
    null = next(rec for rec in report["checks"]
                if rec["name"] == "null_control_verified")
    assert null["pass"]


def test_simulate_reports_the_scheme_step_sizes(tmp_path, capsys):
    # b sqrt(dt) and |a| dt in the details; at b = 40 (dt = 0.05) a noise
    # step of 8.9 is flagged, at the defaults (0.089) it is not
    for extra, b_sqrt_dt, large in (("coeff.b = 40\n", 8.944, True),
                                    ("", 0.0894, False)):
        path = tmp_path / "scheme.cfg"
        path.write_text(extra)
        main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        capsys.readouterr()
        scheme = json.load(open(tmp_path / "simulate.json"))["details"]["scheme"]
        assert scheme["b_sqrt_dt"] == pytest.approx(b_sqrt_dt, rel=1e-3)
        assert scheme["a_dt"] == pytest.approx(0.3 * 0.05, rel=1e-12)
        assert scheme["noise_step_large"] is large


def _count_trace_passes(monkeypatch):
    """Patch `kernel_traces` (as cli and ucp call it) and
    `Ensemble.nodal_moment` to record, per call, the ensemble and the
    passes it makes; returns the (calls, passes) lists."""
    calls, passes = [], []
    traces = frequency.kernel_traces
    moment = forward.Ensemble.nodal_moment

    def counting(ens, *args, **kwargs):
        calls.append((ens, len(passes)))
        return traces(ens, *args, **kwargs)

    def counting_moment(self, integrand=np.square, contract=None,
                        nodes=slice(None)):
        passes.append((self, contract, nodes))
        return moment(self, integrand, contract, nodes)

    monkeypatch.setattr(cli, "kernel_traces", counting)
    monkeypatch.setattr(ucpmod, "kernel_traces", counting)
    monkeypatch.setattr(forward.Ensemble, "nodal_moment", counting_moment)
    return calls, passes


def test_one_coarse_pass_for_both_drift_bounds(monkeypatch):
    # a simulate/frequency/ucp/observe pass reads the experiment's ensemble
    # in three passes: the default moment, one for both drift bounds and
    # one for the lambda sweep's window; the fine 400-step ensemble of the
    # identities is read once.  Each kernel_traces call makes one pass,
    # reduced tile by tile; ucp alone makes the moment and the sweep pass
    calls, passes = _count_trace_passes(monkeypatch)
    cfg = cfgmod.merge_config(cfgmod.parse_config(_fast_text()))
    exp = cli.Experiment(cfg)
    assert passes == []  # nothing is read at set-up
    for runner in (cli.run_simulate, cli.run_frequency, cli.run_ucp,
                   cli.run_observe):
        runner(exp)
    coarse = [(c, nodes) for ens, c, nodes in passes if ens is exp.ensemble]
    fine = [ens for ens, c, _ in passes if ens is not exp.ensemble]
    assert [(c is None, nodes.start) for c, nodes in coarse] == \
        [(True, None), (False, None), (False, 4)]  # T - 2 eps at node 4
    assert len(fine) == 1 and fine[0].mesh.steps == 400
    # the three kernel_traces calls and the moment make the four passes
    assert len(calls) == 3 and len(passes) == 4
    assert all(passes[before][0] is ens and passes[before][1] is not None
               for ens, before in calls)
    passes.clear()
    cli.run_ucp(cli.Experiment(cfg))
    assert [(c is None, nodes.start) for _, c, nodes in passes] == \
        [(True, None), (False, 4)]


def test_localized_terms_are_formed_on_the_support_box(monkeypatch):
    # at 2-D 15x15 with the default cutoff (r3 = 0.18, r4 = 0.24) the
    # support box is 9x9 = 81 of the 225 nodes: frequency takes the
    # centred differences of its global terms on the grid and those of its
    # localized terms on the box only, and the lambda sweep of ucp, which
    # asks for localized quantities only, evaluates its kernel and its
    # differences at the 81 box nodes only
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(
        "domain.extents = 0,1,0,1\ngrid.nodes = 15\n"
        "geometry.x0 = 0.5,0.5\ngeometry.g0_center = 0.5,0.5\n")))
    assert exp.cutoff.box == (slice(3, 12), slice(3, 12))
    diffs, kernels = [], []
    difference = geometry._centred_difference
    values = HeatKernelWeight.values

    def recording(rows, shape, axis, h):
        diffs.append((np.shape(rows)[-1], shape))
        return difference(rows, shape, axis, h)

    def recording_values(self, t, coords):
        kernels.append(np.shape(coords))
        return values(self, t, coords)

    monkeypatch.setattr(geometry, "_centred_difference", recording)
    monkeypatch.setattr(HeatKernelWeight, "values", recording_values)
    cli.run_frequency(exp)
    assert set(diffs) == {(225, (15, 15)), (81, (9, 9))}
    diffs.clear()
    kernels.clear()
    cli.run_ucp(exp)
    assert diffs and set(diffs) == {(81, (9, 9))}
    assert kernels and set(kernels) == {(81, 2)}


@pytest.mark.parametrize("kind", ["constant", "random"])
def test_frequency_reads_the_fine_ensemble_in_one_pass(kind, monkeypatch):
    # run_frequency reads the experiment's ensemble in one pass, for both
    # drift bounds, and the fine 400-step ensemble of the derivative
    # identities in exactly one pass; both reduce each tile with the kernel
    calls, passes = _count_trace_passes(monkeypatch)
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(
        _fast_text(f"coeff.kind = {kind}\n"))))
    cli.run_frequency(exp)
    assert len(calls) == len(passes) == 2
    assert [ens for ens, _ in calls] == [ens for ens, _, _ in passes]
    fine, coarse = passes
    assert coarse[0] is exp.ensemble and fine[0].mesh.steps == 400
    assert all(c is not None and nodes == slice(None)
               for _, c, nodes in passes)


def test_frequency_reuses_the_experiment_coefficients(monkeypatch):
    # the fine 400-step ensemble runs under the experiment's coefficient
    # values: random ones are drawn once, by the experiment, and the fine
    # field is built from what it stores; stored coefficients that vary in
    # time have no value on the fine mesh and are refused
    drawn, fine = [], []
    draw = forward.CoefficientField.random_bounded.__func__
    moments = cli.solve_forward_moments
    monkeypatch.setattr(forward.CoefficientField, "random_bounded",
                        classmethod(lambda cls, *args: drawn.append(args)
                                    or draw(cls, *args)))
    monkeypatch.setattr(cli, "solve_forward_moments",
                        lambda y0, coeffs, *args: fine.append(coeffs)
                        or moments(y0, coeffs, *args))
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(
        _fast_text("coeff.kind = random\n"))))
    cli.run_frequency(exp)
    assert len(drawn) == 1
    # the fine ensemble is solved first, then the experiment's
    assert [c.mesh.steps for c in fine] == [400, exp.mesh.steps]
    assert fine[1] is exp.coeffs
    assert np.array_equal(fine[0].a_stored, exp.coeffs.a_stored)
    assert np.array_equal(fine[0].b_stored, exp.coeffs.b_stored)
    ramp = np.linspace(0.0, 1.0, exp.mesh.steps)[:, None]
    ramped = forward.CoefficientField(exp.grid, exp.mesh, a=0.3 + ramp, b=0.4)
    with pytest.raises(ConfigurationError):
        forward.CoefficientField(exp.grid, fine[0].mesh, ramped.a_stored,
                                 ramped.b_stored)


def test_time_constant_coefficients_in_any_layout_give_one_report():
    # time-constant a and b given as scalars, as one row of nodes or as a
    # (steps, n) table are stored alike, so simulate and frequency give
    # byte-identical outputs on the 1-D defaults; constant coefficients
    # store O(1) bytes, and a table ramped in time with equal columns is
    # uniform over the nodes, stored as one column
    cfg = cfgmod.merge_config({})
    layouts = (lambda v, shape: v, lambda v, shape: np.full(shape[1], v),
               lambda v, shape: np.full(shape, v))
    outputs = []
    for layout in layouts:
        exp = cli.Experiment(cfg)
        shape = (exp.mesh.steps, exp.grid.n_nodes)
        exp.coeffs = forward.CoefficientField(
            exp.grid, exp.mesh, a=layout(cfg["coeff.a"], shape),
            b=layout(cfg["coeff.b"], shape))
        assert exp.coeffs.a_stored.nbytes + exp.coeffs.b_stored.nbytes == 16
        outputs.append([json.dumps(repmod.sanitize(cli.SUBCOMMANDS[name](exp)))
                        for name in ("simulate", "frequency")])
    assert outputs[0] == outputs[1] == outputs[2]
    constant = forward.CoefficientField.constant(exp.grid, exp.mesh, 0.3, 0.4)
    assert constant.a_stored.nbytes + constant.b_stored.nbytes == 16
    ramp = np.linspace(0.0, 1.0, shape[0])[:, None] * np.ones(shape[1])
    ramped = forward.CoefficientField(exp.grid, exp.mesh, a=0.3 - ramp,
                                      b=0.5 + ramp)
    assert ramped.node_uniform
    assert ramped.a_stored.shape == ramped.b_stored.shape == (shape[0], 1)


def test_frequency_memory_at_31x31():
    # the tracemalloc peak of a whole 2-D 31x31 frequency run stays below
    # three (401, n) fine orbits: the fine moments hold two such arrays,
    # the factor rows and the means, and the coefficients of the fine mesh
    # add no (400, n) array
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(
        "domain.extents = 0,1,0,1\ngrid.nodes = 31\n"
        "geometry.x0 = 0.5,0.5\ngeometry.g0_center = 0.5,0.5\n")))
    tracemalloc.start()
    try:
        cli.run_frequency(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 401 * exp.grid.n_nodes * 8


def test_observe_thin_time_set_excludes_the_chain(tmp_path, capsys):
    # no density sequence in a time set of measure 1e-4: the condition
    # fails (exit 1) and the checks of the epsilon chain are not run
    code = main(["observe", "--config",
                 _fast_config(tmp_path, "time_set.e = 0.1,0.1001\n"),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    checks = {rec["name"]: rec for rec in json.load(
        open(tmp_path / "out" / "observe.json"))["checks"]}
    assert not checks["density_sequence_condition"]["pass"]
    assert all(f"EXCL  {name}" in out.splitlines()
               for name in cli.EPSILON_CHAIN_CHECKS)
    assert all(checks[name]["excluded"] for name in cli.EPSILON_CHAIN_CHECKS)
    assert checks["energy_growth_estimate"]["pass"]


def test_observe_fails_a_broken_epsilon_induction(tmp_path, capsys,
                                                  monkeypatch):
    # a first gap measure 100 times too large still meets the density
    # condition but lifts eps_2 above eps_1: the record fails, exit 1
    density = cli.obs.density_sequence

    def inflated(time_set):
        seq = density(time_set)
        seq.gap_measures[0] *= 100.0
        return seq

    monkeypatch.setattr(cli.obs, "density_sequence", inflated)
    code = main(["observe", "--config", _fast_config(tmp_path),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  epsilon_recursion_identities" in out
    assert "PASS  density_sequence_condition" in out
    rec = next(r for r in json.load(open(tmp_path / "out" / "observe.json"))
               ["checks"] if r["name"] == "epsilon_recursion_identities")
    assert rec["induction_ratio"] > 1.0


def test_cli_backward_uniqueness_branch(tmp_path, capsys):
    # at depth 10, 1 + dt*a = 1 - 0.05*20 is exactly 0 and b = 0, so y
    # vanishes after the first step: ucp and observe take the
    # backward-uniqueness branch (exit 0, the epsilon chain excluded), while
    # simulate flags the degenerate step (exit 1)
    path = tmp_path / "branch.cfg"
    path.write_text("coeff.a = -20\ncoeff.b = 0\ngrid.nodes = 31\n")
    codes, outs, checks = {}, {}, {}
    for sub in ("ucp", "observe", "simulate"):
        codes[sub] = main([sub, "--config", str(path),
                           "--out", str(tmp_path / "out")])
        outs[sub] = capsys.readouterr().out.splitlines()
        checks[sub] = {rec["name"]: rec for rec in json.load(
            open(tmp_path / "out" / f"{sub}.json"))["checks"]}
    assert codes == {"ucp": 0, "observe": 0, "simulate": 1}
    for sub in ("ucp", "observe"):
        assert checks[sub]["backward_uniqueness_branch"]["pass"]
        assert "PASS  backward_uniqueness_branch" in outs[sub]
    assert all(f"EXCL  {name}" in outs["observe"]
               and checks["observe"][name]["excluded"]
               for name in cli.EPSILON_CHAIN_CHECKS)
    assert "FAIL  step_invertibility" in outs["simulate"]
    assert checks["simulate"]["step_invertibility"]["min_factor"] == 0.0


def test_one_constants_evaluation_per_experiment(monkeypatch):
    # ucp and observe read the UCP constants, or the branch, from the one
    # cached `Experiment.constants`
    calls = []
    compute = cli.ucpmod.compute_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli.ucpmod, "compute_constants", counting)
    for branch in ({}, {"coeff.a": -20.0, "coeff.b": 0.0}):
        exp = cli.Experiment(cfgmod.merge_config({"grid.nodes": 31, **branch}))
        for runner in (cli.run_ucp, cli.run_observe):
            checks, _, _ = runner(exp)
            assert ("backward_uniqueness_branch"
                    in [rec["name"] for rec in checks]) == bool(branch)
        assert len(calls) == 1
        calls.clear()


def test_frequency_fails_a_kernel_that_is_not_caloric(monkeypatch,
                                                      kernel_off_by):
    # K with 4.04 s for 4 s in its exponent no longer solves K_t + Lap K = 0
    exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(_fast_text())))
    rec = next(r for r in cli.run_frequency(exp)[0]
               if r["name"] == "kernel_caloric_identity")
    assert rec["pass"] and rec["lhs"] <= 1e-6
    monkeypatch.setattr(HeatKernelWeight, "values", kernel_off_by(1.01, 1.0))
    rec = next(r for r in cli.run_frequency(exp)[0]
               if r["name"] == "kernel_caloric_identity")
    assert not rec["pass"] and rec["lhs"] > 1e-3


SURVEY_CONFIGS = {
    "1d": "",
    "mc-4096": "noise.mode = mc\nmc.paths = 4096\n",
    "2d-15x15": "domain.extents = 0,1,0,1\ngrid.nodes = 15\n"
                "geometry.x0 = 0.5,0.5\ngeometry.g0_center = 0.5,0.5\n",
}


@pytest.mark.parametrize("text, values, ref", [
    (SURVEY_CONFIGS["1d"], (0.0, 0.8), 1.5),
    (SURVEY_CONFIGS["2d-15x15"], (0.4,), 0.8),
    (SURVEY_CONFIGS["2d-15x15"] + "noise.mode = mc\nmc.paths = 256\n",
     (0.4,), 1.2),
], ids=["1d", "2d-15x15", "2d-mc-256"])
def test_frequency_function_does_not_depend_on_b(text, values, ref):
    # node-uniform coefficients: y is a path scalar times one deterministic
    # flow, so E[s^2] cancels from N = D/H while H moves with b
    def h_and_n(b):
        text_b = f"{text}coeff.b = {b}\n"
        exp = cli.Experiment(cfgmod.merge_config(cfgmod.parse_config(text_b)))
        _, h, _, n = cli.run_frequency(exp)[2]["hdn"]["columns"]
        return np.asarray(h), np.asarray(n)

    h_ref, n_ref = h_and_n(ref)
    for b in values:
        h, n = h_and_n(b)
        assert np.max(np.abs(n - n_ref) / np.abs(n_ref)) <= 1e-13, b
        assert np.max(np.abs(h - h_ref) / np.abs(h_ref)) > 1e-3, b


def _survey_engine_gap(text, monkeypatch, report_leaves):
    """Run simulate, frequency, ucp and observe on the closed forms and
    again with `node_uniform` patched to False, on the nodal recursion,
    physical paths and nodal moments: whether the verdicts and every
    non-float leaf agree, and the largest relative gap of a float leaf of
    the records, the details and the table columns."""
    cfg = cfgmod.merge_config(cfgmod.parse_config(text))

    def run():
        exp = cli.Experiment(cfg)
        schemes.append(exp.ensemble.provenance["scheme"])
        return [cli.SUBCOMMANDS[name](exp)
                for name in ("simulate", "frequency", "ucp", "observe")]

    schemes = []
    fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(forward.CoefficientField, "node_uniform",
                      property(lambda self: False))
        nodal = run()
    assert schemes[0] != schemes[1], schemes
    same, worst = True, 0.0
    for (checks, extras, tables), (ref, ref_extras, ref_tables) in zip(
            fast, nodal):
        same &= [c["pass"] for c in checks] == [c["pass"] for c in ref]
        for (_, value), (_, expected) in zip(report_leaves(checks + [extras]),
                                             report_leaves(ref + [ref_extras])):
            if not isinstance(value, float):
                same &= value == expected
            elif value != expected:
                worst = max(worst, abs(value - expected)
                            / max(abs(expected), 1e-300))
        for name, table in tables.items():
            for col, ref_col in zip(table["columns"],
                                    ref_tables[name]["columns"]):
                gap = np.abs(np.asarray(col) - ref_col)
                worst = max(worst, float(np.max(
                    gap / np.maximum(np.abs(ref_col), 1e-300))))
    return same, worst


@pytest.mark.parametrize("name", sorted(SURVEY_CONFIGS))
def test_survey_closed_forms_match_the_nodal_engines(name, monkeypatch,
                                                     report_leaves):
    # the closed forms (exact and sampled step scalars, the factored
    # moments) against the nodal engines that are exact for any
    # coefficients: the same verdicts, every float within 1e-10 relative
    same, worst = _survey_engine_gap(SURVEY_CONFIGS[name], monkeypatch,
                                     report_leaves)
    assert same and worst <= 1e-10, worst


@pytest.mark.parametrize("name", ["1d", "2d-15x15"])
def test_survey_engine_test_fails_a_halved_ito_term(name, monkeypatch,
                                                    report_leaves):
    # the closed-form moments with the Ito term at half size, c_j^2 =
    # d_j^2 + dt b_j^2 / 2 (b / sqrt(2) in the factor scale; the mean scale
    # does not read b), which `verify` passes
    exact = forward._exact_scalars
    monkeypatch.setattr(forward, "_exact_scalars", lambda coeffs, dt: exact(
        forward.CoefficientField(coeffs.grid, coeffs.mesh, coeffs.a_stored,
                                 coeffs.b_stored / np.sqrt(2.0)), dt))
    same, worst = _survey_engine_gap(SURVEY_CONFIGS[name], monkeypatch,
                                     report_leaves)
    assert not same or worst > 1e-10, worst


@pytest.mark.parametrize("name", ["mc-4096"])
def test_survey_engine_test_fails_unweighted_path_scalars(name, monkeypatch,
                                                          report_leaves):
    # the sampled closed form sums its path scalars at unit weight, not at
    # weight 1/P, so its second moments are P times too large (the engine
    # gap reads P - 1 = 4095), a fault under which `verify` keeps its
    # verdicts
    sampled = forward._sampled_scalars
    monkeypatch.setattr(forward, "_sampled_scalars",
                        lambda coeffs, dt, increments, weights: sampled(
                            coeffs, dt, increments, np.ones_like(weights)))
    same, worst = _survey_engine_gap(SURVEY_CONFIGS[name], monkeypatch,
                                     report_leaves)
    assert not same or worst > 1e-10, worst
