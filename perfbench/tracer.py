"""Per-layer spans and counts, recorded around the package's public functions.

The tracer wraps module functions and methods of ``stochheat`` from outside:
while installed, every call to a wrapped function records a span (name,
start, end, parent span) and adds to per-name totals.  Uninstalling restores
the original objects.  The package source is not changed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


def _count_paths(stats, args, kwargs, result):
    stats.counters["noise.paths_sampled"] += int(result.n_paths)


def _count_moment_bytes(stats, args, kwargs, result):
    # computed from the array sizes the moment ensemble holds
    stats.counters["forward.moment_bytes"] += sum(
        int(m.nbytes) for m in result.second_moments) + sum(
        int(m.nbytes) for m in result.means)


def _count_lambdas(stats, args, kwargs, result):
    stats.counters["ucp.lambdas_evaluated"] += len(result["profile"])


def _count_null_cg(stats, args, kwargs, result):
    stats.counters["control.cg_iterations"] += int(result[1]["cg"]["iterations"])


def _count_sweep_cg(stats, args, kwargs, result):
    stats.counters["control.cg_iterations"] += sum(
        int(row["cg_iterations"]) for row in result[1]["curve"])


def _count_report_bytes(stats, args, kwargs, result):
    name = args[2] if len(args) > 2 else kwargs["name"]
    tables = args[3] if len(args) > 3 else kwargs.get("tables")
    out_dir = os.path.dirname(result)
    size = os.path.getsize(result)
    for table in tables or {}:
        size += os.path.getsize(os.path.join(out_dir, f"{name}.{table}.csv"))
    stats.counters["report.bytes_written"] += size


# (module, attribute or Class.method, span name, hook after each call)
TARGETS = (
    ("cli", "Experiment.__init__", "cli.experiment", None),
    ("cli", "run_simulate", "cli.simulate", None),
    ("cli", "run_frequency", "cli.frequency", None),
    ("cli", "run_ucp", "cli.ucp", None),
    ("cli", "run_observe", "cli.observe", None),
    ("cli", "run_control", "cli.control", None),
    ("noise", "sample_ensemble", "noise.sample_ensemble", _count_paths),
    ("forward", "solve_forward", "forward.solve_forward", None),
    ("forward", "solve_forward_moments", "forward.solve_forward_moments",
     _count_moment_bytes),
    ("forward", "ImplicitHeatSolver.__init__", "forward.factorization", None),
    ("forward", "TrajectoryEnsemble.quad", "forward.quad", None),
    ("forward", "SecondMomentEnsemble.quad", "forward.quad", None),
    ("forward", "TrajectoryEnsemble.quad_diag", "forward.quad_diag", None),
    ("forward", "SecondMomentEnsemble.quad_diag", "forward.quad_diag", None),
    ("frequency", "compute_hdn", "frequency.compute_hdn", None),
    ("frequency", "hprime_identity_residual", "frequency.hprime_identity", None),
    ("frequency", "frequency_bound_check", "frequency.bound_check", None),
    ("ucp", "amplitude_profile", "ucp.amplitude_profile", _count_lambdas),
    ("ucp", "compute_constants", "ucp.compute_constants", None),
    ("observability", "density_sequence", "observability.density_sequence",
     None),
    ("observability", "telescoping_check", "observability.telescoping", None),
    ("control", "gramian_apply", "control.gramian_apply", None),
    ("control", "solve_dual_forward", "control.solve_dual_forward", None),
    ("control", "solve_backward_tree", "control.solve_backward_tree", None),
    ("control", "synthesize_null_control", "control.null_control",
     _count_null_cg),
    ("control", "synthesize_approx_control", "control.approx_control",
     _count_sweep_cg),
    ("report", "write_report", "report.write_report", _count_report_bytes),
)

# per-layer metric -> (unit, kind, key); kind "time" is the inclusive span
# time, "self" the span time minus its child spans, "calls" the number of
# spans, "counter" a value added by a hook
PER_LAYER = {
    "cli.experiment_s": ("s", "time", "cli.experiment"),
    "cli.simulate_s": ("s", "time", "cli.simulate"),
    "cli.frequency_s": ("s", "time", "cli.frequency"),
    "cli.ucp_s": ("s", "time", "cli.ucp"),
    "cli.observe_s": ("s", "time", "cli.observe"),
    "cli.control_s": ("s", "time", "cli.control"),
    "noise.sample_ensemble_s": ("s", "time", "noise.sample_ensemble"),
    "noise.paths_sampled": ("count", "counter", "noise.paths_sampled"),
    "forward.solve_forward_s": ("s", "time", "forward.solve_forward"),
    "forward.solve_forward_moments_s": ("s", "time",
                                        "forward.solve_forward_moments"),
    "forward.moment_bytes": ("bytes", "counter", "forward.moment_bytes"),
    "forward.solver_factorizations": ("count", "calls",
                                      "forward.factorization"),
    "forward.quad_calls": ("count", "calls", "forward.quad"),
    "forward.quad_s": ("s", "time", "forward.quad"),
    "forward.quad_diag_calls": ("count", "calls", "forward.quad_diag"),
    "forward.quad_diag_s": ("s", "time", "forward.quad_diag"),
    "frequency.compute_hdn_calls": ("count", "calls", "frequency.compute_hdn"),
    "frequency.compute_hdn_s": ("s", "self", "frequency.compute_hdn"),
    "frequency.hprime_identity_s": ("s", "time", "frequency.hprime_identity"),
    "frequency.bound_check_s": ("s", "time", "frequency.bound_check"),
    "ucp.amplitude_profile_s": ("s", "time", "ucp.amplitude_profile"),
    "ucp.lambdas_evaluated": ("count", "counter", "ucp.lambdas_evaluated"),
    "ucp.compute_constants_s": ("s", "time", "ucp.compute_constants"),
    "observability.density_sequence_s": ("s", "time",
                                         "observability.density_sequence"),
    "observability.telescoping_s": ("s", "time", "observability.telescoping"),
    "control.gramian_apply_s": ("s", "time", "control.gramian_apply"),
    "control.gramian_applies": ("count", "calls", "control.gramian_apply"),
    "control.solve_dual_forward_s": ("s", "time", "control.solve_dual_forward"),
    "control.solve_backward_tree_s": ("s", "time",
                                      "control.solve_backward_tree"),
    "control.cg_iterations": ("count", "counter", "control.cg_iterations"),
    "control.null_control_s": ("s", "time", "control.null_control"),
    "control.approx_control_s": ("s", "time", "control.approx_control"),
    "report.write_report_s": ("s", "time", "report.write_report"),
    "report.bytes_written": ("bytes", "counter", "report.bytes_written"),
}

# measured by run.py around whole passes, not by spans
TRACE_METRICS = {
    "trace.traced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Stats:
    """Totals of the spans of one traced pass."""

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.n_spans = 0

    def layer_metrics(self) -> dict:
        table = {"time": self.time, "self": self.self_time,
                 "calls": self.calls, "counter": self.counters}
        return {name: table[kind][key]
                for name, (_, kind, key) in PER_LAYER.items()}


class Tracer:
    """Installs span-recording wrappers into the loaded stochheat modules."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.stats = Stats()
        self._stack = []         # [span id, child time] of open spans
        self._saved = []         # (owner, attribute, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(name, frame, parent, start, end)
            if hook is not None:
                hook(tracer.stats, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, frame, parent, start, end):
        duration = end - start
        if parent is not None:
            parent[1] += duration
        stats = self.stats
        stats.time[name] += duration
        stats.self_time[name] += duration - frame[1]
        stats.calls[name] += 1
        stats.n_spans += 1
        self.spans.append((frame[0], parent[0] if parent else None, name,
                           start, end))

    def _replace(self, owner, key, new):
        """Rebind an attribute, or a key when `owner` is a dict."""
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self):
        """Wrap every target present in the loaded package; module-level
        aliases and the CLI's subcommand table are rebound too, since
        callers hold direct references."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "stochheat" or n.startswith("stochheat.")]
        for module_name, attribute, name, hook in TARGETS:
            module = sys.modules.get(f"stochheat.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or method not in vars(owner):
                continue  # absent from this version: its metrics read 0
            original = vars(owner)[method]
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._replace(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for sub, fn in list(value.items()):
                            if fn is original:
                                self._replace(value, sub, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
