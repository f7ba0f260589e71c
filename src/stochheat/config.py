"""Flat dotted key=value experiment configuration.

Human-diffable text format: one `section.key = value` per line, `#` comments.
Values are parsed as bool, int, float, comma-separated float tuples, or
strings.  A canonical serialization (sorted keys, repr-stable values) feeds
the config hash so reports are reproducible byte for byte.
"""

from __future__ import annotations

import hashlib

from .errors import ConfigurationError

__all__ = ["DEFAULTS", "parse_value", "parse_config", "load_config",
           "merge_config", "canonical_serialization", "config_hash",
           "validate_config"]

# desk-scale defaults: unit interval, tree mode, nested radii around x0
DEFAULTS = {
    "domain.extents": (0.0, 1.0),
    "grid.nodes": 63,
    "time.horizon": 0.5,
    "tree.depth": 10,              # the survey step count
    "noise.mode": "tree",
    "mc.paths": 256,
    "coeff.kind": "constant",
    "coeff.a": 0.3,
    "coeff.b": 0.4,
    "coeff.a_bound": 0.5,
    "coeff.b_bound": 0.5,
    "geometry.x0": (0.5,),
    "geometry.r1": 0.08,
    "geometry.r2": 0.12,
    "geometry.r3": 0.18,
    "geometry.r4": 0.24,
    "geometry.g0_center": (0.5,),
    "geometry.g0_radius": 0.1,
    "time_set.e": (0.1, 0.2, 0.3, 0.45),
    "ucp.epsilon": 0.1,
    "ucp.kernel_shift": 0.01,
    "constants.variant": "max",
    "initial.kind": "bump",
    "seed": 1234,
    "tol_scale": 1.0,
    # the control experiments run a reduced resolution of their own
    "control.nodes": 15,
    "control.depth": 10,
    "control.horizon": 0.5,
    "control.g0_center": (0.5,),
    "control.g0_radius": 0.15,
    "control.e1": (0.05, 0.45),
    "control.accuracy": 1e-2,
}


def parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in text:
        try:
            return tuple(float(p) for p in text.split(",") if p.strip())
        except ValueError:
            return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config(text: str) -> dict:
    """The key = value lines of `text`; a key given twice is refused."""
    cfg, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in first:
            raise ConfigurationError(
                f"{key} is set twice, on lines {first[key]} and {lineno}")
        first[key] = lineno
        cfg[key] = parse_value(value)
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def merge_config(overrides: dict | None = None) -> dict:
    cfg = dict(DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ConfigurationError(
                f"unknown configuration keys: {', '.join(sorted(unknown))}")
        cfg.update(overrides)
    return cfg


def _canonical_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_serialization(cfg: dict) -> str:
    return "\n".join(f"{k} = {_canonical_value(cfg[k])}" for k in sorted(cfg)) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_serialization(cfg).encode()).hexdigest()[:16]


def _numbers(value) -> bool:
    """Whether value is a number or a tuple of numbers (bools are neither)."""
    items = value if isinstance(value, tuple) else (value,)
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in items)


def _whole(value) -> bool:
    """Whether a number is whole (6 and 6.0 are, 6.7 is not)."""
    return isinstance(value, int) or float(value).is_integer()


def validate_config(cfg: dict) -> None:
    # a numeric key takes a number, or numbers where its default is a tuple
    # (grid.nodes may give one count per axis)
    for key, default in DEFAULTS.items():
        many = isinstance(default, tuple) or key == "grid.nodes"
        value = cfg[key]
        if _numbers(default) and not _numbers(value if many else (value,)):
            raise ConfigurationError(
                f"{key} must be {'numeric' if many else 'a number'}, "
                f"got {value!r}")
    # counts are refused rather than truncated by int()
    for key in ("tree.depth", "mc.paths", "control.nodes", "control.depth",
                "seed"):
        if not _whole(cfg[key]):
            raise ConfigurationError(
                f"{key} must be a whole number, got {cfg[key]!r}")
    radii = [cfg[f"geometry.r{i}"] for i in (1, 2, 3, 4)]
    if not all(r1 < r2 for r1, r2 in zip(radii, radii[1:])):
        raise ConfigurationError(
            "geometry radii must satisfy r1 < r2 < r3 < r4, got "
            + ", ".join(str(r) for r in radii))
    if cfg["time.horizon"] <= 0:
        raise ConfigurationError("time.horizon must be positive")
    if cfg["tree.depth"] < 1:
        raise ConfigurationError("tree.depth >= 1 required")
    nodes = cfg["grid.nodes"]
    for n in nodes if isinstance(nodes, tuple) else (nodes,):
        if not _whole(n) or n < 3:
            raise ConfigurationError(
                f"grid.nodes must be whole numbers >= 3, got {nodes}")
    if cfg["noise.mode"] not in ("tree", "mc"):
        raise ConfigurationError("noise.mode must be 'tree' or 'mc'")
    if cfg["coeff.kind"] not in ("constant", "random"):
        raise ConfigurationError("coeff.kind must be 'constant' or 'random'")
    if cfg["constants.variant"] not in ("max", "derivation", "printed"):
        raise ConfigurationError(
            "constants.variant must be 'max', 'derivation' or 'printed'")
    for key in ("tol_scale", "control.accuracy"):
        if cfg[key] <= 0:
            raise ConfigurationError(f"{key} must be positive, got {cfg[key]}")
    for key in ("domain.extents", "time_set.e", "control.e1"):
        value = cfg[key]
        if not isinstance(value, tuple) or len(value) % 2 != 0 or not value:
            raise ConfigurationError(
                f"{key} needs an even number of comma-separated values, "
                f"got {value!r}")
    if not 0.0 < 2.0 * cfg["ucp.epsilon"] < cfg["time.horizon"]:
        raise ConfigurationError("ucp.epsilon must satisfy 0 < 2*eps < horizon")
