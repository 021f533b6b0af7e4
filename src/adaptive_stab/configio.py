"""Experiment configuration files, CSV/JSON artifact writers, and run
manifests.

Configs are JSON, validated against a schema; CSV floats are written with
repr-faithful %.17g formatting so reruns with identical manifests reproduce
identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import jsonschema
import numpy as np

from .errors import ConfigError
from .plants import (LinearExampleParams, PlantBundle, PwaExampleParams,
                     build_linear, build_pwa)

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["system"],
    "properties": {
        "system": {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"enum": ["pwa", "linear"]},
                "params": {"type": "object"},
            },
        },
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "x0": {"type": ["number", "array"]},
        "vartheta0": {"type": "array"},
        "horizon": {"type": "integer", "minimum": 1},
        "n_trials": {"type": "integer", "minimum": 1},
        "base_seed": {"type": "integer", "minimum": 0},
        "deltas": {"type": "array", "items":
                   {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
    },
}


def load_config(path: str) -> dict:
    """Read and validate a JSON experiment config."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config {path}: {exc.message}") from exc
    return cfg


def build_bundle(cfg: dict, seed: int = 0) -> PlantBundle:
    """Instantiate the named example system with parameter overrides."""
    sys_cfg = cfg["system"]
    name = sys_cfg["name"]
    params = dict(sys_cfg.get("params", {}))
    common = {}
    for key in ("gamma", "x0", "vartheta0"):
        if key in cfg:
            common[key] = cfg[key]
    if "vartheta0" in common:
        common["vartheta0"] = np.asarray(common["vartheta0"], dtype=float)
    try:
        if name == "pwa":
            p = PwaExampleParams(**{**params, **common})
            return build_pwa(p, seed=seed)
        for key in ("a", "b", "sigma_w"):
            if key in params:
                params[key] = np.asarray(params[key], dtype=float)
        if "sigma_w_scalar" in params:
            scale = float(params.pop("sigma_w_scalar"))
            dim = np.atleast_2d(np.asarray(params.get(
                "a", LinearExampleParams().a))).shape[0]
            params["sigma_w"] = scale ** 2 * np.eye(dim)
        if "x0" in common:
            common["x0"] = np.atleast_1d(np.asarray(common["x0"], dtype=float))
        p = LinearExampleParams(**{**params, **common})
        return build_linear(p, seed=seed)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system {name!r}: {exc}") from exc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) and v != v:  # NaN
        return "nan"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: str, obj) -> None:
    """Strict JSON: infinities become the strings "inf" / "-inf", and NaN
    fails the dump instead of writing a token JSON does not have."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _jsonable(obj):
    """obj with numpy values made plain and infinite floats tagged."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _describe_version() -> str:
    """git-describe when available, else the installed package version."""
    import subprocess
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except Exception:
        pass
    try:
        from importlib.metadata import version
        return version("adaptive-stab")
    except Exception:
        return "unknown"


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    version: str = ""
    wall_clock_s: float = 0.0
    outputs: dict = field(default_factory=dict)   # name -> path
    hashes: dict = field(default_factory=dict)    # path -> sha256

    def finalize(self, started: float) -> "RunManifest":
        self.wall_clock_s = time.time() - started
        for path in self.outputs.values():
            if os.path.exists(path):
                self.hashes[path] = file_sha256(path)
        if not self.version:
            self.version = _describe_version()
        return self

    def write(self, path: str) -> None:
        write_json(path, asdict(self))
