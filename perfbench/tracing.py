"""In-memory span tracer and the table of package entry points it wraps.

Spans are recorded from the benchmark's files: ``instrument`` replaces module
attributes and class methods of ``adaptive_stab`` with timing wrappers for
the duration of a traced run and restores them afterwards.  A wrapped name
that the package no longer has is listed as missing; the metrics built on it
read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import os
import re
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans (name, start, end, parent span) in flat arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []       # wrapped names the package lacks
        self._local = threading.local()
        self._lock = threading.Lock()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around each call; on_result(tracer, args, kwargs,
        result) runs after the span closes."""
        nid = self._intern(name)
        span_open, span_close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = span_open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_close(idx)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def count(self, key: str, fn, amount=None):
        """fn with a counter bumped per call (by amount(args) if given)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span around one benchmark operation."""
        idx = self._open(self._intern(f"op.{label}"))
        try:
            yield
        finally:
            self._close(idx)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds.  Self
        time is the span minus the spans it directly caused."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(self_s[i]) for i, n in enumerate(self.names)})

    def note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 missing=np.array(self.missing, dtype=str))


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _trial_steps(tracer, args, kwargs, result):
    cfg = args[0] if args else kwargs.get("cfg")
    tracer.counts["harness.trial_steps"] += (int(getattr(cfg, "n_trials", 0))
                                             * int(getattr(cfg, "horizon", 0)))


def _projections(tracer, args, kwargs, result):
    diag = result[2]
    tracer.counts["certify.moment_scan_projections"] += (
        diag["x_grid"] * diag["theta_samples"] * diag["zeta_samples"] * diag["mc_samples"])


def _rpi_samples(tracer, args, kwargs, result):
    tracer.counts["certify.rpi_samples"] += int(getattr(result, "samples_checked", 0))


def _bundle_basis(tracer, args, kwargs, bundle):
    try:
        bundle.system = instrument_system(tracer, bundle.system)
    except (AttributeError, TypeError):
        tracer.note_missing("PlantBundle.system.basis_psi")


def _bytes_written(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    tracer.counts["configio.bytes_written"] += os.path.getsize(path)


# (module, attribute, span name, on_result); a dotted attribute is a method
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "build_bundle", "configio.build_bundle", _bundle_basis),
    ("plants", "compute_h", "plants.compute_h", None),
    ("plants", "estimate_policy_lipschitz", "certify.lipschitz", None),
    ("cli", "run_ensemble", "harness.run_ensemble", _trial_steps),
    ("harness", "run_ensemble", "harness.run_ensemble", _trial_steps),
    ("harness", "quantile_series", "harness.reduce", None),
    ("harness", "coverage", "harness.reduce", None),
    ("estimator", "RlsEstimator.estimate", "estimator.estimate", None),
    ("bounds", "compute_schedule", "bounds.compute_schedule", None),
    ("bounds", "check_condition", "bounds.check_condition", None),
    ("bounds", "burn_in_time", "bounds.burn_in_time", None),
    ("bounds", "converge_time", "bounds.converge_time", None),
    ("bounds", "certified_burn_in_upper", "bounds.certified_burn_in_upper", None),
    ("bounds", "certified_converge_upper", "bounds.certified_converge_upper", None),
    ("bounds", "stability_envelope", "bounds.stability_envelope", None),
    ("cli", "moment_scan", "certify.moment_scan", _projections),
    ("cli", "rpi_check", "certify.rpi_check", _rpi_samples),
    ("cli", "check_lyapunov", "certify.check_lyapunov", None),
    ("cli", "write_csv", "configio.write", _bytes_written),
    ("cli", "write_json", "configio.write", _bytes_written),
    ("configio", "write_json", "configio.write", _bytes_written),
)

# (module, attribute, counter, amount per call from the positional args)
COUNTS = (
    ("bounds", "BoundInputs.z_bar", "bounds.z_bar_points", lambda args: int(np.size(args[1]))),
)


def instrument_policy(tracer: Tracer, policy):
    """A copy of a PolicyFamily whose eval records system.policy_eval spans."""
    return dataclasses.replace(policy, eval=tracer.wrap("system.policy_eval", policy.eval))


def instrument_system(tracer: Tracer, system):
    """A copy of a SystemModel whose basis counts system.basis_psi calls."""
    return dataclasses.replace(system, basis_psi=tracer.count("system.basis_psi",
                                                              system.basis_psi))


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value); raises LookupError."""
    try:
        owner = importlib.import_module(f"adaptive_stab.{module}")
    except ImportError as exc:
        raise LookupError(module) from exc
    *path, leaf = attr.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(attr)
        owner = getattr(owner, part)
    if not hasattr(owner, leaf):
        raise LookupError(attr)
    return owner, leaf, owner.__dict__.get(leaf, getattr(owner, leaf))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block and restore the
    originals on exit; names that cannot be wrapped go to tracer.missing."""
    undo: list = []

    def patch(module, attr, make):
        try:
            owner, leaf, orig = _resolve(module, attr)
        except LookupError:
            tracer.note_missing(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(orig))
        undo.append((owner, leaf, orig))

    def policy_factory(orig):
        @functools.wraps(orig)
        def make(*args, **kwargs):
            return instrument_policy(tracer, orig(*args, **kwargs))
        return make

    try:
        for module, attr, span, hook in SPANS:
            patch(module, attr, lambda orig, s=span, h=hook: tracer.wrap(s, orig, h))
        for module, attr, key, amount in COUNTS:
            patch(module, attr, lambda orig, k=key, a=amount: tracer.count(k, orig, a))
        patch("plants", "make_ce_sat_policy", policy_factory)
        yield
    finally:
        for owner, leaf, orig in reversed(undo):
            setattr(owner, leaf, orig)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "configio.build_bundle_calls": "count", "configio.build_bundle_s": "s",
    "plants.compute_h_s": "s", "certify.lipschitz_s": "s",
    "harness.run_ensemble_s": "s", "harness.us_per_trial_step": "us",
    "harness.trial_steps": "count", "harness.reduce_s": "s",
    "system.policy_eval_calls": "count", "system.policy_eval_s": "s",
    "system.basis_psi_calls": "count",
    "estimator.estimate_calls": "count", "estimator.estimate_s": "s",
    "bounds.schedule_s": "s", "bounds.condition_s": "s",
    "bounds.dense_scan_calls": "count", "bounds.dense_scan_s": "s",
    "bounds.z_bar_points": "count",
    "bounds.certified_search_calls": "count", "bounds.certified_search_s": "s",
    "bounds.envelope_s": "s",
    "certify.moment_scan_s": "s", "certify.moment_scan_projections_per_s": "1/s",
    "certify.rpi_check_s": "s", "certify.rpi_samples_per_s": "1/s",
    "certify.lyapunov_s": "s",
    "configio.write_s": "s", "configio.bytes_written": "bytes",
    "cli.self_s": "s", "trace.overhead_s": "s",
    "trace.missing_wrappers": "count", "trace.spans": "count",
}

DENSE = ("bounds.burn_in_time", "bounds.converge_time")
CERTIFIED = ("bounds.certified_burn_in_upper", "bounds.certified_converge_upper")


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float, imports: dict) -> dict:
    """Per-round layer numbers from the spans and counters of `rounds`
    traced rounds."""
    calls, incl, own = tracer.totals()
    c = tracer.counts

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(own.get(k, 0.0) for k in names)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    steps = c["harness.trial_steps"]
    total = {
        "configio.build_bundle_calls": n("configio.build_bundle"),
        "configio.build_bundle_s": s("configio.build_bundle"),
        "plants.compute_h_s": s("plants.compute_h"),
        "certify.lipschitz_s": s("certify.lipschitz"),
        "harness.run_ensemble_s": s("harness.run_ensemble"),
        "harness.trial_steps": steps,
        "harness.reduce_s": s("harness.reduce"),
        "system.policy_eval_calls": n("system.policy_eval"),
        "system.policy_eval_s": s("system.policy_eval"),
        "system.basis_psi_calls": c["system.basis_psi"],
        "estimator.estimate_calls": n("estimator.estimate"),
        "estimator.estimate_s": s("estimator.estimate"),
        "bounds.schedule_s": s("bounds.compute_schedule"),
        "bounds.condition_s": s("bounds.check_condition"),
        "bounds.dense_scan_calls": sum(n(k) for k in DENSE),
        "bounds.dense_scan_s": s(*DENSE),
        "bounds.z_bar_points": c["bounds.z_bar_points"],
        "bounds.certified_search_calls": sum(n(k) for k in CERTIFIED),
        "bounds.certified_search_s": s(*CERTIFIED),
        "bounds.envelope_s": s("bounds.stability_envelope"),
        "certify.moment_scan_s": s("certify.moment_scan"),
        "certify.rpi_check_s": s("certify.rpi_check"),
        "certify.lyapunov_s": s("certify.check_lyapunov"),
        "configio.write_s": s("configio.write"),
        "configio.bytes_written": c["configio.bytes_written"],
        "cli.self_s": s("cli.main"),
        "trace.spans": len(tracer.start),
    }
    out = {k: v / rounds for k, v in total.items()}
    out["harness.us_per_trial_step"] = rate(incl.get("harness.run_ensemble", 0.0) * 1e6, steps)
    out["certify.moment_scan_projections_per_s"] = rate(
        c["certify.moment_scan_projections"], incl.get("certify.moment_scan", 0.0))
    out["certify.rpi_samples_per_s"] = rate(c["certify.rpi_samples"],
                                           incl.get("certify.rpi_check", 0.0))
    out["trace.overhead_s"] = overhead_s
    out["trace.missing_wrappers"] = len(tracer.missing)
    out.update(imports)
    return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced self time per layer (the span name's first part)."""
    _, _, own = tracer.totals()
    by_layer: dict[str, float] = defaultdict(float)
    for name, sec in own.items():
        by_layer[name.split(".")[0]] += sec
    total = sum(by_layer.values()) or 1.0
    return {k: v / total for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(root: str) -> dict:
    """import.total_s and import.scipy_s from `python -X importtime` in a
    fresh process: the cumulative time of adaptive_stab, and the summed
    cumulative times of the outermost scipy modules it pulls in."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import adaptive_stab"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import of adaptive_stab failed: {proc.stderr[-500:]}")
    entries = []
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = scipy = 0
    stack: list = []          # ancestors, walking the post-order list backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "adaptive_stab" and not stack:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(
                a[1].split(".")[0] == "scipy" for a in stack):
            scipy += cumulative
        stack.append((depth, name))
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6}
