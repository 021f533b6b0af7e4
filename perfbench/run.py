"""Benchmark entry point for adaptive-stab.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs whole rounds of the workload's operations, at least one, and no round
that (as long as the last) would end past --seconds; checks the outputs of
the last round, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 one untraced
round is followed by traced rounds and the metrics are per layer.  Times are
the least over repetitions, since other load on a shared host only adds to
them: run_s and cpu_s sum each operation's least time over the run's rounds,
and setup_s is the least of this process's own set-up and those of fresh
processes started as `run.py --setup-only` before and after the rounds.
Outputs and the trace land under perfbench/out/<workload>/.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("ensemble", "bounds", "certify")   # workloads.WORKLOADS, named here so that
                                            # argument errors import no package
FRESH_SETUPS = 2     # fresh-process set-ups taken before the timed rounds, and again after


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print only this process's set-up time (run.py starts "
                        "itself so to sample fresh set-ups)")
    return p.parse_args(argv)


def run_round(ops, tracer=None) -> tuple[int, int, float, dict]:
    """(attempted, failed, wall seconds, {label: (wall seconds, cpu seconds)})
    of one round."""
    failed = 0
    per_op = {}
    wall0 = time.perf_counter()
    for label, op in ops:
        op0, opcpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = op()
            else:
                with tracer.op(label):
                    rc = op()
        except Exception as exc:  # an operation that raises counts as failed
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        if rc != 0:
            print(f"{label}: exit code {rc}", file=sys.stderr)
            failed += 1
        per_op[label] = (time.perf_counter() - op0, time.process_time() - opcpu0)
    return len(ops), failed, time.perf_counter() - wall0, per_op


def fresh_setup_s(workload: str) -> float:
    """The set-up time that a fresh process running this file reports."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh set-up exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def median(values):
    v = sorted(values)
    k = len(v) // 2
    return v[k] if len(v) % 2 else 0.5 * (v[k - 1] + v[k])


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adaptive_stab", "__init__.py")):
        print(f"run.py: no package source under {src}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("run.py: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    # set-up: the package with numpy, scipy and jsonschema, and the configs
    import workloads
    from adaptive_stab import configio
    wl = workloads.WORKLOADS[args.workload]
    configs = {rel: configio.load_config(os.path.join(ROOT, rel)) for rel in wl.configs}
    own_setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(own_setup_s))
        return 0

    import checks
    import tracing

    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ctx = workloads.Context(ROOT, out, args.seed, configs)
    ops = wl.ops(ctx)

    attempted = failed = 0
    rounds = []

    def measure(tracer=None):
        nonlocal attempted, failed
        began = time.perf_counter()
        while True:
            a, f, wall, per_op = run_round(ops, tracer)
            attempted, failed = attempted + a, failed + f
            rounds.append((wall, per_op))
            # no round that, as long as the last, would end past --seconds
            if time.perf_counter() - began + wall > args.seconds:
                return

    def op_medians():
        return {label: median([r[1][label][0] for r in rounds]) for label, _ in ops}

    def fastest_round(k):
        """Sum over the operations of each one's least wall (k=0) or cpu
        (k=1) time over the run's rounds."""
        return sum(min(r[1][label][k] for r in rounds) for label, _ in ops)

    if args.trace:
        attempted, failed, untraced_s, _ = run_round(ops)
        tracer = tracing.Tracer()
        ctx.tracer = tracer
        with tracing.instrument(tracer):
            measure(tracer)
        ctx.tracer = None
        traced_s = median([r[0] for r in rounds])
        metrics = tracing.layer_metrics(tracer, len(rounds), traced_s - untraced_s,
                                        tracing.import_times(ROOT))
        traced_ops = op_medians()
        for label in workloads.OP_LABELS:
            metrics[f"op.{label}_s"] = {"value": traced_ops.get(label, 0.0), "unit": "s"}
        tracer.save(os.path.join(out, "trace.npz"))
        if tracer.missing:
            print(f"trace: not wrapped (metrics read 0): {', '.join(tracer.missing)}",
                  file=sys.stderr)
        shares = ", ".join(f"{k} {v:.1%}" for k, v in tracing.layer_shares(tracer).items())
        print(f"trace: self-time share by layer: {shares}", file=sys.stderr)
    else:
        setups = [own_setup_s] + [fresh_setup_s(args.workload) for _ in range(FRESH_SETUPS)]
        measure()
        setups += [fresh_setup_s(args.workload) for _ in range(FRESH_SETUPS)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "run_s": {"value": fastest_round(0), "unit": "s"},
            "cpu_s": {"value": fastest_round(1), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("set-up s: " + " ".join(f"{v:.3f}" for v in setups), file=sys.stderr)
        print("median op wall s: " + ", ".join(f"{k} {v:.3f}" for k, v in op_medians().items()),
              file=sys.stderr)
        print(f"median round wall s: {median([r[0] for r in rounds]):.3f}", file=sys.stderr)

    correct = True
    try:
        wl.verify(ctx)
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct = False
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} operation(s), "
          f"{failed} failed; round wall s: {' '.join(f'{r[0]:.3f}' for r in rounds)}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
