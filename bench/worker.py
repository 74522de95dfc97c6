"""One workload in a fresh process: closed loop, one caller, outputs checked.

Started by ``run.py`` with the BLAS thread variables already in the
environment, so they are in effect before numpy loads.  Calls the
workload's top-level function (``cli.run_sweep`` or ``cli.run_checks``)
back to back until ``--seconds`` have passed, checks every output, and
prints human-readable lines followed by one JSON line for the parent.

With ``--trace 1`` each untraced call is followed by a traced one; the
per-layer metrics come from the traced calls only, and their time over
the untraced time gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

from spec import CHECK, INTERCEPT_RTOL, NAMES, PER_LAYER, REFERENCE_RTOL, SWEEPS
from tracer import Tracer

import numpy as np
import scipy

import diracshell
from diracshell import checks, cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SweepJob:
    """``cli.run_sweep`` on one config; an operation is one eps point plus the fit verdict."""

    root = "cli.run_sweep"

    def __init__(self, name: str, seed: int):
        self.config = dict(SWEEPS[name], seed=seed)
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)[name]
        if ref["config"] != SWEEPS[name]:
            raise SystemExit(f"reference.json was made for another {name} config; rerun make_reference.py")
        self.reference = {float(k): v for k, v in ref["eigenvalues"].items()}
        self.ops_per_call = len(self.config["eps"]) + 1
        self.intercept_errors: list = []

    def call(self):
        return cli.run_sweep(self.config)

    def verify(self, report) -> list:
        """Messages for every failed operation of one call."""
        bad = []
        for eps in self.config["eps"]:
            got = report.mu_shell.get(eps)
            ref = self.reference[eps]
            if eps in report.failures or got is None:
                bad.append(f"eps={eps}: {report.failures.get(eps, 'missing')}")
            elif len(got) != len(ref) or any(abs(a - b) > REFERENCE_RTOL * abs(b) for a, b in zip(got, ref)):
                bad.append(f"eps={eps}: {got} vs reference {ref}")
        verdicts = report.verdicts()
        if report.partial or not verdicts:
            bad.append(f"partial report, failures {report.failures}")
        else:
            self.intercept_errors.append(max(v["intercept_error"] for v in verdicts))
            first = verdicts[0]
            if first["intercept_error"] > INTERCEPT_RTOL * abs(first["mu_effective"]):
                bad.append(f"j=1 intercept {first['intercept']} vs effective {first['mu_effective']}")
        return bad


class CheckJob:
    """``cli.run_checks`` over the whole registry; an operation is one suite."""

    root = "cli.run_checks"

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = os.path.join(OUT_DIR, "checks.json")
        self.ops_per_call = len(checks.REGISTRY)
        self.intercept_errors: list = []

    def call(self):
        status = cli.run_checks(out=self.out)
        with open(self.out) as fh:
            return status, json.load(fh)

    def verify(self, outcome) -> list:
        status, summary = outcome
        bad = [f"{name}: {res['detail']}" for name, res in summary.items() if not res["passed"]]
        if len(summary) != self.ops_per_call:
            bad.append(f"{len(summary)} suite results for {self.ops_per_call} registry entries")
        elif status != 0 and not bad:
            bad.append(f"run_checks returned {status} with every suite passing")
        return bad


class Tally:
    def __init__(self, job):
        self.job = job
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def timed(self, fn) -> float:
        """Run one call through fn, check its output, return its wall time."""
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.attempted += self.job.ops_per_call
            self.failed += self.job.ops_per_call
            self.messages.append(traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - t0
        bad = self.job.verify(outcome)
        self.attempted += self.job.ops_per_call
        self.failed += len(bad)
        self.messages.extend(bad)
        return elapsed


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of every traced call, median over calls."""
    per_run: dict = defaultdict(lambda: defaultdict(float))
    for (name, start, end, parent, run, counts), self_s in zip(tracer.spans, tracer.self_times()):
        m = per_run[run]
        if parent < 0:
            m["cli.self_s"] += self_s
        elif name.startswith("checks."):
            m[name + "_s"] += end - start
        elif name == "geometry.curvature":
            m["geometry.curvature_s"] += self_s
            m["geometry.curvature_calls"] += 1
            m["geometry.curvature_points"] += counts["points"]
        elif name == "geometry.curve_build":
            m["geometry.curve_build_s"] += self_s
        elif name == "effective.assemble":
            m["effective.assemble_s"] += self_s
            m["effective.dim"] = max(m["effective.dim"], counts["dim"])
        elif name == "effective.eigh":
            m["effective.eigh_s"] += self_s
        elif name == "shell.assemble":
            m["shell.assemble_s"] += self_s
            m["shell.dof"] += counts["dof"]
            m["shell.nnz"] += counts["nnz"]
        elif name == "eigsolve.solve":
            m["eigsolve.solve_s"] += self_s
            m["eigsolve.iterations"] += counts.get("iterations", 0)
            m["eigsolve.residual_max"] = max(m["eigsolve.residual_max"], counts.get("residual_max", 0.0))
    unknown = {k for m in per_run.values() for k in m} - set(PER_LAYER)
    if unknown:
        print(f"note: spans outside the metric list: {sorted(unknown)}")
    return {k: statistics.median(m[k] for m in per_run.values()) for k in PER_LAYER}


def span_table(tracer) -> list:
    """Lines of calls, inclusive and self seconds per span name, per traced call."""
    runs = tracer.run + 1
    rows: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, *_), self_s in zip(tracer.spans, tracer.self_times()):
        row = rows[name]
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    lines = [f"{'span':34s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s}   (per traced call, {runs} calls)"]
    for name, (calls, incl, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34s} {calls / runs:7.1f} {incl / runs:10.4f} {self_s / runs:10.4f}")
    return lines


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(diracshell.__file__).startswith(src + os.sep):
        print(f"diracshell imported from {diracshell.__file__}, not {src}", file=sys.stderr)
        return 2

    job = CheckJob() if args.workload == CHECK else SweepJob(args.workload, args.seed)
    tally = Tally(job)
    samples, traced_samples = [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        samples.append(tally.timed(job.call))
        if tracer is not None:
            with tracer.installed():
                traced_samples.append(tally.timed(lambda: tracer.top(job.root, job.call)))
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "env": environment(args.seed),
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "intercept_err_max": statistics.median(job.intercept_errors) if job.intercept_errors else None,
    }
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(tracer.records(), fh)
        layers = layer_metrics(tracer)
        layers["cli.intercept_err_max"] = result["intercept_err_max"] or 0.0
        layers["trace.overhead_frac"] = statistics.median(traced_samples) / statistics.median(samples) - 1.0
        result["per_layer"] = layers
        result["traced_samples"] = traced_samples
        for line in span_table(tracer):
            print(line)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
