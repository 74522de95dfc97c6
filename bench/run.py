"""diracshell benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload sweep-circle --seed 1 --seconds 10 --trace 0

Workloads (see ``spec.py``): ``sweep-circle``, ``sweep-ellipse``, ``check``.
With ``--trace 0`` it runs the workload in a fresh process with tracing
off, times set-up in other fresh processes before and after it, and
prints the end-to-end metrics.  With ``--trace 1`` it prints the per-layer metrics
of a traced run instead.  BLAS is pinned to one thread in every child
through the environment, before numpy loads.  The last line of standard
output is the JSON result; lines before it are for people.

Exits 2 without a result when the diracshell sources under ``src/`` are
missing or the metric names here and in ``BENCHMARK.json`` disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spec import CHECK, END_TO_END, NAMES, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# fresh-process imports timed per run, half before and half after the
# workload process; one more probe first compiles the bytecode and is dropped
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
PROBE = "import diracshell.cli; print('ready', flush=True)"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def metric_names_drift() -> str | None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in bench[key]}
        if theirs != ours:
            return f"BENCHMARK.json {key} does not match spec.py"
    return None


def setup_time(env: dict) -> float:
    """Wall time from starting a fresh interpreter to diracshell imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def metric(name: str, value, units: dict) -> dict:
    if units[name] == "count":
        value = int(round(value))
    return {"value": value, "unit": units[name]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "diracshell", "__init__.py")):
        return fail(f"diracshell sources not found under {SRC}")
    try:
        drift = metric_names_drift()
    except (OSError, ValueError, KeyError) as exc:
        drift = f"cannot read BENCHMARK.json: {exc}"
    if drift:
        return fail(drift)

    env = child_env()
    half = 0 if args.trace else SETUP_PROBES // 2
    try:
        if half:
            setup_time(env)  # compiles the bytecode; not counted
        setup = [setup_time(env) for _ in range(half)]
        res = run_worker(args, env)
        setup += [setup_time(env) for _ in range(half)]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    print("env " + json.dumps(res["env"], sort_keys=True))
    for msg in res["messages"]:
        print("FAILED " + msg.rstrip())
    samples = res["samples"]
    fail_frac = res["failed"] / res["attempted"]
    if args.trace:
        metrics = {name: metric(name, res["per_layer"][name], PER_LAYER) for name in PER_LAYER}
        print(f"traced run_s: median {statistics.median(res['traced_samples']):.4f} s over "
              f"{len(res['traced_samples'])} calls; untraced {statistics.median(samples):.4f} s")
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    else:
        values = {
            "run_s": statistics.median(samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - fail_frac,
        }
        metrics = {name: metric(name, values[name], END_TO_END) for name in END_TO_END}
        print(f"run_s        median {values['run_s']:.4f} s, max {max(samples):.4f} s, n={len(samples)}")
        print(f"setup_s      median {values['setup_s']:.4f} s, max {max(setup):.4f} s, n={len(setup)}")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"fail_frac    {fail_frac:.4f} ({res['failed']}/{res['attempted']} operations)")
        if res["intercept_err_max"] is not None:
            print(f"intercept_err_max  {res['intercept_err_max']:.6g} (median over calls)")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
