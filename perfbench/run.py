"""The repository benchmark: run one workload, check every cell, print metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole grids, each in a fresh interpreter, for about
``--seconds`` seconds and prints the end-to-end metrics, with host
times at a standard host speed (see ``hostspeed.py``); ``--trace 1``
runs one untraced and one traced grid and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--make-reference`` instead simulates the grid on the Python reference
engine and writes ``perfbench/refs/<workload>-s<seed>.json``, the cell
hashes later runs of that seed are checked against.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from grid import WORKLOADS
from hostspeed import REFERENCE_PROBE_S, grid_at_standard_speed, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GRID = os.path.join(HERE, "grid.py")
REFS = os.path.join(HERE, "refs")
CACHE = os.path.join(ROOT, ".perfbench_cache")

#: Set-up probes per run; setup_s is their median.  A timed run takes
#: them in rounds of PROBE_ROUND, one round before each grid and the
#: rest after the last, so they sample the same stretch of host time as
#: the grids do.
SETUP_PROBES = 15
PROBE_ROUND = 3
#: Host seconds per run spent re-simulating sampled cells on the Python
#: engine, for seeds that have no committed reference.
CHECK_SECONDS = 2.0
#: Every run must finish well inside 180 s.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_cell_frac": "fraction",
}


class StepError(RuntimeError):
    pass


def pinned_env(tmp: str, kernel_cache: str) -> dict:
    """The environment every step runs under: vector engine, private caches.

    Every ``REPRO_*`` knob of the caller is dropped, so trace length,
    dispatch, endpoints and fault injection are the benchmark's own.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_ENGINE="vector",
        REPRO_RESULT_CACHE="memory",
        REPRO_TRACE_CACHE="memory",
        REPRO_KERNEL_CACHE=kernel_cache,
        REPRO_TRACE_CACHE_DIR=os.path.join(tmp, "traces"),
        REPRO_RESULT_CACHE_DIR=os.path.join(tmp, "results"),
        XDG_CACHE_HOME=os.path.join(tmp, "xdg"),
        TMPDIR=tmp,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
    )
    return env


def host_fingerprint() -> str:
    compiler = shutil.which("cc") or shutil.which("gcc") or "none"
    version = "none"
    if compiler != "none":
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True, check=False)
        version = (probe.stdout.splitlines() or ["?"])[0]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"cc={version}")


def run_step(argv, env, tmp, deadline):
    """Run one grid.py step in its own process group; return (doc, seconds)."""
    out = os.path.join(tmp, f"step-{time.perf_counter_ns()}.json")
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, GRID, *argv, "--out", out],
        env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        # Timeout or interrupt: stop the step and any pool workers it started.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    elapsed = time.perf_counter() - spawned
    if code != 0:
        raise StepError(f"step {argv[0]} exited with code {code}")
    with open(out) as fp:
        doc = json.load(fp)
    os.unlink(out)
    doc["spawned"] = spawned
    return doc, elapsed


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFS, f"{workload}-s{seed}.json")


def grid_argv(workload, seed, check, trace=False, spans=None, probes=False):
    argv = ["grid", "--workload", workload, "--seed", str(seed)]
    if probes:
        argv.append("--probes")
    if check:
        ref = reference_path(workload, seed)
        if os.path.exists(ref):
            argv += ["--reference", ref]
        else:
            argv += ["--check-seconds", str(CHECK_SECONDS)]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", spans]
    return argv


def setup_probes(count, env, tmp, deadline):
    probes = []
    for _ in range(count):
        doc, _ = run_step(["setup"], env, tmp, deadline)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        doc["setup_s"] = doc["ready"] - doc["spawned"]
        probes.append(doc)
    return probes


def tally(reps):
    """(attempted, failures): every cell of every grid, and what failed."""
    failures = []
    first = reps[0]["hashes"]
    for rep in reps:
        failures.extend(rep["failures"])
        if rep["hashes"] != first or rep["rendered_hash"] != reps[0]["rendered_hash"]:
            failures.append("results differ between repetitions of one seed")
    attempted = sum(rep["cells"] + rep["sampled_python_cells"] for rep in reps)
    return attempted, failures


def timed_run(args, env, tmp, deadline):
    probes, reps, costs = [], [], []
    start = time.perf_counter()
    while True:
        probes += setup_probes(PROBE_ROUND, env, tmp, deadline)
        argv = grid_argv(args.workload, args.seed, check=not reps, probes=True)
        doc, elapsed = run_step(argv, env, tmp, deadline)
        reps.append(doc)
        costs.append(elapsed - doc["check_s"])
        if time.perf_counter() - start + statistics.median(costs) > args.seconds:
            break
    probes += setup_probes(SETUP_PROBES - len(probes), env, tmp, deadline)
    attempted, failures = tally(reps)
    # Host times are expressed at the standard host speed (hostspeed.py).
    for rep in reps:
        info = rep["info"]
        rep["wall_s"], rep["cpu_s"], rep["factor"] = grid_at_standard_speed(
            info["wall_s"], info["cpu_s"], rep["cell_probes"], rep["grid_pid"])
    for p in probes:
        p["scaled_setup_s"] = scale(p["setup_s"], statistics.fmean(p["probes"]))
    values = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "sim_accesses_per_s": statistics.median(
            rep["executed_accesses"] / rep["wall_s"] for rep in reps
        ),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["info"]["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(p["scaled_setup_s"] for p in probes),
        "ok_cell_frac": 1.0 - min(len(failures), attempted) / attempted,
    }
    print(f"grids: {len(reps)}  cells/grid: {reps[0]['cells']}  "
          f"simulated/grid: {reps[0]['executed']}  "
          f"standard probe time: {REFERENCE_PROBE_S * 1e3:.3f} ms")
    for rep in reps:
        print(f"  grid wall_s {rep['info']['wall_s']:.3f} measured, "
              f"{rep['wall_s']:.3f} at standard speed (factor {rep['factor']:.3f})")
    setups = ", ".join(f"{p['setup_s']:.3f}/{p['scaled_setup_s']:.3f}" for p in probes)
    print(f"setup probes: {len(probes)}  setup_s measured/standard: {setups}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return attempted, failures, metrics


def traced_run(args, env, tmp, deadline):
    build_cache = os.path.join(tmp, "kernel-build")
    build_env = dict(env, REPRO_KERNEL_CACHE=build_cache)
    build, _ = run_step(["build"], build_env, tmp, deadline)
    probes = setup_probes(SETUP_PROBES, env, tmp, deadline)
    plain, _ = run_step(grid_argv(args.workload, args.seed, check=True),
                        env, tmp, deadline)
    spans = os.path.join(CACHE, f"spans-{args.workload}-s{args.seed}.json")
    traced, _ = run_step(
        grid_argv(args.workload, args.seed, check=False, trace=True, spans=spans),
        env, tmp, deadline,
    )
    attempted, failures = tally([plain, traced])
    layers = dict(traced["layers"])
    layers.update({
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.kernel_load_s": statistics.median(p["kernel_load_s"] for p in probes),
        "setup.kernel_build_s": build["kernel_build_s"],
        "trace.wall_s": traced["info"]["wall_s"],
        "trace.untraced_wall_s": plain["info"]["wall_s"],
        "trace.overhead_s": traced["info"]["wall_s"] - plain["info"]["wall_s"],
    })
    print(f"spans written to {os.path.relpath(spans, ROOT)}")
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in layers.items()}
    return attempted, failures, metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("engine.ns_per_access"):
        return "ns"
    if name == "model.cameo_gmean_speedup":
        return "x"
    if name.endswith("_err") or name.endswith("_per_fault"):
        return "ratio"
    return "count"


def make_reference(args, env, tmp):
    """Simulate the grid on the Python engine and commit its cell hashes."""
    env = dict(env, REPRO_ENGINE="python")
    argv = ["grid", "--workload", args.workload, "--seed", str(args.seed)]
    doc, elapsed = run_step(argv, env, tmp, None)
    if doc["failures"]:
        raise StepError("; ".join(doc["failures"][:5]))
    reference = {"workload": args.workload, "seed": args.seed,
                 "engine": "python", "cells": doc["hashes"]}
    if doc["rendered_hash"] is not None:
        reference["rendered"] = doc["rendered_hash"]
    os.makedirs(REFS, exist_ok=True)
    path = reference_path(args.workload, args.seed)
    with open(path, "w") as fp:
        json.dump(reference, fp, indent=0, sort_keys=True)
        fp.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}: {len(doc['hashes'])} cells "
          f"in {elapsed:.1f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    os.makedirs(CACHE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    env = pinned_env(tmp, os.path.join(CACHE, "kernel"))
    try:
        print(f"host: {host_fingerprint()}")
        if args.make_reference:
            make_reference(args, env, tmp)
            return 0
        # One-time per commit: compile the kernel into the private cache
        # (and byte-compile the program) before anything is timed.
        run_step(["build"], env, tmp, None)
        deadline = time.monotonic() + RUN_BUDGET_S
        run = traced_run if args.trace else timed_run
        attempted, failures, metrics = run(args, env, tmp, deadline)
    except (StepError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
