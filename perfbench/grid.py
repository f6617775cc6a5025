"""One benchmark step in a fresh interpreter: set-up probe, kernel build or grid.

``run.py`` starts this file once per step so that every timed grid runs
in a cold process, as ``repro paper`` does, and so that set-up time can
be timed from outside.  The step writes one JSON document to ``--out``::

    python3 perfbench/grid.py setup --out probe.json
    python3 perfbench/grid.py build --out build.json
    python3 perfbench/grid.py grid --workload fault-bound --seed 1 --out g.json \
        [--probes] [--trace] [--spans spans.json] \
        [--reference refs/x.json | --check-seconds 4]

It drives the program only through public entry points: the
``PAPER_PLANNERS``, ``build_grid_plan``/``execute_grid_plan``/
``run_jobs_cached``, ``SimJob`` and the runner's layer functions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import sys
import tempfile
import time

from hostspeed import install_cell_probes, probe_median, read_cell_probes
from tracer import Tracer, cell_accesses

#: Trace length of the paper grid (``repro paper``'s default).
PAPER_ACCESSES = 12_000
#: Capacity-limited workloads: they page-fault, so the kernel bails to
#: Python on every fault.
FAULT_WORKLOADS = ("mcf", "GemsFDTD", "bwaves")
FAULT_ACCESSES = 12_000
#: Workloads that never fault; long traces make every cell >= 50 ms.
STEADY_WORKLOADS = ("milc", "sphinx3", "libquantum", "gcc")
STEADY_ACCESSES = 100_000
STEADY_JOBS = 2

WORKLOADS = ("paper-grid", "fault-bound", "steady-pool")
PAPER_GMEAN_KEY = "figure13"


def _import_program():
    """Import every module a grid uses; returns the import time in seconds."""
    start = time.perf_counter()
    import repro.experiments  # noqa: F401
    import repro.sim.engine_vector  # noqa: F401
    import repro.sim.export  # noqa: F401
    import repro.sim.parallel  # noqa: F401
    import repro.sim.plan  # noqa: F401
    import repro.sim.runner  # noqa: F401
    return time.perf_counter() - start


def _load_kernel() -> float:
    """dlopen (compiling on a cold cache) the kernel; returns seconds."""
    from repro.sim import _kernel_build

    start = time.perf_counter()
    lib = _kernel_build.load_kernel()
    elapsed = time.perf_counter() - start
    if lib is None:
        raise SystemExit(f"error: compiled kernel unavailable: "
                         f"{_kernel_build.load_error()}")
    return elapsed


def _rusage_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cell_hash(result) -> str:
    """Content hash of one cell's exported ``RunResult`` JSON."""
    from repro.sim.export import result_to_dict

    blob = json.dumps(result_to_dict(result), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def declare(workload: str, seed: int):
    """The workload's grid: a list of ``PlannedExperiment`` or ``SimJob``."""
    if workload == "paper-grid":
        from repro.experiments import PAPER_PLANNERS

        return [
            planner(accesses_per_context=PAPER_ACCESSES, seed=seed)
            for planner in PAPER_PLANNERS.values()
        ]
    from repro.sim.engine_vector import LOWERED_ORG_NAMES
    from repro.sim.parallel import SimJob

    if workload == "fault-bound":
        names, accesses = FAULT_WORKLOADS, FAULT_ACCESSES
    else:
        names, accesses = STEADY_WORKLOADS, STEADY_ACCESSES
    return [
        SimJob(org, name, accesses_per_context=accesses, seed=seed)
        for name in names
        for org in LOWERED_ORG_NAMES
    ]


def run_grid(workload: str, seed: int, tracer=None):
    """Run one grid with fresh caches; returns (labels, jobs, outcomes, info).

    ``info`` holds the host-time figures measured around the grid and
    the rendered output of ``paper-grid``.
    """
    from repro.sim import plan as plan_mod
    from repro.sim.engine_vector import reset_backend_stats
    from repro.sim.result_store import ResultStore, use_result_store
    from repro.workloads.trace_cache import (
        clear_default_trace_cache,
        default_trace_cache,
    )

    reset_backend_stats()
    clear_default_trace_cache()
    store = ResultStore()
    info = {}
    with use_result_store(store):
        cpu0 = _rusage_cpu()
        start = time.perf_counter()
        span = tracer.span if tracer is not None else _untraced
        if workload == "paper-grid":
            with span("declare"):
                planned = declare(workload, seed)
            if tracer is not None:
                tracer.wrap_assemblers(planned)
            outcomes = _run_paper_grid(plan_mod, planned, info, span)
            labels = [
                f"{experiment.name}#{index}:{job.key}"
                for experiment in planned
                for index, job in enumerate(experiment.jobs)
            ]
            jobs = [job for e in planned for job in e.jobs]
        else:
            with span("declare"):
                jobs = declare(workload, seed)
            kwargs = {"n_jobs": 1}
            if workload == "steady-pool":
                kwargs = {"n_jobs": STEADY_JOBS, "dispatch": "pool"}
            outcomes = plan_mod.run_jobs_cached(jobs, **kwargs)
            labels = [job.key for job in jobs]
        wall = time.perf_counter() - start
        cpu = _rusage_cpu() - cpu0
    info.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=_peak_rss_mb(),
        store_hits=store.stats.hits,
        store_misses=store.stats.misses,
    )
    cache = default_trace_cache()
    info["trace_hits"] = cache.stats.hits if cache is not None else 0
    info["trace_misses"] = cache.stats.misses if cache is not None else 0
    return labels, jobs, outcomes, info


def _run_paper_grid(plan_mod, planned, info, span):
    """``execute_grid_plan`` over the paper planners; returns its outcomes.

    ``execute_grid_plan`` keeps its outcomes to itself and raises if a
    cell failed, so its call to ``run_jobs_cached`` is captured: a failed
    cell then reaches the correctness gate instead of ending the step.
    Rendering and the geomean are skipped when a cell failed.
    """
    from repro.errors import ParallelError

    captured = []
    original = plan_mod.run_jobs_cached

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    plan_mod.run_jobs_cached = capture
    try:
        grid_plan = plan_mod.build_grid_plan(planned)
        report = plan_mod.execute_grid_plan(grid_plan, n_jobs=1)
    except ParallelError:
        if not captured:
            raise
        return captured[-1]
    finally:
        plan_mod.run_jobs_cached = original
    with span("render"):
        rendered = "\n\n".join(r.render() for r in report.results)
    info["rendered_hash"] = text_hash(rendered)
    info["gmean_cameo"] = report.results[
        [e.name for e in planned].index(PAPER_GMEAN_KEY)
    ].gmeans()["cameo"]
    return captured[-1]


def _untraced(name):
    return contextlib.nullcontext()


def check_cells(labels, outcomes, reference=None):
    """Hash every cell and collect the failures of the correctness gate."""
    from repro.sim.engine_vector import LOWERED_ORG_NAMES

    hashes, failures = {}, []
    for label, outcome in zip(labels, outcomes):
        if not outcome.ok:
            failures.append(f"{label}: error {outcome.error}")
            continue
        digest = cell_hash(outcome.result)
        hashes[label] = digest
        stats = outcome.result.engine_stats or {}
        if outcome.job.organization in LOWERED_ORG_NAMES and stats.get("fallbacks"):
            failures.append(
                f"{label}: lowered org fell back to Python "
                f"({stats.get('last_fallback_reason')})"
            )
        if reference is not None and reference["cells"].get(label) != digest:
            failures.append(f"{label}: result differs from the reference")
    if reference is not None and set(reference["cells"]) != set(labels):
        failures.append("grid cells differ from the reference's cells")
    return hashes, failures


def grid_step(args) -> dict:
    import_s = _import_program()
    kernel_s = _load_kernel()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.probes:
        probe_dir = tempfile.mkdtemp(prefix="probes-")
        restore_program = install_cell_probes(probe_dir)
    try:
        labels, jobs, outcomes, info = run_grid(args.workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        if args.probes:
            restore_program()
    reference = None
    if args.reference:
        with open(args.reference) as fp:
            reference = json.load(fp)
    hashes, failures = check_cells(labels, outcomes, reference)
    if reference is not None and "rendered" in reference:
        if reference["rendered"] != info.get("rendered_hash"):
            failures.append("rendered paper output differs from the reference")
    sampled, check_start = 0, time.perf_counter()
    if reference is None and args.check_seconds > 0:
        sampled, sample_failures = python_sample_check(
            jobs, labels, hashes, args.seed, args.check_seconds
        )
        failures.extend(sample_failures)
    executed = [o for o in outcomes if not o.cached]
    probes = None
    if args.probes:
        probes = read_cell_probes(probe_dir)
        probed = sum(1 for record in probes if record[1] == "run_job")
        if probed != len(executed):
            raise SystemExit(f"error: {len(executed)} cells ran but "
                             f"{probed} were probed")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "kernel_load_s": kernel_s,
        "cells": len(labels),
        "executed": len(executed),
        "executed_accesses": sum(cell_accesses(o.job) for o in executed),
        "sampled_python_cells": sampled,
        "check_s": time.perf_counter() - check_start,
        "failures": failures,
        "hashes": hashes,
        "rendered_hash": info.pop("rendered_hash", None),
        "info": info,
        "grid_pid": os.getpid(),
        "cell_probes": probes,
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(jobs, outcomes, info)
        if args.spans:
            tracer.write(args.spans)
    return doc


def python_sample_check(jobs, labels, hashes, seed, budget_s):
    """Re-run a seeded sample of distinct cells on the Python reference engine.

    Cells are drawn in a seed-determined order and re-simulated until
    ``budget_s`` is spent (at least one).  Returns (cells checked,
    failures).
    """
    from repro.sim.parallel import run_job
    from repro.sim.result_store import use_result_store

    order = sorted(range(len(jobs)), key=lambda i: labels[i])
    random.Random(seed).shuffle(order)
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "python"
    checked, failures, seen = 0, [], set()
    start = time.perf_counter()
    try:
        with use_result_store(None):
            for index in order:
                # SimJobs may carry dict kwargs (unhashable): key by repr.
                key = repr(jobs[index])
                if labels[index] not in hashes or key in seen:
                    continue
                if checked and time.perf_counter() - start > budget_s:
                    break
                seen.add(key)
                checked += 1
                if cell_hash(run_job(jobs[index])) != hashes[labels[index]]:
                    failures.append(
                        f"{labels[index]}: differs from the Python engine"
                    )
    finally:
        if previous is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = previous
    return checked, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "build", "grid"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probes", action="store_true",
                        help="probe the host's speed while cells run")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--check-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.step == "setup":
        before = probe_median()
        import_s = _import_program()
        kernel_s = _load_kernel()
        ready = time.perf_counter()
        doc = {"ready": ready, "import_s": import_s,
               "kernel_load_s": kernel_s, "probes": [before, probe_median()]}
    elif args.step == "build":
        _import_program()
        doc = {"kernel_build_s": _load_kernel()}
    else:
        if args.workload is None:
            parser.error("grid needs --workload")
        doc = grid_step(args)
    with open(args.out, "w") as fp:
        json.dump(doc, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
