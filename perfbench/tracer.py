"""Spans around the program's public layer entry points, recorded from outside.

:class:`Tracer` replaces module attributes with timing wrappers (and puts
the originals back on :meth:`Tracer.restore`); the program's source is
never edited.  Each span records name, start, end, parent span and cell
id; spans stay in memory until :meth:`Tracer.write`.  A layer's self
time is its spans' duration minus their children's.

Work done inside pool worker processes is not traced: those cells are
seen only through what each ``JobOutcome`` carries back
(``sim_seconds``, ``engine_stats``, ``worker_id``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

#: Span names whose totals and self times are reported, in report order.
SPAN_NAMES = (
    "declare", "build_grid_plan", "run_jobs_cached", "run_many",
    "run_workload", "materialized_rate_mode_sources", "build_organization",
    "Machine", "run_trace", "cell_fingerprint", "job_fingerprint",
    "ResultStore.get", "ResultStore.put", "assemble", "render",
)
BAIL_KINDS = ("fault", "epoch", "progress", "barrier", "posted_full", "swap_log")


def tail_percentile(values, beyond=10):
    """(percentile, value): the highest percentile with ``beyond`` samples above.

    With n samples that is the (beyond+1)-th largest value, at
    percentile 100 * (n - beyond) / n; with ``beyond`` or fewer samples
    it is the smallest value at percentile 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 0.0, (ordered[0] if ordered else 0.0)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def cell_accesses(job) -> int:
    """Trace accesses one cell simulates: contexts x accesses/context."""
    from repro.config.system import scaled_paper_system
    from repro.sim.engine import default_accesses_per_context

    config = job.config if job.config is not None else scaled_paper_system()
    per_context = job.accesses_per_context or default_accesses_per_context()
    return config.num_contexts * per_context


class Tracer:
    """In-memory span recorder around the program's layer entry points."""

    def __init__(self):
        #: [name, start, end, parent index or None, cell id, backend, accesses]
        self.spans = []
        self._stack = []
        self._patched = []

    # -- recording -------------------------------------------------------

    def _open(self, name, cell=None):
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, cell, None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, owner, attr, name=None, cell_of=None, probe=None):
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``probe(record, args, None)`` runs before the call and its return
        value is passed back as ``probe(record, args, before)`` after it.
        """
        original = getattr(owner, attr)
        span_name = name or attr

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(span_name, cell_of(args, kwargs) if cell_of else None)
            before = probe(record, args, None) if probe else None
            try:
                return original(*args, **kwargs)
            finally:
                if probe:
                    probe(record, args, before)
                self._close(record)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def wrap_assemblers(self, planned):
        """Time each ``PlannedExperiment.assemble`` (called by execute_grid_plan)."""
        for experiment in planned:
            original = experiment.assemble

            def assemble(results, _original=original, _name=experiment.name):
                with self.span("assemble") as record:
                    record[4] = _name
                    return _original(results)

            experiment.assemble = assemble

    def install(self):
        """Wrap the runner's imported layer functions and the grid entry points."""
        from repro.sim import engine_vector, plan, result_store, runner
        from repro.workloads import trace_cache

        def cell_of(args, kwargs):
            workload = args[1] if len(args) > 1 else kwargs.get("workload_like")
            name = getattr(workload, "name", workload)
            return f"{args[0]}/{name}/s{kwargs.get('seed', 0)}"

        def backend_of(record, args, before):
            # Tag the span with the backend that served it and its accesses.
            stats = engine_vector.backend_stats
            if before is None:
                return stats["kernel_runs"]
            record[5] = "vector" if stats["kernel_runs"] > before else "python"
            record[6] = len(args[1]) * args[3]
            return None

        self.wrap(runner, "run_workload", cell_of=cell_of)
        for attr in ("materialized_rate_mode_sources", "build_organization",
                     "Machine", "cell_fingerprint"):
            self.wrap(runner, attr)
        self.wrap(runner, "run_trace", probe=backend_of)
        # The pool's parent pre-materializes traces through the module.
        self.wrap(trace_cache, "materialized_rate_mode_sources")
        self.wrap(result_store.ResultStore, "get", "ResultStore.get")
        self.wrap(result_store.ResultStore, "put", "ResultStore.put")
        for attr in ("build_grid_plan", "run_jobs_cached", "run_many",
                     "job_fingerprint"):
            self.wrap(plan, attr)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as JSON: [name, start, end, parent, cell, backend]."""
        with open(path, "w") as fp:
            json.dump({"fields": ["name", "start", "end", "parent", "cell",
                                  "backend", "accesses"],
                       "spans": self.spans}, fp)

    # -- analysis --------------------------------------------------------

    def _ancestors_named(self, index, name):
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self):
        """name -> summed duration of its outermost spans."""
        total = defaultdict(float)
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            if not self._ancestors_named(index, name):
                total[name] += end - start
        return total

    def self_times(self):
        """name -> summed span duration minus the children's durations."""
        own = defaultdict(float)
        for name, start, end, *_rest in self.spans:
            own[name] += end - start
        for name, start, end, parent, *_rest in self.spans:
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return own

    def engine_split(self):
        """{backend: (seconds, accesses)} over the run_trace spans."""
        split = {"python": [0.0, 0], "vector": [0.0, 0]}
        for name, start, end, _p, _c, backend, accesses in self.spans:
            if name == "run_trace" and backend in split:
                split[backend][0] += end - start
                split[backend][1] += accesses
        return split

    def layer_metrics(self, jobs, outcomes, info):
        """Every per-layer metric of one traced grid, by name."""
        from repro.config.paper import PAPER_SPEEDUP_CAMEO
        from repro.sim.engine_vector import backend_stats
        from repro.sim.parallel import last_pool_report
        from repro.sim.result_store import job_fingerprint

        totals = self.totals()
        wall = info["wall_s"]
        executed = [o for o in outcomes if not o.cached]
        split = self.engine_split()
        if not totals.get("run_trace"):
            # Pool cells run in workers: attribute each cell's in-worker
            # time by the backend its engine_stats report.
            for outcome in executed:
                stats = (outcome.result.engine_stats or {}) if outcome.ok else {}
                backend = "python" if stats.get("fallbacks") else "vector"
                split[backend][0] += outcome.sim_seconds or 0.0
                split[backend][1] += cell_accesses(outcome.job)
        python_s, python_acc = split["python"]
        vector_s, vector_acc = split["vector"]
        runs, fallbacks = backend_stats["kernel_runs"], backend_stats["fallbacks"]
        bails = backend_stats["bails"]
        faults = sum(o.result.page_faults for o in executed if o.ok)
        metrics = {
            "workloads.trace_s": totals.get("materialized_rate_mode_sources", 0.0),
            "workloads.trace_hits": info["trace_hits"],
            "workloads.trace_misses": info["trace_misses"],
            "orgs.build_s": totals.get("build_organization", 0.0)
            + totals.get("Machine", 0.0),
            "engine.run_trace_s": python_s + vector_s,
            "engine.python_s": python_s,
            "engine.vector_s": vector_s,
            "engine.python_wall_frac": python_s / wall,
            "engine.ns_per_access.python": 1e9 * python_s / python_acc if python_acc else 0.0,
            "engine.ns_per_access.vector": 1e9 * vector_s / vector_acc if vector_acc else 0.0,
            "engine.kernel_runs": runs,
            "engine.fallbacks": fallbacks,
            "engine.kernel_calls": backend_stats["kernel_calls"],
            "engine.kernel_run_frac": runs / (runs + fallbacks) if runs + fallbacks else 0.0,
        }
        for kind in BAIL_KINDS:
            metrics[f"engine.bails.{kind}"] = bails.get(kind, 0)
        metrics["vm.page_faults"] = faults
        metrics["vm.bails_per_fault"] = bails.get("fault", 0) / faults if faults else 0.0
        fingerprints = [job_fingerprint(job) for job in jobs]
        # Uncacheable cells (no fingerprint) always run individually.
        unique = len(set(fingerprints) - {None}) + fingerprints.count(None)
        metrics.update({
            "result_store.fingerprint_s": totals.get("cell_fingerprint", 0.0)
            + totals.get("job_fingerprint", 0.0),
            "result_store.get_s": totals.get("ResultStore.get", 0.0),
            "result_store.put_s": totals.get("ResultStore.put", 0.0),
            "result_store.hits": info["store_hits"],
            "result_store.misses": info["store_misses"],
            "plan.declare_s": totals.get("declare", 0.0),
            "plan.build_s": totals.get("build_grid_plan", 0.0),
            "plan.cells_requested": len(jobs),
            "plan.cells_unique": unique,
            "plan.dedup_frac": 1.0 - unique / len(jobs) if jobs else 0.0,
            "experiments.assemble_s": totals.get("assemble", 0.0),
            "experiments.render_s": totals.get("render", 0.0),
        })
        overheads = [
            o.dispatch_overhead_seconds for o in executed if o.sim_seconds is not None
        ]
        per_worker = defaultdict(int)
        for outcome in executed:
            per_worker[outcome.worker_id] += 1
        report = last_pool_report()
        metrics.update({
            "dispatch.overhead_s": sum(overheads),
            "dispatch.overhead_p50_ms": 1000 * statistics.median(overheads)
            if overheads else 0.0,
            "dispatch.retries": sum(o.attempts - 1 for o in executed),
            "dispatch.worker_respawns": report.respawns if report is not None else 0,
            "dispatch.max_worker_cell_frac": max(per_worker.values()) / len(executed)
            if executed else 0.0,
        })
        cell_ms = [1000 * o.wall_seconds for o in executed]
        pct, tail = tail_percentile(cell_ms)
        metrics.update({
            "cell.p50_ms": statistics.median(cell_ms) if cell_ms else 0.0,
            "cell.tail_ms": tail,
            "cell.tail_pct": pct,
            "cell.count": len(cell_ms),
        })
        gmean = info.get("gmean_cameo") or _cameo_gmean(outcomes)
        metrics["model.cameo_gmean_speedup"] = gmean
        metrics["model.cameo_gmean_err"] = abs(gmean - PAPER_SPEEDUP_CAMEO) / PAPER_SPEEDUP_CAMEO
        own = self.self_times()
        for name in SPAN_NAMES:
            metrics[f"self.{name}_s"] = own.get(name, 0.0)
        metrics["trace.spans"] = len(self.spans)
        return metrics


def _cameo_gmean(outcomes):
    """Geomean cameo speedup over baseline across the grid's workloads."""
    from repro.units import geomean

    cycles = defaultdict(dict)
    for outcome in outcomes:
        if outcome.ok and outcome.job.organization in ("baseline", "cameo"):
            cycles[outcome.job.workload_name][outcome.job.organization] = (
                outcome.result.total_cycles
            )
    speedups = [c["baseline"] / c["cameo"] for c in cycles.values()
                if "baseline" in c and "cameo" in c]
    return geomean(speedups) if speedups else 0.0
