"""Standing benchmark harness: the simulator-throughput trajectory.

``repro bench`` runs an organization x workload grid, measures wall
time, and writes a schema-versioned ``BENCH_<n>.json`` at the repo root.
Each PR that touches the hot path appends the next file, so the
accesses/sec trajectory across the project's history is a committed,
diffable artifact rather than folklore.

The figure of merit is *simulated accesses per wall-clock second*:
``accesses_per_context x num_contexts / wall_seconds``, taken as the
best of ``repeats`` runs (the minimum wall time is the least noisy
estimator on a shared host). Results are only comparable between files
with matching ``host`` fingerprints.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..config.system import scaled_paper_system
from ..errors import ConfigurationError
from ..workloads.trace_cache import (
    clear_default_trace_cache,
    trace_cache_disabled,
)
from .engine import default_engine_backend
from .engine_vector import backend_stats_since, snapshot_backend_stats
from .parallel import (
    SimJob,
    last_pool_report,
    raise_on_failures,
    resolve_n_jobs,
    run_many,
)
from .plan import run_jobs_cached
from .result_store import ResultStore, result_store_disabled, use_result_store
from .runner import run_workload

#: Bump when the JSON layout changes; consumers must check it.
#: v1 -> v2: ``host.cpu_count`` became an int (was a string) and the
#: payload gained an optional ``grid`` section (grid wall-time and
#: parallel efficiency). v2 -> v3: the ``grid`` section gained a
#: ``result_store`` subsection (cold vs warm-store wall time with
#: hit/miss counts), and ``parallel_speedup``/``parallel_efficiency``
#: are null with a ``parallel_note`` when the host cannot genuinely
#: parallelize (one core, or more workers than cores). v3 -> v4: each
#: result gained a ``valid`` flag (false when the cell's wall time was
#: below timer resolution — its throughput is null, not 0.0), summary
#: means exclude invalid cells and record ``excluded_invalid_cells``,
#: and ``config`` gained the ``engine`` backend name. v4 -> v5: each
#: result records ``backend`` — which engine actually served the cell
#: ("vector" only when the compiled kernel engaged; the configured
#: backend can silently fall back per cell) — and ``fallback_reason``
#: (why, when it did). v5 -> v6: when ``n_jobs > 1`` the ``grid``
#: section gains a ``pool`` subsection (persistent-pool wall time,
#: per-cell dispatch overhead, workers started / respawns /
#: cells-per-worker); dispatch overhead is wall time minus in-worker
#: simulation time, so it stays meaningful on one-core hosts where raw
#: speedup is nulled. v6 also timed the retired spawn-per-cell
#: lifecycle (``spawn_per_cell`` and ``dispatch_overhead_reduction``);
#: v6 -> v7 drops both. Older files still load — see :func:`load_bench`.
BENCH_SCHEMA_VERSION = 7
#: Versions :func:`load_bench` understands (older ones are migrated).
READABLE_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7)

#: The standing grid: the headline designs on one latency-sensitive and
#: one capacity-sensitive workload (mirrors benchmarks/).
DEFAULT_ORGS = ("baseline", "cache", "cameo", "tlm-dynamic")
DEFAULT_WORKLOADS = ("sphinx3", "milc")
DEFAULT_ACCESSES = 6_000
DEFAULT_REPEATS = 3
#: ``--quick`` (CI smoke) sizing: one repeat, short traces.
QUICK_ACCESSES = 1_500

_BENCH_FILE_RE = re.compile(r"BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class BenchPoint:
    """Throughput of one (organization, workload) grid cell."""

    organization: str
    workload: str
    simulated_accesses: int
    wall_seconds: float
    #: The engine that actually served the cell ("python" / "vector").
    #: Distinct from ``config.engine``: a vector-configured run can fall
    #: back per cell, and a trajectory claiming kernel throughput while
    #: timing the python loop would be the worst kind of wrong.
    backend: Optional[str] = None
    #: Why the compiled kernel did not engage (None when it did, or
    #: when the python backend was configured in the first place).
    fallback_reason: Optional[str] = None

    @property
    def valid(self) -> bool:
        """False when the cell ran below wall-clock timer resolution.

        A compiled backend can finish a small cell faster than
        ``perf_counter`` can resolve; such a cell has no measurable
        throughput. It must not silently contribute 0.0 to a mean (which
        drags org summaries toward zero and corrupts baseline
        comparisons) — it is excluded and the exclusion is recorded.
        """
        return self.wall_seconds > 0.0

    @property
    def accesses_per_second(self) -> Optional[float]:
        if not self.valid:
            return None
        return self.simulated_accesses / self.wall_seconds

    def as_dict(self) -> Dict:
        return {
            "organization": self.organization,
            "workload": self.workload,
            "simulated_accesses": self.simulated_accesses,
            "wall_seconds": self.wall_seconds,
            "accesses_per_second": self.accesses_per_second,
            "valid": self.valid,
            "backend": self.backend,
            "fallback_reason": self.fallback_reason,
        }


def host_fingerprint() -> Dict[str, object]:
    """Identify the machine; trajectories only compare on matching hosts."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": int(os.cpu_count() or 0),
    }


def run_bench(
    orgs: Sequence[str] = DEFAULT_ORGS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    accesses_per_context: int = DEFAULT_ACCESSES,
    repeats: int = DEFAULT_REPEATS,
    scale_shift: int = 12,
    n_jobs: Optional[int] = 1,
    measure_grid: bool = True,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    journal=None,
) -> Dict:
    """Run the grid and return the schema-versioned payload.

    Besides the per-run throughput points, the payload records a
    ``grid`` section: wall time of one full pass over the grid — cold
    (trace cache off), cached (serial, trace cache on), and, when
    ``n_jobs > 1``, fanned out over that many workers — with the derived
    trace-cache and parallel speedups. That is the number the fan-out
    layer exists to move. The supervision knobs (``max_attempts``,
    ``hang_timeout_seconds``, ``journal``) apply to that parallel pass
    only: retries perturb a timing sample, so the sample records the
    attempt count alongside the wall time when supervision kicked in.
    """
    if repeats <= 0:
        raise ConfigurationError("bench repeats must be positive")
    if accesses_per_context <= 0:
        raise ConfigurationError("bench accesses_per_context must be positive")
    n_jobs = resolve_n_jobs(n_jobs)
    config = scaled_paper_system(scale_shift=scale_shift)
    engine = default_engine_backend()
    simulated = accesses_per_context * config.num_contexts
    points: List[BenchPoint] = []
    # The result store must be off while timing: with it on, every
    # repeat after the first would be a cache hit and the "throughput"
    # would measure dictionary lookups, not the simulator.
    with result_store_disabled():
        for org in orgs:
            for workload in workloads:
                best = None
                # The timed repeats run in-process, so the engine's
                # engagement counters are authoritative for this cell.
                stats_before = snapshot_backend_stats()
                for _ in range(repeats):
                    start = time.perf_counter()
                    run_workload(
                        org, workload, config,
                        accesses_per_context=accesses_per_context,
                    )
                    wall = time.perf_counter() - start
                    if best is None or wall < best:
                        best = wall
                backend, reason = _cell_backend(
                    engine, backend_stats_since(stats_before)
                )
                point = BenchPoint(
                    org, workload, simulated, best,
                    backend=backend, fallback_reason=reason,
                )
                points.append(point)
                if log is not None:
                    note = "" if backend == engine else f"  [{backend}]"
                    if point.valid:
                        log(f"  {org:>14s} x {workload:<8s} "
                            f"{point.accesses_per_second:>10.0f} acc/s "
                            f"({best:.3f} s){note}")
                    else:
                        log(f"  {org:>14s} x {workload:<8s} "
                            f"{'(sub-resolution)':>10s} — cell excluded "
                            f"from means{note}")
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_fingerprint(),
        "config": {
            "scale_shift": scale_shift,
            "num_contexts": config.num_contexts,
            "accesses_per_context": accesses_per_context,
            "repeats": repeats,
            "n_jobs": n_jobs,
            "engine": engine,
        },
        "results": [p.as_dict() for p in points],
        "summary": _summarize(points),
    }
    if measure_grid:
        payload["grid"] = measure_grid_scaling(
            orgs, workloads, accesses_per_context, config, n_jobs, log=log,
            max_attempts=max_attempts,
            hang_timeout_seconds=hang_timeout_seconds,
            journal=journal,
        )
    return payload


def measure_grid_scaling(
    orgs: Sequence[str],
    workloads: Sequence[str],
    accesses_per_context: int,
    config,
    n_jobs: int,
    log: Optional[Callable[[str], None]] = None,
    max_attempts: Optional[int] = None,
    hang_timeout_seconds: Optional[float] = None,
    journal=None,
) -> Dict:
    """Time one pass over the full grid under three execution regimes.

    * ``cold_wall_seconds`` — serial, trace cache disabled: every cell
      regenerates its trace (the pre-cache behavior);
    * ``serial_wall_seconds`` — serial, fresh trace cache: each
      workload's trace is generated once and replayed by every org;
    * ``parallel_wall_seconds`` — ``n_jobs`` subprocess workers over a
      fresh cache (absent when ``n_jobs == 1``).

    The parallel regime runs through the local persistent pool (never
    remote endpoints, whatever ``REPRO_ENDPOINTS`` says) and records
    per-cell *dispatch overhead* — wall time minus in-worker simulation
    time, i.e. pipe/poll cost — in the ``pool`` subsection. Unlike
    speedup, overhead is not a scheduling claim, so it is reported even
    on one-core hosts.

    The derived ``trace_cache_speedup`` isolates the cache win at one
    worker; ``parallel_speedup``/``parallel_efficiency`` report the
    core-scaling on top of it. When the host cannot genuinely
    parallelize — one core, or ``n_jobs`` exceeding the core count —
    both derived numbers are null and ``parallel_note`` says why: an
    oversubscribed pool measures context-switch overhead, not scaling,
    and recording it as "speedup" would poison the trajectory. The raw
    ``parallel_wall_seconds`` stays.

    All three regimes run with the result store disabled (they time the
    simulator, not the memo table); :func:`measure_result_store` reports
    the store's own win separately.
    """
    jobs = [
        SimJob(org, workload, config, accesses_per_context)
        for org in orgs
        for workload in workloads
    ]
    with result_store_disabled():
        with trace_cache_disabled():
            start = time.perf_counter()
            outcomes = run_many(jobs, n_jobs=1, endpoints=[])
            cold_wall = time.perf_counter() - start
        raise_on_failures(outcomes, "bench grid (cold)")

        clear_default_trace_cache()
        start = time.perf_counter()
        outcomes = run_many(jobs, n_jobs=1, endpoints=[])
        serial_wall = time.perf_counter() - start
        raise_on_failures(outcomes, "bench grid (serial)")

        parallel_wall = None
        parallel_retries = 0
        pool_section = None
        if n_jobs > 1:
            clear_default_trace_cache()
            start = time.perf_counter()
            outcomes = run_many(
                jobs, n_jobs=n_jobs,
                max_attempts=max_attempts,
                hang_timeout_seconds=hang_timeout_seconds,
                journal=journal,
                dispatch="pool",
                endpoints=[],
            )
            parallel_wall = time.perf_counter() - start
            parallel_retries = sum(max(0, o.attempts - 1) for o in outcomes)
            raise_on_failures(outcomes, "bench grid (parallel, pool)")
            pool_section = {
                "wall_seconds": parallel_wall,
                "dispatch_overhead_seconds": _overhead_stats(outcomes),
            }
            report = last_pool_report()
            if report is not None:
                pool_section.update({
                    "n_workers": report.n_workers,
                    "workers_started": report.workers_started,
                    "respawns": report.respawns,
                    "cells_per_worker": dict(report.cells_per_worker),
                })

    cpu_count = int(os.cpu_count() or 0)
    parallel_note = None
    if parallel_wall is not None:
        if cpu_count <= 1:
            parallel_note = (
                f"host has {cpu_count} usable core(s); worker processes "
                "time-share one core, so speedup/efficiency are not "
                "meaningful and are recorded as null"
            )
        elif n_jobs > cpu_count:
            parallel_note = (
                f"n_jobs={n_jobs} exceeds the {cpu_count} usable core(s); "
                "the pool is oversubscribed, so speedup/efficiency are "
                "not meaningful and are recorded as null"
            )
    honest = parallel_wall is not None and parallel_wall > 0 and parallel_note is None

    grid: Dict = {
        "cells": len(jobs),
        "n_jobs": n_jobs,
        "cold_wall_seconds": cold_wall,
        "serial_wall_seconds": serial_wall,
        "trace_cache_speedup": cold_wall / serial_wall if serial_wall > 0 else 0.0,
        "parallel_wall_seconds": parallel_wall,
        "parallel_speedup": serial_wall / parallel_wall if honest else None,
        "parallel_efficiency": (
            serial_wall / (parallel_wall * n_jobs) if honest else None
        ),
    }
    if parallel_retries:
        # Retries inflate the parallel wall time; flag the sample so a
        # trajectory reader does not mistake recovery cost for a
        # scaling regression.
        grid["parallel_retries"] = parallel_retries
    if parallel_note is not None:
        grid["parallel_note"] = parallel_note
    grid["pool"] = pool_section
    grid["result_store"] = measure_result_store(jobs, log=log)
    if log is not None:
        if honest:
            parallel_part = (f", {n_jobs} workers {parallel_wall:.3f}s "
                             f"(x{grid['parallel_speedup']:.2f}, "
                             f"eff {grid['parallel_efficiency']:.0%})")
        elif parallel_wall is not None:
            parallel_part = (f", {n_jobs} workers {parallel_wall:.3f}s "
                             "(speedup n/a: see parallel_note)")
        else:
            parallel_part = ""
        log(f"  grid ({len(jobs)} cells): cold {cold_wall:.3f}s, "
            f"cached {serial_wall:.3f}s "
            f"(cache x{grid['trace_cache_speedup']:.2f})" + parallel_part)
        if pool_section and pool_section["dispatch_overhead_seconds"]:
            mean = pool_section["dispatch_overhead_seconds"]["mean"]
            log(f"  dispatch overhead/cell: pool {mean * 1e3:.2f}ms")
    return grid


def _overhead_stats(outcomes) -> Optional[Dict]:
    """Summarize per-cell dispatch overhead for one parallel grid pass.

    Overhead is :attr:`~repro.sim.parallel.JobOutcome.dispatch_overhead_seconds`
    — parent-observed wall minus in-worker simulation time. Cells that
    never ran in a worker (no ``sim_seconds``) are excluded; an
    all-excluded pass yields None rather than a fabricated zero.
    """
    per_cell = {
        o.job.key: o.dispatch_overhead_seconds
        for o in outcomes
        if o.dispatch_overhead_seconds is not None
    }
    if not per_cell:
        return None
    values = sorted(per_cell.values())
    mid = len(values) // 2
    median = (
        values[mid]
        if len(values) % 2
        else (values[mid - 1] + values[mid]) / 2.0
    )
    return {
        "cells": len(per_cell),
        "total": sum(values),
        "mean": sum(values) / len(values),
        "median": median,
        "per_cell": per_cell,
    }


def measure_result_store(
    jobs: Sequence[SimJob],
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Time one grid pass against an empty store, then a pre-warmed one.

    Uses a private in-memory :class:`ResultStore` so the measurement
    never reads state left by earlier runs: the cold pass simulates
    every cell (all misses) and fills the store; the warm pass is served
    entirely from it. ``warm_speedup`` is the factor the store saves a
    repeated grid — the number ``repro paper`` trades on.
    """
    store = ResultStore()
    with use_result_store(store):
        start = time.perf_counter()
        outcomes = run_jobs_cached(list(jobs), n_jobs=1, endpoints=[])
        cold_wall = time.perf_counter() - start
        raise_on_failures(outcomes, "bench grid (store cold)")
        cold_hits = sum(1 for o in outcomes if o.cached)

        start = time.perf_counter()
        outcomes = run_jobs_cached(list(jobs), n_jobs=1, endpoints=[])
        warm_wall = time.perf_counter() - start
        raise_on_failures(outcomes, "bench grid (store warm)")
        warm_hits = sum(1 for o in outcomes if o.cached)

    section = {
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "cold_cached_cells": cold_hits,
        "warm_cached_cells": warm_hits,
        "store_hits": store.stats.hits,
        "store_misses": store.stats.misses,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else None,
    }
    if log is not None:
        speedup = section["warm_speedup"]
        log(f"  result store: cold {cold_wall:.3f}s, warm {warm_wall:.3f}s "
            f"({store.stats.hits} hit(s), {store.stats.misses} miss(es)"
            + (f", x{speedup:.1f})" if speedup else ")"))
    return section


def _cell_backend(engine: str, delta: Dict) -> "tuple":
    """Which backend served a just-timed cell, from its stats delta.

    With the python engine configured there is nothing to observe. With
    the vector engine, a recorded fallback means every repeat ran the
    python loop (lowerability is a property of the cell's configuration,
    so all repeats of a cell resolve the same way).
    """
    if engine != "vector":
        return engine, None
    if delta["fallbacks"]:
        return "python", delta["last_fallback_reason"]
    if delta["kernel_runs"]:
        return "vector", None
    return "python", "vector backend did not engage"


def require_kernel_failures(payload: Dict) -> List[str]:
    """Cells that should have lowered but were not served by the kernel.

    ``repro bench --require-kernel`` turns a silent per-cell fallback
    into exit code 2: every cell whose organization has a kernel-side
    service path (:data:`repro.sim.engine_vector.LOWERED_ORG_NAMES`)
    must record ``backend == "vector"``. Organizations outside that
    roster are exempt — they are expected to run the python loop.
    """
    from .engine_vector import LOWERED_ORG_NAMES

    failures = []
    for entry in payload.get("results", ()):
        org = entry.get("organization")
        if org not in LOWERED_ORG_NAMES:
            continue
        if entry.get("backend") != "vector":
            reason = entry.get("fallback_reason") or "no reason recorded"
            failures.append(
                f"{org}/{entry.get('workload')}: "
                f"backend={entry.get('backend')!r} ({reason})"
            )
    return failures


def _summarize(points: Sequence[BenchPoint]) -> Dict[str, Dict]:
    """Per-organization mean accesses/sec across the workload grid.

    Sub-resolution cells (``valid == False``) are excluded from the
    mean; each org's summary records how many were dropped so a
    trajectory reader can see when a mean covers fewer cells than the
    grid. An org whose every cell is invalid gets a null mean.
    """
    by_org: Dict[str, List[BenchPoint]] = {}
    for point in points:
        by_org.setdefault(point.organization, []).append(point)
    summary: Dict[str, Dict] = {}
    for org, cells in by_org.items():
        rates = [p.accesses_per_second for p in cells if p.valid]
        summary[org] = {
            "mean_accesses_per_second": (
                sum(rates) / len(rates) if rates else None
            ),
            "excluded_invalid_cells": len(cells) - len(rates),
        }
    return summary


def write_bench(payload: Dict, path: str) -> str:
    """Write the payload as stable, diffable JSON; returns ``path``."""
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def load_bench(path: str) -> Dict:
    """Load and schema-check a ``BENCH_<n>.json`` file.

    Any version in :data:`READABLE_SCHEMA_VERSIONS` loads; older
    payloads are migrated in memory to the current shape (v1 stored
    ``host.cpu_count`` as a string, which broke host-fingerprint
    equality against newer files). The file on disk is not rewritten —
    trajectory files are historical artifacts.
    """
    with open(path) as fp:
        payload = json.load(fp)
    if payload.get("kind") != "repro-bench":
        raise ConfigurationError(f"{path} is not a repro bench file")
    version = payload.get("schema_version")
    if version not in READABLE_SCHEMA_VERSIONS:
        raise ConfigurationError(
            f"{path} has schema {version!r}; "
            f"this tool reads {READABLE_SCHEMA_VERSIONS}"
        )
    if version < BENCH_SCHEMA_VERSION:
        payload = _migrate_payload(payload)
    return payload


def _migrate_payload(payload: Dict) -> Dict:
    """Bring an older readable payload up to the current schema shape."""
    host = payload.get("host")
    if isinstance(host, dict) and "cpu_count" in host:
        try:
            host["cpu_count"] = int(host["cpu_count"])
        except (TypeError, ValueError):
            host.pop("cpu_count", None)
    # v4: results carry a validity flag, summaries record exclusions.
    # Pre-v4 files averaged every cell, so nothing was excluded; a cell
    # with non-positive wall time is marked invalid retroactively (its
    # recorded 0.0 throughput was the bug this flag exists to surface).
    for entry in payload.get("results", ()):
        if "valid" not in entry:
            entry["valid"] = entry.get("wall_seconds", 0.0) > 0.0
            if not entry["valid"]:
                entry["accesses_per_second"] = None
    for org_summary in payload.get("summary", {}).values():
        org_summary.setdefault("excluded_invalid_cells", 0)
    # v5: cells record which backend actually served them. Pre-v5 files
    # predate the observation, so backend stays null (unknown) rather
    # than copying config.engine — a vector-configured run may still
    # have fallen back cell by cell, and a migration must not invent
    # engagement data the run never measured.
    for entry in payload.get("results", ()):
        entry.setdefault("backend", None)
        entry.setdefault("fallback_reason", None)
    # v6: the grid section records the pool's dispatch overhead. Pre-v6
    # runs never measured it, so the key is null (unmeasured), not
    # reconstructed. v7: the spawn-per-cell comparison is gone.
    grid = payload.get("grid")
    if isinstance(grid, dict):
        grid.setdefault("pool", None)
        grid.pop("spawn_per_cell", None)
        grid.pop("dispatch_overhead_reduction", None)
    payload["migrated_from_schema_version"] = payload["schema_version"]
    payload["schema_version"] = BENCH_SCHEMA_VERSION
    return payload


def bench_files(root: str = ".") -> List[str]:
    """Existing trajectory files in ``root``, ordered by index."""
    found = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = _BENCH_FILE_RE.search(os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_bench_path(root: str = ".") -> str:
    """The next unused ``BENCH_<n>.json`` path in ``root``."""
    taken = [
        int(_BENCH_FILE_RE.search(os.path.basename(p)).group(1))
        for p in bench_files(root)
    ]
    index = max(taken) + 1 if taken else 0
    return os.path.join(root, f"BENCH_{index}.json")


def compare_to_baseline(
    payload: Dict,
    baseline: Dict,
    organization: str = "cameo",
    threshold: float = 0.30,
) -> Optional[str]:
    """A warning string when ``organization`` regressed past ``threshold``.

    Returns None when throughput held (or the org is missing from either
    file, or the hosts differ — cross-host numbers are not comparable).
    This is advisory by design: CI warns, it does not fail, because
    shared runners are noisy.
    """
    if payload.get("host") != baseline.get("host"):
        return None
    now = payload.get("summary", {}).get(organization)
    then = baseline.get("summary", {}).get(organization)
    if not now or not then:
        return None
    current = now["mean_accesses_per_second"]
    reference = then["mean_accesses_per_second"]
    # Either side may be null (all cells sub-resolution, schema v4);
    # there is no meaningful ratio to warn about.
    if current is None or reference is None or reference <= 0:
        return None
    drop = 1.0 - current / reference
    if drop > threshold:
        return (
            f"WARNING: {organization} throughput dropped {drop:.0%} "
            f"({reference:.0f} -> {current:.0f} accesses/sec) "
            f"versus the committed baseline"
        )
    return None
