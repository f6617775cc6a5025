"""Host-speed probes: express host times at one standard host speed.

On a shared VM each vCPU runs at full speed or up to about twice as
slowly, changing every few seconds as other tenants contend for the same
physical cores.  The guest sees no steal time for it, so ``cpu_s``
inflates exactly as ``wall_s`` does.  The program's Python engine, its
compiled kernel and the pure-Python loop in :func:`probe` all slow by
about the same factor, so the loop's time measures the host's speed.

While a cell runs, a timer runs :func:`probe` every ``PROBE_EVERY_S``
seconds in the same thread.  Each stretch between two probes is scaled
by ``REFERENCE_PROBE_S`` over the mean of the two probe times: that is
how long the stretch would have taken on a *standard host*, one on which
the probe takes exactly ``REFERENCE_PROBE_S``.  The reference is a
constant, so a run's scaled times do not depend on how fast the host
happened to be during that run.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import time

#: Iterations of the probe loop: about 0.25 ms on a current x86 core.
PROBE_ITERATIONS = 2_000
#: The probe time of the standard host.
REFERENCE_PROBE_S = 0.25e-3
#: Seconds between two probes while a probed call runs.
PROBE_EVERY_S = 0.02


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        total += i * 3 % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def probe_median(count: int = 5) -> float:
    return statistics.median(probe() for _ in range(count))


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured at probe time ``probe_s``, at standard speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def sampled_call(done, fn, *args, **kwargs):
    """Return ``fn(*args, **kwargs)``, probing every ``PROBE_EVERY_S`` seconds.

    When the call ends, returning or raising, ``done(raw, scaled,
    probes)`` gets the call's seconds without the probes, the same at
    standard speed, and the seconds the probes took.  Uses ``SIGALRM``,
    so it must run in the main thread.
    """
    samples = []

    def sample(*_):
        start = time.perf_counter()
        samples.append((start, probe()))

    previous = signal.signal(signal.SIGALRM, sample)
    sample()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sample()
        signal.signal(signal.SIGALRM, previous)
        raw = scaled = 0.0
        for (start, took), (end, next_took) in zip(samples, samples[1:]):
            stretch = end - start - took
            raw += stretch
            scaled += scale(stretch, (took + next_took) / 2)
        done(raw, scaled, sum(took for _, took in samples))


def install_cell_probes(log_dir: str):
    """Probe the host's speed through every cell and trace pre-warming.

    Wraps two functions of ``repro.sim.parallel``: ``run_job``, which
    every dispatch mode runs one cell with (in process when serial, and
    in each pool worker, which the pool forks after this patch), and
    ``warm_trace_cache``, with which the pool's parent materializes the
    traces before it starts the workers.  Each call appends
    ``[pid, name, raw, scaled, probes]`` (see :func:`sampled_call`) to
    ``<log_dir>/cells-<pid>.jsonl``.  Returns a function that undoes the
    patch.
    """
    from repro.sim import parallel

    originals = {name: getattr(parallel, name)
                 for name in ("run_job", "warm_trace_cache")}

    def probed(name, original):
        def done(raw, scaled, probes):
            pid = os.getpid()
            with open(os.path.join(log_dir, f"cells-{pid}.jsonl"), "a") as fp:
                fp.write(json.dumps([pid, name, raw, scaled, probes]) + "\n")

        @functools.wraps(original)
        def call(*args, **kwargs):
            return sampled_call(done, original, *args, **kwargs)

        return call

    for name, original in originals.items():
        setattr(parallel, name, probed(name, original))

    def restore():
        for name, original in originals.items():
            setattr(parallel, name, original)

    return restore


def read_cell_probes(log_dir: str) -> list:
    records = []
    for name in sorted(os.listdir(log_dir)):
        if name.startswith("cells-") and name.endswith(".jsonl"):
            with open(os.path.join(log_dir, name)) as fp:
                records.extend(json.loads(line) for line in fp)
    return records


def _weights(records, grid_pid: int):
    """How much of each probed call one grid's wall time holds.

    The grid process's calls add their full length; pool workers run
    side by side, so theirs are shared among the workers.
    """
    workers = {record[0] for record in records if record[0] != grid_pid}
    share = 1.0 / max(1, len(workers))
    return [1.0 if record[0] == grid_pid else share for record in records]


def grid_at_standard_speed(wall_s: float, cpu_s: float, records, grid_pid: int):
    """One grid's wall and CPU seconds at standard speed, without the probes.

    The probed calls' standard-speed share of their raw time scales the
    whole grid, so the little time outside them (planning, dispatch,
    rendering) is scaled by the same factor.  Returns (wall, cpu, factor).
    """
    weights = _weights(records, grid_pid)
    raw = sum(w * r[2] for w, r in zip(weights, records))
    scaled = sum(w * r[3] for w, r in zip(weights, records))
    factor = scaled / raw
    wall_probes = sum(w * r[4] for w, r in zip(weights, records))
    all_probes = sum(r[4] for r in records)
    return (wall_s - wall_probes) * factor, (cpu_s - all_probes) * factor, factor
