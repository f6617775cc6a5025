"""One supervision core for every subprocess fan-out in this repo.

Every grid — figures, ``repro paper``, plan stages, ``repro campaign``
— farms deterministic simulations out to subprocess workers through
:mod:`repro.sim.parallel`, and one :class:`Supervisor` answers the
operational questions for all of them:

* **heartbeats** — workers report progress (accesses simulated, via
  :func:`repro.sim.engine.set_progress_hook`) over the result pipe, so
  the parent distinguishes a *hung* worker (no progress) from a *slow*
  one and applies an idle-based ``hang_timeout_seconds`` instead of
  only a wall-clock budget;
* **retry with exponential backoff + deterministic jitter** and a
  retryable-error classifier: timeouts, signals, worker crashes, and
  transient ``OSError``-family failures retry; deterministic
  :class:`~repro.errors.ReproError`\\ s (bad input, simulator bugs)
  fail fast. A per-run retry budget and per-run poison-cell quarantine
  bound the total work a pathological grid can consume;
* **kill escalation** — ``terminate()`` → grace period → ``kill()`` →
  *bounded* ``join()``, so a worker that ignores SIGTERM can never
  deadlock the parent — plus an optional per-worker RSS ceiling;
* **graceful shutdown** — SIGINT/SIGTERM stops launching, escalates a
  kill on every running worker, and raises
  :class:`~repro.errors.InterruptedRunError` carrying the settled
  outcomes, after every completed cell has already been delivered to
  the caller's ``on_settle`` hook (which is what flushes results to
  the result store);
* **graceful degradation** down a ladder of rungs — remote endpoints
  (when configured), then the local pool, then, when subprocess spawn
  fails repeatedly (sandboxed hosts without fork/spawn), the exact
  in-process serial path with a warning; results are bit-identical
  because every rung runs the same target function;
* a **JSONL incident journal** recording every retry, timeout, kill,
  crash, quarantine, and fallback, for observability
  (``REPRO_INCIDENT_JOURNAL=<path>`` or an explicit
  :class:`IncidentJournal`).

Deterministic chaos testing rides the worker entrypoint: the
``REPRO_INJECT_WORKER_FAULTS`` environment knob (e.g.
``crash=0.5,hang=0.2,seed=1``) makes a stable, hash-derived subset of
(cell, attempt) pairs crash or hang before simulating, so CI can prove
a grid survives worker kills with byte-identical results.

Workers are *persistent*: ``n_workers`` local processes start once,
run an optional ``worker_setup`` hook (imports, kernel dlopen, cache
opening), then stream tasks off the queue until it drains, so spawn
cost is paid once per worker instead of once per cell. Remote
``repro worker serve`` sessions (:mod:`repro.sim.remote`) stream the
same way. One loop feeds both kinds, and supervision is per worker: a
wedged or crashed worker is killed and *respawned* alone
(``worker_respawn`` incidents), a failing endpoint reconnects with
backoff or is quarantined, and the in-flight cell re-enters the queue
under the ordinary retry classifier.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_for_conns
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import (
    ConfigurationError,
    EnvKnobError,
    InterruptedRunError,
    RemoteProtocolError,
    ReproError,
)

#: Fault-injection knob for the worker entrypoint (chaos testing):
#: ``crash=0.3,hang=0.1,spawn=0.0,max_attempt=1,seed=0``. Rates are
#: per-(cell, attempt) probabilities drawn from a stable hash, so a
#: given spec always fails the same cells — and, with ``max_attempt=1``
#: (the default), only on their first attempt, so retries always
#: converge.
FAULTS_ENV_VAR = "REPRO_INJECT_WORKER_FAULTS"
#: Default incident-journal path (CLI ``--journal`` overrides).
JOURNAL_ENV_VAR = "REPRO_INCIDENT_JOURNAL"
#: Dispatch-mode override (CLI ``--dispatch`` sets it so nested fan-out
#: inherits the choice): ``pool`` (persistent workers, the default) or
#: ``remote`` (stream cells to ``repro worker serve`` endpoints first;
#: requires endpoints).
DISPATCH_ENV_VAR = "REPRO_DISPATCH"
#: The dispatch modes :meth:`Supervisor.run` understands.
DISPATCH_MODES = ("pool", "remote")
#: Cap on the JSONL incident journal before it rotates to ``<path>.1``.
JOURNAL_MAX_BYTES_ENV_VAR = "REPRO_INCIDENT_JOURNAL_MAX_BYTES"
#: Generous by default: multi-day campaigns emit kilobyte-scale events,
#: so 64 MiB is months of incidents — the cap exists to bound the
#: pathological case (a crash loop journaling forever), not to trim
#: healthy runs.
DEFAULT_JOURNAL_MAX_BYTES = 64 * 1024 * 1024

#: Exit code of an injected worker crash (distinctive in journals).
INJECTED_CRASH_EXIT_CODE = 86
#: Workers rate-limit heartbeat sends to one per this many seconds.
HEARTBEAT_MIN_INTERVAL_SECONDS = 0.1
#: Cells in flight per pool worker: one running plus one buffered in
#: its pipe, so a worker rolls straight into the next cell instead of
#: idling a scheduler quantum while the parent wins the CPU back. The
#: second slot is only filled once every ready worker has a first.
POOL_PREFETCH_DEPTH = 2


def default_dispatch_mode() -> str:
    """The dispatch mode from ``REPRO_DISPATCH``, or ``pool``.

    An unknown value raises :class:`~repro.errors.EnvKnobError` (CLI
    exit 2) naming the accepted set — a typo like ``REPRO_DISPATCH=seral``
    must stop the run, never silently dispatch some other way.
    """
    mode = os.environ.get(DISPATCH_ENV_VAR, "").strip().lower()
    if not mode:
        return "pool"
    if mode not in DISPATCH_MODES:
        raise EnvKnobError(
            f"{DISPATCH_ENV_VAR}={mode!r} is not a dispatch mode; "
            f"accepted values: {', '.join(DISPATCH_MODES)}"
        )
    return mode


def resolve_dispatch(dispatch: Optional[str]) -> str:
    """Validate an explicit dispatch choice, or fall back to the env."""
    if dispatch is None:
        return default_dispatch_mode()
    if dispatch not in DISPATCH_MODES:
        raise ConfigurationError(
            f"dispatch={dispatch!r} is not a dispatch mode; "
            f"accepted values: {', '.join(DISPATCH_MODES)}"
        )
    return dispatch


def _unit_hash(*parts: object) -> float:
    """A deterministic draw in [0, 1) from any hashable description.

    The supervisor's only randomness source: backoff jitter and fault
    injection both derive from it, so supervised runs are reproducible
    run-to-run and machine-to-machine.
    """
    blob = repr(parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# -- Retryable-error classification ---------------------------------------------

#: Exception families worth retrying: environmental/transient by nature.
_RETRYABLE_EXCEPTIONS = (
    OSError,            # includes IOError, BrokenPipeError, ConnectionError
    MemoryError,
    TimeoutError,
    EOFError,
    InterruptedError,
    KeyboardInterrupt,  # a signal delivered to the worker, not a bug
    SystemExit,
)


def is_retryable_exception(exc: BaseException) -> bool:
    """Whether re-running the same cell could plausibly succeed.

    :class:`~repro.errors.ReproError` and its family are deterministic —
    bad input or a simulator bug reproduces identically on retry, so
    they fail fast. OS-level trouble (I/O errors, OOM, signals) is
    transient and retries. Anything else (an unexpected ``TypeError``)
    is treated as deterministic: retrying a bug wastes the budget.
    """
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, _RETRYABLE_EXCEPTIONS)


# -- Injected worker faults (chaos knob) ----------------------------------------


@dataclass(frozen=True)
class InjectedFaults:
    """Parsed ``REPRO_INJECT_WORKER_FAULTS`` specification."""

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    spawn_rate: float = 0.0
    #: Remote-endpoint chaos only: ``os._exit`` the whole ``repro
    #: worker serve`` process mid-cell — the host-death analogue of
    #: ``crash`` (which, on an endpoint, drops just the connection).
    #: Local pool workers ignore it.
    endpoint_kill_rate: float = 0.0
    #: Inject only while ``attempt <= max_attempt`` — the default (1)
    #: guarantees retries converge, which keeps chaos runs deterministic
    #: *and* terminating.
    max_attempt: int = 1
    seed: int = 0

    @property
    def active(self) -> bool:
        return (self.crash_rate > 0 or self.hang_rate > 0
                or self.spawn_rate > 0 or self.endpoint_kill_rate > 0)


def parse_injected_faults(text: Optional[str]) -> Optional[InjectedFaults]:
    """Parse the env knob; None when unset/empty, raises on a bad spec."""
    if not text or not text.strip():
        return None
    fields: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} entry {part!r} is not name=value"
            )
        name, _, raw = part.partition("=")
        try:
            fields[name.strip()] = float(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} value {raw!r} for {name!r} is not a number"
            ) from exc
    known = {"crash", "hang", "spawn", "endpoint_kill", "max_attempt", "seed"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigurationError(
            f"{FAULTS_ENV_VAR} has unknown field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    for rate_name in ("crash", "hang", "spawn", "endpoint_kill"):
        rate = fields.get(rate_name, 0.0)
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"{FAULTS_ENV_VAR} {rate_name}={rate} is not within [0, 1]"
            )
    return InjectedFaults(
        crash_rate=fields.get("crash", 0.0),
        hang_rate=fields.get("hang", 0.0),
        spawn_rate=fields.get("spawn", 0.0),
        endpoint_kill_rate=fields.get("endpoint_kill", 0.0),
        max_attempt=int(fields.get("max_attempt", 1)),
        seed=int(fields.get("seed", 0)),
    )


def _maybe_inject_worker_fault(faults: InjectedFaults, key: str, attempt: int) -> None:
    """Crash or hang this worker if the (key, attempt) draw says so."""
    if attempt > faults.max_attempt:
        return
    draw = _unit_hash("inject-worker", faults.seed, key, attempt)
    if draw < faults.crash_rate:
        os._exit(INJECTED_CRASH_EXIT_CODE)
    if draw < faults.crash_rate + faults.hang_rate:
        while True:  # a genuine hang: alive, no progress, ignores nothing
            time.sleep(3600)


def _spawn_should_fail(faults: Optional[InjectedFaults], key: str, attempt: int) -> bool:
    if faults is None or faults.spawn_rate <= 0:
        return False
    return _unit_hash("inject-spawn", faults.seed, key, attempt) < faults.spawn_rate


# -- The incident journal -------------------------------------------------------


class IncidentJournal:
    """Append-only JSONL record of supervision incidents.

    One line per event — ``retry``, ``timeout``, ``hang``, ``crash``,
    ``worker_error``, ``rss_kill``, ``give_up``, ``quarantine``,
    ``spawn_failure``, ``serial_fallback``, ``interrupt``,
    ``retry_budget_exhausted``, the pool-lifecycle events
    ``pool_start`` and ``worker_respawn``, and the remote-endpoint
    events (``endpoint_connect``, ``endpoint_reconnect``,
    ``endpoint_failure``, ``endpoint_quarantine``,
    ``remote_degraded``) — with the cell key, the attempt number, the
    id of the worker that served the cell (empty when no worker was
    involved), and a human-readable detail. Each line is flushed as
    written, so the journal is readable while the run is still going
    (and survives a later crash of the parent).

    The file is capped at ``max_bytes`` (``None`` defers to
    ``REPRO_INCIDENT_JOURNAL_MAX_BYTES``, default
    :data:`DEFAULT_JOURNAL_MAX_BYTES`; ``0`` disables rotation).
    Reaching the cap atomically renames the file to ``<path>.1``
    (replacing any previous rotation) and starts the live file fresh
    with a ``journal_rotated`` event, so the tail stays readable
    mid-run and a multi-day campaign can never fill the disk with
    incidents.
    """

    def __init__(self, path: str, max_bytes: Optional[int] = None):
        self.path = path
        self.max_bytes = (
            max_bytes if max_bytes is not None else journal_max_bytes_from_env()
        )
        self.events_written = 0
        self.rotations = 0
        self.counts: Dict[str, int] = {}

    def _entry(self, event: str, key: str = "", attempt: int = 0,
               detail: str = "", worker: str = "") -> Dict[str, object]:
        entry = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "event": event,
            "key": key,
            "attempt": attempt,
            "detail": detail,
            "worker": worker,
        }
        self.counts[event] = self.counts.get(event, 0) + 1
        self.events_written += 1
        return entry

    def _maybe_rotate(self, incoming_bytes: int) -> Optional[Dict[str, object]]:
        """Rotate if the incoming line would break the cap; returns the
        ``journal_rotated`` entry to lead the fresh file, or None."""
        if self.max_bytes <= 0:
            return None
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return None
        if size == 0 or size + incoming_bytes <= self.max_bytes:
            return None
        rotated_to = self.path + ".1"
        os.replace(self.path, rotated_to)
        self.rotations += 1
        return self._entry(
            "journal_rotated",
            detail=f"rotated {size} bytes to {rotated_to}",
        )

    def record(self, event: str, key: str = "", attempt: int = 0,
               detail: str = "", worker: str = "") -> None:
        entry = self._entry(event, key=key, attempt=attempt,
                            detail=detail, worker=worker)
        line = json.dumps(entry, sort_keys=True) + "\n"
        try:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            rotated = self._maybe_rotate(len(line))
            with open(self.path, "a") as fp:
                if rotated is not None:
                    fp.write(json.dumps(rotated, sort_keys=True) + "\n")
                fp.write(line)
        except OSError:
            # Observability must never sink the run it observes.
            pass


def journal_max_bytes_from_env() -> int:
    """The journal cap from ``REPRO_INCIDENT_JOURNAL_MAX_BYTES``.

    ``0`` disables rotation; anything non-numeric or negative raises
    :class:`~repro.errors.EnvKnobError`.
    """
    raw = os.environ.get(JOURNAL_MAX_BYTES_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_JOURNAL_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"{JOURNAL_MAX_BYTES_ENV_VAR}={raw!r} is not an integer; "
            "accepted values: a byte count >= 0 (0 disables rotation)"
        ) from None
    if value < 0:
        raise EnvKnobError(
            f"{JOURNAL_MAX_BYTES_ENV_VAR}={raw!r} is negative; "
            "accepted values: a byte count >= 0 (0 disables rotation)"
        )
    return value


def journal_from_env() -> Optional[IncidentJournal]:
    """The env-configured journal (``REPRO_INCIDENT_JOURNAL``), or None."""
    path = os.environ.get(JOURNAL_ENV_VAR)
    if not path:
        return None
    return IncidentJournal(path)


# -- Kill escalation ------------------------------------------------------------


def escalate_kill(
    process: multiprocessing.process.BaseProcess,
    grace_seconds: float = 2.0,
    join_timeout_seconds: float = 5.0,
) -> str:
    """Stop a worker without ever blocking forever; returns how it died.

    ``terminate()`` (SIGTERM) → bounded grace join → ``kill()``
    (SIGKILL, uncatchable) → bounded join. The unbounded
    ``terminate(); join()`` this replaces deadlocked the parent whenever
    a worker ignored SIGTERM. Returns ``"terminated"``, ``"killed"``,
    ``"already-dead"``, or — join still failing after SIGKILL, which
    only an unkillable (D-state) process can produce — ``"leaked"``.
    """
    if not process.is_alive():
        process.join(join_timeout_seconds)
        return "already-dead"
    process.terminate()
    process.join(grace_seconds)
    if not process.is_alive():
        return "terminated"
    process.kill()
    process.join(join_timeout_seconds)
    if process.is_alive():
        return "leaked"
    return "killed"


def _rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of a live process, or None where unknowable."""
    try:
        with open(f"/proc/{pid}/statm") as fp:
            resident_pages = int(fp.read().split()[1])
        page_size = os.sysconf("SC_PAGE_SIZE")
        return resident_pages * page_size
    except (OSError, ValueError, IndexError, AttributeError):
        return None


# -- Policy ---------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorPolicy:
    """Everything tunable about one supervised run."""

    #: Total tries per cell (first attempt + retries).
    max_attempts: int = 1
    #: Hard wall-clock budget per attempt (None = unbounded).
    timeout_seconds: Optional[float] = None
    #: Idle budget per attempt: kill a worker that reports no progress
    #: for this long (None = hang detection off). Unlike
    #: ``timeout_seconds`` this never kills a slow-but-advancing worker.
    hang_timeout_seconds: Optional[float] = None
    #: Exponential backoff between attempts of one cell.
    backoff_base_seconds: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    #: Deterministic jitter: the delay is stretched by up to this
    #: fraction, hash-derived from (key, attempt) — decorrelates retry
    #: bursts without any run-to-run nondeterminism.
    backoff_jitter: float = 0.1
    #: SIGTERM grace before SIGKILL, and the bounded post-kill join.
    grace_seconds: float = 2.0
    join_timeout_seconds: float = 5.0
    #: Optional per-worker RSS ceiling (bytes); exceeding it is a kill.
    max_rss_bytes: Optional[int] = None
    #: Consecutive spawn failures before falling back to in-process
    #: serial execution for the rest of the run.
    spawn_failure_limit: int = 3
    #: Total retries allowed across the whole run (None = twice the
    #: task count). A grid where everything retries is an environment
    #: problem; the budget stops it from looping for hours.
    retry_budget: Optional[int] = None
    #: Worker heartbeat granularity, in simulated accesses.
    heartbeat_interval_accesses: int = 2_000
    #: TCP connect + handshake budget per remote-endpoint attempt.
    connect_timeout_seconds: float = 10.0
    #: Consecutive failures (connect errors, drops, hangs) before an
    #: endpoint is quarantined for the rest of the run — the host-level
    #: analogue of poison-cell quarantine. Protocol/fingerprint skew
    #: quarantines immediately regardless, being deterministic.
    endpoint_failure_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ConfigurationError("max_attempts must be positive")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        if self.hang_timeout_seconds is not None and self.hang_timeout_seconds <= 0:
            raise ConfigurationError("hang_timeout_seconds must be positive")
        if self.backoff_base_seconds < 0:
            raise ConfigurationError("backoff must be non-negative")
        if not 0 <= self.backoff_jitter <= 1:
            raise ConfigurationError("backoff_jitter must be within [0, 1]")
        if self.heartbeat_interval_accesses <= 0:
            raise ConfigurationError("heartbeat interval must be positive")
        if self.connect_timeout_seconds <= 0:
            raise ConfigurationError("connect_timeout_seconds must be positive")
        if self.endpoint_failure_limit <= 0:
            raise ConfigurationError("endpoint_failure_limit must be positive")

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Delay before attempt ``attempt + 1`` of cell ``key``."""
        if self.backoff_base_seconds <= 0:
            return 0.0
        delay = min(
            self.backoff_base_seconds * self.backoff_factor ** (attempt - 1),
            self.backoff_max_seconds,
        )
        if self.backoff_jitter > 0:
            delay *= 1.0 + self.backoff_jitter * _unit_hash("jitter", key, attempt)
        return delay


# -- Tasks, outcomes, and the worker entrypoint ---------------------------------


@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work.

    ``target`` must be a picklable module-level function
    (``target(payload) -> value``); it runs verbatim in the subprocess
    worker *and* in the in-process serial fallback, which is what makes
    the fallback bit-identical.
    """

    index: int
    key: str
    target: Callable
    payload: object


@dataclass
class TaskOutcome:
    """Terminal state of one supervised task."""

    task: SupervisedTask
    value: object = None
    error: Optional[str] = None
    attempts: int = 1
    wall_seconds: float = 0.0
    #: True when the value came from the in-process serial fallback.
    inline: bool = False
    #: Which worker served the final attempt (``w0``/``w1``... for pool
    #: workers, ``r<n>@host:port`` for endpoint sessions, ``inline``
    #: for the serial fallback).
    worker_id: Optional[str] = None
    #: Seconds spent inside ``target(payload)`` in the worker — the
    #: simulation itself, excluding spawn/dispatch/pipe overhead.
    #: ``wall_seconds - sim_seconds`` is the dispatch overhead.
    sim_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _settled_wall(final: Dict, observed: float) -> float:
    """The cell's wall time: worker-reported when sane, else observed.

    The worker's ``wall_seconds`` (dispatch stamp → result ready, see
    :func:`_pool_worker_main`) excludes the parent's own wake-up
    latency, which on an oversubscribed host inflates the parent-side
    observation by a scheduler quantum per cell.
    """
    reported = final.get("wall_seconds")
    if isinstance(reported, (int, float)) and reported >= 0:
        return float(reported)
    return observed


def _install_heartbeat_hook(conn, heartbeat_every) -> None:
    """Point the engine's progress hook at ``conn`` (best effort)."""
    try:
        from .engine import set_progress_hook

        last_sent = [0.0]

        def heartbeat(total_accesses: int) -> None:
            now = time.monotonic()
            if now - last_sent[0] >= HEARTBEAT_MIN_INTERVAL_SECONDS:
                last_sent[0] = now
                with contextlib.suppress(Exception):
                    conn.send({"hb": total_accesses})

        set_progress_hook(heartbeat, heartbeat_every)
    except Exception:
        pass  # No heartbeats is degraded observability, not a failure.


def _pool_worker_main(worker_id, setup, conn, heartbeat_every) -> None:
    """Persistent-pool subprocess body: set up once, then stream cells.

    The expensive per-process work — interpreter start, ``repro``
    imports, kernel dlopen, cache opening (all via ``setup``) — happens
    exactly once; after that the worker loops on ``conn.recv()``,
    running one cell per ``{"target", "payload", "key", "attempt"}``
    message and answering with ``{"ok": True, "value": ...,
    "sim_seconds": ..., "wall_seconds": ...}`` or ``{"ok": False,
    "error": ..., "retryable": ..., ...}``, preceded by ``{"hb": n}``
    heartbeats. ``{"stop": True}`` (or a closed pipe) ends the loop.
    Injected chaos fires per (key, attempt) — a ``crash`` draw takes the
    whole worker down mid-queue, which is precisely the failure the
    parent's respawn logic exists to absorb.
    """
    faults = parse_injected_faults(os.environ.get(FAULTS_ENV_VAR))
    if setup is not None:
        # A failed warm-up makes the worker slower, never wrong.
        with contextlib.suppress(Exception):
            setup()
    _install_heartbeat_hook(conn, heartbeat_every)
    # Ready handshake: the parent only assigns cells to workers that
    # have finished setup, so worker start-up cost is paid concurrently
    # at pool start and never shows up as per-cell dispatch overhead.
    with contextlib.suppress(Exception):
        conn.send({"ready": True})
    free_since = time.monotonic()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not isinstance(message, dict) or message.get("stop"):
            break
        key = message.get("key", "")
        attempt = int(message.get("attempt", 1))
        # A cell's wall clock starts at the parent's dispatch stamp, or
        # — for a prefetched cell that waited in the pipe while this
        # worker ran its predecessor — when the worker became free.
        # CLOCK_MONOTONIC is one clock per boot, not per process, so
        # the parent's stamp and this worker's reads are comparable.
        dispatched = message.get("dispatched")
        wall_start = free_since
        if isinstance(dispatched, (int, float)) and dispatched > wall_start:
            wall_start = float(dispatched)
        if faults is not None and faults.active:
            _maybe_inject_worker_fault(faults, key, attempt)
        started = time.perf_counter()
        try:
            value = message["target"](message["payload"])
            conn.send({
                "ok": True,
                "value": value,
                "sim_seconds": time.perf_counter() - started,
                "wall_seconds": max(0.0, time.monotonic() - wall_start),
            })
        except BaseException as exc:  # noqa: BLE001 — the pool must survive
            try:
                conn.send({
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "retryable": is_retryable_exception(exc),
                    "sim_seconds": time.perf_counter() - started,
                    "wall_seconds": max(0.0, time.monotonic() - wall_start),
                })
            except Exception:
                break  # unreportable: die so the parent sees a crash
        free_since = time.monotonic()
    with contextlib.suppress(Exception):
        conn.close()


# -- Graceful-signal plumbing ---------------------------------------------------


class _SignalRaised(KeyboardInterrupt):
    """KeyboardInterrupt that remembers which signal caused it."""

    def __init__(self, signal_name: str):
        super().__init__(signal_name)
        self.signal_name = signal_name


@contextlib.contextmanager
def deliver_signals_as_interrupts():
    """Raise SIGINT/SIGTERM as :class:`_SignalRaised` inside the block.

    Used by the in-process serial paths so an operator's Ctrl-C (or a
    scheduler's SIGTERM) surfaces as a catchable exception between — or
    inside — jobs instead of killing the process with completed work
    unflushed. Outside the main thread (where Python forbids signal
    handlers) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def raise_interrupt(signum, frame):
        raise _SignalRaised(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, raise_interrupt)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signum, handler)


# -- Ambient supervision policy -------------------------------------------------
#
# CLI commands whose fan-out sits several calls deep (figure runners,
# ablations) install a policy here instead of threading supervision
# kwargs through every intermediate signature; run_many() consults it
# for any knob the caller left unset.

_ambient_policy: List[Optional[SupervisorPolicy]] = [None]


@contextlib.contextmanager
def use_supervision(policy: Optional[SupervisorPolicy]):
    """Make ``policy`` the default for :func:`repro.sim.parallel.run_many`.

    Explicit ``run_many`` arguments still win; the ambient policy only
    fills knobs the caller did not pass. Nests; ``None`` clears it for
    the inner block.
    """
    _ambient_policy.append(policy)
    try:
        yield policy
    finally:
        _ambient_policy.pop()


def current_supervision() -> Optional[SupervisorPolicy]:
    """The innermost :func:`use_supervision` policy, or ``None``."""
    return _ambient_policy[-1]


# -- The supervisor -------------------------------------------------------------


@dataclass
class _InFlight:
    """One cell assigned to a worker (running or buffered in its conn)."""

    task: SupervisedTask
    attempt: int
    assigned_at: float
    last_progress_at: float
    progress: int = 0


@dataclass
class _Slot:
    """One worker the streaming loop feeds: a pool process or a session.

    A local pool worker has a ``process`` (which the parent can kill and
    police for RSS); a remote endpoint session has an ``address`` and no
    process — across a host boundary the only lever is closing ``conn``.
    ``queue[0]`` is the cell the worker is running (heartbeats and hang
    policing attach to it); ``queue[1:]`` are prefetched cells waiting
    in the connection (at most :data:`POOL_PREFETCH_DEPTH` in total).
    """

    worker_id: str
    conn: object
    process: Optional[multiprocessing.process.BaseProcess] = None
    address: Optional[str] = None
    queue: List[_InFlight] = field(default_factory=list)
    #: Set by the local worker's ready handshake (setup finished);
    #: endpoint sessions are ready once the connect handshake returns.
    ready: bool = False
    opened_at: float = 0.0


@dataclass
class PoolReport:
    """What the persistent pool did during one :meth:`Supervisor.run`.

    Surfaced as :attr:`Supervisor.last_pool_report` (and from there in
    bench results) so dispatch overhead and respawn churn are
    observable rather than folklore.
    """

    n_workers: int
    workers_started: int = 0
    respawns: int = 0
    cells_per_worker: Dict[str, int] = field(default_factory=dict)


@dataclass
class RemoteReport:
    """What remote dispatch did during one :meth:`Supervisor.run`.

    Surfaced as :attr:`Supervisor.last_remote_report`. ``degraded`` is
    the headline: True means every endpoint was lost and the run fell
    back down the ladder (local pool, then in-process serial) —
    results are still byte-identical, but the operator should know
    their cluster evaporated.
    """

    endpoints: List[str]
    sessions_opened: int = 0
    reconnects: int = 0
    cells_per_endpoint: Dict[str, int] = field(default_factory=dict)
    quarantined: Dict[str, str] = field(default_factory=dict)
    degraded: bool = False


class Supervisor:
    """Run tasks across subprocess workers under one :class:`SupervisorPolicy`.

    Construction is cheap; :meth:`run` owns the whole lifecycle: launch,
    heartbeat tracking, timeouts, retry scheduling, kill escalation,
    serial fallback, and graceful shutdown. ``on_settle(outcome)`` fires
    the moment each task reaches a terminal state — callers use it to
    flush results incrementally (checkpoints, the result store), which
    is exactly what makes interruption lossless.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        log: Optional[Callable[[str], None]] = None,
        journal: Optional[IncidentJournal] = None,
        ctx=None,
        worker_setup: Optional[Callable[[], None]] = None,
    ):
        self.policy = policy
        self.emit = log if log is not None else (lambda message: None)
        self.journal = journal if journal is not None else journal_from_env()
        self.ctx = ctx if ctx is not None else multiprocessing.get_context()
        #: Picklable zero-arg warm-up hook run once per worker process
        #: (imports, kernel dlopen, cache opening). Failures are
        #: suppressed: a cold worker is slower, not broken.
        self.worker_setup = worker_setup
        #: The :class:`PoolReport` of the most recent pool-mode run.
        self.last_pool_report: Optional[PoolReport] = None
        #: The :class:`RemoteReport` of the most recent run that used
        #: remote endpoints (None when none were configured).
        self.last_remote_report: Optional[RemoteReport] = None
        self._signal_name: Optional[str] = None
        self._inline_mode = False

    # -- journal/log helpers ------------------------------------------------

    def _incident(self, event: str, key: str = "", attempt: int = 0,
                  detail: str = "", worker: str = "") -> None:
        if self.journal is not None:
            self.journal.record(event, key=key, attempt=attempt,
                                detail=detail, worker=worker)

    # -- signal handling ----------------------------------------------------

    @contextlib.contextmanager
    def _graceful_signals(self):
        """First SIGINT/SIGTERM requests shutdown; a second one forces it."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def request_shutdown(signum, frame):
            name = signal.Signals(signum).name
            if self._signal_name is not None:
                raise _SignalRaised(name)
            self._signal_name = name

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, request_shutdown)
            except (ValueError, OSError):
                pass
        try:
            yield
        finally:
            for signum, handler in previous.items():
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signum, handler)

    # -- the run loop -------------------------------------------------------

    def run(
        self,
        tasks: Sequence[SupervisedTask],
        n_workers: int = 1,
        on_settle: Optional[Callable[[TaskOutcome], None]] = None,
        dispatch: Optional[str] = None,
        endpoints: Optional[Sequence] = None,
    ) -> List[Optional[TaskOutcome]]:
        """Supervise every task to a terminal state; outcomes by ``index``.

        Cells stream down a ladder of rungs, each draining what the one
        above could not: remote endpoints (when any are configured),
        then ``n_workers`` local pool workers, then — after repeated
        spawn failure — in-process serial execution. Results are
        byte-identical on every rung.

        ``endpoints`` (``host:port`` strings or
        :class:`~repro.sim.remote.Endpoint`\\ s; ``None`` defers to
        ``REPRO_ENDPOINTS``) names remote ``repro worker serve``
        listeners. ``dispatch`` (``pool``, the default, or ``remote``;
        ``None`` defers to ``REPRO_DISPATCH``) only matters in that
        ``dispatch="remote"`` with no endpoints at all is a
        configuration error.

        Raises :class:`~repro.errors.InterruptedRunError` on
        SIGINT/SIGTERM, after killing the in-flight workers; settled
        outcomes (already delivered through ``on_settle``) ride on the
        exception.
        """
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        mode = resolve_dispatch(dispatch)
        endpoint_list: List = []
        if endpoints is not None or os.environ.get("REPRO_ENDPOINTS"):
            from .remote import resolve_endpoints

            endpoint_list = resolve_endpoints(endpoints)
        if mode == "remote" and not endpoint_list:
            raise ConfigurationError(
                "dispatch='remote' needs at least one worker endpoint: "
                "pass endpoints=... / --endpoints, or set REPRO_ENDPOINTS"
            )
        policy = self.policy
        faults = parse_injected_faults(os.environ.get(FAULTS_ENV_VAR))
        tasks = list(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * (
            max((t.index for t in tasks), default=-1) + 1
        )
        pending = deque(tasks)
        slots: Dict[str, _Slot] = {}
        attempts: Dict[int, int] = {}
        elapsed: Dict[int, float] = {}
        eligible_at: Dict[int, float] = {}
        quarantined: Dict[str, str] = {}
        retry_budget = (
            policy.retry_budget
            if policy.retry_budget is not None
            else 2 * len(tasks)
        )
        budget_exhausted_reported = False
        spawn_failures = 0

        def settle(task: SupervisedTask, outcome: TaskOutcome) -> None:
            outcomes[task.index] = outcome
            if on_settle is not None:
                on_settle(outcome)
            status = "done" if outcome.ok else "failed"
            detail = "" if outcome.ok else f" ({outcome.error})"
            self.emit(
                f"{status}: {task.key} ({outcome.wall_seconds:.2f}s){detail}"
            )

        def settle_failure(task: SupervisedTask, attempt: int, reason: str,
                           retryable: bool, inline: bool = False,
                           worker_id: Optional[str] = None,
                           sim_seconds: Optional[float] = None) -> None:
            nonlocal retry_budget, budget_exhausted_reported
            key = task.key
            if retryable and attempt < policy.max_attempts and key not in quarantined:
                if retry_budget > 0:
                    retry_budget -= 1
                    delay = policy.backoff_delay(key, attempt)
                    eligible_at[task.index] = time.monotonic() + delay
                    pending.append(task)
                    self._incident("retry", key, attempt, reason,
                                   worker=worker_id or "")
                    self.emit(
                        f"retry: {key} after {reason} (backoff {delay:.1f}s)"
                    )
                    return
                if not budget_exhausted_reported:
                    budget_exhausted_reported = True
                    self._incident(
                        "retry_budget_exhausted", key, attempt,
                        "no further retries this run",
                    )
                    self.emit("retry budget exhausted: failures are now final")
            if retryable and attempt >= policy.max_attempts:
                # The cell defeated every attempt it was allowed:
                # quarantine it so a duplicate later in this run fails
                # fast instead of burning the budget again.
                quarantined[key] = reason
                self._incident("quarantine", key, attempt, reason,
                               worker=worker_id or "")
                self._incident("give_up", key, attempt, reason,
                               worker=worker_id or "")
            if worker_id:
                reason = f"{reason} [worker {worker_id}]"
            settle(task, TaskOutcome(
                task, error=reason, attempts=attempt,
                wall_seconds=elapsed.get(task.index, 0.0), inline=inline,
                worker_id=worker_id, sim_seconds=sim_seconds,
            ))

        def next_attempt(task: SupervisedTask) -> Optional[int]:
            """Claim the task's next attempt; None when quarantine vetoed it."""
            attempt = attempts.get(task.index, 0) + 1
            attempts[task.index] = attempt
            reason = quarantined.get(task.key)
            if reason is None:
                return attempt
            self._incident("quarantine_hit", task.key, attempt, reason)
            settle(task, TaskOutcome(
                task, error=f"quarantined poison cell: {reason}",
                attempts=attempt,
            ))
            return None

        def run_inline(task: SupervisedTask, attempt: int) -> None:
            start = time.perf_counter()
            try:
                value = task.target(task.payload)
            except _SignalRaised:
                raise
            except Exception as exc:
                elapsed[task.index] = (
                    elapsed.get(task.index, 0.0) + time.perf_counter() - start
                )
                settle_failure(
                    task, attempt, f"{type(exc).__name__}: {exc}",
                    is_retryable_exception(exc), inline=True,
                    worker_id="inline",
                    sim_seconds=time.perf_counter() - start,
                )
                return
            wall = time.perf_counter() - start
            elapsed[task.index] = elapsed.get(task.index, 0.0) + wall
            settle(task, TaskOutcome(
                task, value=value, attempts=attempt,
                wall_seconds=elapsed[task.index], inline=True,
                worker_id="inline", sim_seconds=wall,
            ))

        def shutdown(signal_name: str) -> None:
            self._incident(
                "interrupt", detail=f"{signal_name}: "
                f"{len(slots)} worker(s) killed, "
                f"{sum(1 for o in outcomes if o is None)} cell(s) pending",
            )
            for slot in slots.values():
                # Remote servers outlive this parent by design (another
                # host may resume the campaign); just end our sessions.
                if slot.process is not None:
                    escalate_kill(slot.process, policy.grace_seconds,
                                  policy.join_timeout_seconds)
                else:
                    with contextlib.suppress(Exception):
                        slot.conn.send({"stop": True})
                with contextlib.suppress(Exception):
                    slot.conn.close()
            slots.clear()
            settled = sum(1 for o in outcomes if o is not None)
            pending_keys = [t.key for t in tasks if outcomes[t.index] is None]
            raise InterruptedRunError(
                f"interrupted by {signal_name}: {settled} of {len(tasks)} "
                "cell(s) settled; completed work was flushed",
                signal_name=signal_name,
                outcomes=outcomes,
                pending_keys=pending_keys,
            )

        # -- the streaming loop ------------------------------------------
        #
        # One loop feeds both worker kinds: local pool processes
        # (``_pool_worker_main``, spawned once and respawned alone when
        # they crash or wedge) and remote endpoint sessions (supervised
        # per *host*: a dropped connection reconnects with backoff, and
        # an endpoint that keeps failing — or speaks the wrong
        # protocol/build — is quarantined). Assignment, heartbeats,
        # timeout/hang policing, and retry of a lost cell are shared;
        # the loop returns with cells still pending when its rung gives
        # out (every endpoint quarantined, or local spawn failing), and
        # the rung below drains them.

        def stream(remote: bool) -> None:
            nonlocal spawn_failures
            seq = 0
            if remote:
                from .remote import connect_endpoint

                report = RemoteReport(
                    endpoints=[e.address for e in endpoint_list],
                )
                self.last_remote_report = report
                cells_served = report.cells_per_endpoint
                endpoint_failures: Dict[str, int] = {}
                reconnect_at: Dict[str, float] = {}
                connected_before: set = set()
            else:
                pool = PoolReport(n_workers=n_workers)
                self.last_pool_report = pool
                cells_served = pool.cells_per_worker
                pool_started = False

            def note_endpoint_failure(address: str, reason: str,
                                      deterministic: bool = False) -> None:
                failures = endpoint_failures.get(address, 0) + 1
                endpoint_failures[address] = failures
                if deterministic or failures >= policy.endpoint_failure_limit:
                    reason = f"{reason} ({failures} failure(s))"
                    report.quarantined[address] = reason
                    self._incident("endpoint_quarantine", "", 0, reason,
                                   worker=address)
                    self.emit(f"endpoint {address} quarantined: {reason}")
                    return
                reconnect_at[address] = time.monotonic() + policy.backoff_delay(
                    f"endpoint:{address}", failures,
                )

            def connect_endpoints(now: float) -> None:
                nonlocal seq
                connected = {slot.address for slot in slots.values()}
                for endpoint in endpoint_list:
                    address = endpoint.address
                    if (address in connected
                            or address in report.quarantined
                            or reconnect_at.get(address, 0.0) > now):
                        continue
                    try:
                        conn, _welcome = connect_endpoint(
                            endpoint, policy.connect_timeout_seconds,
                        )
                    except (OSError, EOFError, RemoteProtocolError) as exc:
                        # Protocol/build skew is deterministic: the same
                        # two builds will skew again, so quarantine now.
                        skew = isinstance(exc, RemoteProtocolError)
                        reason = (str(exc) if skew else
                                  f"unreachable ({type(exc).__name__}: {exc})")
                        self._incident("endpoint_failure", "", 0, reason,
                                       worker=address)
                        note_endpoint_failure(address, reason, skew)
                        continue
                    endpoint_failures[address] = 0
                    worker_id = f"r{seq}@{address}"
                    seq += 1
                    slots[worker_id] = _Slot(
                        worker_id, conn, address=address, ready=True,
                        opened_at=now,
                    )
                    report.sessions_opened += 1
                    cells_served.setdefault(address, 0)
                    if address in connected_before:
                        report.reconnects += 1
                        self._incident("endpoint_reconnect", "", 0,
                                       "session re-established",
                                       worker=address)
                    else:
                        connected_before.add(address)
                        self._incident("endpoint_connect", "", 0,
                                       "session established",
                                       worker=address)
                    self.emit(f"endpoint {address} connected ({worker_id})")

            def spawn_worker() -> None:
                nonlocal seq, spawn_failures
                worker_id, chaos_key = f"w{seq}", f"pool-worker-{seq}"
                seq += 1
                try:
                    if _spawn_should_fail(faults, chaos_key, 1):
                        raise OSError("injected spawn failure")
                    parent_conn, child_conn = self.ctx.Pipe(duplex=True)
                    process = self.ctx.Process(
                        target=_pool_worker_main,
                        args=(worker_id, self.worker_setup, child_conn,
                              policy.heartbeat_interval_accesses),
                        daemon=True,
                    )
                    process.start()
                except OSError as exc:
                    spawn_failures += 1
                    self._incident("spawn_failure", "", 0, str(exc),
                                   worker=worker_id)
                    if spawn_failures >= policy.spawn_failure_limit:
                        self._inline_mode = True
                        self._incident(
                            "serial_fallback", "", 0,
                            f"{spawn_failures} consecutive spawn failures",
                        )
                        self.emit(
                            "WARNING: subprocess spawn failed "
                            f"{spawn_failures} time(s) ({exc}); falling "
                            "back to in-process serial execution "
                            "(results identical)"
                        )
                    return
                spawn_failures = 0
                child_conn.close()
                slots[worker_id] = _Slot(
                    worker_id, parent_conn, process=process,
                    opened_at=time.monotonic(),
                )
                pool.workers_started += 1
                cells_served.setdefault(worker_id, 0)
                if pool_started:
                    pool.respawns += 1
                    self._incident("worker_respawn", "", 0,
                                   "replacing a dead or killed worker",
                                   worker=worker_id)

            def stop_slots() -> None:
                for slot in slots.values():
                    with contextlib.suppress(Exception):
                        slot.conn.send({"stop": True})
                for slot in slots.values():
                    if slot.process is not None:
                        slot.process.join(policy.join_timeout_seconds)
                        if slot.process.is_alive():
                            escalate_kill(slot.process, policy.grace_seconds,
                                          policy.join_timeout_seconds)
                    with contextlib.suppress(Exception):
                        slot.conn.close()
                slots.clear()

            def fail_slot(slot: _Slot, event: str, reason: str,
                          kill: bool = True) -> None:
                """End a worker; re-enqueue its cells; retry the running one."""
                slots.pop(slot.worker_id, None)
                detail = reason
                if slot.process is not None and kill:
                    how = escalate_kill(slot.process, policy.grace_seconds,
                                        policy.join_timeout_seconds)
                    detail = f"{reason}; worker {how}"
                elif slot.process is not None:
                    slot.process.join(policy.join_timeout_seconds)
                with contextlib.suppress(Exception):
                    slot.conn.close()
                queue, slot.queue = slot.queue, []
                # Prefetched cells the worker never started go straight
                # back to pending without burning an attempt.
                for extra in reversed(queue[1:]):
                    attempts[extra.task.index] -= 1
                    pending.appendleft(extra.task)
                if queue:
                    inflight = queue[0]
                    index = inflight.task.index
                    elapsed[index] = (
                        elapsed.get(index, 0.0)
                        + (time.monotonic() - inflight.assigned_at)
                    )
                    self._incident(event, inflight.task.key,
                                   inflight.attempt, detail,
                                   worker=slot.worker_id)
                    settle_failure(inflight.task, inflight.attempt, reason,
                                   retryable=True, worker_id=slot.worker_id)
                else:
                    self._incident(event, "", 0, detail,
                                   worker=slot.worker_id)
                if slot.address is not None:
                    note_endpoint_failure(slot.address, reason)

            def fail_dispatch(slot: _Slot, exc: BaseException) -> None:
                if slot.process is None:
                    fail_slot(slot, "crash", "connection lost on dispatch "
                              f"({type(exc).__name__}: {exc})")
                    return
                # A broken dispatch pipe usually means the worker died;
                # report its exit code rather than the symptom when so.
                slot.process.join(policy.join_timeout_seconds)
                alive = slot.process.is_alive()
                if alive:
                    reason = f"worker pipe broken on dispatch ({exc})"
                else:
                    reason = (f"worker crashed (exit code "
                              f"{slot.process.exitcode})")
                fail_slot(slot, "crash", reason, kill=alive)

            def assign(now: float) -> bool:
                # Two passes: every ready worker gets a first cell
                # before any worker gets its prefetch slot filled, so
                # prefetching never starves an idle worker.
                progressed = False
                blocked: List[SupervisedTask] = []
                for depth in range(1, POOL_PREFETCH_DEPTH + 1):
                    for slot in list(slots.values()):
                        if not slot.ready or len(slot.queue) >= depth:
                            continue
                        while pending:
                            task = pending.popleft()
                            # Never queue a key behind itself: the first
                            # instance must settle first so quarantine
                            # can veto the duplicate.
                            if (eligible_at.get(task.index, 0.0) > now
                                    or any(q.task.key == task.key
                                           for q in slot.queue)):
                                blocked.append(task)
                                continue
                            progressed = True
                            attempt = next_attempt(task)
                            if attempt is None:
                                continue
                            frame = {
                                "target": task.target,
                                "payload": task.payload,
                                "key": task.key,
                                "attempt": attempt,
                            }
                            if slot.process is None:
                                # Durations only cross hosts: the remote
                                # clock never meets the parent's.
                                frame["heartbeat_every"] = (
                                    policy.heartbeat_interval_accesses
                                )
                            else:
                                frame["dispatched"] = time.monotonic()
                            try:
                                slot.conn.send(frame)
                            except (OSError, ValueError,
                                    RemoteProtocolError) as exc:
                                attempts[task.index] = attempt - 1
                                pending.appendleft(task)
                                fail_dispatch(slot, exc)
                                break
                            slot.queue.append(_InFlight(
                                task=task, attempt=attempt,
                                assigned_at=now, last_progress_at=now,
                            ))
                            where = f" @ {slot.address}" if slot.address else ""
                            self.emit(
                                f"start: {task.key} (attempt {attempt}"
                                f"/{policy.max_attempts}){where}"
                            )
                            break
                pending.extendleft(reversed(blocked))
                return progressed

            def pump(slot: _Slot) -> None:
                final = None
                lost: Optional[BaseException] = None
                while True:
                    try:
                        if not slot.conn.poll():
                            break
                        message = slot.conn.recv()
                    except (EOFError, OSError, RemoteProtocolError) as exc:
                        lost = exc
                        break
                    if not isinstance(message, dict):
                        continue
                    if "ready" in message:
                        slot.ready = True
                        continue
                    if "hb" in message:
                        if slot.queue:
                            slot.queue[0].last_progress_at = time.monotonic()
                            slot.queue[0].progress = int(message["hb"])
                        continue
                    final = message
                    break
                if final is not None and slot.queue:
                    inflight = slot.queue.pop(0)
                    if slot.queue:
                        # The prefetched cell is now the one running:
                        # restart its policing clocks so its queue wait
                        # is not mistaken for a hang or timeout.
                        promoted_at = time.monotonic()
                        slot.queue[0].assigned_at = promoted_at
                        slot.queue[0].last_progress_at = promoted_at
                    served_by = slot.address or slot.worker_id
                    cells_served[served_by] = cells_served.get(served_by, 0) + 1
                    index = inflight.task.index
                    elapsed[index] = elapsed.get(index, 0.0) + _settled_wall(
                        final, time.monotonic() - inflight.assigned_at,
                    )
                    if final.get("ok"):
                        settle(inflight.task, TaskOutcome(
                            inflight.task, value=final["value"],
                            attempts=inflight.attempt,
                            wall_seconds=elapsed[index],
                            worker_id=slot.worker_id,
                            sim_seconds=final.get("sim_seconds"),
                        ))
                    else:
                        reason = final.get("error", "worker error")
                        self._incident("worker_error", inflight.task.key,
                                       inflight.attempt, reason,
                                       worker=slot.worker_id)
                        settle_failure(
                            inflight.task, inflight.attempt, reason,
                            bool(final.get("retryable", False)),
                            worker_id=slot.worker_id,
                            sim_seconds=final.get("sim_seconds"),
                        )
                    return
                if slot.process is None:
                    if lost is None:
                        return
                    reason = ("connection lost mid-cell "
                              f"({type(lost).__name__}: {lost})")
                elif lost is None and slot.process.is_alive():
                    return
                else:
                    slot.process.join(policy.join_timeout_seconds)
                    reason = f"worker crashed (exit code {slot.process.exitcode})"
                fail_slot(slot, "crash", reason, kill=False)

            def police(now: float) -> None:
                # Policed by the parent's clock alone: remote timestamps
                # never enter a comparison, so host clock skew cannot
                # misfire a kill.
                for slot in list(slots.values()):
                    process = slot.process
                    if not slot.queue:
                        if process is None:
                            continue
                        if not process.is_alive():
                            process.join(policy.join_timeout_seconds)
                            fail_slot(slot, "crash", "idle worker died "
                                      f"(exit code {process.exitcode})",
                                      kill=False)
                        elif (not slot.ready
                              and policy.hang_timeout_seconds is not None
                              and now - slot.opened_at
                              > policy.hang_timeout_seconds
                              + policy.grace_seconds):
                            # Setup wedged before the ready handshake; no
                            # cell is lost — just replace the worker.
                            fail_slot(slot, "hang",
                                      "worker never became ready")
                        continue
                    inflight = slot.queue[0]
                    if (policy.timeout_seconds is not None
                            and now - inflight.assigned_at
                            > policy.timeout_seconds):
                        fail_slot(slot, "timeout", "timeout after "
                                  f"{policy.timeout_seconds:.1f}s")
                    elif (policy.hang_timeout_seconds is not None
                          and now - inflight.last_progress_at
                          > policy.hang_timeout_seconds):
                        fail_slot(slot, "hang", "hung: no progress for "
                                  f"{policy.hang_timeout_seconds:.1f}s "
                                  f"(last heartbeat at {inflight.progress} "
                                  "accesses)")
                    elif process is not None and policy.max_rss_bytes is not None:
                        rss = _rss_bytes(process.pid)
                        if rss is not None and rss > policy.max_rss_bytes:
                            fail_slot(slot, "rss_kill", f"RSS {rss} bytes "
                                      f"exceeded the {policy.max_rss_bytes}"
                                      "-byte ceiling")

            while pending or any(slot.queue for slot in slots.values()):
                if self._signal_name is not None:
                    shutdown(self._signal_name)
                busy = sum(1 for slot in slots.values() if slot.queue)
                if remote:
                    connect_endpoints(time.monotonic())
                    if not slots:
                        if len(report.quarantined) < len(endpoint_list):
                            time.sleep(0.005)  # reconnect backoff running
                            continue
                        report.degraded = True
                        detail = (
                            f"all {len(endpoint_list)} endpoint(s) "
                            "quarantined; falling back to local dispatch"
                        )
                        self._incident("remote_degraded", "", 0, detail)
                        self.emit(f"WARNING: {detail} (results identical)")
                        return
                elif not self._inline_mode:
                    while (len(slots) < min(n_workers, busy + len(pending))
                           and not self._inline_mode):
                        spawn_worker()
                    if not pool_started and slots:
                        pool_started = True
                        self._incident(
                            "pool_start", "", 0,
                            f"{len(slots)} persistent worker(s)",
                        )
                if self._inline_mode and busy == 0:
                    break  # the serial rung drains the rest
                progressed = not self._inline_mode and assign(time.monotonic())
                conns = {slot.conn: slot for slot in slots.values()}
                if conns:
                    # connection.wait() is the latency lever: a final
                    # message wakes the parent immediately instead of on
                    # the next sleep-poll tick, so dispatch costs
                    # microseconds, not a scheduler quantum.
                    try:
                        ready = _wait_for_conns(
                            list(conns), timeout=0.0 if progressed else 0.005,
                        )
                    except (OSError, ValueError):
                        ready = list(conns)
                    for conn in ready:
                        slot = conns[conn]
                        if slots.get(slot.worker_id) is slot:
                            pump(slot)
                elif not progressed:
                    time.sleep(0.005)
                police(time.monotonic())
            stop_slots()

        def drain_inline() -> None:
            # The last rung: in-process, one cell at a time, through the
            # same settle closures (so retry backoff and quarantine hold).
            while pending:
                if self._signal_name is not None:
                    shutdown(self._signal_name)
                now = time.monotonic()
                task = next((t for t in pending
                             if eligible_at.get(t.index, 0.0) <= now), None)
                if task is None:
                    time.sleep(0.005)
                    continue
                pending.remove(task)
                attempt = next_attempt(task)
                if attempt is not None:
                    run_inline(task, attempt)

        with self._graceful_signals():
            try:
                if endpoint_list and not self._inline_mode:
                    stream(remote=True)
                if not self._inline_mode:
                    stream(remote=False)
                drain_inline()
                if self._signal_name is not None:
                    shutdown(self._signal_name)
            except _SignalRaised as exc:
                shutdown(exc.signal_name)
        return outcomes
