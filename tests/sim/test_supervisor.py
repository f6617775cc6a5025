"""Tests for the shared supervision core (repro.sim.supervisor)."""

import functools
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    InterruptedRunError,
    ReproError,
    SimulationError,
)
from repro.sim.supervisor import (
    FAULTS_ENV_VAR,
    INJECTED_CRASH_EXIT_CODE,
    IncidentJournal,
    InjectedFaults,
    SupervisedTask,
    Supervisor,
    SupervisorPolicy,
    current_supervision,
    escalate_kill,
    is_retryable_exception,
    journal_from_env,
    _rss_bytes,
    parse_injected_faults,
    use_supervision,
)

# -- Picklable worker targets ----------------------------------------------------


def _double(payload):
    return payload * 2


def _raise_oserror(payload):
    raise OSError("flaky io")


def _raise_config_error(payload):
    raise ConfigurationError("bad input")


def _raise_type_error(payload):
    raise TypeError("a bug")


def _succeed_second_time(path):
    """Fails with a retryable error once, then succeeds (cross-process)."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        raise OSError("transient: first attempt always fails")
    return "recovered"


def _crash_first_time(path):
    """Hard-kills its worker process once, then succeeds (cross-process)."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        os._exit(9)
    return "recovered"


def _hang_first_time(path):
    """Wedges its worker (no heartbeats) once, then succeeds."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("attempt 1")
        while True:
            time.sleep(0.05)
    return "woke"


def _sleep_then_double(payload):
    """Stays in flight long enough for the parent to police it."""
    time.sleep(1.0)
    return payload * 2


def _setup_hangs_once(path):
    """A worker_setup hook that wedges the first worker to run it."""
    if not os.path.exists(path):
        with open(path, "w") as fp:
            fp.write("wedged")
        while True:
            time.sleep(0.05)


def _ignore_sigterm_forever(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(0.1)


def _sleep_forever(conn):
    conn.send("ready")
    while True:
        time.sleep(0.1)


def tasks_for(target, payloads):
    return [
        SupervisedTask(index=i, key=f"t{i}", target=target, payload=p)
        for i, p in enumerate(payloads)
    ]


FAST = dict(backoff_base_seconds=0.0, grace_seconds=0.5, join_timeout_seconds=5.0)


class TestPolicy:
    def test_rejects_non_positive_attempts(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)

    def test_rejects_non_positive_timeouts(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(timeout_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(hang_timeout_seconds=-1.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = SupervisorPolicy(
            max_attempts=10, backoff_base_seconds=1.0, backoff_factor=2.0,
            backoff_max_seconds=4.0, backoff_jitter=0.0,
        )
        assert policy.backoff_delay("k", 1) == 1.0
        assert policy.backoff_delay("k", 2) == 2.0
        assert policy.backoff_delay("k", 3) == 4.0
        assert policy.backoff_delay("k", 4) == 4.0  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = SupervisorPolicy(
            max_attempts=3, backoff_base_seconds=1.0, backoff_jitter=0.25,
        )
        first = policy.backoff_delay("cameo/milc/s0", 1)
        assert first == policy.backoff_delay("cameo/milc/s0", 1)
        assert 1.0 <= first <= 1.25
        # Different keys decorrelate.
        assert first != policy.backoff_delay("baseline/astar/s0", 1)


class TestRetryClassifier:
    def test_repro_errors_fail_fast(self):
        assert not is_retryable_exception(ReproError("x"))
        assert not is_retryable_exception(ConfigurationError("x"))
        assert not is_retryable_exception(SimulationError("x"))

    def test_environmental_errors_retry(self):
        assert is_retryable_exception(OSError("io"))
        assert is_retryable_exception(MemoryError())
        assert is_retryable_exception(TimeoutError())
        assert is_retryable_exception(EOFError())
        assert is_retryable_exception(KeyboardInterrupt())
        assert is_retryable_exception(SystemExit(1))

    def test_unknown_exceptions_are_deterministic(self):
        assert not is_retryable_exception(TypeError("bug"))
        assert not is_retryable_exception(ValueError("bug"))


class TestInjectedFaultsParsing:
    def test_unset_or_empty_is_none(self):
        assert parse_injected_faults(None) is None
        assert parse_injected_faults("  ") is None

    def test_full_spec(self):
        faults = parse_injected_faults("crash=0.5,hang=0.25,spawn=0,"
                                       "max_attempt=2,seed=7")
        assert faults == InjectedFaults(
            crash_rate=0.5, hang_rate=0.25, spawn_rate=0.0,
            max_attempt=2, seed=7,
        )
        assert faults.active

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash=lots")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("explode=0.5")
        with pytest.raises(ConfigurationError):
            parse_injected_faults("crash=1.5")


class TestIncidentJournal:
    def test_appends_flushed_jsonl(self, tmp_path):
        path = str(tmp_path / "incidents.jsonl")
        journal = IncidentJournal(path)
        journal.record("retry", key="cameo/milc/s0", attempt=1, detail="crash")
        journal.record("give_up", key="cameo/milc/s0", attempt=2, detail="crash")
        lines = [json.loads(line) for line in open(path)]
        assert [line["event"] for line in lines] == ["retry", "give_up"]
        assert lines[0]["key"] == "cameo/milc/s0"
        assert journal.counts == {"retry": 1, "give_up": 1}
        assert journal.events_written == 2

    def test_journal_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_INCIDENT_JOURNAL", raising=False)
        assert journal_from_env() is None
        monkeypatch.setenv("REPRO_INCIDENT_JOURNAL", str(tmp_path / "j.jsonl"))
        assert journal_from_env().path == str(tmp_path / "j.jsonl")


class TestJournalRotation:
    def test_rotation_keeps_both_files_readable(self, tmp_path):
        """Crossing the cap renames to <path>.1 and starts the live
        file with a journal_rotated event; every line in both files is
        valid JSON at all times."""
        path = str(tmp_path / "incidents.jsonl")
        # Sized for exactly one rotation across 20 ~110-byte lines;
        # a second rotation would (by design) replace the first .1.
        journal = IncidentJournal(path, max_bytes=1500)
        for i in range(20):
            journal.record("retry", key=f"cell{i}", attempt=1,
                           detail="injected")
        assert journal.rotations == 1
        assert os.path.exists(path + ".1")
        live = [json.loads(line) for line in open(path)]
        rotated = [json.loads(line) for line in open(path + ".1")]
        assert live and rotated
        # The fresh file leads with the rotation marker so a tail
        # reader knows where the history went.
        assert live[0]["event"] == "journal_rotated"
        assert ".1" in live[0]["detail"]
        # No event was lost across the rotation.
        events = [e for e in live + rotated if e["event"] == "retry"]
        assert len(events) == 20
        assert journal.counts["retry"] == 20

    def test_zero_cap_disables_rotation(self, tmp_path):
        path = str(tmp_path / "incidents.jsonl")
        journal = IncidentJournal(path, max_bytes=0)
        for i in range(50):
            journal.record("retry", key=f"cell{i}")
        assert journal.rotations == 0
        assert not os.path.exists(path + ".1")

    def test_cap_env_default_and_validation(self, monkeypatch):
        from repro.errors import EnvKnobError
        from repro.sim.supervisor import (
            DEFAULT_JOURNAL_MAX_BYTES,
            JOURNAL_MAX_BYTES_ENV_VAR,
            journal_max_bytes_from_env,
        )

        monkeypatch.delenv(JOURNAL_MAX_BYTES_ENV_VAR, raising=False)
        assert journal_max_bytes_from_env() == DEFAULT_JOURNAL_MAX_BYTES
        monkeypatch.setenv(JOURNAL_MAX_BYTES_ENV_VAR, "1024")
        assert journal_max_bytes_from_env() == 1024
        monkeypatch.setenv(JOURNAL_MAX_BYTES_ENV_VAR, "a lot")
        with pytest.raises(EnvKnobError, match="accepted values"):
            journal_max_bytes_from_env()
        monkeypatch.setenv(JOURNAL_MAX_BYTES_ENV_VAR, "-1")
        with pytest.raises(EnvKnobError, match="accepted values"):
            journal_max_bytes_from_env()


class TestEnvKnobValidation:
    def test_unknown_dispatch_mode_is_a_named_error(self, monkeypatch):
        from repro.errors import EnvKnobError, ReproError
        from repro.sim.supervisor import (
            DISPATCH_ENV_VAR,
            DISPATCH_MODES,
            default_dispatch_mode,
        )

        assert DISPATCH_MODES == ("pool", "remote")
        # A typo, and the retired spawn-per-cell mode.
        for bad in ("pol", "per-cell"):
            monkeypatch.setenv(DISPATCH_ENV_VAR, bad)
            # The message lists every accepted value, and the type maps
            # to CLI exit code 2 through the ReproError hierarchy.
            with pytest.raises(EnvKnobError,
                               match="accepted values: pool, remote$"):
                default_dispatch_mode()
        assert issubclass(EnvKnobError, ConfigurationError)
        assert issubclass(EnvKnobError, ReproError)

    def test_unknown_result_cache_mode_lists_accepted_values(
        self, monkeypatch
    ):
        from repro.errors import EnvKnobError
        from repro.sim.result_store import (
            clear_default_result_store,
            default_result_store,
        )

        monkeypatch.setenv("REPRO_RESULT_CACHE", "sideways")
        clear_default_result_store()
        try:
            with pytest.raises(EnvKnobError) as excinfo:
                default_result_store()
            for mode in ("memory", "disk", "shared", "off"):
                assert mode in str(excinfo.value)
        finally:
            monkeypatch.undo()
            clear_default_result_store()


class TestEscalateKill:
    def test_terminates_cooperative_worker(self):
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_sleep_forever, args=(child,), daemon=True)
        process.start()
        assert parent.recv() == "ready"
        assert escalate_kill(process, grace_seconds=5.0) == "terminated"
        assert not process.is_alive()

    def test_kills_sigterm_ignoring_worker_without_blocking(self):
        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_ignore_sigterm_forever, args=(child,), daemon=True
        )
        process.start()
        assert parent.recv() == "ready"  # SIG_IGN is installed
        start = time.monotonic()
        how = escalate_kill(process, grace_seconds=0.3, join_timeout_seconds=5.0)
        assert how == "killed"
        assert not process.is_alive()
        assert time.monotonic() - start < 10.0

    def test_already_dead(self):
        ctx = multiprocessing.get_context()
        process = ctx.Process(target=_double, args=(1,), daemon=True)
        process.start()
        process.join()
        assert escalate_kill(process) == "already-dead"


class TestSupervisorBasics:
    def test_runs_tasks_and_orders_outcomes(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        outcomes = supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=2)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_deterministic_failure_fails_fast(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=3, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            tasks_for(_raise_config_error, [None]), n_workers=2
        )
        assert not outcomes[0].ok
        assert "bad input" in outcomes[0].error
        assert outcomes[0].attempts == 1  # no retry burned on a ReproError
        assert "retry" not in journal.counts

    def test_transient_failure_retries_to_success(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "attempt-marker")
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            [SupervisedTask(0, "flaky", _succeed_second_time, marker)],
            n_workers=2,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2
        assert journal.counts.get("retry") == 1

    def test_exhausted_retries_give_up_and_quarantine_duplicates(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        tasks = [
            SupervisedTask(0, "poison", _raise_oserror, None),
            SupervisedTask(1, "poison", _raise_oserror, None),
        ]
        outcomes = supervisor.run(tasks, n_workers=1)
        assert not outcomes[0].ok and not outcomes[1].ok
        assert outcomes[0].attempts == 2
        # Once the key was quarantined, its duplicate's next launch was
        # skipped (quarantine_hit) instead of executing again.
        assert "quarantined" in outcomes[1].error
        assert journal.counts.get("quarantine") == 1
        assert journal.counts.get("quarantine_hit") == 1

    def test_retry_budget_bounds_total_retries(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=5, retry_budget=1, **FAST),
            journal=journal,
        )
        tasks = [
            SupervisedTask(0, "a", _raise_oserror, None),
            SupervisedTask(1, "b", _raise_oserror, None),
        ]
        outcomes = supervisor.run(tasks, n_workers=1)
        assert all(not o.ok for o in outcomes)
        assert sum(o.attempts for o in outcomes) == 3  # 2 first tries + 1 retry
        assert journal.counts.get("retry_budget_exhausted") == 1


class TestPersistentPool:
    def test_pool_streams_cells_through_long_lived_workers(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        outcomes = supervisor.run(
            tasks_for(_double, list(range(8))), n_workers=2, dispatch="pool"
        )
        assert [o.value for o in outcomes] == [2 * i for i in range(8)]
        report = supervisor.last_pool_report
        assert report is not None
        assert report.n_workers == 2
        assert report.workers_started == 2
        assert report.respawns == 0
        assert sum(report.cells_per_worker.values()) == 8
        assert set(report.cells_per_worker) <= {"w0", "w1"}
        assert journal.counts.get("pool_start") == 1
        # Every cell was served by a persistent pool worker.
        assert all(o.worker_id in ("w0", "w1") for o in outcomes)

    def test_crash_mid_queue_respawns_worker_and_reenqueues(self, tmp_path):
        """A worker dying mid-cell costs one respawn: the crashed cell
        retries, cells prefetched into that worker's pipe are re-enqueued
        without burning an attempt, and the rest of the queue drains."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "crash-marker")
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        tasks = [SupervisedTask(0, "crashy", _crash_first_time, marker)]
        tasks += [
            SupervisedTask(i, f"t{i}", _double, i) for i in range(1, 6)
        ]
        outcomes = supervisor.run(tasks, n_workers=1, dispatch="pool")
        assert outcomes[0].ok and outcomes[0].value == "recovered"
        assert outcomes[0].attempts == 2
        # Trailing cells were never charged for riding in a dead pipe.
        assert all(o.ok and o.attempts == 1 for o in outcomes[1:])
        assert journal.counts.get("crash") == 1
        assert journal.counts.get("worker_respawn", 0) >= 1
        report = supervisor.last_pool_report
        assert report.respawns >= 1
        assert report.workers_started >= 2
        # The crash incident names the worker that died.
        crash_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "crash"
        ]
        assert crash_lines[0]["worker"] == "w0"

    def test_hang_kills_one_worker_not_the_pool(self, tmp_path):
        """Idle-timeout enforcement is per worker: the wedged worker is
        killed and respawned while its sibling keeps serving cells."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        marker = str(tmp_path / "hang-marker")
        supervisor = Supervisor(
            SupervisorPolicy(
                max_attempts=2, hang_timeout_seconds=0.3,
                backoff_base_seconds=0.0, grace_seconds=0.3,
            ),
            journal=journal,
        )
        tasks = [SupervisedTask(0, "wedged", _hang_first_time, marker)]
        tasks += [
            SupervisedTask(i, f"t{i}", _double, i) for i in range(1, 8)
        ]
        outcomes = supervisor.run(tasks, n_workers=2, dispatch="pool")
        assert outcomes[0].ok and outcomes[0].value == "woke"
        assert outcomes[0].attempts == 2
        assert all(o.ok and o.attempts == 1 for o in outcomes[1:])
        assert journal.counts.get("hang") == 1
        assert journal.counts.get("worker_respawn", 0) >= 1
        report = supervisor.last_pool_report
        assert report.respawns >= 1
        # The sibling survived: both workers served cells.
        assert len(report.cells_per_worker) >= 2

    @pytest.mark.skipif(_rss_bytes(os.getpid()) is None,
                        reason="no /proc RSS on this platform")
    def test_worker_over_the_rss_ceiling_is_killed(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_rss_bytes=1, **FAST), journal=journal
        )
        outcomes = supervisor.run(
            tasks_for(_sleep_then_double, [1]), n_workers=1, dispatch="pool"
        )
        assert not outcomes[0].ok
        assert "ceiling" in outcomes[0].error
        assert journal.counts.get("rss_kill") == 1
        rss_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "rss_kill"
        ]
        assert rss_lines[0]["worker"] == "w0"
        assert rss_lines[0]["key"] == "t0"

    def test_worker_that_never_becomes_ready_is_replaced(self, tmp_path):
        """A wedged worker_setup costs one worker, never the cell: the
        parent journals a hang, respawns, and the cell settles."""
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(
                hang_timeout_seconds=0.3, backoff_base_seconds=0.0,
                grace_seconds=0.3,
            ),
            journal=journal,
            worker_setup=functools.partial(
                _setup_hangs_once, str(tmp_path / "setup-marker")
            ),
        )
        outcomes = supervisor.run(
            tasks_for(_double, [4]), n_workers=1, dispatch="pool"
        )
        assert outcomes[0].ok and outcomes[0].value == 8
        assert outcomes[0].attempts == 1
        hang_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "hang"
        ]
        assert len(hang_lines) == 1
        assert "never became ready" in hang_lines[0]["detail"]
        assert hang_lines[0]["key"] == ""
        assert supervisor.last_pool_report.respawns == 1

    def test_pool_start_failure_falls_back_to_serial(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        messages = []
        supervisor = Supervisor(
            SupervisorPolicy(spawn_failure_limit=2, **FAST),
            log=messages.append, journal=journal,
        )
        outcomes = supervisor.run(
            tasks_for(_double, [1, 2, 3]), n_workers=2, dispatch="pool"
        )
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert any(o.inline for o in outcomes)
        assert journal.counts.get("serial_fallback") == 1
        assert any("falling back to in-process serial" in m for m in messages)

    def test_pool_interrupt_settles_incrementally(self, tmp_path):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, list(range(30)))

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 3:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=2, on_settle=on_settle,
                           dispatch="pool")
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        done = [o for o in exc.outcomes if o is not None]
        assert len(done) == len(settled)
        assert 0 < len(done) < len(tasks)
        assert len(exc.pending_keys) == len(tasks) - len(done)

    def test_rejects_unknown_dispatch_mode(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        with pytest.raises(ConfigurationError):
            supervisor.run(tasks_for(_double, [1]), n_workers=2,
                           dispatch="threads")


class TestInjectedWorkerFaults:
    def test_injected_crash_retries_deterministically(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=0")
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(max_attempts=2, **FAST), journal=journal
        )
        outcomes = supervisor.run(tasks_for(_double, [5, 6]), n_workers=2)
        assert [o.value for o in outcomes] == [10, 12]
        assert all(o.attempts == 2 for o in outcomes)
        assert journal.counts.get("crash") == 2
        crash_lines = [
            json.loads(line) for line in open(journal.path)
            if json.loads(line)["event"] == "crash"
        ]
        assert all(
            str(INJECTED_CRASH_EXIT_CODE) in line["detail"]
            for line in crash_lines
        )

    def test_injected_hang_is_killed_by_idle_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang=1.0,max_attempt=1,seed=0")
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        supervisor = Supervisor(
            SupervisorPolicy(
                max_attempts=2, hang_timeout_seconds=0.3,
                backoff_base_seconds=0.0, grace_seconds=0.3,
            ),
            journal=journal,
        )
        outcomes = supervisor.run(tasks_for(_double, [7]), n_workers=2)
        assert outcomes[0].ok and outcomes[0].value == 14
        assert outcomes[0].attempts == 2
        assert journal.counts.get("hang") == 1

    def test_injected_spawn_failures_fall_back_to_serial(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        messages = []
        supervisor = Supervisor(
            SupervisorPolicy(spawn_failure_limit=2, **FAST),
            log=messages.append, journal=journal,
        )
        outcomes = supervisor.run(tasks_for(_double, [1, 2, 3]), n_workers=2)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok for o in outcomes)
        assert any(o.inline for o in outcomes)
        assert journal.counts.get("serial_fallback") == 1
        assert journal.counts.get("spawn_failure", 0) >= 2
        assert any("falling back to in-process serial" in m for m in messages)


class TestGracefulInterrupt:
    def test_sigint_mid_pool_raises_interrupted_with_settled_outcomes(
        self, tmp_path
    ):
        journal = IncidentJournal(str(tmp_path / "j.jsonl"))
        settled = []
        supervisor = Supervisor(SupervisorPolicy(**FAST), journal=journal)
        tasks = tasks_for(_double, list(range(30)))

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=1, on_settle=on_settle)
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        done = [o for o in exc.outcomes if o is not None]
        assert len(done) == len(settled)
        assert 0 < len(done) < len(tasks)
        assert len(exc.pending_keys) == len(tasks) - len(done)
        assert journal.counts.get("interrupt") == 1

    def test_sigterm_reports_its_own_name(self):
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        tasks = tasks_for(_double, list(range(30)))
        settled = []

        def on_settle(outcome):
            settled.append(outcome)
            if len(settled) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(InterruptedRunError) as excinfo:
            supervisor.run(tasks, n_workers=1, on_settle=on_settle)
        assert excinfo.value.signal_name == "SIGTERM"

    def test_signal_handlers_are_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        supervisor = Supervisor(SupervisorPolicy(**FAST))
        supervisor.run(tasks_for(_double, [1]), n_workers=2)
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term


class TestAmbientPolicy:
    def test_nesting_and_clearing(self):
        assert current_supervision() is None
        outer = SupervisorPolicy(max_attempts=3)
        inner = SupervisorPolicy(max_attempts=5)
        with use_supervision(outer):
            assert current_supervision() is outer
            with use_supervision(inner):
                assert current_supervision() is inner
            with use_supervision(None):
                assert current_supervision() is None
            assert current_supervision() is outer
        assert current_supervision() is None
