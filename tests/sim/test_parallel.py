"""Tests for the process-pool fan-out layer (repro.sim.parallel)."""

import os
import signal

import pytest

from repro.errors import InterruptedRunError, ParallelError
from repro.sim._kernel_build import kernel_available
from repro.sim.export import result_to_json
from repro.sim.parallel import (
    MIN_TIMEOUT_SECONDS,
    JobOutcome,
    SimJob,
    derive_seed,
    last_pool_report,
    raise_on_failures,
    resolve_n_jobs,
    run_many,
    warm_trace_cache,
)
from repro.sim.supervisor import (
    FAULTS_ENV_VAR,
    IncidentJournal,
    SupervisorPolicy,
    use_supervision,
)
from repro.workloads.spec import workload
from tests.conftest import make_config

from .golden_cases import (
    ACCESSES_PER_CONTEXT,
    NUM_CONTEXTS,
    STACKED_PAGES,
    fixture_path,
    golden_cases,
)

ACCESSES = 150

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)


def small_grid():
    config = make_config(stacked_pages=8, num_contexts=2)
    return [
        SimJob(org, wl, config, ACCESSES)
        for org in ("baseline", "cameo")
        for wl in ("astar", "milc")
    ]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("figure13", "cameo", "milc", 0) == \
            derive_seed("figure13", "cameo", "milc", 0)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed("grid", org, rep)
                 for org in ("baseline", "cameo") for rep in range(4)}
        assert len(seeds) == 8

    def test_fits_in_signed_64_bits(self):
        seed = derive_seed("anything")
        assert 0 <= seed < 2 ** 63


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_n_jobs(0) >= 1

    def test_positive_passes_through(self):
        assert resolve_n_jobs(3) == 3


class TestSimJob:
    def test_key_includes_tag(self):
        job = SimJob("cameo", "milc", seed=2, tag="K=8")
        assert job.key == "cameo/milc/s2/K=8"

    def test_workload_name_from_spec(self):
        assert SimJob("cameo", workload("milc")).workload_name == "milc"


class TestRunMany:
    def test_empty_grid(self):
        assert run_many([], n_jobs=2) == []

    def test_serial_outcomes_in_job_order(self):
        jobs = small_grid()
        outcomes = run_many(jobs, n_jobs=1)
        assert [o.job for o in outcomes] == jobs
        assert all(o.ok for o in outcomes)

    def test_parallel_identical_to_serial(self):
        jobs = small_grid()
        serial = run_many(jobs, n_jobs=1)
        parallel = run_many(jobs, n_jobs=2)
        assert [o.job for o in parallel] == jobs
        for ours, theirs in zip(serial, parallel):
            assert result_to_json(ours.result) == result_to_json(theirs.result)

    def test_serial_error_capture_does_not_kill_grid(self):
        jobs = [SimJob("no-such-org", "milc")] + small_grid()
        outcomes = run_many(jobs, n_jobs=1)
        assert not outcomes[0].ok
        assert "no-such-org" in outcomes[0].error
        assert all(o.ok for o in outcomes[1:])

    def test_parallel_error_capture_does_not_kill_grid(self):
        jobs = small_grid()
        jobs.insert(1, SimJob("no-such-org", "milc"))
        outcomes = run_many(jobs, n_jobs=2)
        assert not outcomes[1].ok
        assert "no-such-org" in outcomes[1].error
        assert all(o.ok for i, o in enumerate(outcomes) if i != 1)
        # The failed cell records which worker served the final attempt.
        assert outcomes[1].worker_id

    def test_worker_ids_reflect_dispatch_mode(self):
        jobs = small_grid()
        pool = run_many(jobs, n_jobs=2, dispatch="pool")
        assert all(o.worker_id in ("w0", "w1") for o in pool)
        report = last_pool_report()
        assert report is not None
        assert report.n_workers == 2
        assert report.respawns == 0
        assert sum(report.cells_per_worker.values()) == len(jobs)
        serial = run_many(jobs, n_jobs=1)
        assert all(o.worker_id == "serial" for o in serial)
        assert last_pool_report() is None

    def test_dispatch_overhead_measured_under_the_pool(self):
        outcomes = run_many(small_grid(), n_jobs=2, dispatch="pool")
        for o in outcomes:
            assert o.sim_seconds is not None
            assert o.dispatch_overhead_seconds is not None
            assert o.dispatch_overhead_seconds >= 0.0

    def test_rejects_unknown_dispatch_mode(self):
        from repro.errors import ConfigurationError

        for mode in ("threads", "per-cell"):
            with pytest.raises(ConfigurationError, match="pool, remote"):
                run_many(small_grid(), n_jobs=2, dispatch=mode)

    def test_timeout_terminates_hung_worker(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        jobs = [
            SimJob("cameo", "milc", config, 2_000_000),
            SimJob("baseline", "astar", config, ACCESSES),
        ]
        outcomes = run_many(jobs, n_jobs=2, timeout_seconds=0.2)
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error
        assert outcomes[1].ok

    def test_rejects_absurd_timeout(self):
        with pytest.raises(ParallelError):
            run_many(small_grid(), n_jobs=2, timeout_seconds=0.0)

    def test_sub_floor_timeout_message_names_the_floor(self):
        """Values in (0, MIN_TIMEOUT_SECONDS) are positive — the error
        must say what is actually wrong, not 'must be positive'."""
        with pytest.raises(ParallelError) as excinfo:
            run_many(small_grid(), n_jobs=2,
                     timeout_seconds=MIN_TIMEOUT_SECONDS / 2)
        message = str(excinfo.value)
        assert "must be positive" not in message
        assert "MIN_TIMEOUT_SECONDS" in message
        assert str(MIN_TIMEOUT_SECONDS) in message

    def test_hang_timeout_spares_slow_but_advancing_workers(self):
        """Heartbeats distinguish slow from hung: a hang timeout far
        below a job's total runtime must not kill it while it reports
        progress."""
        config = make_config(stacked_pages=8, num_contexts=2)
        jobs = [SimJob("baseline", "astar", config, 30_000)]
        with use_supervision(SupervisorPolicy(
            max_attempts=1, hang_timeout_seconds=2.0,
            heartbeat_interval_accesses=500,
        )):
            outcomes = run_many(jobs, n_jobs=2)
        assert outcomes[0].ok

    def test_retry_after_injected_worker_kill(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=1.0,max_attempt=1,seed=3")
        journal = IncidentJournal(str(tmp_path / "incidents.jsonl"))
        jobs = small_grid()
        serial = run_many(jobs, n_jobs=1)  # in-process: no injection
        with use_supervision(SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0.0,
        )):
            retried = run_many(jobs, n_jobs=2, journal=journal)
        assert all(o.ok for o in retried)
        assert all(o.attempts == 2 for o in retried)
        assert journal.counts.get("crash") == len(jobs)
        for ours, theirs in zip(serial, retried):
            assert result_to_json(ours.result) == result_to_json(theirs.result)

    def test_sigint_mid_serial_grid_keeps_settled_prefix(self):
        jobs = small_grid()
        flushed = []

        def flush(index, outcome):
            flushed.append((index, outcome))
            if len(flushed) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            run_many(jobs, n_jobs=1, on_outcome=flush)
        exc = excinfo.value
        assert exc.signal_name == "SIGINT"
        assert len(flushed) == 2
        settled = [o for o in exc.outcomes if o is not None]
        assert len(settled) == 2
        assert all(o.ok for o in settled)
        assert exc.pending_keys == [jobs[2].key, jobs[3].key]

    def test_on_outcome_fires_for_every_job_in_both_modes(self):
        jobs = small_grid()
        for n_jobs in (1, 2):
            seen = []
            run_many(jobs, n_jobs=n_jobs,
                     on_outcome=lambda i, o: seen.append(i))
            assert sorted(seen) == list(range(len(jobs)))


class TestRaiseOnFailures:
    def test_silent_when_all_ok(self):
        job = SimJob("baseline", "astar")
        raise_on_failures([JobOutcome(job, result=object())], "grid")

    def test_lists_every_failed_cell(self):
        ok = JobOutcome(SimJob("baseline", "astar"), result=object())
        bad = JobOutcome(SimJob("cameo", "milc", tag="x"), error="boom")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([ok, bad], "grid")
        assert "cameo/milc/s0/x" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_reports_overflow_count_beyond_eight(self):
        failures = [
            JobOutcome(SimJob("cameo", "milc", seed=i), error=f"err{i}")
            for i in range(11)
        ]
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures(failures, "grid")
        message = str(excinfo.value)
        assert "11/11 grid jobs failed" in message
        assert "and 3 more" in message
        # The ninth failure is summarized, not spelled out.
        assert "err8" not in message

    def test_no_overflow_note_at_exactly_eight(self):
        failures = [
            JobOutcome(SimJob("cameo", "milc", seed=i), error=f"err{i}")
            for i in range(8)
        ]
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures(failures, "grid")
        assert "more" not in str(excinfo.value)

    def test_failure_names_the_worker(self):
        bad = JobOutcome(SimJob("cameo", "milc"), error="boom",
                         worker_id="w1")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([bad], "grid")
        assert "[worker w1]" in str(excinfo.value)

    def test_worker_tag_is_not_duplicated(self):
        bad = JobOutcome(SimJob("cameo", "milc"),
                         error="boom [worker w1]", worker_id="w1")
        with pytest.raises(ParallelError) as excinfo:
            raise_on_failures([bad], "grid")
        assert str(excinfo.value).count("[worker w1]") == 1


class TestWarmTraceCache:
    def test_ensure_disk_persists_traces_for_any_start_method(
        self, tmp_path, monkeypatch
    ):
        """With ``ensure_disk`` the warmed traces land in the
        content-addressed disk layer, so spawn/forkserver workers — which
        inherit no memory — can load instead of regenerating."""
        from repro.workloads.trace_cache import (
            clear_default_trace_cache,
            default_trace_cache,
        )

        cache_dir = str(tmp_path / "traces")
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", cache_dir)
        clear_default_trace_cache()
        try:
            warmed = warm_trace_cache(small_grid(), ensure_disk=True)
            assert warmed > 0
            assert default_trace_cache().disk_dir == cache_dir
            on_disk = [
                name
                for _, _, names in os.walk(cache_dir)
                for name in names
            ]
            assert on_disk, "no trace blobs were persisted to disk"
        finally:
            clear_default_trace_cache()

    def test_plain_warm_stays_in_memory(self, tmp_path, monkeypatch):
        from repro.workloads.trace_cache import (
            clear_default_trace_cache,
            default_trace_cache,
        )

        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "t"))
        clear_default_trace_cache()
        try:
            warmed = warm_trace_cache(small_grid())
            assert warmed > 0
            assert default_trace_cache().disk_dir is None
            assert not os.path.exists(str(tmp_path / "t"))
        finally:
            clear_default_trace_cache()


class TestMatrixParity:
    def test_run_matrix_identical_across_worker_counts(self):
        from repro.experiments.common import run_matrix

        config = make_config(stacked_pages=8, num_contexts=2)
        kwargs = dict(
            org_names=("cameo", "tlm-oracle"),
            workloads=[workload("astar")],
            config=config,
            accesses_per_context=ACCESSES,
        )
        serial = run_matrix(n_jobs=1, **kwargs)
        parallel = run_matrix(n_jobs=2, **kwargs)
        for wl in serial.results:
            for org in serial.results[wl]:
                assert result_to_json(serial.results[wl][org]) == \
                    result_to_json(parallel.results[wl][org])


class TestGoldenFixturesUnderFanOut:
    @pytest.mark.parametrize("engine", [
        "python", pytest.param("vector", marks=needs_kernel),
    ])
    @pytest.mark.parametrize("dispatch", ["pool"])
    def test_every_golden_fixture_byte_identical_with_two_workers(
        self, dispatch, engine, monkeypatch
    ):
        """The whole corpus, fanned out: not one byte may move — through
        the persistent pool, on either engine backend."""
        monkeypatch.setenv("REPRO_ENGINE", engine)
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        outcomes = run_many(jobs, n_jobs=2, dispatch=dispatch)
        raise_on_failures(outcomes, f"golden ({dispatch}, {engine})")
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under n_jobs=2 ({dispatch}, {engine})"

    def test_pool_interrupt_then_resume_byte_identical(self):
        """SIGINT mid-pool settles a prefix; rerunning just the pending
        cells must complete the corpus byte-for-byte."""
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:8]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        settled = []

        def flush(index, outcome):
            settled.append((index, outcome))
            if len(settled) == 2:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(InterruptedRunError) as excinfo:
            run_many(jobs, n_jobs=2, dispatch="pool", on_outcome=flush)
        exc = excinfo.value
        results = {}
        for index, (job, outcome) in enumerate(zip(jobs, exc.outcomes)):
            if outcome is not None:
                assert outcome.ok
                results[index] = outcome.result
        remainder = [
            (index, job)
            for index, (job, outcome) in enumerate(zip(jobs, exc.outcomes))
            if outcome is None
        ]
        assert remainder, "the interrupt settled the whole grid"
        assert exc.pending_keys == [job.key for _, job in remainder]
        resumed = run_many([job for _, job in remainder], n_jobs=2,
                           dispatch="pool")
        raise_on_failures(resumed, "golden resume")
        for (index, _), outcome in zip(remainder, resumed):
            results[index] = outcome.result
        for index, (org, wl) in enumerate(cases):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(results[index]) + "\n" == expected, \
                f"{org} on {wl} drifted across interrupt + resume"

    def test_every_golden_fixture_byte_identical_under_injected_kills(
        self, monkeypatch
    ):
        """Half the workers crash on their first attempt; the retried
        grid must still match every fixture byte for byte."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash=0.5,max_attempt=1,seed=1")
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        with use_supervision(SupervisorPolicy(
            max_attempts=2, backoff_base_seconds=0.0,
        )):
            outcomes = run_many(jobs, n_jobs=2)
        raise_on_failures(outcomes, "golden under injected kills")
        retried = sum(1 for o in outcomes if o.attempts > 1)
        assert retried > 0, "the chaos knob injected no crashes at all"
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under injected worker kills"

    def test_golden_subset_byte_identical_under_forced_serial_fallback(
        self, monkeypatch
    ):
        """Every spawn fails: the pool degrades to in-process execution
        and the results must not move a byte."""
        monkeypatch.setenv(FAULTS_ENV_VAR, "spawn=1.0,seed=0")
        config = make_config(
            stacked_pages=STACKED_PAGES, num_contexts=NUM_CONTEXTS
        )
        cases = golden_cases()[:6]
        jobs = [
            SimJob(org, wl, config, ACCESSES_PER_CONTEXT, use_l3=True)
            for org, wl in cases
        ]
        messages = []
        outcomes = run_many(jobs, n_jobs=2, log=messages.append)
        raise_on_failures(outcomes, "golden under serial fallback")
        assert any("falling back to in-process serial" in m for m in messages)
        for (org, wl), outcome in zip(cases, outcomes):
            with open(fixture_path(org, wl)) as fp:
                expected = fp.read()
            assert result_to_json(outcome.result) + "\n" == expected, \
                f"{org} on {wl} drifted under the serial fallback"
