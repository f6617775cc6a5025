"""Tests for the standing benchmark harness (repro.sim.bench)."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.sim import bench
from repro.sim._kernel_build import kernel_available

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)


def tiny_payload(**kwargs):
    defaults = dict(
        orgs=("baseline", "cameo"),
        workloads=("milc",),
        accesses_per_context=200,
        repeats=1,
        n_jobs=1,
    )
    defaults.update(kwargs)
    return bench.run_bench(**defaults)


class TestHostFingerprint:
    def test_cpu_count_is_an_int(self):
        host = bench.host_fingerprint()
        assert isinstance(host["cpu_count"], int)
        assert host["cpu_count"] >= 0


class TestRunBench:
    def test_payload_shape(self):
        payload = tiny_payload()
        assert payload["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert payload["kind"] == "repro-bench"
        assert payload["config"]["n_jobs"] == 1
        assert len(payload["results"]) == 2
        for point in payload["results"]:
            assert point["accesses_per_second"] > 0

    def test_grid_section_records_scaling(self):
        payload = tiny_payload()
        grid = payload["grid"]
        assert grid["cells"] == 2
        assert grid["cold_wall_seconds"] > 0
        assert grid["serial_wall_seconds"] > 0
        assert grid["trace_cache_speedup"] > 0
        # Serial run: no parallel pass, the fields stay honest nulls.
        assert grid["parallel_wall_seconds"] is None
        assert grid["parallel_speedup"] is None

    def test_grid_parallel_fields_honest_with_workers(self):
        """Speedup/efficiency are real numbers only when the host can
        genuinely parallelize; otherwise null plus an explanation."""
        payload = tiny_payload(n_jobs=2)
        grid = payload["grid"]
        assert grid["n_jobs"] == 2
        assert grid["parallel_wall_seconds"] > 0
        if (os.cpu_count() or 0) >= 2:
            assert grid["parallel_speedup"] > 0
            assert 0 < grid["parallel_efficiency"] <= 2.0
            assert "parallel_note" not in grid
        else:
            assert grid["parallel_speedup"] is None
            assert grid["parallel_efficiency"] is None
            assert "core" in grid["parallel_note"]

    def test_grid_records_pool_dispatch_overhead_with_workers(
        self, monkeypatch
    ):
        """The parallel pass streams through the local pool and records
        per-cell dispatch overhead; an endpoint roster in the
        environment must not turn it into remote time."""
        monkeypatch.setenv("REPRO_ENDPOINTS", "127.0.0.1:1")
        payload = tiny_payload(n_jobs=2)
        grid = payload["grid"]
        pool = grid["pool"]
        assert pool["wall_seconds"] > 0
        stats = pool["dispatch_overhead_seconds"]
        assert stats["cells"] == grid["cells"]
        assert stats["total"] >= 0.0
        assert stats["mean"] >= 0.0
        assert stats["median"] >= 0.0
        assert len(stats["per_cell"]) == grid["cells"]
        assert pool["n_workers"] == 2
        assert pool["workers_started"] >= 2
        assert pool["respawns"] == 0
        assert sum(pool["cells_per_worker"].values()) == grid["cells"]
        assert "spawn_per_cell" not in grid
        assert "dispatch_overhead_reduction" not in grid

    def test_serial_grid_nulls_the_dispatch_sections(self):
        grid = tiny_payload(n_jobs=1)["grid"]
        assert grid["pool"] is None
        assert "spawn_per_cell" not in grid

    def test_oversubscribed_pool_nulls_the_speedup(self):
        """More workers than cores measures contention, not scaling."""
        n_jobs = (os.cpu_count() or 1) + 1
        grid = tiny_payload(n_jobs=n_jobs)["grid"]
        assert grid["parallel_wall_seconds"] > 0
        assert grid["parallel_speedup"] is None
        assert grid["parallel_efficiency"] is None
        assert "parallel_note" in grid

    def test_grid_result_store_section(self):
        section = tiny_payload()["grid"]["result_store"]
        # 2 cells: the cold pass simulates both, the warm pass serves both.
        assert section["cold_cached_cells"] == 0
        assert section["warm_cached_cells"] == 2
        assert section["store_hits"] >= 2
        assert section["cold_wall_seconds"] > 0
        assert section["warm_wall_seconds"] > 0
        assert section["warm_speedup"] > 1.0

    def test_grid_section_is_optional(self):
        assert "grid" not in tiny_payload(measure_grid=False)

    def test_timing_ignores_a_warm_result_store(self):
        """Per-point walls must time the simulator, not the memo table:
        a pre-warmed default store may not serve the timed runs."""
        from repro.sim.result_store import ResultStore, use_result_store

        with use_result_store(ResultStore()) as store:
            tiny_payload(measure_grid=False)
            tiny_payload(measure_grid=False)
            # The timed runs execute with the store disabled outright:
            # no probes, no hits, nothing stored between payloads.
            assert store.stats.hits == 0
            assert store.stats.misses == 0
            assert len(store) == 0

    def test_rejects_bad_sizing(self):
        with pytest.raises(ConfigurationError):
            tiny_payload(repeats=0)
        with pytest.raises(ConfigurationError):
            tiny_payload(accesses_per_context=0)


class TestCellBackends:
    def test_python_engine_records_python_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        payload = tiny_payload(measure_grid=False)
        assert payload["config"]["engine"] == "python"
        for entry in payload["results"]:
            assert entry["backend"] == "python"
            assert entry["fallback_reason"] is None

    @needs_kernel
    def test_vector_engine_records_vector_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vector")
        payload = tiny_payload(measure_grid=False)
        assert payload["config"]["engine"] == "vector"
        for entry in payload["results"]:
            assert entry["backend"] == "vector"
            assert entry["fallback_reason"] is None

    def test_per_cell_fallback_is_recorded_with_reason(self, monkeypatch):
        # Vector configured but the kernel is unavailable: the payload
        # must say each cell actually ran the python loop, and why —
        # a trajectory file claiming compiled throughput it never
        # measured is the failure mode this field exists to prevent.
        from repro.sim import _kernel_build

        monkeypatch.setenv("REPRO_ENGINE", "vector")
        monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
        _kernel_build.reset_for_tests()
        try:
            payload = tiny_payload(measure_grid=False)
            assert payload["config"]["engine"] == "vector"
            for entry in payload["results"]:
                assert entry["backend"] == "python"
                assert "disabled" in entry["fallback_reason"]
        finally:
            _kernel_build.reset_for_tests()


class TestRequireKernel:
    def test_lowered_cell_on_python_backend_fails(self):
        failures = bench.require_kernel_failures({"results": [
            {"organization": "cameo", "workload": "milc",
             "backend": "python", "fallback_reason": "kernel unavailable"},
        ]})
        assert len(failures) == 1
        assert "cameo/milc" in failures[0]
        assert "kernel unavailable" in failures[0]

    def test_vector_cells_pass(self):
        assert bench.require_kernel_failures({"results": [
            {"organization": org, "workload": "milc",
             "backend": "vector", "fallback_reason": None}
            for org in ("baseline", "cameo", "cache", "tlm-dynamic")
        ]}) == []

    def test_orgs_without_a_kernel_path_are_exempt(self):
        assert bench.require_kernel_failures({"results": [
            {"organization": "cameo-ideal-llt", "workload": "milc",
             "backend": "python", "fallback_reason": "not lowerable"},
        ]}) == []

    def test_migrated_pre_v5_cells_fail_the_gate(self):
        # A null (unknown) backend is not proof of engagement.
        failures = bench.require_kernel_failures({"results": [
            {"organization": "cameo", "workload": "milc", "backend": None,
             "fallback_reason": None},
        ]})
        assert len(failures) == 1
        assert "no reason recorded" in failures[0]


class TestLoadBench:
    def v1_payload(self):
        return {
            "schema_version": 1,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": "4"},
            "summary": {"cameo": {"mean_accesses_per_second": 100.0}},
        }

    def write(self, tmp_path, payload, name="BENCH_0.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_v2_round_trip(self, tmp_path):
        payload = tiny_payload(measure_grid=False)
        path = self.write(tmp_path, payload)
        assert bench.load_bench(path) == payload

    def test_v2_migrates_forward(self, tmp_path):
        """A committed v2 trajectory file still loads under v3."""
        v2 = {
            "schema_version": 2,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": 4},
            "summary": {"cameo": {"mean_accesses_per_second": 100.0}},
            "grid": {"cells": 8, "parallel_speedup": 0.86},
        }
        loaded = bench.load_bench(self.write(tmp_path, v2))
        assert loaded["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert loaded["migrated_from_schema_version"] == 2
        assert loaded["grid"]["cells"] == 8

    def test_v1_migrates_cpu_count_to_int(self, tmp_path):
        path = self.write(tmp_path, self.v1_payload())
        loaded = bench.load_bench(path)
        assert loaded["host"]["cpu_count"] == 4
        assert loaded["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert loaded["migrated_from_schema_version"] == 1

    def test_v1_garbage_cpu_count_is_dropped_not_fatal(self, tmp_path):
        payload = self.v1_payload()
        payload["host"]["cpu_count"] = "many"
        loaded = bench.load_bench(self.write(tmp_path, payload))
        assert "cpu_count" not in loaded["host"]

    def test_v4_results_gain_null_backend(self, tmp_path):
        v4 = {
            "schema_version": 4,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": 4},
            "results": [{"organization": "cameo", "workload": "milc",
                         "wall_seconds": 1.0, "accesses_per_second": 100.0,
                         "valid": True}],
            "summary": {"cameo": {"mean_accesses_per_second": 100.0,
                                  "excluded_invalid_cells": 0}},
        }
        loaded = bench.load_bench(self.write(tmp_path, v4))
        entry = loaded["results"][0]
        assert entry["backend"] is None
        assert entry["fallback_reason"] is None
        assert loaded["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert loaded["migrated_from_schema_version"] == 4

    def test_v5_grid_gains_null_dispatch_sections(self, tmp_path):
        """A committed v5 file never measured pool dispatch; migration
        marks that unmeasured (null), it does not reconstruct numbers."""
        v5 = {
            "schema_version": 5,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": 4},
            "results": [{"organization": "cameo", "workload": "milc",
                         "wall_seconds": 1.0, "accesses_per_second": 100.0,
                         "valid": True, "backend": "vector",
                         "fallback_reason": None}],
            "summary": {"cameo": {"mean_accesses_per_second": 100.0,
                                  "excluded_invalid_cells": 0}},
            "grid": {"cells": 8, "n_jobs": 2,
                     "parallel_wall_seconds": 1.5},
        }
        loaded = bench.load_bench(self.write(tmp_path, v5))
        assert loaded["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert loaded["migrated_from_schema_version"] == 5
        grid = loaded["grid"]
        assert grid["pool"] is None
        assert "spawn_per_cell" not in grid
        # Existing measurements are untouched.
        assert grid["parallel_wall_seconds"] == 1.5
        assert loaded["results"][0]["backend"] == "vector"

    def test_v6_grid_drops_the_spawn_per_cell_comparison(self, tmp_path):
        """v7 retired spawn-per-cell dispatch; a v6 file's pool section
        survives migration, its comparison against the old lifecycle
        does not."""
        pool = {"wall_seconds": 0.5, "dispatch_overhead_seconds": None}
        v6 = {
            "schema_version": 6,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": 4},
            "summary": {},
            "grid": {"cells": 8, "n_jobs": 2, "pool": pool,
                     "spawn_per_cell": {"wall_seconds": 2.0},
                     "dispatch_overhead_reduction": 8.1},
        }
        loaded = bench.load_bench(self.write(tmp_path, v6))
        assert loaded["schema_version"] == 7
        assert loaded["migrated_from_schema_version"] == 6
        assert loaded["grid"]["pool"] == pool
        assert "spawn_per_cell" not in loaded["grid"]
        assert "dispatch_overhead_reduction" not in loaded["grid"]

    def test_gridless_v5_payload_migrates_without_a_grid(self, tmp_path):
        v5 = {
            "schema_version": 5,
            "kind": "repro-bench",
            "host": {"python": "3.11.7", "cpu_count": 4},
            "summary": {},
        }
        loaded = bench.load_bench(self.write(tmp_path, v5))
        assert loaded["schema_version"] == bench.BENCH_SCHEMA_VERSION
        assert "grid" not in loaded

    def test_rejects_unknown_schema(self, tmp_path):
        payload = self.v1_payload()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            bench.load_bench(self.write(tmp_path, payload))

    def test_rejects_foreign_kind(self, tmp_path):
        path = self.write(tmp_path, {"kind": "something-else"})
        with pytest.raises(ConfigurationError):
            bench.load_bench(path)

    def test_migrated_v1_host_compares_equal_to_v2(self, tmp_path):
        """The point of the migration: cross-version host fingerprints match."""
        v2 = {"host": {"python": "3.11.7", "cpu_count": 4},
              "summary": {"cameo": {"mean_accesses_per_second": 50.0}}}
        v1 = bench.load_bench(self.write(tmp_path, self.v1_payload()))
        warning = bench.compare_to_baseline(v2, v1, threshold=0.30)
        assert warning is not None  # hosts matched, and 100 -> 50 regressed


class TestTrajectoryFiles:
    def test_next_bench_path_continues_the_sequence(self, tmp_path):
        (tmp_path / "BENCH_0.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        assert bench.next_bench_path(str(tmp_path)).endswith("BENCH_4.json")
        assert [p.endswith(("BENCH_0.json", "BENCH_3.json"))
                for p in bench.bench_files(str(tmp_path))] == [True, True]
