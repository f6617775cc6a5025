"""Tests for ``repro campaign``: a one-stage plan over the on-disk store.

The campaign grid (orgs x workloads x seeds) is validated and executed
as a plan stage; its checkpoint is the result store, so resuming is
running the same command again.
"""

import json
import os
import re

import pytest

from repro.cli import main
from repro.faults import FaultConfig
from repro.sim.export import result_to_json
from repro.sim.parallel import SimJob
from repro.sim.plan import run_jobs_cached
from repro.sim.result_store import (
    LocalDirBackend,
    ResultStore,
    code_digest,
    job_fingerprint,
    use_result_store,
)

pytestmark = pytest.mark.usefixtures("result_store_dir")

#: Small enough that one point simulates in milliseconds.
ARGV = [
    "campaign", "--orgs", "baseline,cameo", "--workloads", "astar",
    "--accesses", "40", "--scale-shift", "14",
]
POINTS = ["baseline/astar/s0", "cameo/astar/s0"]


def campaign(capsys, *extra, argv=ARGV):
    """Run ``repro campaign``; returns (exit code, stdout)."""
    code = main(list(argv) + list(extra))
    return code, capsys.readouterr().out


def simulated(out):
    return int(re.search(r"(\d+) cell\(s\) simulated", out).group(1))


def entries(store_dir):
    return sorted(
        os.path.join(store_dir, name)
        for name in os.listdir(store_dir)
        if name.endswith(".result.json")
    )


def fail_org(monkeypatch, org):
    """Make every point of ``org`` raise inside the (serial) worker body."""
    from repro.sim import parallel

    real_run_job = parallel.run_job

    def run_job(job):
        if job.organization == org:
            raise RuntimeError("injected point failure")
        return real_run_job(job)

    monkeypatch.setattr(parallel, "run_job", run_job)


class TestCampaignPoint:
    def test_key_is_stable_and_readable(self):
        assert SimJob("cameo", "milc", seed=3).key == "cameo/milc/s3"


class TestCampaignSpec:
    def test_points_cover_the_grid_in_order(self, capsys):
        code, out = campaign(capsys, "--seeds", "0,1")
        assert code == 0
        keys = re.findall(r"^(\S+/astar/s\d)\s+ok", out, re.MULTILINE)
        assert keys == [
            "baseline/astar/s0", "baseline/astar/s1",
            "cameo/astar/s0", "cameo/astar/s1",
        ]
        assert "4/4 points complete" in out

    def test_empty_grid_rejected(self):
        for flag in ("--orgs", "--workloads", "--seeds"):
            with pytest.raises(SystemExit) as excinfo:
                main(["campaign", flag, ","])
            assert excinfo.value.code == 2

    def test_bad_run_policy_rejected(self, capsys):
        assert main(ARGV + ["--timeout", "0"]) == 2
        assert "timeout_seconds must be positive" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(ARGV + ["--attempts", "0"])
        assert excinfo.value.code == 2

    def test_grid_dict_ignores_run_policy(self, capsys):
        # Changing timeouts/retries between invocations must not
        # resimulate finished points.
        assert campaign(capsys, "--timeout", "10", "--attempts", "1")[0] == 0
        code, out = campaign(capsys, "--timeout", "99", "--attempts", "5")
        assert code == 0
        assert simulated(out) == 0

    def test_grid_dict_tracks_simulation_inputs(self, capsys):
        assert campaign(capsys)[0] == 0
        code, out = campaign(capsys, "--seeds", "1")
        assert code == 0
        assert simulated(out) == 2
        plain = SimJob("cameo", "astar", accesses_per_context=40)
        faulty = SimJob(
            "cameo", "astar", accesses_per_context=40,
            fault_config=FaultConfig(transient_flip_rate=0.1),
        )
        assert job_fingerprint(plain) != job_fingerprint(faulty)


class TestCheckpointLoading:
    """The checkpoint is the store: entries that fail validation are
    simulated again instead of trusted."""

    def test_missing_file_is_a_fresh_campaign(self, capsys, result_store_dir):
        assert not os.path.exists(result_store_dir)
        code, out = campaign(capsys)
        assert code == 0
        assert simulated(out) == 2
        assert len(entries(result_store_dir)) == 2

    def test_different_grid_rejected(self, capsys):
        """Another grid's points are never served for this grid's."""
        assert campaign(capsys)[0] == 0
        code, out = campaign(
            capsys, argv=ARGV[:2] + ["cache,cameo"] + ARGV[3:]
        )
        assert code == 0
        assert "1 cell(s) simulated, 1 served" in out

    def test_missing_keys_rejected_not_keyerror(
        self, capsys, result_store_dir
    ):
        assert campaign(capsys)[0] == 0
        first, _ = entries(result_store_dir)
        with open(first, "w") as fp:
            json.dump({"kind": "repro-run-result"}, fp)
        code, out = campaign(capsys)
        assert code == 0
        assert simulated(out) == 1

    def test_completed_entries_missing_ipc_rejected_up_front(
        self, capsys, result_store_dir
    ):
        # A drifted entry must miss at load time, not fail later as a
        # KeyError while rendering the IPC column.
        assert campaign(capsys)[0] == 0
        first, _ = entries(result_store_dir)
        with open(first) as fp:
            payload = json.load(fp)
        del payload["result"]["instructions"]
        with open(first, "w") as fp:
            json.dump(payload, fp)
        code, out = campaign(capsys)
        assert code == 0
        assert simulated(out) == 1
        assert "2/2 points complete" in out

    def test_corrupt_json_rejected(self, capsys, tmp_path, result_store_dir):
        clean = str(tmp_path / "clean.json")
        assert campaign(capsys, "--export", clean)[0] == 0
        first, _ = entries(result_store_dir)
        with open(first, "w") as fp:
            fp.write("{not json")
        again = str(tmp_path / "again.json")
        code, out = campaign(capsys, "--export", again)
        assert code == 0
        assert simulated(out) == 1
        with open(clean, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_version_mismatch_rejected(self, capsys, result_store_dir):
        """An entry another build of the simulator wrote is regenerated."""
        assert campaign(capsys)[0] == 0
        for path in entries(result_store_dir):
            with open(path) as fp:
                payload = json.load(fp)
            assert payload["code"] == code_digest()
            payload["code"] = "an-older-build"
            with open(path, "w") as fp:
                json.dump(payload, fp)
        code, out = campaign(capsys)
        assert code == 0
        assert simulated(out) == 2


class TestRunCampaign:
    def test_full_campaign_completes(self, capsys, tmp_path):
        export = str(tmp_path / "out.json")
        code, out = campaign(capsys, "--export", export)
        assert code == 0
        assert "2/2 points complete" in out
        assert simulated(out) == 2
        # The export is the campaign's machine-readable output.
        with open(export) as fp:
            cells = json.load(fp)["stages"]["campaign"]["cells"]
        assert sorted(cells) == POINTS
        for state in cells.values():
            assert state["instructions"] > 0

    def test_resume_runs_only_incomplete_points(
        self, capsys, tmp_path, result_store_dir
    ):
        full = str(tmp_path / "full.json")
        assert campaign(capsys, "--export", full)[0] == 0
        # Fabricate an interrupted campaign: the store holds every point
        # except one.
        os.unlink(entries(result_store_dir)[0])
        resumed = str(tmp_path / "resumed.json")
        code, out = campaign(capsys, "--export", resumed)
        assert code == 0
        assert simulated(out) == 1
        # Merged output equals the uninterrupted run's.
        with open(full, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_fully_complete_checkpoint_runs_nothing(self, capsys):
        code, first = campaign(capsys)
        assert code == 0
        code, again = campaign(capsys)
        assert code == 0
        assert simulated(again) == 0
        table = first[first.index("Campaign:"):first.index("plan 'campaign'")]
        assert table in again

    def test_fault_campaign_carries_counters(self, tmp_path):
        job = SimJob(
            "cameo", "astar", accesses_per_context=40,
            fault_config=FaultConfig(
                transient_flip_rate=0.05, uncorrectable_fraction=0.5
            ),
        )
        backend = LocalDirBackend(str(tmp_path))
        with use_result_store(ResultStore(backend=backend)):
            (fresh,) = run_jobs_cached([job])
        with use_result_store(ResultStore(backend=backend)):
            (served,) = run_jobs_cached([job])
        assert fresh.ok and not fresh.cached
        assert fresh.result.fault_summary["transient_flips"] > 0
        # The counters survive the round trip through the disk store.
        assert served.cached
        assert result_to_json(served.result) == result_to_json(fresh.result)

    def test_broken_point_fails_without_sinking_campaign(
        self, capsys, monkeypatch
    ):
        fail_org(monkeypatch, "cameo")
        code, out = campaign(capsys, "--attempts", "1")
        assert code == 1
        assert re.search(r"baseline/astar/s0\s+ok", out)
        assert re.search(r"cameo/astar/s0\s+FAILED\s+RuntimeError", out)
        assert "1/2 points complete" in out

    def test_failed_points_get_fresh_budget_on_resume(
        self, capsys, monkeypatch
    ):
        with monkeypatch.context() as patch:
            fail_org(patch, "cameo")
            assert campaign(capsys, "--attempts", "1")[0] == 1
        # Failures are never banked: the re-run retries exactly them.
        code, out = campaign(capsys)
        assert code == 0
        assert simulated(out) == 1
        assert "2/2 points complete" in out

    def test_hung_point_times_out_and_is_reported(self, capsys, monkeypatch):
        # The full-size default run takes ~1s on the reference python
        # backend; a 0.2s budget kills it. Pin that backend — the point
        # of this test is the timeout machinery, and the vector engine
        # finishes the same run before the budget expires. Timeouts are
        # enforced by the supervised pool, hence two workers.
        monkeypatch.setenv("REPRO_ENGINE", "python")
        code, out = campaign(
            capsys, "--timeout", "0.2", "--attempts", "1", "--workers", "2",
            argv=["campaign", "--orgs", "cameo", "--workloads", "astar"],
        )
        assert code == 1
        assert re.search(r"cameo/astar/s0\s+FAILED\s+.*timeout", out)

    def test_parallel_workers_match_serial_results(
        self, capsys, monkeypatch, tmp_path
    ):
        serial = str(tmp_path / "serial.json")
        parallel = str(tmp_path / "parallel.json")
        assert campaign(capsys, "--seeds", "0,1", "--export", serial)[0] == 0
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "other"))
        code, out = campaign(
            capsys, "--seeds", "0,1", "--workers", "2", "--export", parallel
        )
        assert code == 0
        assert simulated(out) == 4
        with open(serial, "rb") as a, open(parallel, "rb") as b:
            assert a.read() == b.read()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(ARGV + ["--workers", "0"])
        assert excinfo.value.code == 2

    def test_render_lists_every_point(self, capsys):
        code, out = campaign(capsys)
        assert code == 0
        for key in POINTS:
            assert key in out

    def test_checkpoint_written_atomically(self, capsys, tmp_path):
        path = str(tmp_path / "nested" / "dir" / "out.json")
        assert campaign(capsys, "--export", path)[0] == 0
        assert os.path.exists(path)
        leftovers = [
            name for name in os.listdir(os.path.dirname(path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []
