"""Tests for declarative campaign plans (repro.sim.planfile)."""

import json
import os
import signal

import pytest

from repro.errors import InterruptedRunError, PlanError, PlanExecutionError
from repro.sim.planfile import (
    CampaignPlan,
    StageFailurePolicy,
    load_plan,
    load_status,
    parse_plan,
    parse_plan_source,
    run_plan,
    write_status,
)
from repro.sim.result_store import LocalDirBackend, ResultStore, use_result_store
from repro.workloads.ingest import write_trace_file
from repro.workloads.trace import records_from_raw

ACCESSES = 240


def plan_text(**overrides):
    base = {
        "plan": "repro-campaign-plan",
        "version": 1,
        "name": "t",
        "defaults": {"accesses": ACCESSES},
        "stages": [
            {
                "name": "first",
                "grid": {"orgs": ["baseline", "cameo"], "workloads": ["mcf"]},
            },
            {
                "name": "second",
                "depends_on": ["first"],
                "grid": {"orgs": ["cameo"], "workloads": ["lbm"]},
            },
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def load(text, path="<plan>"):
    return parse_plan(parse_plan_source(text, path), path)


def run_in_store(plan, store_dir, **kwargs):
    """Run ``plan`` against an on-disk store — a fresh process's view."""
    with use_result_store(ResultStore(backend=LocalDirBackend(str(store_dir)))):
        return run_plan(plan, **kwargs)


def cached_flags(report):
    return [o.cached for outcomes in report.outcomes.values() for o in outcomes]


def write_tiny_trace(path, n=50, name="tiny", extra=()):
    raw = [(i % 64, 0x1000 + i, i % 2 == 0) for i in range(n)] + list(extra)
    write_trace_file(str(path), list(records_from_raw(raw)), name=name)
    return str(path)


class TestYamlSubsetParser:
    def test_nested_mappings_lists_and_scalars(self):
        data = parse_plan_source(
            "a:\n"
            "  b: 1\n"
            "  c: [x, 2, true]\n"
            "d:\n"
            "  - name: one\n"
            "    flag: false\n"
            "  - name: two\n"
            "e: 'quoted: text'  # comment\n"
            "f: null\n"
            "g: 1.5\n"
        )
        assert data == {
            "a": {"b": 1, "c": ["x", 2, True]},
            "d": [{"name": "one", "flag": False}, {"name": "two"}],
            "e": "quoted: text",
            "f": None,
            "g": 1.5,
        }

    def test_list_at_same_indent_as_key(self):
        data = parse_plan_source("stages:\n- a\n- b\n")
        assert data == {"stages": ["a", "b"]}

    def test_inline_mapping(self):
        data = parse_plan_source("p: {max_attempts: 2, on_failure: continue}\n")
        assert data == {"p": {"max_attempts": 2, "on_failure": "continue"}}

    def test_tabs_in_indentation_rejected_with_line(self):
        with pytest.raises(PlanError, match=r"<plan>:2: tabs"):
            parse_plan_source("a:\n\tb: 1\n")

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(PlanError, match=r"<plan>:2: duplicate key 'a'"):
            parse_plan_source("a: 1\na: 2\n")

    def test_unterminated_inline_list_rejected(self):
        with pytest.raises(PlanError, match="unterminated"):
            parse_plan_source("a: [1, 2\n")

    def test_stray_indent_rejected(self):
        with pytest.raises(PlanError, match="indent"):
            parse_plan_source("a: 1\n    b: 2\n")

    def test_json_documents_accepted(self):
        assert parse_plan_source('{"a": [1, 2]}') == {"a": [1, 2]}

    def test_invalid_json_names_the_line(self):
        with pytest.raises(PlanError, match="invalid JSON"):
            parse_plan_source('{"a": }', "p.json")

    def test_empty_document_rejected(self):
        with pytest.raises(PlanError, match="empty"):
            parse_plan_source("# nothing here\n")


class TestPlanValidation:
    def test_valid_plan_parses(self):
        plan = load(plan_text())
        assert isinstance(plan, CampaignPlan)
        assert [s.name for s in plan.stages] == ["first", "second"]
        assert plan.stages[0].grid.accesses == ACCESSES  # default applied

    def test_stage_endpoints_parse_and_render(self):
        data = json.loads(plan_text())
        data["stages"][0]["endpoints"] = ["10.0.0.2:7463", "10.0.0.3:7463"]
        plan = load(json.dumps(data))
        assert plan.stage("first").endpoints == (
            "10.0.0.2:7463", "10.0.0.3:7463",
        )
        assert plan.stage("second").endpoints == ()
        assert "endpoints: 10.0.0.2:7463, 10.0.0.3:7463" in plan.describe()

    def test_bad_stage_endpoint_names_the_stage(self):
        data = json.loads(plan_text())
        data["stages"][0]["endpoints"] = ["not-an-endpoint"]
        with pytest.raises(PlanError, match=r"stage 'first'.*endpoints"):
            load(json.dumps(data))

    def test_duplicate_stage_endpoints_rejected(self):
        data = json.loads(plan_text())
        data["stages"][0]["endpoints"] = ["h:1", "h:1"]
        with pytest.raises(PlanError, match="more than once"):
            load(json.dumps(data))

    def test_non_string_endpoints_rejected(self):
        data = json.loads(plan_text())
        data["stages"][0]["endpoints"] = [7463]
        with pytest.raises(PlanError, match="host:port"):
            load(json.dumps(data))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(PlanError, match="unknown key"):
            load(plan_text(surprise=1))

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(PlanError, match="'plan' must be"):
            load(plan_text(plan="something-else"))
        with pytest.raises(PlanError, match="version"):
            load(plan_text(version=2))

    def test_unknown_org_workload_experiment_rejected(self):
        bad_org = json.loads(plan_text())
        bad_org["stages"][0]["grid"]["orgs"] = ["warp-drive"]
        with pytest.raises(PlanError, match="warp-drive"):
            load(json.dumps(bad_org))
        bad_wl = json.loads(plan_text())
        bad_wl["stages"][0]["grid"]["workloads"] = ["nonsense"]
        with pytest.raises(PlanError, match="nonsense"):
            load(json.dumps(bad_wl))
        bad_exp = json.loads(plan_text())
        bad_exp["stages"][0] = {"name": "first", "experiments": ["figure99"]}
        with pytest.raises(PlanError, match="figure99"):
            load(json.dumps(bad_exp))

    def test_grid_and_experiments_mutually_exclusive(self):
        data = json.loads(plan_text())
        data["stages"][0]["experiments"] = ["figure2"]
        with pytest.raises(PlanError, match="exactly one"):
            load(json.dumps(data))
        data["stages"][0] = {"name": "first"}
        with pytest.raises(PlanError, match="exactly one"):
            load(json.dumps(data))

    def test_unknown_dependency_self_dependency_and_cycle_rejected(self):
        data = json.loads(plan_text())
        data["stages"][1]["depends_on"] = ["ghost"]
        with pytest.raises(PlanError, match="ghost"):
            load(json.dumps(data))
        data["stages"][1]["depends_on"] = ["second"]
        with pytest.raises(PlanError, match="itself"):
            load(json.dumps(data))
        data["stages"][1]["depends_on"] = ["first"]
        data["stages"][0]["depends_on"] = ["second"]
        with pytest.raises(PlanError, match="cycle"):
            load(json.dumps(data))

    def test_duplicate_stage_names_rejected(self):
        data = json.loads(plan_text())
        data["stages"][1]["name"] = "first"
        data["stages"][1].pop("depends_on")
        with pytest.raises(PlanError, match="twice"):
            load(json.dumps(data))

    def test_bad_on_failure_mode_rejected(self):
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = {"on_failure": "explode"}
        with pytest.raises(PlanError, match="explode"):
            load(json.dumps(data))

    def test_fallback_requires_explicit_opt_in(self):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"],
            "trace": "t.trace",
            "fallback_workloads": ["mcf"],
        }
        with pytest.raises(PlanError, match="allow_synthetic_fallback"):
            load(json.dumps(data))
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"],
            "trace": "t.trace",
            "allow_synthetic_fallback": True,
        }
        with pytest.raises(PlanError, match="fallback_workloads"):
            load(json.dumps(data))

    def test_default_failure_policy_merges_with_stage_overrides(self):
        data = json.loads(plan_text())
        data["defaults"]["failure_policy"] = {
            "max_attempts": 4, "on_failure": "continue",
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "abort"}
        plan = load(json.dumps(data))
        assert plan.stages[0].failure_policy == StageFailurePolicy(
            max_attempts=4, on_failure="abort"
        )
        assert plan.stages[1].failure_policy == StageFailurePolicy(
            max_attempts=4, on_failure="continue"
        )

    def test_execution_order_is_topological(self):
        data = json.loads(plan_text())
        data["stages"].insert(0, dict(data["stages"][1]))
        data["stages"][0]["name"] = "zeroth"
        plan = load(json.dumps(data))
        order = plan.execution_order()
        assert order.index("first") < order.index("zeroth")
        assert order.index("first") < order.index("second")


class TestStageFingerprints:
    """What invalidates finished work: cells are content-addressed, so a
    re-run simulates a cell exactly when one of its inputs changed."""

    def test_stable_across_loads(self, tmp_path):
        first = run_in_store(load(plan_text()), tmp_path)
        again = run_in_store(load(plan_text()), tmp_path)
        assert not any(cached_flags(first))
        assert all(cached_flags(again))

    def test_failure_policy_edit_does_not_invalidate(self, tmp_path):
        run_in_store(load(plan_text()), tmp_path)
        data = json.loads(plan_text())
        data["stages"][0]["failure_policy"] = {"max_attempts": 7}
        report = run_in_store(load(json.dumps(data)), tmp_path)
        assert all(cached_flags(report))

    def test_endpoints_edit_does_not_invalidate(self, tmp_path):
        """Where a stage runs must never resimulate finished work."""
        run_in_store(load(plan_text()), tmp_path)
        data = json.loads(plan_text())
        # Closed localhost ports: every cell is served, so none is sent.
        data["stages"][0]["endpoints"] = ["127.0.0.1:1", "127.0.0.1:2"]
        report = run_in_store(load(json.dumps(data)), tmp_path)
        assert all(cached_flags(report))

    def test_trace_content_is_fingerprinted_not_the_path(self, tmp_path):
        write_tiny_trace(tmp_path / "a.trace")
        data = json.loads(plan_text())
        data["stages"] = [
            {"name": "first", "grid": {"orgs": ["cameo"], "trace": "a.trace"}}
        ]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        store = tmp_path / "store"

        def cached():
            return cached_flags(run_in_store(load_plan(str(path)), store))

        assert cached() == [False]
        assert cached() == [True]
        # New content under the same path simulates...
        write_tiny_trace(tmp_path / "a.trace", extra=[(5, 5, False)])
        assert cached() == [False]
        # ...and the same content under a new path is served.
        os.rename(tmp_path / "a.trace", tmp_path / "b.trace")
        data["stages"][0]["grid"]["trace"] = "b.trace"
        path.write_text(json.dumps(data))
        assert cached() == [True]


class TestStatusFile:
    def test_load_rejects_missing_foreign_and_malformed(self, tmp_path):
        with pytest.raises(PlanError, match="unreadable"):
            load_status(str(tmp_path / "missing.json"))
        path = tmp_path / "s.json"
        path.write_text("{}")
        with pytest.raises(PlanError, match="kind"):
            load_status(str(path))
        path.write_text(json.dumps({
            "kind": "repro-plan-status", "version": 2, "plan_name": "t",
            "stages": {"a": {"state": "launched"}},
        }))
        with pytest.raises(PlanError):
            load_status(str(path))
        # A version-1 file (with a results bank) is another format.
        path.write_text(json.dumps({
            "kind": "repro-plan-status", "version": 1, "plan_name": "t",
            "stages": {}, "results": {},
        }))
        with pytest.raises(PlanError, match="version"):
            load_status(str(path))

    def test_write_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "s.json")
        status = {
            "kind": "repro-plan-status", "version": 2, "plan_name": "t",
            "stages": {"a": {
                "state": "completed", "incidents": [], "cells_total": 2,
                "cells_failed": 0,
            }},
        }
        write_status(path, status)
        assert load_status(path) == status


class TestRunPlan:
    def run(self, text, tmp_path, n_jobs=1, log=None, export=None,
            status_name="s.json", store="store"):
        """One ``repro plan run``: the same ``store`` directory across
        calls is what makes a second call a resume."""
        status_path = str(tmp_path / status_name)
        report = run_in_store(
            load(text), tmp_path / store, status_path=status_path,
            n_jobs=n_jobs, log=log, export_path=export,
        )
        return report, status_path

    def test_runs_stages_in_order_and_persists_status(self, tmp_path):
        report, status_path = self.run(plan_text(), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {"first": "completed", "second": "completed"}
        persisted = load_status(status_path)
        assert persisted["stages"]["first"]["cells_total"] == 2
        assert len(list((tmp_path / "store").glob("*.result.json"))) == 3

    def test_resume_serves_every_cell_from_the_banked_results(self, tmp_path):
        self.run(plan_text(), tmp_path)
        report, _ = self.run(plan_text(), tmp_path)
        flags = cached_flags(report)
        assert flags and all(flags)

    def test_no_status_path_writes_no_status_file(self, tmp_path):
        report = run_in_store(load(plan_text()), tmp_path / "store")
        assert report.completed
        assert sorted(os.listdir(tmp_path)) == ["store"]

    def test_abort_policy_stops_the_plan_and_records_the_stage(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        with pytest.raises(PlanExecutionError) as excinfo:
            self.run(json.dumps(data), tmp_path)
        assert excinfo.value.stage == "first"
        status = load_status(str(tmp_path / "s.json"))
        assert status["stages"]["first"]["state"] == "failed"
        assert status["stages"]["second"]["state"] == "pending"

    def test_continue_policy_runs_the_dependents(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "continue"}
        report, _ = self.run(json.dumps(data), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {"first": "failed", "second": "completed"}

    def test_skip_dependents_policy_skips_only_downstream(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"][0]["grid"] = {
            "orgs": ["cameo"], "trace": str(tmp_path / "missing.trace"),
        }
        data["stages"][0]["failure_policy"] = {"on_failure": "skip-dependents"}
        data["stages"].append(
            {"name": "loner", "grid": {"orgs": ["baseline"], "workloads": ["mcf"]}}
        )
        report, _ = self.run(json.dumps(data), tmp_path)
        states = {
            name: entry["state"]
            for name, entry in report.status["stages"].items()
        }
        assert states == {
            "first": "failed", "second": "skipped", "loner": "completed",
        }
        assert "second" not in report.outcomes

    def test_trace_stage_simulates_the_ingested_trace(self, tmp_path):
        trace_path = write_tiny_trace(tmp_path / "t.trace", n=80)
        data = json.loads(plan_text())
        data["stages"][1]["grid"] = {"orgs": ["cameo"], "trace": trace_path}
        report, _ = self.run(json.dumps(data), tmp_path)
        keys = [o.job.key for o in report.outcomes["second"]]
        assert keys == ["cameo/tiny/s0"]

    def test_fallback_degrades_only_when_allowed_and_records_incident(
        self, tmp_path
    ):
        data = json.loads(plan_text())
        data["stages"][1]["grid"] = {
            "orgs": ["cameo"],
            "trace": str(tmp_path / "missing.trace"),
            "allow_synthetic_fallback": True,
            "fallback_workloads": ["mcf"],
        }
        report, _ = self.run(json.dumps(data), tmp_path)
        entry = report.status["stages"]["second"]
        assert entry["state"] == "completed"
        assert any("degrading" in line for line in entry["incidents"])
        assert [o.job.workload for o in report.outcomes["second"]] == ["mcf"]

    def test_export_is_deterministic_across_interrupt_and_resume(
        self, tmp_path
    ):
        from tests.sim.test_plan import interrupt_after

        clean = str(tmp_path / "clean.json")
        self.run(plan_text(), tmp_path, export=clean, status_name="c.json",
                 store="clean-store")
        with pytest.raises(InterruptedRunError):
            self.run(plan_text(), tmp_path, log=interrupt_after(2),
                     status_name="i.json")
        status = load_status(str(tmp_path / "i.json"))
        assert status["stages"]["first"]["state"] == "interrupted"
        # Both finished simulations of the first stage reached the store.
        assert len(list((tmp_path / "store").glob("*.result.json"))) == 2
        resumed = str(tmp_path / "resumed.json")
        report, _ = self.run(plan_text(), tmp_path, export=resumed,
                             status_name="i.json")
        assert cached_flags(report) == [True, True, False]
        with open(clean, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()

    def test_plan_edit_between_resumes_invalidates_dependents(self, tmp_path):
        self.run(plan_text(), tmp_path)
        data = json.loads(plan_text())
        data["stages"][0]["grid"]["seeds"] = [3]
        report, _ = self.run(json.dumps(data), tmp_path)
        # The edited stage simulates its new cells...
        assert all(not o.cached for o in report.outcomes["first"])
        # ...while its unchanged dependent is served: cells are
        # content-addressed, and the dependent's cell did not change.
        assert all(o.cached for o in report.outcomes["second"])

    def test_experiments_stage_executes_planner_jobs(self, tmp_path):
        data = json.loads(plan_text())
        data["stages"] = [
            {"name": "fig", "experiments": ["figure2"], "accesses": 120}
        ]
        report, _ = self.run(json.dumps(data), tmp_path)
        assert report.status["stages"]["fig"]["state"] == "completed"
        assert len(report.outcomes["fig"]) > 10
