"""The vector engine backend: engagement, bails, contracts, fallbacks.

The byte-identity of full runs is enforced by the golden corpus
(``test_golden_equivalence.py``, parametrized over backends). This file
covers what the corpus cannot see: that the compiled kernel actually
*engaged* (a backend that silently falls back would pass every
equivalence test while delivering none of the speedup), the bail paths
(warmup barrier, first-touch page faults, progress heartbeats), the
in-kernel reclaim-fault path and the post-run VM state it leaves, the
posted-queue stable-identity contract, and deterministic warmup
rounding.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.orgs.baseline import NoStackedBaseline
from repro.orgs.factory import build_organization
from repro.sim import engine as engine_module
from repro.sim import engine_vector
from repro.sim._kernel_build import kernel_available
from repro.sim.engine import (
    engine_backends,
    resolve_warmup_accesses,
    run_trace,
    set_progress_hook,
)
from repro.sim.export import result_to_json
from repro.sim.machine import Machine
from repro.workloads.mixes import mixed_generators, rate_mode_generators
from repro.workloads.spec import workload

from tests.conftest import make_config
from tests.sim.golden_cases import golden_result_json

needs_kernel = pytest.mark.skipif(
    not kernel_available(), reason="no C compiler / kernel unavailable"
)


def run_case(org_name, workload_name, engine, *, num_contexts=2, **kwargs):
    config = make_config(stacked_pages=16, num_contexts=num_contexts)
    org = build_organization(org_name, config)
    machine = Machine(config, org, use_l3=True)
    spec = workload(workload_name)
    generators = rate_mode_generators(spec, config)
    result = run_trace(
        machine, generators, spec, accesses_per_context=300,
        engine=engine, **kwargs,
    )
    return result_to_json(result)


def test_backends_registered():
    assert engine_backends() == ("python", "vector")


@needs_kernel
def test_kernel_engages_on_lowerable_run():
    engine_vector.reset_backend_stats()
    run_case("cameo", "astar", "vector")
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1
    assert stats["fallbacks"] == 0
    assert stats["bails"]["barrier"] == 1  # default 25% warmup barrier


@needs_kernel
def test_fault_bails_resolve_through_python():
    # Without pretouch the memory starts empty: every first-touch
    # allocation (a fault while a frame is free) bails to Python and
    # must still match byte-for-byte.
    engine_vector.reset_backend_stats()
    py = run_case("cameo", "mcf", "python", pretouch=False)
    vec = run_case("cameo", "mcf", "vector", pretouch=False)
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert engine_vector.backend_stats["bails"]["fault"] > 0


@needs_kernel
def test_reclaim_faults_run_in_kernel():
    # mcf over-commits the tiny golden-config memory, so after pretouch
    # no frame is free and every fault is a reclaim the kernel serves.
    engine_vector.reset_backend_stats()
    py = run_case("cameo", "mcf", "python")
    vec = run_case("cameo", "mcf", "vector")
    assert vec == py
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1
    assert stats["bails"]["fault"] == 0
    assert stats["kernel_faults"] > 0


@needs_kernel
def test_heterogeneous_mix_interleaves_identically():
    # Different per-context event spacing exercises the scheduler: the
    # kernel's argmin select must reproduce heapq's (time, ctx) order.
    def mix(engine):
        config = make_config(stacked_pages=16, num_contexts=2)
        org = build_organization("cameo", config)
        machine = Machine(config, org, use_l3=True)
        specs = [workload("astar"), workload("milc")]
        generators = mixed_generators(specs, config)
        result = run_trace(
            machine, generators, specs, accesses_per_context=400,
            engine=engine,
        )
        return result_to_json(result)

    engine_vector.reset_backend_stats()
    assert mix("vector") == mix("python")
    assert engine_vector.backend_stats["kernel_runs"] == 1


@needs_kernel
@pytest.mark.parametrize("warmup_fraction", [0.0, 0.25, 0.5])
def test_measurement_barrier_under_batching(warmup_fraction):
    engine_vector.reset_backend_stats()
    py = run_case("cameo", "astar", "python", warmup_fraction=warmup_fraction)
    vec = run_case("cameo", "astar", "vector", warmup_fraction=warmup_fraction)
    assert vec == py
    expected_barriers = 0 if warmup_fraction == 0.0 else 1
    assert engine_vector.backend_stats["bails"]["barrier"] == expected_barriers


@needs_kernel
def test_progress_heartbeats_fire_identically():
    def counts(engine):
        seen = []
        set_progress_hook(seen.append, every=100)
        try:
            run_case("cameo", "astar", engine)
        finally:
            set_progress_hook(None)
        return seen

    assert counts("vector") == counts("python")


def test_vector_without_kernel_falls_back(monkeypatch):
    from repro.sim import _kernel_build

    monkeypatch.setenv(_kernel_build.DISABLE_ENV_VAR, "1")
    _kernel_build.reset_for_tests()
    try:
        engine_vector.reset_backend_stats()
        vec = golden_result_json("cameo", "astar", engine="vector")
        py = golden_result_json("cameo", "astar", engine="python")
        assert vec == py
        assert engine_vector.backend_stats["kernel_runs"] == 0
        assert engine_vector.backend_stats["fallbacks"] == 1
    finally:
        _kernel_build.reset_for_tests()  # Drop the memoized "disabled" state.


def test_non_lowerable_org_falls_back_transparently():
    # The set-associative extension has no kernel-side mirror, and the
    # exact-type gate must not lower classes it has never seen: the
    # vector backend runs it through the python loop and says so.
    engine_vector.reset_backend_stats()
    vec = run_case("cameo-assoc", "astar", "vector")
    py = run_case("cameo-assoc", "astar", "python")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 0
    assert engine_vector.backend_stats["fallbacks"] == 1
    assert "not lowerable" in engine_vector.backend_stats["last_fallback_reason"]


@needs_kernel
@pytest.mark.parametrize(
    "org_name", engine_vector.LOWERED_ORG_NAMES + engine_vector.LOWERED_LLT_DESIGNS
)
def test_kernel_engages_per_org(org_name):
    # Engagement, not just equivalence: a silent fallback would pass the
    # golden corpus while delivering none of the speedup.
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization(org_name, config)
    engine_vector.reset_backend_stats()
    vec = run_case(org_name, "astar", "vector")
    py = run_case(org_name, "astar", "python")
    assert vec == py
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 1
    assert stats["fallbacks"] == 0
    # by_org tallies under the organization's own name, which the
    # predictor variants of the co-located design share ("cameo").
    assert stats["by_org"][org.name]["kernel_runs"] == 1


@needs_kernel
@pytest.mark.parametrize("org_name, kwargs", [
    pytest.param("cameo-ideal-llt", {}, id="ideal"),
    pytest.param("cameo-sram-llt", {}, id="sram"),
    pytest.param("cameo-embedded-llt", {}, id="embedded"),
    pytest.param(
        "cameo-embedded-llt", {"swap_on_write": False},
        id="embedded-write-in-place",
    ),
])
def test_llt_designs_match_on_the_paper_system(org_name, kwargs):
    # The scaled paper system, not the miniature corpus machine: only
    # there does the order of two entries posted at the same time (the
    # embedded design's swap, then its LLT rewrite) change a byte. The
    # write-in-place case is a path the paper grid never reaches.
    from repro.config.system import scaled_paper_system

    def run(engine):
        config = scaled_paper_system()
        org = build_organization(org_name, config, **kwargs)
        machine = Machine(config, org, use_l3=True)
        spec = workload("milc")
        generators = rate_mode_generators(spec, config)
        return result_to_json(run_trace(
            machine, generators, spec, accesses_per_context=300, engine=engine
        ))

    engine_vector.reset_backend_stats()
    assert run("vector") == run("python")
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert engine_vector.backend_stats["fallbacks"] == 0


@needs_kernel
def test_tlm_dynamic_fault_bails_resolve_through_python():
    # First-touch faults run on the Python side: the fault's mapping and
    # any migration its servicing triggers must reach the kernel's dense
    # translation maps (patched per frame, never rebuilt).
    engine_vector.reset_backend_stats()
    py = run_case("tlm-dynamic", "mcf", "python", pretouch=False)
    vec = run_case("tlm-dynamic", "mcf", "vector", pretouch=False)
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert engine_vector.backend_stats["bails"]["fault"] > 0


@needs_kernel
def test_tlm_dynamic_migrations_journal_to_page_table():
    # In-kernel page swaps must be replayed into the python page table:
    # the exported fixture includes migration counts and the final VM
    # stats, which diverge if the journal is dropped.
    engine_vector.reset_backend_stats()
    vec = run_case("tlm-dynamic", "milc", "vector")
    py = run_case("tlm-dynamic", "milc", "python")
    assert vec == py
    assert engine_vector.backend_stats["kernel_runs"] == 1
    assert '"page_migrations": 0' not in vec  # the case actually migrates


def _run_tlm_freq_epoch_case(engine):
    from repro.orgs.tlm_freq import TlmFreq

    config = make_config(stacked_pages=16, num_contexts=2)
    # A tiny epoch forces boundaries inside the kernel's steady state
    # (the golden-scale default of 2000 never fires at 600 accesses).
    org = TlmFreq(config, epoch_accesses=50, min_promote_count=2)
    machine = Machine(config, org, use_l3=True)
    spec = workload("milc")
    generators = rate_mode_generators(spec, config)
    result = run_trace(
        machine, generators, spec, accesses_per_context=300, engine=engine
    )
    return result_to_json(result)


@needs_kernel
def test_tlm_freq_epoch_boundary_bails_to_python():
    engine_vector.reset_backend_stats()
    vec = _run_tlm_freq_epoch_case("vector")
    py = _run_tlm_freq_epoch_case("python")
    assert vec == py
    assert engine_vector.backend_stats["bails"]["epoch"] > 0


@needs_kernel
def test_alloy_fault_injection_falls_back():
    from repro.faults.injector import FaultConfig, FaultInjector

    engine_vector.reset_backend_stats()
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization("cache", config)
    org.stacked.fault_injector = FaultInjector(FaultConfig())
    machine = Machine(config, org, use_l3=True)
    spec = workload("astar")
    generators = rate_mode_generators(spec, config)
    run_trace(
        machine, generators, spec, accesses_per_context=50, engine="vector"
    )
    stats = engine_vector.backend_stats
    assert stats["kernel_runs"] == 0
    assert stats["fallbacks"] == 1
    assert "fault injection" in stats["by_org"]["cache"]["last_fallback_reason"]


@needs_kernel
def test_parallel_pool_recovers_worker_engine_stats(monkeypatch):
    # Worker counters are process-local: without the result-envelope
    # plumbing, a `--jobs N` grid reports zero kernel runs (or kernel-
    # served faults) no matter how many cells lowered, and
    # --require-kernel could never trust a parallel run.
    from repro.sim.parallel import SimJob, run_many

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    engine_vector.reset_backend_stats()
    config = make_config(stacked_pages=16, num_contexts=2)
    jobs = [
        SimJob("cameo", "astar", config, 300, use_l3=True),
        SimJob("cache", "mcf", config, 300, use_l3=True),
    ]
    outcomes = run_many(jobs, n_jobs=2)
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.result.engine_stats["kernel_runs"] == 1
    worker_faults = outcomes[1].result.engine_stats["kernel_faults"]
    assert worker_faults > 0
    stats = engine_vector.backend_stats
    assert stats["kernel_faults"] == worker_faults
    assert stats["kernel_runs"] == 2
    assert stats["fallbacks"] == 0
    assert stats["by_org"]["cameo"]["kernel_runs"] == 1
    assert stats["by_org"]["cache"]["kernel_runs"] == 1


# -- The in-kernel reclaim-fault path -------------------------------------------


def _vm_state(machine):
    """Everything a run leaves behind in the VM, L3 and LLT state."""
    mm = machine.memory_manager
    table = mm.page_table
    state = {
        "forward": dict(table._forward),
        "vpages": list(table._vpages),
        "referenced": bytes(table.referenced),
        "dirty": bytes(table.dirty),
        "free": set(mm._free_set),
        "free_pools": (list(mm._free_stacked), list(mm._free_offchip)),
        "hand": mm.replacer._hand,
        "rng": mm.replacer._rng.getstate(),
        "vm_stats": vars(mm.stats),
        "ssd_stats": vars(machine.ssd.stats),
    }
    if machine.l3 is not None:
        state["l3"] = tuple(bytes(c) for c in machine.l3._cache.columnar_state())
    llt = getattr(machine.org, "llt", None)
    if llt is not None:
        state["llt"] = (bytes(llt._table), bytes(llt._resident))
    return state


def _run_with_state(org_name, workload_name, engine, seed, use_l3, accesses):
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization(org_name, config)
    machine = Machine(config, org, use_l3=use_l3, seed=seed)
    spec = workload(workload_name)
    generators = rate_mode_generators(spec, config, base_seed=seed)
    result = run_trace(
        machine, generators, spec, accesses_per_context=accesses, engine=engine
    )
    return result_to_json(result), _vm_state(machine)


@needs_kernel
def test_engines_agree_on_post_run_state(monkeypatch):
    # Byte-identical results are not enough: the page table, free set,
    # replacer hand and RNG, VM/SSD counters, L3 and LLT must also end
    # where the reference engine leaves them, or a later run on the same
    # machine would diverge.
    drains = []
    python_drain = engine_module._drain_evicted_frame

    def counting_drain(*args):
        drained = python_drain(*args)
        drains.append(drained)
        return drained

    monkeypatch.setattr(engine_module, "_drain_evicted_frame", counting_drain)
    coverage = {"kernel_fault": False, "dirty_drain": False}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        org_name=st.sampled_from(
            engine_vector.LOWERED_ORG_NAMES + engine_vector.LOWERED_LLT_DESIGNS
        ),
        workload_name=st.sampled_from(("mcf", "GemsFDTD", "bwaves")),
        seed=st.integers(0, 3),
        use_l3=st.booleans(),
        accesses=st.integers(50, 400),
    )
    @example(org_name="cache", workload_name="mcf", seed=0, use_l3=True,
             accesses=300)
    @example(org_name="tlm-dynamic", workload_name="mcf", seed=1, use_l3=True,
             accesses=300)
    def check(org_name, workload_name, seed, use_l3, accesses):
        drains.clear()
        args = (org_name, workload_name)
        py = _run_with_state(*args, "python", seed, use_l3, accesses)
        python_dirty_drains = sum(1 for n in drains if n)
        engine_vector.reset_backend_stats()
        vec = _run_with_state(*args, "vector", seed, use_l3, accesses)
        assert vec[0] == py[0]
        assert vec[1] == py[1]
        stats = engine_vector.backend_stats
        assert stats["fallbacks"] == 0
        if stats["kernel_faults"] and not stats["bails"]["fault"]:
            # Every fault ran in the kernel, so it also ran the L3
            # shootdowns the reference engine did.
            coverage["kernel_fault"] = True
            if python_dirty_drains and py[1]["vm_stats"]["dirty_evictions"]:
                coverage["dirty_drain"] = True

    check()
    assert coverage == {"kernel_fault": True, "dirty_drain": True}


@needs_kernel
@pytest.mark.parametrize("org_name", ["cameo", "tlm-dynamic"])
def test_tiny_journal_replays_identically(monkeypatch, org_name):
    # A journal of a few records forces replays mid-run (and, for the
    # migrating org, Python-served faults whose shootdown could not fit).
    engine_vector.reset_backend_stats()
    py = run_case(org_name, "mcf", "python")
    monkeypatch.setattr(engine_vector, "SWAP_LOG_CAP", 6)
    vec = run_case(org_name, "mcf", "vector")
    assert vec == py
    assert engine_vector.backend_stats["bails"]["swap_log"] > 0


@needs_kernel
def test_negative_trace_lines_fall_back():
    # The python engine maps a negative virtual page like any other;
    # the dense translation map has no slot for one, so the run must
    # fall back rather than index outside the map.
    from repro.workloads.replay import ReplayTraceSource

    def run(engine):
        config = make_config(stacked_pages=16, num_contexts=2)
        machine = Machine(config, build_organization("cameo", config), use_l3=True)
        raw = [(line, 4 * line, line % 3 == 0) for line in range(-300, 300, 7)]
        generators = [ReplayTraceSource.from_raw(raw) for _ in range(2)]
        return result_to_json(run_trace(
            machine, generators, workload("astar"), accesses_per_context=200,
            engine=engine,
        ))

    engine_vector.reset_backend_stats()
    assert run("vector") == run("python")
    assert engine_vector.backend_stats["fallbacks"] == 1
    assert "negative" in engine_vector.backend_stats["last_fallback_reason"]


@needs_kernel
def test_out_of_range_victim_fails_with_named_error():
    # A corrupt clock hand must stop the kernel before it sweeps past
    # the frame columns, and the error must say what went wrong.
    config = make_config(stacked_pages=16, num_contexts=2)
    org = build_organization("cameo", config)
    machine = Machine(config, org, use_l3=True)
    spec = workload("mcf")
    generators = rate_mode_generators(spec, config)
    machine.pretouch([gen.footprint_pages for gen in generators])
    machine.memory_manager.replacer._hand = machine.memory_manager.num_frames
    with pytest.raises(SimulationError, match="victim frame outside"):
        run_trace(
            machine, generators, spec, accesses_per_context=300,
            engine="vector", pretouch=False,
        )


class ReassigningOrg(NoStackedBaseline):
    """An organization that breaks the posted-queue identity contract."""

    def posted_queue(self):
        return list(self._posted)


@pytest.mark.parametrize("engine", engine_backends())
def test_posted_queue_reassignment_fails_loudly(engine):
    config = make_config(stacked_pages=16, num_contexts=2)
    org = ReassigningOrg(config)
    machine = Machine(config, org, use_l3=True)
    spec = workload("astar")
    generators = rate_mode_generators(spec, config)
    with pytest.raises(SimulationError, match="posted_queue"):
        run_trace(
            machine, generators, spec, accesses_per_context=50, engine=engine
        )


def test_posted_list_property_cannot_be_rebound():
    config = make_config(stacked_pages=16, num_contexts=2)
    org = NoStackedBaseline(config)
    with pytest.raises(AttributeError):
        org._posted = []


class TestResolveWarmupAccesses:
    def test_quarter_of_long_trace(self):
        assert resolve_warmup_accesses(12_000, 0.25) == 3_000

    def test_rounds_half_up(self):
        assert resolve_warmup_accesses(6, 0.25) == 2  # 1.5 -> 2
        assert resolve_warmup_accesses(5, 0.25) == 1  # 1.25 -> 1

    def test_short_trace_still_warms(self):
        # The old int() truncation silently skipped the barrier here.
        assert resolve_warmup_accesses(3, 0.25) == 1
        assert resolve_warmup_accesses(2, 0.25) == 1

    def test_zero_fraction_disables_warmup(self):
        assert resolve_warmup_accesses(12_000, 0.0) == 0

    def test_single_access_measures_its_only_access(self):
        assert resolve_warmup_accesses(1, 0.25) == 0

    def test_at_least_one_access_is_measured(self):
        assert resolve_warmup_accesses(4, 0.99) == 3
