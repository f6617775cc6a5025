"""Shared fixtures: small, fast system configurations for unit tests."""

from __future__ import annotations

import pytest

from repro.config.system import L3Config, SystemConfig
from repro.config.timing import paper_offchip_timing, paper_stacked_timing
from repro.units import PAGE_BYTES


def make_config(
    stacked_pages: int = 4,
    group_size: int = 4,
    num_contexts: int = 2,
    **overrides,
) -> SystemConfig:
    """A miniature machine: tiny capacities, real Table I timings."""
    stacked_bytes = stacked_pages * PAGE_BYTES
    kwargs = dict(
        stacked_bytes=stacked_bytes,
        offchip_bytes=stacked_bytes * (group_size - 1),
        stacked_timing=paper_stacked_timing(),
        offchip_timing=paper_offchip_timing(),
        l3=L3Config(capacity_bytes=16 * 1024, ways=16, latency_cycles=24),
        num_contexts=num_contexts,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


@pytest.fixture
def tiny_config() -> SystemConfig:
    """4 stacked pages + 12 off-chip pages, K = 4."""
    return make_config()


@pytest.fixture
def small_config() -> SystemConfig:
    """64 stacked pages + 192 off-chip pages — big enough for paging tests."""
    return make_config(stacked_pages=64)


@pytest.fixture
def result_store_dir(tmp_path, monkeypatch) -> str:
    """Point ``REPRO_RESULT_CACHE_DIR`` at this test's tmp_path.

    ``repro paper``, ``plan run`` and ``campaign`` persist settled cells
    there; a per-test directory keeps tests out of ``~/.cache`` and
    keeps one test from being served another test's cells.
    """
    path = str(tmp_path / "results")
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", path)
    return path
