"""DigestConfig tests."""

from __future__ import annotations

from repro.core.config import DigestConfig
from repro.mining.temporal import TemporalParams
from repro.utils.timeutils import HOUR


class TestDefaults:
    def test_paper_table6_defaults(self):
        cfg = DigestConfig()
        assert cfg.window == 120.0
        assert cfg.sp_min == 0.0005
        assert cfg.conf_min == 0.8
        assert cfg.tree_k == 10
        assert cfg.cross_router_window == 1.0

    def test_all_passes_enabled_by_default(self):
        cfg = DigestConfig()
        assert cfg.enable_temporal
        assert cfg.enable_rules
        assert cfg.enable_cross_router

    def test_idle_flush_covers_s_max(self):
        cfg = DigestConfig()
        assert cfg.idle_flush >= cfg.temporal.s_max == 3 * HOUR

    def test_parallel_and_skew_defaults(self):
        cfg = DigestConfig()
        assert cfg.n_workers == 1  # serial unless asked
        assert cfg.stream_workers == "serial"  # see the ledger rows
        assert cfg.skew_tolerance > 0  # jitter-tolerant out of the box

    def test_flush_after_covers_every_grouping_horizon(self):
        cfg = DigestConfig()
        assert cfg.flush_after >= cfg.idle_flush
        assert cfg.flush_after >= (
            cfg.temporal.s_max + cfg.window + cfg.cross_router_window
        )

    def test_invalid_knobs_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            DigestConfig(skew_tolerance=-1.0)
        with pytest.raises(ValueError):
            DigestConfig(n_workers=-2)


class TestCopies:
    def test_with_temporal(self):
        cfg = DigestConfig()
        new_params = TemporalParams(alpha=0.2, beta=3.0)
        updated = cfg.with_temporal(new_params)
        assert updated.temporal == new_params
        assert cfg.temporal != new_params  # frozen original untouched
        assert updated.window == cfg.window

    def test_with_workers(self):
        cfg = DigestConfig().with_workers(4)
        assert cfg.n_workers == 4
        assert DigestConfig().n_workers == 1

    def test_only_passes(self):
        cfg = DigestConfig().only_passes(True, False, False)
        assert cfg.enable_temporal
        assert not cfg.enable_rules
        assert not cfg.enable_cross_router

    def test_frozen(self):
        import pytest

        with pytest.raises(Exception):
            DigestConfig().window = 5.0  # type: ignore[misc]
