"""Unit tests for runtime statistics and the 80% Tier-3-bias heuristic."""

import pytest

from repro.core.placement import PlacementDecision, Tier3BiasHeuristic
from repro.core.stats import RuntimeStats
from repro.errors import ConfigError
from repro.reuse.classifier import ReuseClass
from repro.units import PAGE_SIZE


class TestRuntimeStats:
    def test_hit_rates_empty(self):
        s = RuntimeStats()
        assert s.t1_hit_rate == 0.0
        assert s.t2_hit_rate == 0.0
        assert s.wasteful_lookup_fraction == 0.0
        assert s.prediction_accuracy == 0.0

    def test_t1_hit_rate(self):
        s = RuntimeStats(t1_hits=3, t1_misses=1)
        assert s.t1_hit_rate == 0.75

    def test_wasteful_fraction(self):
        s = RuntimeStats(t1_misses=10, t2_wasteful_lookups=4)
        assert s.wasteful_lookup_fraction == 0.4

    def test_prediction_outcomes(self):
        s = RuntimeStats()
        s.record_prediction_outcome("MEDIUM", "MEDIUM")
        s.record_prediction_outcome("MEDIUM", "LONG")
        assert s.resolved_predictions == 2
        assert s.correct_predictions == 1
        assert s.prediction_accuracy == 0.5
        assert s.confusion[("MEDIUM", "LONG")] == 1

    def test_io_bytes(self):
        s = RuntimeStats(ssd_page_reads=3, ssd_page_writes=2)
        assert s.ssd_page_ios == 5
        assert s.io_bytes(PAGE_SIZE) == 5 * PAGE_SIZE

    def test_as_dict_roundtrip(self):
        s = RuntimeStats(t1_hits=1, t2_hits=2, ssd_page_reads=3)
        d = s.as_dict()
        assert d["t1_hits"] == 1
        assert d["t2_hits"] == 2
        assert d["ssd_page_reads"] == 3
        assert "prediction_accuracy" in d

    def test_as_dict_covers_every_field_and_property(self):
        """Regression: as_dict() is derived from the dataclass fields plus
        the declared property list, so adding a counter cannot silently
        fall out of the export again."""
        from dataclasses import fields

        s = RuntimeStats()
        d = s.as_dict()
        expected = {
            f.name for f in fields(RuntimeStats)
            if f.name not in RuntimeStats.NON_SCALAR_FIELDS
        } | set(RuntimeStats.EXPORTED_PROPERTIES)
        assert set(d) == expected
        # The five keys the hand-maintained dict used to omit:
        for name in (
            "retention_overrides",
            "resolved_predictions",
            "correct_predictions",
            "ssd_page_ios",
            "prefetch_accuracy",
        ):
            assert name in d, name

    def test_as_dict_matches_bound_registry(self):
        """The registry export and the dict export expose the same counters."""
        s = RuntimeStats(t1_hits=4, t1_misses=2, ssd_page_writes=1)
        reg = s.bind_registry(None)
        d = s.as_dict()
        for name, value in d.items():
            assert reg.get(f"gmt_{name}").value == value


class TestPlacementDecision:
    def test_maps_from_reuse_class(self):
        assert PlacementDecision.for_class(ReuseClass.SHORT) is PlacementDecision.RETAIN_TIER1
        assert PlacementDecision.for_class(ReuseClass.MEDIUM) is PlacementDecision.PLACE_TIER2
        assert PlacementDecision.for_class(ReuseClass.LONG) is PlacementDecision.BYPASS_TIER3


class TestTier3BiasHeuristic:
    def test_inactive_until_window_full(self):
        h = Tier3BiasHeuristic(threshold=0.8, window=5)
        for _ in range(4):
            h.record(ReuseClass.LONG)
        assert not h.fires()

    def test_fires_when_long_dominates(self):
        h = Tier3BiasHeuristic(threshold=0.8, window=5)
        for _ in range(5):
            h.record(ReuseClass.LONG)
        assert h.fires()
        assert h.long_fraction == 1.0

    def test_exact_threshold_does_not_fire(self):
        # "greater than 80%", strictly.
        h = Tier3BiasHeuristic(threshold=0.8, window=5)
        for cls in [ReuseClass.LONG] * 4 + [ReuseClass.MEDIUM]:
            h.record(cls)
        assert h.long_fraction == 0.8
        assert not h.fires()

    def test_window_slides(self):
        h = Tier3BiasHeuristic(threshold=0.8, window=4)
        for _ in range(4):
            h.record(ReuseClass.LONG)
        assert h.fires()
        for _ in range(2):
            h.record(ReuseClass.MEDIUM)
        assert not h.fires()

    def test_long_fraction_empty(self):
        assert Tier3BiasHeuristic().long_fraction == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Tier3BiasHeuristic(threshold=0.0)
        with pytest.raises(ConfigError):
            Tier3BiasHeuristic(threshold=1.1)
        with pytest.raises(ConfigError):
            Tier3BiasHeuristic(window=0)
