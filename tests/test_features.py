"""The reusable feature pipeline: fingerprints and the cached store.

Locks the PR 10 refactor contract: ``repro.features`` serves per-day
``(times, matrix, columns)`` blocks keyed by (recording identity,
extractor content fingerprint), `CampaignStdFeatures` is the rolling-std
extractor viewed through a store (bit-identical to the historical
expression — the golden/equivalence suites run unchanged), and the
day-membership regression (a foreign recording's day silently returning
the wrong matrix) stays fixed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FadewichConfig
from repro.core.evaluation import CampaignStdFeatures
from repro.core.movement import rolling_std_matrix
from repro.features import FeatureStore, RollingStdExtractor
from repro.identity import digest
from repro.mobility.behavior import BehaviorProfile
from repro.simulation.collector import CampaignCollector
from repro.zones import AttenuationExtractor


@pytest.fixture(scope="module")
def other_recording(layout):
    """A second, distinct recording whose days alias day indices 0/1."""
    collector = CampaignCollector(layout, seed=99)
    profile = BehaviorProfile(
        departures_per_hour=8.0,
        mean_absence_s=120.0,
        min_absence_s=40.0,
        internal_moves_per_hour=2.0,
    )
    profiles = {w.workstation_id: profile for w in layout.workstations}
    return collector.collect_generated(
        n_days=1, day_duration_s=600.0, profiles=profiles
    )


class TestFingerprint:
    def test_equal_configs_share_fingerprints(self):
        a = RollingStdExtractor(std_window_s=4.0)
        b = RollingStdExtractor(std_window_s=4.0)
        assert a is not b
        assert digest(a) == digest(b)

    def test_config_changes_move_the_fingerprint(self):
        base = digest(RollingStdExtractor())
        assert digest(RollingStdExtractor(std_window_s=8.0)) != base
        assert digest(AttenuationExtractor()) != base

    def test_nested_dataclasses_fingerprint(self):
        a = AttenuationExtractor(exponent=2.5)
        b = AttenuationExtractor(exponent=3.0)
        assert digest(a) != digest(b)


class TestFeatureStore:
    def test_cache_hit_on_equal_config(self, small_recording):
        store = FeatureStore(small_recording)
        day = small_recording.days[0]
        first = store.day_block(RollingStdExtractor(std_window_s=4.0), day)
        again = store.day_block(RollingStdExtractor(std_window_s=4.0), day)
        # Same cached block object: equal frozen configs share the entry.
        assert again[1] is first[1]
        assert store.hits == 1
        assert store.misses == 1

    def test_config_change_invalidates(self, small_recording):
        store = FeatureStore(small_recording)
        day = small_recording.days[0]
        _, narrow, _ = store.day_block(
            RollingStdExtractor(std_window_s=4.0), day
        )
        _, wide, _ = store.day_block(
            RollingStdExtractor(std_window_s=8.0), day
        )
        assert store.misses == 2 and store.hits == 0
        # Fresh matrices: the wider window trims more rows and smooths
        # differently — nothing of the 4 s block is served for the 8 s one.
        assert narrow.shape != wide.shape or not np.array_equal(narrow, wide)

    def test_extractors_share_one_store(self, small_recording, layout):
        store = FeatureStore(small_recording)
        day = small_recording.days[0]
        store.day_block(RollingStdExtractor(std_window_s=4.0), day)
        _, wide, _ = store.day_block(RollingStdExtractor(std_window_s=8.0), day)
        assert store.misses == 2
        # Each std window's block is cached independently of the other.
        assert store.day_block(RollingStdExtractor(std_window_s=8.0), day)[1] is wide
        assert store.hits == 1

    def test_foreign_day_rejected(self, small_recording, other_recording):
        # Regression: keying by day_index alone served recording A's matrix
        # for recording B's day of the same index.
        store = FeatureStore(small_recording)
        foreign = other_recording.days[0]
        assert foreign.day_index == small_recording.days[0].day_index
        with pytest.raises(ValueError, match="does not belong"):
            store.day_block(RollingStdExtractor(), foreign)


class TestCampaignStdFeatures:
    def test_matches_historical_expression(self, small_recording, config):
        features = CampaignStdFeatures(small_recording, config)
        day = small_recording.days[0]
        times, matrix, columns = features.day_matrix(day)
        trace = day.trace
        rate = 1.0 / trace.sample_interval
        window = max(int(round(config.md.std_window_s * rate)), 2)
        want_times, want = rolling_std_matrix(trace, window)
        assert np.array_equal(times, want_times)
        assert np.array_equal(matrix, want)
        assert columns == {s: j for j, s in enumerate(trace.stream_ids)}

    def test_shared_store(self, small_recording, config):
        store = FeatureStore(small_recording)
        a = CampaignStdFeatures(small_recording, config, store=store)
        b = CampaignStdFeatures(small_recording, config, store=store)
        day = small_recording.days[0]
        assert b.day_matrix(day)[1] is a.day_matrix(day)[1]
        assert store.hits == 1

    def test_foreign_store_rejected(
        self, small_recording, other_recording, config
    ):
        store = FeatureStore(other_recording)
        with pytest.raises(ValueError, match="different recording"):
            CampaignStdFeatures(small_recording, config, store=store)

    def test_foreign_day_rejected(
        self, small_recording, other_recording, config
    ):
        features = CampaignStdFeatures(small_recording, config)
        with pytest.raises(ValueError, match="does not belong"):
            features.day_matrix(other_recording.days[0])

    def test_window_config_feeds_extractor(self, small_recording):
        wide = CampaignStdFeatures(
            small_recording, FadewichConfig().derive(md={"std_window_s": 8.0})
        )
        narrow = CampaignStdFeatures(small_recording, FadewichConfig())
        day = small_recording.days[0]
        assert not np.array_equal(
            wide.day_matrix(day)[1], narrow.day_matrix(day)[1]
        )
