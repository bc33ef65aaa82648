"""The identity layer: one encoder, one digest, one registry class.

Locks the contracts of :mod:`repro.identity`:

* digests equal the values stores, feature caches and record checksums
  were keyed by before the helpers merged (pinned hex literals), so
  existing stores keep resuming;
* mapping keys become strings before sorting, so an int-keyed payload
  digests like its JSON round trip;
* the codec round-trips every configuration dataclass a scenario is made
  of, and decodes only registered types;
* the detector registry keeps the :class:`~repro.identity.Registry`
  contract, and every registered class is decodable — so a detector
  registered only with ``@register_detector`` resumes warm from a store,
  its inherited engine running the sweep's lockstep chains.
"""

import dataclasses
import json
from typing import ClassVar

import numpy as np
import pytest

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_store import SweepStore, result_checksum
from repro.core.config import FadewichConfig, MDConfig
from repro.detectors import (
    DETECTORS,
    EmaMadDetector,
    KdeMdDetector,
    VarianceThresholdDetector,
    register_detector,
)
from repro.features import RollingStdExtractor
from repro.identity import COMPONENTS, decode, digest, encode, register_component
from repro.radio.channel import ChannelConfig
from repro.radio.office import paper_office, wide_office
from repro.zones import AttenuationExtractor, ZoneMap, ZoneOccupancyEstimator


@pytest.fixture
def scratch_registries(monkeypatch):
    """Registrations made by a test vanish when it ends."""
    for registry in (COMPONENTS, DETECTORS):
        monkeypatch.setattr(registry, "_classes", dict(registry._classes))


def member_class(registry, name, cls_name="Member"):
    """A frozen dataclass satisfying ``registry``'s contract."""
    namespace = {
        "__annotations__": {"scale": float},
        "scale": 1.0,
        "name": name,
    }
    for method in registry.methods:
        namespace[method] = lambda self, *args: None
    return dataclasses.dataclass(frozen=True)(type(cls_name, (), namespace))


# --------------------------------------------------------------------- #
class TestPinnedDigests:
    """Values computed by the separate helpers the digest replaced."""

    def test_config_digest(self):
        assert (
            digest([FadewichConfig()])
            == "01c0abcbd7dcb1534c98bd27f43da2e061410f57597a4fe74321ecb30d7be709"
        )

    def test_extractor_digest(self):
        assert (
            digest(RollingStdExtractor())
            == "71647c24880a0bbcea881004f330eae4492efa6cca5fbe2d4c88866d22c7906e"
        )

    def test_zone_estimator_digest(self):
        estimator = ZoneOccupancyEstimator(zone_map=ZoneMap.from_layout(paper_office()))
        assert (
            digest([estimator])
            == "18541ea5f87c29a4c614e61894009113e26f81a54c91bda9d850eecf87eeb18a"
        )

    def test_scenario_spec_content_hash(self):
        grid = ScenarioGrid([paper_office()], [CampaignScale.compact()])
        (spec,) = grid.scenarios()
        assert spec.name == "paper-office/compact/default/default/kde_md/r0"
        assert (
            spec.content_hash()
            == "49b4a046fe984363704666a5e612fd2e628543e5634d17c95136c06e8ebc9ef3"
        )

    def test_result_checksums(self):
        payload = {"n_events": 3, "re_accuracies": {"9": 0.5}, "zone_accuracy": None}
        assert (
            result_checksum(payload)
            == "608daaca7ee6356f32ef6176946286b1365bf83e21d30469558362057f59fc5b"
        )
        pinned = "4ac56a86d83a3d2d74f2b0ed8da9544aa77c39d977be6c1ce3f011ca361ed8f5"
        assert result_checksum({"re_accuracies": {9: 0.5, 10: 0.25}}) == pinned
        assert result_checksum({"re_accuracies": {"9": 0.5, "10": 0.25}}) == pinned

    def test_int_keys_digest_like_their_json_round_trip(self):
        # Sorting int keys as numbers would put 9 before 10; as JSON
        # strings "10" sorts first.  put (int keys) and get (parsed
        # strings) must agree.
        payload = {"md": [{"n": 1}], "re": {9: 0.5, 10: (1, 2)}, 3: None}
        assert digest(payload) == digest(json.loads(json.dumps(payload)))


# --------------------------------------------------------------------- #
class TestCodec:
    @pytest.mark.parametrize(
        "component",
        [
            FadewichConfig(),
            FadewichConfig().derive(t_delta_s=6.0, md={"alpha": 2.0}),
            ChannelConfig(),
            ChannelConfig(slow_drift_sigma_db=0.25),
            CampaignScale.compact(),
            CampaignScale.paper().derive("paper-busy", departures_per_hour=2.0),
            paper_office(),
            wide_office(),
            paper_office().with_sensors(["d1", "d2", "d3"]),
            ZoneOccupancyEstimator(zone_map=ZoneMap.from_layout(paper_office())),
            AttenuationExtractor(exponent=2.5),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_round_trip_equality(self, component):
        # Must survive an actual JSON round trip, not just the codec.
        decoded = decode(json.loads(json.dumps(encode(component))))
        assert decoded == component
        assert type(decoded) is type(component)

    def test_digest_is_value_based(self):
        assert digest(FadewichConfig()) == digest(FadewichConfig())
        assert digest(FadewichConfig()) != digest(FadewichConfig().derive(t_delta_s=6.0))
        # A nested MD parameter change reaches the digest too.
        assert digest(FadewichConfig()) != digest(
            FadewichConfig().derive(md={"alpha": 2.0})
        )
        # Sequences digest in order, and the type name is part of a value.
        a, b = FadewichConfig(), ChannelConfig()
        assert digest([a, b]) != digest([b, a])
        assert digest(RollingStdExtractor()) != digest(AttenuationExtractor())

    def test_unknown_type_decoding_rejected(self):
        with pytest.raises(ValueError, match="unknown component 'NoSuchThing'"):
            decode({"__type__": "NoSuchThing", "x": 1})

    def test_unencodable_object_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode(object())

    def test_register_component(self, scratch_registries):
        @register_component
        @dataclasses.dataclass(frozen=True)
        class _Custom:
            value: float = 1.0

        assert decode(encode(_Custom(2.5))) == _Custom(2.5)
        with pytest.raises(TypeError, match="dataclass"):
            register_component(int)

    def test_taken_type_name_rejected(self, scratch_registries):
        # A detector whose class name shadows a different decodable type
        # would decode stored specs as the wrong class: refuse it, and
        # leave the detector registry untouched.
        shadow = member_class(DETECTORS, "kde-md-shadow", cls_name="KdeMdDetector")
        with pytest.raises(ValueError, match="already registered"):
            register_detector(shadow)
        assert "kde-md-shadow" not in DETECTORS.names()
        assert COMPONENTS.lookup("KdeMdDetector") is KdeMdDetector


# --------------------------------------------------------------------- #
REGISTRIES = [
    pytest.param(
        DETECTORS,
        {"kde_md": KdeMdDetector, "ema_mad": EmaMadDetector},
        VarianceThresholdDetector(window=5),
        id="detectors",
    ),
]


@pytest.mark.parametrize("registry, builtins, tuned", REGISTRIES)
class TestRegistry:
    def test_resolves_names_classes_and_instances(self, registry, builtins, tuned):
        names = registry.names()
        assert names == sorted(names) and set(builtins) <= set(names)
        for name, cls in builtins.items():
            assert registry.get(name) == cls()
            assert registry.get(cls) == cls()
        assert registry.get(tuned) is tuned

    def test_rejects_unknown_and_foreign_specs(self, registry, builtins, tuned):
        with pytest.raises(ValueError, match=f"unknown {registry.kind}.*{min(builtins)}"):
            registry.get("no-such-member")
        with pytest.raises(TypeError, match="registered name"):
            registry.get(42)
        with pytest.raises(TypeError, match=f"register_{registry.kind}"):
            registry.get(MDConfig)  # a dataclass, but not a member class

    def test_register_rejects_malformed_classes(self, registry, builtins, tuned):
        class NotADataclass:
            name = "nope"

        with pytest.raises(TypeError, match="dataclass"):
            registry.register(NotADataclass)

        @dataclasses.dataclass(frozen=True)
        class Unnamed:
            pass

        with pytest.raises(TypeError, match="class-level 'name'"):
            registry.register(Unnamed)

        @dataclasses.dataclass(frozen=True)
        class NoMethods:
            name: ClassVar[str] = "no-methods"

        with pytest.raises(TypeError, match=registry.methods[0]):
            registry.register(NoMethods)

    def test_name_collision_and_reregistration(self, registry, builtins, tuned):
        name, cls = next(iter(builtins.items()))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(member_class(registry, name, cls_name="Impostor"))
        # Re-registering the real class is a no-op, not a collision.
        assert registry.register(cls) is cls
        assert registry.lookup(name) is cls

    def test_custom_member_round_trip(self, registry, builtins, tuned, scratch_registries):
        custom = registry.register(member_class(registry, "custom-test", "CustomTest"))
        assert "custom-test" in registry.names()
        assert registry.get("custom-test") == custom()
        assert registry.get(custom) == custom()
        assert decode(json.loads(json.dumps(encode(custom(2.5))))) == custom(2.5)


# --------------------------------------------------------------------- #
def test_registered_custom_detector_resumes_warm(tmp_path, scratch_registries):
    """``@register_detector`` alone makes a detector's records reusable."""

    @register_detector
    @dataclasses.dataclass(frozen=True)
    class WideVarianceDetector(VarianceThresholdDetector):
        name: ClassVar[str] = "wide-variance"

    grid = ScenarioGrid(
        [paper_office()],
        [CampaignScale.compact().derive("tiny", n_days=1, day_duration_s=480.0)],
        detectors=["kde_md", WideVarianceDetector(window=6)],
        sensor_counts=(3,),
    )

    def runner():
        return ScenarioSweepRunner(grid, seed=5, mode="serial", re_sensor_counts=())

    store = SweepStore(tmp_path)
    cold = runner().run(store=store)
    store.reset_stats()
    warm_runner = runner()
    warm = warm_runner.run(store=store)
    stats = store.stats
    assert stats.lookups == len(grid) == 2
    assert stats.hits == stats.lookups and stats.stale == 0
    assert warm_runner.last_run_stats.n_day_tasks == 0
    assert warm.to_dict() == cold.to_dict()

    # The sweep fed the inherited engine lockstep chains: a block split at
    # random rows equals one single-chain engine per column.
    detector, rng = WideVarianceDetector(window=6), np.random.default_rng(9)
    for chains in (1, 2, 5):
        block = np.abs(rng.normal(2.0, 0.5, size=(90, chains)))
        engine = detector.streaming_engine(MDConfig(), 12)
        cuts = np.sort(rng.integers(0, 91, size=3))
        parts = [engine.extend(rows) for rows in np.split(block, cuts)]
        decisions = np.concatenate([d for d, _ in parts])
        thresholds = np.concatenate([t for _, t in parts])
        for j in range(chains):
            single = detector.streaming_engine(MDConfig(), 12)
            want_d, want_t = single.extend(block[:, j])
            np.testing.assert_array_equal(decisions[:, j], want_d)
            np.testing.assert_array_equal(thresholds[:, j], want_t)
