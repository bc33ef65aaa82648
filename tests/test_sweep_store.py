"""Tests for the persistent, resumable sweep subsystem.

Locks the contracts of :mod:`repro.analysis.sweep_store` and the store
integration of :mod:`repro.analysis.scenarios`:

* ``SweepStore`` records are atomic, name-keyed files that never serve a
  result whose key (root seed, sim index, configuration content...) does
  not match — changed configurations invalidate, they are never reused;
* ``SweepReport`` (and ``ScenarioResult`` / ``MDTableRow`` /
  ``ScenarioSpec``) round-trip losslessly through ``save``/``load``;
* resume identity: a warm store performs **zero** day-collection tasks and
  reproduces the cold report bit-identically (``to_dict()``); a half-warm
  store recollects exactly the missing simulation's days and still matches
  the cold report.
"""

import json
import math
import os
import threading

import pytest

from repro.analysis.campaign import CampaignScale
from repro.analysis.md_performance import MDTableRow
from repro.analysis.scenarios import (
    ScenarioGrid,
    ScenarioResult,
    ScenarioSpec,
    ScenarioSweepRunner,
    SweepReport,
)
from repro.analysis.sweep_store import StoreStats, SweepStore, name_slug
from repro.core.config import FadewichConfig
from repro.ml.metrics import DetectionCounts
from repro.radio.office import paper_office
from repro.simulation.runner import CampaignRunner


def tiny_scale(name="tiny", **overrides):
    base = CampaignScale.compact().derive(name, n_days=2, day_duration_s=600.0)
    return base.derive(name, **overrides) if overrides else base


def tiny_grid(configs=None, n_replicates=2, sensor_counts=(3, 6)):
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[tiny_scale()],
        configs=configs,
        n_replicates=n_replicates,
        sensor_counts=sensor_counts,
    )


@pytest.fixture
def counting_run_tasks(monkeypatch):
    """Counts every DayTask executed through CampaignRunner.run_tasks."""
    executed = []
    original = CampaignRunner.run_tasks

    def counting(self, tasks):
        tasks = list(tasks)
        executed.extend(tasks)
        return original(self, tasks)

    monkeypatch.setattr(CampaignRunner, "run_tasks", counting)
    return executed


class TestMDTableRowRoundTrip:
    def test_round_trip(self):
        row = MDTableRow(n_sensors=5, counts=DetectionCounts(tp=9, fp=2, fn=1))
        data = json.loads(json.dumps(row.to_dict()))
        back = MDTableRow.from_dict(data)
        assert back == row
        assert back.counts == DetectionCounts(9, 2, 1)
        assert back.rates == row.rates
        # The exported rates stay human-readable alongside the counts.
        assert data["tp"] == 9 and data["tp_rate"] == pytest.approx(0.75)


class TestSweepStore:
    KEY = {"root_entropy": 5, "content_hash": "abc", "sim_index": 0}
    PAYLOAD = {"n_events": 3, "md": []}

    def test_put_get_round_trip(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        assert store.get("a/b/r0", self.KEY) is None
        path = store.put("a/b/r0", self.KEY, self.PAYLOAD)
        assert path.is_file()
        assert store.get("a/b/r0", self.KEY) == self.PAYLOAD
        assert store.names() == ["a/b/r0"]
        assert len(store) == 1
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 1, "stale": 0, "corrupt": 0,
            "writes": 1, "lookups": 2,
        }

    def test_mismatched_key_is_stale_not_served(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        assert store.get("a", {**self.KEY, "content_hash": "DIFFERENT"}) is None
        assert store.get("a", {**self.KEY, "root_entropy": 6}) is None
        assert store.stats.stale == 2
        # The record itself survives: the original sweep still finds it.
        assert store.get("a", self.KEY) == self.PAYLOAD

    def test_distinct_names_never_collide_on_disk(self, tmp_path):
        store = SweepStore(tmp_path)
        # Same sanitised slug, different names.
        store.put("a/b", self.KEY, {"v": 1})
        store.put("a?b", self.KEY, {"v": 2})
        assert store.get("a/b", self.KEY) == {"v": 1}
        assert store.get("a?b", self.KEY) == {"v": 2}
        assert len(store) == 2

    def test_delete_and_clear(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        store.put("b", self.KEY, self.PAYLOAD)
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert store.names() == ["b"]
        assert store.clear() == 1
        assert len(store) == 0

    def test_unparseable_record_quarantined(self, tmp_path):
        # Bad bytes are not a miss: the record is counted corrupt and
        # moved aside to a .corrupt file, so the slot recollects cleanly
        # instead of re-reading the same bad file on every resume.
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        store.record_path("a").write_text("{not json", encoding="utf-8")
        assert store.get("a", self.KEY) is None
        assert store.stats.corrupt == 1 and store.stats.misses == 0
        assert not store.record_path("a").exists()
        assert store.quarantine_path("a").read_text() == "{not json"
        assert store.corrupt_files() == [store.quarantine_path("a")]
        assert store.names() == []
        # A fresh put repairs the slot (the quarantined bytes remain for
        # post-mortem).
        store.put("a", self.KEY, self.PAYLOAD)
        assert store.get("a", self.KEY) == self.PAYLOAD

    def test_checksum_mismatch_quarantined(self, tmp_path):
        # A parseable record whose result block was tampered with (or
        # bit-rotted) fails its SHA-256 and is quarantined — it must not
        # be served as a hit, nor linger to be re-read forever.
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        path = store.record_path("a")
        record = json.loads(path.read_text())
        record["result"]["n_events"] = 99  # silent flip, checksum stays old
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get("a", self.KEY) is None
        assert store.stats.corrupt == 1 and store.stats.stale == 0
        assert not path.exists()
        assert store.quarantine_path("a").exists()

    def test_missing_checksum_field_is_corrupt(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        self._mangle(store, "a", lambda r: r.pop("checksum"))
        assert store.get("a", self.KEY) is None
        assert store.stats.corrupt == 1

    def test_io_error_is_a_miss_and_leaves_the_file(self, tmp_path):
        # A transient read error (injected through the store.read seam)
        # must not quarantine a perfectly good record.
        from repro.reliability import FaultPlan, FaultSpec, STORE_READ

        store = SweepStore(
            tmp_path,
            faults=FaultPlan.of(FaultSpec(point=STORE_READ, hits=(0,))),
        )
        store.put("a", self.KEY, self.PAYLOAD)
        assert store.get("a", self.KEY) is None  # injected EIO
        assert store.stats.misses == 1 and store.stats.corrupt == 0
        assert store.record_path("a").exists()
        assert store.get("a", self.KEY) == self.PAYLOAD  # next read is fine

    def _mangle(self, store, name, mutate):
        path = store.record_path(name)
        record = json.loads(path.read_text())
        mutate(record)
        path.write_text(json.dumps(record), encoding="utf-8")

    def test_missing_fingerprint_block_is_stale(self, tmp_path):
        # A record whose JSON parses but whose fingerprint block is gone
        # must count as stale — not crash, not serve as a hit.
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        self._mangle(store, "a", lambda r: r.pop("key"))
        assert store.get("a", self.KEY) is None
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 0, "stale": 1, "corrupt": 0,
            "writes": 1, "lookups": 1,
        }

    def test_old_format_version_is_stale(self, tmp_path):
        # RECORD_FORMAT's contract: incompatible layouts read as stale
        # (the record *is* this scenario's, just from an older writer).
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        self._mangle(store, "a", lambda r: r.update(format=0))
        assert store.get("a", self.KEY) is None
        assert store.stats.stale == 1 and store.stats.misses == 0

    def test_missing_result_block_is_stale(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        self._mangle(store, "a", lambda r: r.pop("result"))
        assert store.get("a", self.KEY) is None
        assert store.stats.stale == 1 and store.stats.misses == 0

    def test_foreign_record_on_the_slot_is_a_miss(self, tmp_path):
        # A file squatting on the scenario's path that is not one of its
        # records (different name, or not a record at all) is a miss: the
        # scenario was never stored.
        store = SweepStore(tmp_path)
        store.put("a", self.KEY, self.PAYLOAD)
        self._mangle(store, "a", lambda r: r.update(name="somebody-else"))
        assert store.get("a", self.KEY) is None
        assert store.stats.misses == 1 and store.stats.stale == 0
        store.record_path("a").write_text("[1, 2, 3]", encoding="utf-8")
        assert store.get("a", self.KEY) is None
        assert store.stats.misses == 2 and store.stats.stale == 0

    def test_lookups_partition_into_hits_misses_stale_corrupt(self, tmp_path):
        # Every get() lands in exactly one counter, so the four always
        # sum to the number of lookups — whatever mix of good, mangled,
        # corrupt, foreign and absent records the store holds.
        store = SweepStore(tmp_path)
        store.put("good", self.KEY, self.PAYLOAD)
        store.put("mangled", self.KEY, self.PAYLOAD)
        self._mangle(store, "mangled", lambda r: r.pop("key"))
        store.put("wrong-key", {**self.KEY, "sim_index": 9}, self.PAYLOAD)
        store.record_path("corrupt").write_text("{not json", encoding="utf-8")
        for name in ("good", "mangled", "wrong-key", "corrupt", "absent"):
            store.get(name, self.KEY)
        stats = store.stats
        assert (
            stats.hits + stats.misses + stats.stale + stats.corrupt
            == 5
            == stats.lookups
        )
        assert stats.as_dict() == {
            "hits": 1, "misses": 1, "stale": 2, "corrupt": 1,
            "writes": 3, "lookups": 5,
        }

    def test_writes_are_atomic_no_temp_leftovers(self, tmp_path):
        store = SweepStore(tmp_path)
        for i in range(5):
            store.put("a", self.KEY, {"v": i})
        leftovers = [p for p in store.path.iterdir() if p.suffix != ".json"]
        assert leftovers == []
        assert store.get("a", self.KEY) == {"v": 4}

    def test_injected_write_and_fsync_failures_leave_store_intact(
        self, tmp_path
    ):
        # Write-path faults must abort the put cleanly: the previous
        # record survives, no temp files leak, and the next put succeeds.
        from repro.reliability import (
            FaultPlan, FaultSpec, STORE_FSYNC, STORE_WRITE,
        )

        store = SweepStore(
            tmp_path,
            faults=FaultPlan.of(
                FaultSpec(point=STORE_WRITE, hits=(1,)),
                # Each point counts its own occurrences; the write-fault
                # put never reaches fsync, so the faulty fsync is the
                # point's second occurrence, not its third.
                FaultSpec(point=STORE_FSYNC, hits=(1,)),
            ),
        )
        store.put("a", self.KEY, {"v": 0})
        with pytest.raises(OSError, match="store.write"):
            store.put("a", self.KEY, {"v": 1})
        with pytest.raises(OSError, match="store.fsync"):
            store.put("a", self.KEY, {"v": 2})
        assert store.get("a", self.KEY) == {"v": 0}
        leftovers = [p for p in store.path.iterdir() if p.suffix != ".json"]
        assert leftovers == []
        store.put("a", self.KEY, {"v": 3})
        assert store.get("a", self.KEY) == {"v": 3}

    def test_injected_corruption_detected_on_next_read(self, tmp_path):
        # store.corrupt mangles the bytes en route to disk; the checksum
        # path must catch it on the next read and quarantine the file.
        from repro.reliability import FaultPlan, FaultSpec, STORE_CORRUPT

        store = SweepStore(
            tmp_path,
            faults=FaultPlan.of(FaultSpec(point=STORE_CORRUPT, hits=(0,))),
        )
        store.put("a", self.KEY, self.PAYLOAD)
        assert store.get("a", self.KEY) is None
        assert store.stats.corrupt == 1
        assert store.quarantine_path("a").exists()
        store.put("a", self.KEY, self.PAYLOAD)  # occurrence 1: clean
        assert store.get("a", self.KEY) == self.PAYLOAD


class TestNameSlug:
    """``record_path`` filename safety: scenario names are arbitrary strings
    (layout/scale/channel/config identifiers joined with ``/``), so the
    on-disk name must be escaped, bounded, collision-free and deterministic.
    """

    def test_deterministic_and_escaped(self):
        assert name_slug("a/b c?d") == name_slug("a/b c?d")
        for hostile in ("../../../etc/passwd", "a/../b", "..", "a\\b", "/x"):
            slug = name_slug(hostile)
            assert os.sep not in slug
            assert not slug.startswith(".")

    def test_traversal_names_stay_inside_the_store(self, tmp_path):
        store = SweepStore(tmp_path / "store")
        path = store.put("../../escape", self.key(), {"v": 1})
        assert path.parent == store.path
        assert store.get("../../escape", self.key()) == {"v": 1}

    def test_long_names_are_bounded_but_distinct(self, tmp_path):
        a, b = "x" * 4000, "x" * 4000 + "y"
        assert len(name_slug(a)) <= 91  # 80-char slug + "-" + 10-hex digest
        assert name_slug(a) != name_slug(b)
        store = SweepStore(tmp_path)
        store.put(a, self.key(), {"v": "a"})
        store.put(b, self.key(), {"v": "b"})
        assert store.get(a, self.key()) == {"v": "a"}
        assert store.get(b, self.key()) == {"v": "b"}

    def test_punctuation_variants_never_collide(self):
        # All of these sanitise to the same character class; the content
        # digest keeps them distinct.
        variants = ["a/b", "a?b", "a b", "a*b", "a:b", "a\nb"]
        slugs = {name_slug(v) for v in variants}
        assert len(slugs) == len(variants)

    def test_dot_only_names_get_a_fallback_slug(self):
        slug = name_slug("...")
        assert slug.startswith("scenario-")

    def test_invalid_names_rejected(self):
        with pytest.raises(TypeError, match="must be a str"):
            name_slug(123)
        with pytest.raises(ValueError, match="empty"):
            name_slug("")
        with pytest.raises(ValueError, match="NUL"):
            name_slug("a\x00b")

    def test_lease_files_coexist_and_stay_invisible(self, tmp_path):
        store = SweepStore(tmp_path)
        store.put("a/b", self.key(), {"v": 1})
        store.lease_path("a/b").write_text("{}", encoding="utf-8")
        assert store.names() == ["a/b"]
        # clear() removes leases too but only counts records.
        assert store.clear() == 1
        assert not store.lease_path("a/b").exists()

    @staticmethod
    def key():
        return {"root_entropy": 5, "content_hash": "abc", "sim_index": 0}


class TestStoreStatsConcurrency:
    def test_hammered_counters_still_partition(self, tmp_path):
        # N threads hammer one store with a fixed mix of hit, miss and
        # stale lookups; the bare-int counters used to drop updates under
        # this load, breaking hits + misses + stale == lookups.
        store = SweepStore(tmp_path)
        key = {"root_entropy": 5, "content_hash": "abc", "sim_index": 0}
        store.put("warm", key, {"v": 1})
        n_threads, n_rounds = 8, 200
        barrier = threading.Barrier(n_threads)

        def hammer(i):
            barrier.wait()
            for r in range(n_rounds):
                store.get("warm", key)                          # hit
                store.get(f"absent-{i}-{r}", key)               # miss
                store.get("warm", {**key, "sim_index": 9})      # stale
                store.stats.count_write()

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats
        total = n_threads * n_rounds
        assert stats.lookups == 3 * total
        assert stats.hits == total
        assert stats.misses == total
        assert stats.stale == total
        assert stats.hits + stats.misses + stats.stale == stats.lookups
        assert stats.writes == total + 1  # the warm-up put

    def test_reclassify_hit_as_stale_preserves_partition(self):
        stats = StoreStats()
        stats.count_hit()
        stats.count_hit()
        stats.reclassify_hit_as_stale()
        assert stats.as_dict() == {
            "hits": 1, "misses": 0, "stale": 1, "corrupt": 0,
            "writes": 0, "lookups": 2,
        }


class TestReportRoundTrip:
    @pytest.fixture(scope="class")
    def report(self):
        # >= 2 replicates so the round trip covers the replicate axis.
        return ScenarioSweepRunner(
            tiny_grid(), seed=13, mode="serial", re_sensor_counts=()
        ).run()

    def test_save_load_compares_equal(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.save(path)
        loaded = SweepReport.load(path)
        assert [r.spec for r in loaded.results] == [
            r.spec for r in report.results
        ]
        for got, want in zip(loaded.results, report.results):
            assert got.md_rows == want.md_rows
            assert [row.rates for row in got.md_rows] == [
                row.rates for row in want.md_rows
            ]
            assert got.re_accuracies == want.re_accuracies
            assert (got.n_events, got.n_departures) == (
                want.n_events, want.n_departures,
            )
            assert got.recording is None
        assert loaded.summary() == report.summary()
        assert loaded.cell_statistics() == report.cell_statistics()
        assert loaded.to_dict() == report.to_dict()
        assert loaded.seed_entropy == 13

    def test_round_trip_with_re_stage_and_dropped_recordings(self, tmp_path):
        grid = ScenarioGrid(
            layouts=[paper_office()],
            scales=[tiny_scale("re-tiny", departures_per_hour=10.0)],
            n_replicates=2,
            sensor_counts=(3, 9),
        )
        report = ScenarioSweepRunner(
            grid, seed=3, mode="serial", keep_recordings=False
        ).run()
        assert all(result.recording is None for result in report.results)
        path = tmp_path / "report.json"
        report.save(path)
        loaded = SweepReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        # RE accuracies survive at full precision (they feed statistics).
        for got, want in zip(loaded.results, report.results):
            assert got.re_accuracies == want.re_accuracies

    def test_spec_round_trip_standalone(self):
        spec = tiny_grid().scenarios()[1]
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.content_hash() == spec.content_hash()

    def test_result_from_dict_reconstructs_counts(self, report):
        result = report.results[0]
        back = ScenarioResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back.spec == result.spec
        assert back.md_rows == result.md_rows
        assert all(
            isinstance(row.counts, DetectionCounts) for row in back.md_rows
        )


class TestResumableSweep:
    SEED = 5

    def runner(self, grid=None, **kwargs):
        return ScenarioSweepRunner(
            grid if grid is not None else tiny_grid(
                configs={
                    "default": FadewichConfig(),
                    "t6": FadewichConfig().derive(t_delta_s=6.0),
                }
            ),
            seed=self.SEED,
            mode="serial",
            re_sensor_counts=(),
            **kwargs,
        )

    def test_warm_store_zero_day_tasks_bit_identical(
        self, tmp_path, counting_run_tasks
    ):
        store = SweepStore(tmp_path)
        cold_runner = self.runner()
        cold = cold_runner.run(store=store)
        n_cold_tasks = len(counting_run_tasks)
        assert n_cold_tasks > 0
        assert cold_runner.last_run_stats.n_day_tasks == n_cold_tasks
        assert cold_runner.last_run_stats.n_cached == 0

        warm_runner = self.runner()
        warm = warm_runner.run(store=store)
        # The resume-identity contract: zero collection work...
        assert len(counting_run_tasks) == n_cold_tasks
        assert warm_runner.last_run_stats.n_day_tasks == 0
        assert warm_runner.last_run_stats.n_cached == len(warm.results)
        assert warm_runner.last_run_stats.n_analyzed == 0
        # ...and a bit-identical report.
        assert warm.to_dict() == cold.to_dict()

    def test_half_warm_store_recollects_only_missing_simulation(
        self, tmp_path, counting_run_tasks
    ):
        store = SweepStore(tmp_path)
        cold = self.runner().run(store=store)
        del counting_run_tasks[:]

        # Drop one scenario's record; its config-sharing twin stays warm.
        victim = cold.results[0].spec
        assert store.delete(victim.name)
        resumed_runner = self.runner()
        resumed = resumed_runner.run(store=store)

        # Only the victim's simulation was recollected: its n_days tasks,
        # every one belonging to the victim's layout/seed.
        assert len(counting_run_tasks) == victim.scale.n_days
        stats = resumed_runner.last_run_stats
        assert stats.n_simulations == 1
        assert stats.n_analyzed == 1
        assert stats.n_cached == len(cold.results) - 1
        # And the resumed report matches the cold run exactly.
        assert resumed.to_dict() == cold.to_dict()

    def test_changed_config_invalidates_records(self, tmp_path):
        store = SweepStore(tmp_path)
        self.runner().run(store=store)
        n_records = len(store)
        store.reset_stats()

        # Same grid shape and names, different FadewichConfig content:
        # every record must read as stale, nothing may be reused.
        changed = self.runner(
            grid=tiny_grid(
                configs={
                    "default": FadewichConfig().derive(md={"alpha": 2.0}),
                    "t6": FadewichConfig().derive(t_delta_s=6.0),
                }
            )
        )
        report = changed.run(store=store)
        assert store.stats.hits == n_records // 2  # untouched t6 variants
        assert store.stats.stale == n_records // 2
        assert changed.last_run_stats.n_analyzed == n_records // 2
        assert report.n_scenarios == n_records

    def test_changed_seed_invalidates_records(self, tmp_path):
        store = SweepStore(tmp_path)
        self.runner().run(store=store)
        store.reset_stats()
        other = ScenarioSweepRunner(
            tiny_grid(
                configs={
                    "default": FadewichConfig(),
                    "t6": FadewichConfig().derive(t_delta_s=6.0),
                }
            ),
            seed=self.SEED + 1,
            mode="serial",
            re_sensor_counts=(),
        )
        other.run(store=store)
        assert store.stats.hits == 0
        assert store.stats.stale > 0

    def test_grid_reshape_invalidates_shifted_sim_indices(self, tmp_path):
        # Prepending a scale shifts every later scenario's simulation-seed
        # index: surviving names must not reuse records computed under a
        # different derived seed.
        store = SweepStore(tmp_path)
        base_grid = ScenarioGrid(
            layouts=[paper_office()], scales=[tiny_scale()], sensor_counts=(3,)
        )
        ScenarioSweepRunner(
            base_grid, seed=1, mode="serial", re_sensor_counts=()
        ).run(store=store)
        reshaped = ScenarioGrid(
            layouts=[paper_office()],
            scales=[tiny_scale("tiny-first", departures_per_hour=9.0), tiny_scale()],
            sensor_counts=(3,),
        )
        runner = ScenarioSweepRunner(
            reshaped, seed=1, mode="serial", re_sensor_counts=()
        )
        store.reset_stats()
        runner.run(store=store)
        # The surviving name's sim_index moved 0 -> 1: stale, recomputed.
        assert store.stats.hits == 0
        assert store.stats.stale == 1

    def test_library_version_is_part_of_the_key(self, tmp_path):
        import repro

        runner = self.runner()
        spec = runner.specs[0]
        key = runner.store_key(spec)
        assert key["version"] == repro.__version__
        # A record computed by an older library version must read as
        # stale: this repo consciously re-pins analysis semantics across
        # releases, and resuming across that boundary would silently mix
        # old- and new-code numbers in one report.
        store = SweepStore(tmp_path)
        store.put(spec.name, {**key, "version": "0.0.0"}, {"md": []})
        assert store.get(spec.name, key) is None
        assert store.stats.stale == 1

    def test_mangled_payload_recomputed_not_crashed(self, tmp_path):
        # A record whose key matches but whose payload cannot rebuild a
        # ScenarioResult (hand-edited file, foreign writer) must be
        # recomputed — corrupted records read as misses, never crashes.
        runner = self.runner()
        store = SweepStore(tmp_path)
        cold = runner.run(store=store)
        victim = cold.results[0].spec
        store.put(victim.name, runner.store_key(victim), {"bogus": True})
        store.reset_stats()
        resumed_runner = self.runner()
        resumed = resumed_runner.run(store=store)
        assert resumed_runner.last_run_stats.n_analyzed == 1
        assert resumed.to_dict() == cold.to_dict()
        # The mangled record is accounted as stale, not as a reusable hit:
        # hits + misses + stale partitions the lookups.
        stats = store.stats
        assert stats.stale == 1
        assert stats.hits == len(cold.results) - 1
        assert stats.hits + stats.misses + stats.stale == len(cold.results)

    def test_non_dict_result_payload_is_stale(self, tmp_path):
        # The record is recognisably ours (name matches) but its result
        # block is mangled: unusable, so `stale` — and invisible to
        # names(), which only lists well-formed records.
        store = SweepStore(tmp_path)
        store.put("a", TestSweepStore.KEY, {"ok": 1})
        path = store.record_path("a")
        record = json.loads(path.read_text())
        record["result"] = ["not", "a", "dict"]
        path.write_text(json.dumps(record), encoding="utf-8")
        assert store.get("a", TestSweepStore.KEY) is None
        assert store.stats.stale == 1 and store.stats.misses == 0
        assert store.names() == []

    def test_run_without_store_unchanged(self, counting_run_tasks):
        plain = self.runner().run()
        stats = self.runner()
        with_store_none = stats.run(store=None)
        assert with_store_none.to_dict() == plain.to_dict()


class TestCellStatistics:
    def test_replicate_statistics_match_manual(self):
        report = ScenarioSweepRunner(
            tiny_grid(n_replicates=3, sensor_counts=(3,)),
            seed=9,
            mode="serial",
            re_sensor_counts=(),
        ).run()
        cells = report.cell_statistics()
        assert len(cells) == 1
        cell = cells[0]
        assert cell["n_replicates"] == 3
        f_values = [r.md_rows[0].counts.f_measure for r in report.results]
        import numpy as np

        assert cell["f_mean"] == pytest.approx(float(np.mean(f_values)))
        std = float(np.std(f_values, ddof=1))
        assert cell["f_std"] == pytest.approx(std)
        assert cell["f_ci95"] == pytest.approx(1.96 * std / math.sqrt(3))
        # No RE stage ran: RE statistics are NaN, not fabricated zeros.
        assert math.isnan(cell["re_mean"])

    def test_single_replicate_ci95_is_nan(self):
        report = ScenarioSweepRunner(
            tiny_grid(n_replicates=1, sensor_counts=(3,)),
            seed=9,
            mode="serial",
            re_sensor_counts=(),
        ).run()
        cell = report.cell_statistics()[0]
        assert cell["n_replicates"] == 1
        assert not math.isnan(cell["f_mean"])
        assert math.isnan(cell["f_std"])
        assert math.isnan(cell["f_ci95"])
        # Exported as null (strict JSON), rendered as n/a.
        exported = report.to_dict()["cell_statistics"][0]
        assert exported["f_ci95"] is None
        json.dumps(report.to_dict(), allow_nan=False)
        assert "n/a" in report.render()

    def test_cells_split_by_config_and_surface_in_render(self):
        report = ScenarioSweepRunner(
            tiny_grid(
                configs={
                    "default": FadewichConfig(),
                    "t6": FadewichConfig().derive(t_delta_s=6.0),
                },
                n_replicates=2,
                sensor_counts=(3,),
            ),
            seed=11,
            mode="serial",
            re_sensor_counts=(),
        ).run()
        cells = report.cell_statistics()
        assert [(c["config"], c["n_sensors"]) for c in cells] == [
            ("default", 3), ("t6", 3),
        ]
        assert all(c["n_replicates"] == 2 for c in cells)
        text = report.render()
        assert "replicate statistics" in text
        assert "paper-office/tiny/default/t6" in text
