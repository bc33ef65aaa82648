"""Crash-recovery tests for the distributed sweep queue.

Locks the lease protocol and the cooperative-fill contracts of
:mod:`repro.analysis.sweep_queue`:

* claims are atomic and exclusive — of any number of contenders racing
  one simulation key, exactly one wins; a live foreign lease blocks,
  an expired one (stale heartbeat, e.g. a SIGKILL'd worker) is
  reclaimable by anyone, and completed records supersede claims;
* cooperative fills are bit-identical to solo runs: one worker, two
  threads, or two processes over the same grid all produce a
  ``to_dict()``-identical :class:`SweepReport`, and a warm store needs
  zero claims and zero day tasks;
* killing a worker mid-grid loses nothing: the restarted fleet reclaims
  the orphan lease after its TTL, completes the grid, and the store holds
  exactly one record per scenario;
* :func:`run_prioritized` runs named grids in priority order with
  per-grid stores/logs and one merged JSON report.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_queue import (
    GridJob,
    LeaseInfo,
    LeaseManager,
    SweepWorker,
    _worker_entry,
    run_prioritized,
    sim_lease_name,
)
from repro.analysis.sweep_store import SweepStore
from repro.core.config import FadewichConfig
from repro.radio.office import paper_office


def fast_scale(name="queue-tiny"):
    return CampaignScale.compact().derive(
        name, n_days=1, day_duration_s=600.0
    )


def small_grid():
    """4 scenarios over 2 simulation keys (2 replicates x 2 configs)."""
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[fast_scale()],
        configs={
            "default": FadewichConfig(),
            "t6": FadewichConfig().derive(t_delta_s=6.0),
        },
        n_replicates=2,
        sensor_counts=(3,),
    )


def wide_grid():
    """24 scenarios over 8 simulation keys (8 replicates x 3 configs)."""
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[fast_scale()],
        configs={
            "default": FadewichConfig(),
            "t6": FadewichConfig().derive(t_delta_s=6.0),
            "a2": FadewichConfig().derive(md={"alpha": 2.0}),
        },
        n_replicates=8,
        sensor_counts=(3,),
    )


def make_runner(grid):
    return ScenarioSweepRunner(
        grid, seed=11, mode="serial", re_sensor_counts=()
    )


def write_stale_lease(store, name, age_s=3600.0, ttl_s=1.0):
    """Plant the lease a SIGKILL'd worker would leave: old heartbeat."""
    payload = {
        "format": 1,
        "name": name,
        "owner": "dead-worker",
        "pid": 999999,
        "heartbeat": time.time() - age_s,
        "ttl_s": ttl_s,
    }
    with open(store.lease_path(name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class TestLeaseManager:
    def test_acquire_release_roundtrip(self, tmp_path):
        leases = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        assert leases.try_acquire("key")
        assert leases.held() == ["key"]
        info = leases.read("key")
        assert isinstance(info, LeaseInfo)
        assert info.owner == "a"
        assert info.pid == os.getpid()
        assert not info.expired()
        # Re-acquiring a held lease is an idempotent yes.
        assert leases.try_acquire("key")
        leases.release("key")
        assert leases.held() == []
        assert leases.read("key") is None

    def test_live_foreign_lease_blocks(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        assert a.try_acquire("key")
        assert not b.try_acquire("key")
        # The loser must not have disturbed the winner's lease.
        assert a.read("key").owner == "a"
        # Releasing someone else's lease is a no-op on disk.
        b.release("key")
        assert a.read("key").owner == "a"

    def test_stale_lease_reclaimed_after_expiry(self, tmp_path):
        store = SweepStore(tmp_path)
        write_stale_lease(store, "key", age_s=3600.0, ttl_s=1.0)
        b = LeaseManager(store, owner="b", ttl_s=30.0)
        assert b.read("key").expired()
        assert b.try_acquire("key")
        assert b.read("key").owner == "b"

    def test_fresh_lease_is_not_reclaimable(self, tmp_path):
        store = SweepStore(tmp_path)
        write_stale_lease(store, "key", age_s=0.0, ttl_s=3600.0)
        b = LeaseManager(store, owner="b", ttl_s=30.0)
        assert not b.try_acquire("key")

    def test_unreadable_lease_ages_by_mtime(self, tmp_path):
        store = SweepStore(tmp_path)
        path = store.lease_path("key")
        path.write_text("not json at all\n", encoding="utf-8")
        b = LeaseManager(store, owner="b", ttl_s=5.0)
        # Fresh junk reads as a live unknown-owner lease: do not break what
        # a competitor may have just written.
        info = b.read("key")
        assert info.owner == "<unreadable>"
        assert not b.try_acquire("key")
        # Old junk is reclaimable like any expired lease.
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        assert b.try_acquire("key")
        assert b.read("key").owner == "b"

    def test_contention_exactly_one_winner(self, tmp_path):
        n_contenders, rounds = 8, 5
        managers = [
            LeaseManager(tmp_path, owner=f"w{i}", ttl_s=30.0)
            for i in range(n_contenders)
        ]
        for round_idx in range(rounds):
            name = f"key-{round_idx}"
            barrier = threading.Barrier(n_contenders)
            wins = []

            def contend(leases, wins=wins, name=name, barrier=barrier):
                barrier.wait()
                if leases.try_acquire(name):
                    wins.append(leases.owner)

            threads = [
                threading.Thread(target=contend, args=(m,)) for m in managers
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(wins) == 1
            assert SweepStore(tmp_path).lease_path(name).exists()

    def test_renew_keeps_lease_live_and_detects_theft(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        assert a.try_acquire("key")
        before = a.read("key").heartbeat
        time.sleep(0.02)
        assert a.renew("key")
        assert a.read("key").heartbeat > before
        # A competitor reclaims the key behind our back (as after expiry):
        # renew must fail and forget rather than steal it back.
        store = SweepStore(tmp_path)
        os.unlink(store.lease_path("key"))
        b = LeaseManager(store, owner="b", ttl_s=30.0)
        assert b.try_acquire("key")
        assert not a.renew("key")
        assert a.held() == []
        assert store.lease_path("key").exists()
        assert b.read("key").owner == "b"

    def test_ttl_validation(self, tmp_path):
        with pytest.raises(ValueError, match="ttl_s must be positive"):
            LeaseManager(tmp_path, ttl_s=0.0)

    def test_lease_files_invisible_to_store_names(self, tmp_path):
        store = SweepStore(tmp_path)
        leases = LeaseManager(store, owner="a")
        assert leases.try_acquire("some/sim/key/r0")
        assert store.names() == []

    def test_sim_lease_name_shape(self):
        assert (
            sim_lease_name(("paper", "tiny", "default", 3))
            == "paper/tiny/default/r3"
        )


class TestCooperativeRun:
    @pytest.fixture(scope="class")
    def serial_dict(self):
        return make_runner(small_grid()).run().to_dict()

    def test_claim_nothing_is_a_complete_noop(self, tmp_path, serial_dict):
        class ClaimNothing:
            def claim(self, sim_key):
                return False

        runner = make_runner(small_grid())
        report = runner.run(store=SweepStore(tmp_path), claims=ClaimNothing())
        stats = runner.last_run_stats
        assert stats.n_analyzed == 0 and stats.n_day_tasks == 0
        assert stats.n_unclaimed == len(serial_dict["scenarios"])
        assert not stats.complete
        assert report.n_scenarios == 0

    def test_solo_worker_matches_serial(self, tmp_path, serial_dict):
        worker = SweepWorker(
            make_runner(small_grid()), tmp_path, timeout_s=120.0
        )
        report = worker.run()
        assert report.to_dict() == serial_dict
        stats = worker.last_worker_stats
        assert stats.claims_won == 2  # one per simulation key
        assert stats.scenarios_analyzed == len(serial_dict["scenarios"])
        # All leases released, one record per scenario.
        store = worker.store
        assert len(store.names()) == len(serial_dict["scenarios"])
        assert not list(store.path.glob("*.lease"))

    def test_warm_store_needs_zero_claims(self, tmp_path, serial_dict):
        make_runner(small_grid()).run(store=SweepStore(tmp_path))
        worker = SweepWorker(
            make_runner(small_grid()), tmp_path, timeout_s=120.0
        )
        report = worker.run()
        assert report.to_dict() == serial_dict
        stats = worker.last_worker_stats
        assert stats.passes == 1
        assert stats.claims_won == 0
        assert stats.scenarios_analyzed == 0

    def test_completed_records_supersede_foreign_claims(
        self, tmp_path, serial_dict
    ):
        # A competitor holds every key it finished but crashed before
        # releasing: the records exist, the leases are live.  A fresh
        # worker must serve the grid from the records without waiting for
        # (or breaking) the leases.
        store = SweepStore(tmp_path)
        runner = make_runner(small_grid())
        runner.run(store=store)
        foreign = LeaseManager(store, owner="competitor", ttl_s=3600.0)
        for sim_key in runner._sim_indices:
            assert foreign.try_acquire(sim_lease_name(sim_key))
        worker = SweepWorker(
            make_runner(small_grid()), store, timeout_s=10.0
        )
        report = worker.run()
        assert report.to_dict() == serial_dict
        assert worker.last_worker_stats.claims_won == 0
        # The competitor's leases were honoured, not broken.
        assert foreign.read(
            sim_lease_name(next(iter(runner._sim_indices)))
        ).owner == "competitor"

    def test_two_thread_cooperative_fill_matches_serial(
        self, tmp_path, serial_dict
    ):
        workers = [
            SweepWorker(
                make_runner(small_grid()),
                tmp_path,
                owner=f"thread-{i}",
                poll_interval_s=0.05,
                timeout_s=120.0,
            )
            for i in range(2)
        ]
        reports = [None, None]

        def run(i):
            reports[i] = workers[i].run()

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Both exit with the complete grid, bit-identical to serial.
        assert reports[0].to_dict() == serial_dict
        assert reports[1].to_dict() == serial_dict
        # Claims partitioned the keys: every key won exactly once.
        total_wins = sum(w.last_worker_stats.claims_won for w in workers)
        assert total_wins == 2
        store = SweepStore(tmp_path)
        assert len(store.names()) == len(serial_dict["scenarios"])
        assert not list(store.path.glob("*.lease"))

    def test_worker_timeout_on_permanently_held_key(self, tmp_path):
        store = SweepStore(tmp_path)
        runner = make_runner(small_grid())
        hog = LeaseManager(store, owner="hog", ttl_s=3600.0)
        assert hog.try_acquire(sim_lease_name(next(iter(runner._sim_indices))))
        worker = SweepWorker(
            runner, store, poll_interval_s=0.05, timeout_s=1.5
        )
        with pytest.raises(TimeoutError, match="unclaimed"):
            worker.run()
        # Our own leases were cleaned up on the way out.
        assert [p.name for p in store.path.glob("*.lease")] == [
            store.lease_path(
                sim_lease_name(next(iter(runner._sim_indices)))
            ).name
        ]


class TestCrashRecovery:
    def test_stale_lease_from_killed_worker_is_reclaimed(self, tmp_path):
        # The on-disk state a worker SIGKILL'd mid-claim leaves behind: a
        # cold key whose lease has a dead owner and an expired heartbeat.
        store = SweepStore(tmp_path)
        runner = make_runner(small_grid())
        for sim_key in runner._sim_indices:
            write_stale_lease(
                store, sim_lease_name(sim_key), age_s=3600.0, ttl_s=2.0
            )
        serial_dict = make_runner(small_grid()).run().to_dict()
        worker = SweepWorker(
            make_runner(small_grid()), store, timeout_s=120.0
        )
        report = worker.run()
        assert report.to_dict() == serial_dict
        assert worker.last_worker_stats.claims_won == 2
        assert not list(store.path.glob("*.lease"))

    def test_sigkill_mid_grid_then_restarted_fleet_completes(self, tmp_path):
        serial_dict = make_runner(wide_grid()).run().to_dict()
        store_dir = tmp_path / "store"
        store = SweepStore(store_dir)
        job = GridJob(name="wide", grid=wide_grid(), seed=11,
                      re_sensor_counts=())
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(
            target=_worker_entry,
            args=(job, str(store.path), "victim", 2.0, 0.05, 1, 120.0, None),
        )
        victim.start()
        # Let it land at least one record, then kill it without cleanup.
        deadline = time.monotonic() + 60.0
        while not store.names():
            assert victim.is_alive(), "victim finished before the kill"
            assert time.monotonic() < deadline
            time.sleep(0.02)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        assert victim.exitcode == -signal.SIGKILL
        n_after_kill = len(store.names())
        assert n_after_kill < len(serial_dict["scenarios"])
        # Restarted fleet: the orphan lease (if the victim died mid-claim)
        # expires within its 2 s TTL and the grid completes with no record
        # lost and none duplicated.
        worker = SweepWorker(
            GridJob(name="wide", grid=wide_grid(), seed=11,
                    re_sensor_counts=()).make_runner(),
            store,
            poll_interval_s=0.05,
            lease_ttl_s=2.0,
            timeout_s=300.0,
        )
        report = worker.run()
        assert report.to_dict() == serial_dict
        assert len(store.names()) == len(serial_dict["scenarios"])
        assert not list(store.path.glob("*.lease"))

    def test_two_process_run_prioritized_matches_serial(self, tmp_path):
        serial_dict = make_runner(wide_grid()).run().to_dict()
        result = run_prioritized(
            [GridJob(name="wide", grid=wide_grid(), seed=11,
                     re_sensor_counts=())],
            tmp_path / "store",
            workers=2,
            lease_ttl_s=10.0,
            poll_interval_s=0.05,
            worker_timeout_s=300.0,
            log_dir=tmp_path / "logs",
            report_path=tmp_path / "SWEEP_report.json",
            mp_context="fork",
        )
        assert result.order == ["wide"]
        assert result.reports["wide"].to_dict() == serial_dict
        # The merged JSON on disk is exactly to_dict().
        with open(result.report_path, encoding="utf-8") as handle:
            assert json.load(handle) == result.to_dict()
        log_text = result.log_paths["wide"].read_text(encoding="utf-8")
        assert "[driver] grid 'wide'" in log_text
        assert "worker exit codes [0, 0]" in log_text


class TestRunPrioritized:
    def test_priority_order_and_per_grid_stores(self, tmp_path):
        grids = {"first": small_grid(), "second": small_grid()}
        result = run_prioritized(
            grids,
            tmp_path / "store",
            workers=1,
            log_dir=tmp_path / "logs",
            report_path=tmp_path / "SWEEP_report.json",
        )
        assert result.order == ["first", "second"]
        # Same grid, same default seed: the two reports agree, from two
        # disjoint store subdirectories.
        assert (
            result.reports["first"].to_dict()
            == result.reports["second"].to_dict()
        )
        for name in grids:
            sub = [
                p for p in (tmp_path / "store").iterdir()
                if p.is_dir() and p.name.startswith(name)
            ]
            assert len(sub) == 1
            assert list(sub[0].glob("*.json"))
            assert (tmp_path / "logs" / f"{sub[0].name}.log").exists()
        merged = json.loads(
            (tmp_path / "SWEEP_report.json").read_text(encoding="utf-8")
        )
        assert merged["order"] == ["first", "second"]
        assert set(merged["grids"]) == {"first", "second"}

    def test_second_invocation_is_warm(self, tmp_path, counting_run_tasks):
        store = tmp_path / "store"
        first = run_prioritized(
            {"g": small_grid()}, store, workers=1, report_path=None
        )
        n_cold_tasks = len(counting_run_tasks)
        assert n_cold_tasks > 0
        second = run_prioritized(
            {"g": small_grid()}, store, workers=1, report_path=None
        )
        assert len(counting_run_tasks) == n_cold_tasks  # zero new day tasks
        assert second.reports["g"].to_dict() == first.reports["g"].to_dict()

    def test_duplicate_names_rejected(self, tmp_path):
        jobs = [
            GridJob(name="g", grid=small_grid()),
            GridJob(name="g", grid=small_grid()),
        ]
        with pytest.raises(ValueError, match="unique"):
            run_prioritized(jobs, tmp_path, report_path=None)

    def test_empty_batch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one grid"):
            run_prioritized({}, tmp_path, report_path=None)

    def test_worker_count_validated(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_prioritized(
                {"g": small_grid()}, tmp_path, workers=0, report_path=None
            )

    def test_claim_chunk_validated(self, tmp_path):
        with pytest.raises(ValueError, match="claim_chunk"):
            SweepWorker(make_runner(small_grid()), tmp_path, claim_chunk=0)


@pytest.fixture
def counting_run_tasks(monkeypatch):
    """Counts every DayTask executed through CampaignRunner.run_tasks."""
    from repro.simulation.runner import CampaignRunner

    executed = []
    original = CampaignRunner.run_tasks

    def counting(self, tasks):
        tasks = list(tasks)
        executed.extend(tasks)
        return original(self, tasks)

    monkeypatch.setattr(CampaignRunner, "run_tasks", counting)
    return executed
