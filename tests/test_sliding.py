"""The shared sliding-window kernel against an independent naive oracle.

Offline and streaming paths reduce their windows through the same
:mod:`repro.sliding` code, so the offline ≡ streaming suites no longer
compare that code with a separate implementation.  These tests do: every
output of :func:`sliding` — over a whole column, or over any batch split
through :class:`Carry`, JSON checkpoints included — must equal bit for bit
a per-instant ``reduce(values[max(0, i - w + 1) : i + 1])`` loop.

They also pin the restore checks: every engine built on the carry rejects
a checkpoint whose tails are not ``min(count, keep)`` values long, and the
zone engine one whose calibration state does not cover its links.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MDConfig
from repro.detectors import EmaMadDetector, VarianceThresholdDetector
from repro.radio.links import enumerate_stream_ids
from repro.radio.office import paper_office
from repro.sliding import _CHUNK, Carry, sliding, sum_rows
from repro.streaming import IngestRouter, OnlineDetector, OnlineStdSum
from repro.zones import ZoneEngine, ZoneMap, ZoneOccupancyEstimator

REDUCERS = (np.std, np.var, np.mean)


def naive(values, w, reduce, first, fill):
    """The oracle: one ``reduce`` call per instant over its own slice."""
    out = np.full(len(values), fill)
    for i in range(first, len(values)):
        out[i] = reduce(values[max(0, i - w + 1) : i + 1])
    return out


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# Run-length encoded series: ties and constant runs are the cases where a
# different summation order would still often round the same way.
_runs = st.lists(
    st.tuples(
        st.one_of(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            st.sampled_from([-60.0, -59.5, 0.0, 1e-3]),
        ),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=40,
)


def _series(runs):
    return np.array([v for v, n in runs for _ in range(n)], dtype=float)


_config = dict(
    w=st.integers(min_value=1, max_value=300),
    reduce=st.sampled_from(REDUCERS),
    first=st.sampled_from([0, 1]),
    fill=st.sampled_from([np.nan, 0.0]),
)


class TestSlidingOracle:
    @given(runs=_runs, **_config)
    @settings(max_examples=150, deadline=None)
    def test_whole_column_matches_naive(self, runs, w, reduce, first, fill):
        values = _series(runs)
        assert_bits_equal(
            sliding(values, w, reduce, first=first, fill=fill),
            naive(values, w, reduce, first, fill),
        )

    @given(
        streams=st.lists(_runs, min_size=1, max_size=3),
        extra_keep=st.integers(min_value=0, max_value=20),
        data=st.data(),
        **_config,
    )
    @settings(max_examples=150, deadline=None)
    def test_any_split_through_carry_matches_naive(
        self, streams, extra_keep, data, w, reduce, first, fill
    ):
        cols = [_series(runs) for runs in streams]
        n = min(col.size for col in cols)
        matrix = np.column_stack([col[:n] for col in cols])
        sizes = data.draw(st.lists(st.integers(0, 25), max_size=30))
        sizes.append(max(n - sum(sizes), 0))
        # A carry may keep more than w - 1 values (the EMA-MAD short window
        # reads the long window's carry).
        carry = Carry(w - 1 + extra_keep, range(matrix.shape[1]))
        parts = [[] for _ in range(matrix.shape[1])]
        pos = 0
        for size in sizes:
            batch = matrix[pos : pos + size]
            pos += batch.shape[0]
            exts, seen = carry.push(batch)
            assert seen == pos - batch.shape[0]
            for part, ext in zip(parts, exts):
                new = batch.shape[0]
                part.append(
                    sliding(ext, w, reduce, new=new, seen=seen, first=first, fill=fill)
                )
        assert carry.count == n
        for j, part in enumerate(parts):
            assert_bits_equal(
                np.concatenate(part),
                naive(matrix[:, j].copy(), w, reduce, first, fill),
            )

    @given(
        runs=_runs,
        w=st.integers(min_value=3, max_value=40),
        reduce=st.sampled_from(REDUCERS),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_checkpoint_inside_partial_head(self, runs, w, reduce, data):
        values = _series(runs + [(0.5, w + 5)])
        cut = data.draw(st.integers(min_value=1, max_value=w - 2))
        head = Carry(w - 1, ["x"])
        (ext,), seen = head.push(values[:cut, None])
        got_head = sliding(ext, w, reduce, new=cut, seen=seen, first=1)

        tail = Carry(w - 1, ["x"])
        tail.restore(json.loads(json.dumps(head.snapshot())))
        (ext,), seen = tail.push(values[cut:, None])
        assert seen == cut
        new = values.size - cut
        got_tail = sliding(ext, w, reduce, new=new, seen=seen, first=1)
        assert_bits_equal(
            np.concatenate([got_head, got_tail]),
            naive(values, w, reduce, 1, np.nan),
        )


# --------------------------------------------------------------------------- #
# The row-per-stream form: one reduction per batch over every stream
# --------------------------------------------------------------------------- #
def _block(runs, n_streams, seed, decimals):
    """``(n, n_streams)`` samples: the run-length series in column 0 (ties,
    constant runs), rounded noise in the rest."""
    first = _series(runs)
    rng = np.random.default_rng(seed)
    rest = rng.normal(-60.0, 4.0, (first.size, n_streams - 1))
    return np.column_stack([first, np.round(rest, decimals)])


def _layout(matrix, how):
    """The same values in a C-contiguous or a strided batch layout."""
    if how == "columns":  # fancy-indexed columns come back in F order
        return matrix[:, list(range(matrix.shape[1]))]
    if how == "transposed":
        return np.ascontiguousarray(matrix.T).T
    if how == "fortran":
        return np.asfortranarray(matrix)
    return matrix


def left_to_right(rows):
    total = rows[0].copy()
    for row in rows[1:]:
        total = total + row
    return total


class TestRowPerStream:
    @given(
        runs=_runs,
        n_streams=st.integers(min_value=1, max_value=79),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        decimals=st.integers(min_value=0, max_value=2),
        how=st.sampled_from(["c", "columns", "transposed", "fortran"]),
        data=st.data(),
        **_config,
    )
    @settings(max_examples=100, deadline=None)
    def test_any_split_matches_naive_per_stream(
        self, runs, n_streams, seed, decimals, how, data, w, reduce, first, fill
    ):
        matrix = _block(runs, n_streams, seed, decimals)
        n = matrix.shape[0]
        batches = _layout(matrix, how)
        sizes = data.draw(st.lists(st.integers(0, 25), max_size=30))
        sizes.append(max(n - sum(sizes), 0))
        carry = Carry(w - 1, range(n_streams))
        rows, sums, pos = [], [], 0
        for size in sizes:
            batch = batches[pos : pos + size]
            ext, seen = carry.push(batch)
            assert ext.flags.c_contiguous and seen == pos
            got = sliding(
                ext, w, reduce, new=batch.shape[0], seen=seen, first=first, fill=fill
            )
            assert got.shape == (n_streams, batch.shape[0])
            rows.append(got)
            sums.append(sum_rows(got))
            pos += batch.shape[0]
        want = [naive(matrix[:, j].copy(), w, reduce, first, fill) for j in range(n_streams)]
        streamed = np.concatenate(rows, axis=1)
        whole = sliding(batches.T, w, reduce, first=first, fill=fill)
        for j in range(n_streams):
            assert_bits_equal(streamed[j], want[j])
            assert_bits_equal(whole[j], want[j])
        assert_bits_equal(np.concatenate(sums), left_to_right(want))
        # Picked rows, in any order, add left to right in that order.
        order = data.draw(st.permutations(range(n_streams)), label="order")
        order = order[: data.draw(st.integers(1, n_streams), label="picked")]
        assert_bits_equal(
            sum_rows(streamed, np.array(order)),
            left_to_right([want[j] for j in order]),
        )

    @pytest.mark.parametrize("k, m", [(40, 1), (40, 3), (3, 40), (72, 4), (4, 72)])
    def test_sum_rows_adds_left_to_right(self, k, m):
        # Magnitudes over ten decades make any other addition order (numpy's
        # pairwise reduce over a single column, say) round differently.
        rng = np.random.default_rng(k * m)
        block = rng.normal(size=(k, m)) * 10.0 ** rng.integers(-5, 5, size=(k, 1))
        order = rng.permutation(k)[: max(k // 2, 1)]
        assert_bits_equal(sum_rows(block), left_to_right(list(block)))
        assert_bits_equal(
            sum_rows(block, order), left_to_right([block[r] for r in order])
        )

    @pytest.mark.parametrize("n_streams, w", [(1, 60), (9, 300), (72, 8), (79, 3)])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    @pytest.mark.parametrize("reduce", REDUCERS)
    def test_blocks_at_the_chunk_limit(self, n_streams, w, delta, reduce):
        # Full windows are reduced at most _CHUNK values per call: a block
        # of limit + 1 positions takes a second call, limit or fewer one.
        limit = max(_CHUNK // (w * n_streams), 1)
        n = w - 1 + limit + delta
        matrix = np.round(
            np.random.default_rng(n).normal(-60.0, 4.0, (n, n_streams)), 1
        )
        carry = Carry(w - 1, range(n_streams))
        carry.push(matrix[: w - 1])
        ext, seen = carry.push(matrix[w - 1 :])
        steady = sliding(ext, w, reduce, new=limit + delta, seen=seen)
        whole = sliding(matrix.T, w, reduce)
        for j in range(n_streams):
            want = naive(matrix[:, j].copy(), w, reduce, 0, np.nan)
            assert_bits_equal(whole[j], want)
            assert_bits_equal(steady[j], want[w - 1 :])


class TestCarry:
    def test_rejects_a_batch_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="sample batch"):
            Carry(3, ["a", "b"]).push(np.zeros((4, 3)))

    def test_keeps_the_last_values_in_arrival_order(self):
        carry = Carry(3, ["a"])
        carry.push(np.arange(2.0)[:, None])
        carry.push(np.arange(2.0, 6.0)[:, None])
        assert carry.snapshot() == {"count": 6, "tails": [[3.0, 4.0, 5.0]]}

    @pytest.mark.parametrize(
        "tails", [[[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]], [[[1.0, 2.0, 3.0]]]]
    )
    def test_restore_rejects_a_tail_of_the_wrong_length(self, tails):
        with pytest.raises(ValueError, match="stream 'a'"):
            Carry(3, ["a"]).restore({"count": 5, "tails": tails})

    def test_restore_rejects_a_stream_count_mismatch(self):
        with pytest.raises(ValueError, match="stream tails"):
            Carry(3, ["a", "b"]).restore({"count": 1, "tails": [[1.0]]})


# --------------------------------------------------------------------------- #
# Inconsistent checkpoints, engine by engine
# --------------------------------------------------------------------------- #
RATE = 4.0


class TestRestoreRejectsInconsistentCheckpoints:
    def test_online_std_sum(self, rng):
        tracker = OnlineStdSum(2, 8)
        tracker.extend(rng.normal(size=(3, 2)))
        state = tracker.snapshot()
        # Inside the partial head the cut tail would silently give wrong
        # s_t rather than fail.
        state["tails"][1] = state["tails"][1][1:]
        with pytest.raises(ValueError, match="stream 1 holds 2 values"):
            OnlineStdSum(2, 8).restore(state)

    @pytest.mark.parametrize(
        "detector, stream",
        [(VarianceThresholdDetector(), "s_t"), (EmaMadDetector(), "ema")],
    )
    def test_zoo_engines(self, rng, detector, stream):
        engine = detector.streaming_engine(MDConfig(), 20)
        engine.extend(rng.normal(size=40))
        state = engine.snapshot()
        state["carry"] = state["carry"][1:]
        with pytest.raises(ValueError, match=f"stream '{stream}'"):
            detector.streaming_engine(MDConfig(), 20).restore(state)

    def _detector_state(self, rng):
        ids = ["a", "b"]
        det = OnlineDetector(ids, MDConfig(), sample_rate_hz=RATE)
        det.process_block(np.arange(5) / RATE, rng.normal(size=(5, 2)))
        state = det.snapshot()
        state["std"]["tails"][0] = state["std"]["tails"][0][1:]
        return ids, state

    def test_online_detector_from_snapshot(self, rng):
        _, state = self._detector_state(rng)
        with pytest.raises(ValueError, match="stream 0"):
            OnlineDetector.from_snapshot(json.loads(json.dumps(state)))

    def test_router_register_restore_from(self, rng):
        ids, state = self._detector_state(rng)
        router = IngestRouter(n_workers=1)
        try:
            with pytest.raises(ValueError, match="stream 0"):
                router.register("t", ids, restore_from=state)
            assert router.stats.n_tenants == 0
        finally:
            router.close()


class TestZoneEngineFromSnapshot:
    @pytest.fixture(scope="class")
    def engine_state(self):
        layout = paper_office()
        ids = enumerate_stream_ids(layout.sensor_ids)
        estimator = ZoneOccupancyEstimator(
            zone_map=ZoneMap.from_layout(layout),
            smoothing_samples=4,
            calibration_samples=10,
        )
        engine = estimator.streaming_engine(ids, layout)
        rng = np.random.default_rng(7)
        engine.extend(-60.0 + rng.normal(size=(6, len(ids))))
        return engine.snapshot()

    def _restore(self, state):
        return ZoneEngine.from_snapshot(json.loads(json.dumps(state)))

    def test_consistent_snapshot_restores(self, engine_state):
        assert self._restore(engine_state).snapshot() == engine_state

    def test_cut_tail(self, engine_state):
        state = json.loads(json.dumps(engine_state))
        sid = next(iter(state["tails"]))
        state["tails"][sid] = state["tails"][sid][1:]
        with pytest.raises(ValueError, match=f"stream '{re.escape(sid)}'"):
            self._restore(state)

    @pytest.mark.parametrize("key", ["tails", "calib_buf"])
    def test_missing_stream(self, engine_state, key):
        state = json.loads(json.dumps(engine_state))
        sid = next(iter(state[key]))
        del state[key][sid]
        missing = re.escape(f"missing ['{sid}']")
        with pytest.raises(ValueError, match=f"{key} .*{missing}"):
            self._restore(state)

    def test_cut_calibration_buffer(self, engine_state):
        state = json.loads(json.dumps(engine_state))
        sid = next(iter(state["calib_buf"]))
        state["calib_buf"][sid] = state["calib_buf"][sid][1:]
        message = re.escape(f"calib_buf of stream '{sid}'")
        with pytest.raises(ValueError, match=message):
            self._restore(state)

    def test_missing_calibration_median(self, engine_state):
        state = json.loads(json.dumps(engine_state))
        state["calib"] = {sid: 0.0 for sid in state["calib_buf"]}
        state["calib_buf"] = {sid: [] for sid in state["calib_buf"]}
        self._restore(state)  # complete frozen calibration: accepted
        sid = next(iter(state["calib"]))
        del state["calib"][sid]
        missing = re.escape(f"missing ['{sid}']")
        with pytest.raises(ValueError, match=f"calib .*{missing}"):
            self._restore(state)
