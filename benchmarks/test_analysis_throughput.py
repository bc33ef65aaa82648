"""Benchmark: columnar analysis engine throughput vs. the scalar references.

Measures the offline analysis fast paths (PR 2's columnar engine, PR 4's
root-finding threshold engine and shared-Gram learning curve) against
their references in ``tests/oracles/``, asserts the equivalence
contracts, and fails loudly if a fast path loses its edge:

* ``evaluate_md_grid`` (shared rolling feature matrix + lockstep profile
  engine, all sensor counts and days pooled) vs. per-count
  ``evaluate_md_scalar`` — the Table III / Figure 7 path.  Gate: >= 5x
  (raised from 2.5x by PR 4).  The old ceiling was the erf work inside
  the KDE percentile *bisections*, identical in both paths by the
  bit-identity contract; the safeguarded-Newton threshold engine
  (``mixture_quantiles``: analytic-derivative steps, warm starts,
  active-row evaluation) cut that shared floor ~6x, and what remains of
  the scalar path is dominated by its per-observation Python loop and
  per-profile solver calls — which the lockstep grid amortises across
  all (day, sensor-count) columns at once.  Both sides compute ``s_t``
  with the live detector's per-stream sliding std (``repro.sliding``),
  a cost the grid pays once per day and the scalar path once per count.
* ``FadewichSystem.replay_day`` (array replay: columnar std-sums,
  lockstep profile, precomputed idle/input arrays) vs.
  ``replay_day_scalar`` (dict-per-step ``process_sample`` loop) — the
  Figure 9 / online-replay path.  Gate: >= 5x (typically 10-20x: the
  scalar loop pays per-stream ``np.std`` at every step).
* the shared-Gram learning-curve engine (one kernel matrix per (repeat,
  fold), index-sliced precomputed fits, warm-started SMO, incremental
  error cache) vs. the per-fit reference (fresh Gram per fit,
  original error-recomputing SMO formulation) at Figure 8 scale.  Gate:
  >= 3x, plus the bit-identity contract: with warm start off, the
  shared-Gram scores equal the per-fit cached-SMO scores bit for bit
  (slice-stable kernels).
* ``cross_validated_predictions`` vs. its scalar reference — reported for
  inspection only; both sides are dominated by the same SVM fits.

Day length defaults to six 20-minute days (``--analysis-day-s`` to
override); ``--paper-scale`` runs full 8-hour days instead.
"""

import numpy as np

from repro.analysis.campaign import CampaignScale, collect_campaign
from repro.core.config import FadewichConfig
from repro.core.evaluation import (
    build_sample_dataset,
    cross_validated_predictions,
    evaluate_md,
    evaluate_md_grid,
    sensor_subset,
)
from repro.core.system import FadewichSystem
from repro.ml.validation import SVCFoldFitter, learning_curve

from tests.oracles.evaluation import (
    cross_validated_predictions_scalar,
    evaluate_md_scalar,
)
from tests.oracles.svm import PerFitFoldFitter
from tests.oracles.system import replay_day_scalar

#: Required speedup of the pooled MD grid over the per-count scalar sweep.
MIN_MD_SPEEDUP = 5.0

#: Required speedup of the array replay over the per-sample reference.
MIN_REPLAY_SPEEDUP = 5.0

#: Required speedup of the shared-Gram learning curve over the per-fit
#: reference.
MIN_CURVE_SPEEDUP = 3.0


def _analysis_scale(request) -> CampaignScale:
    if request.config.getoption("--paper-scale"):
        day_s = 8 * 3600.0
    else:
        day_s = float(request.config.getoption("--analysis-day-s"))
    return CampaignScale(
        name="analysis-bench",
        n_days=6,
        day_duration_s=day_s,
        departures_per_hour=6.5,
        mean_absence_s=150.0,
        min_absence_s=45.0,
        internal_moves_per_hour=2.0,
    )


def _bench_campaign(request):
    seed = request.config.getoption("--campaign-seed")
    return collect_campaign(seed=seed, scale=_analysis_scale(request))


def test_md_grid_throughput(request, best_of, speedup_gate):
    recording = _bench_campaign(request)
    config = FadewichConfig()
    counts = list(range(3, len(recording.layout.sensors) + 1))

    t_grid, grid = best_of(lambda: evaluate_md_grid(recording, config, counts))
    t_scalar, scalar = best_of(
        lambda: {
            n: evaluate_md_scalar(
                recording, config, sensor_subset(recording.layout.sensor_ids, n)
            )
            for n in counts
        }
    )

    # The two paths must agree bit for bit...
    for n in counts:
        assert grid[n].counts == scalar[n].counts
        for day_g, day_s in zip(grid[n].days, scalar[n].days):
            assert day_g.md_result.windows == day_s.md_result.windows
            np.testing.assert_array_equal(
                day_g.md_result.threshold_trace, day_s.md_result.threshold_trace
            )
    # ...and the grid must stay decisively faster.
    n_obs = grid[counts[0]].days[0].md_result.times.shape[0]
    speedup_gate(
        "MD grid throughput",
        t_scalar,
        t_grid,
        MIN_MD_SPEEDUP,
        reference_name="scalar sweep",
        fast_name="pooled grid ",
        detail=(
            f"{recording.n_days} days x {n_obs} obs x "
            f"{len(counts)} sensor counts"
        ),
    )


def test_replay_throughput(request, best_of, speedup_gate):
    recording = _bench_campaign(request)
    config = FadewichConfig()
    layout = recording.layout

    evaluation = evaluate_md(recording, config, layout.sensor_ids)
    re_module, dataset = build_sample_dataset(evaluation, config, random_state=0)

    def make_system():
        system = FadewichSystem(
            stream_ids=re_module.stream_ids,
            workstation_ids=layout.workstation_ids,
            config=config,
        )
        if len(dataset):
            system.train(dataset)
        return system

    day = recording.days[-1]
    t_batch, batch = best_of(lambda: make_system().replay_day(day))
    t_scalar, scalar = best_of(lambda: replay_day_scalar(make_system(), day))

    assert batch.actions == scalar.actions
    assert batch.final_states == scalar.final_states
    assert batch.deauthentications == scalar.deauthentications
    assert batch.alerts == scalar.alerts
    assert batch.screensavers == scalar.screensavers

    n_steps = day.trace.n_samples
    n_streams = len(re_module.stream_ids)
    speedup_gate(
        "replay throughput",
        t_scalar,
        t_batch,
        MIN_REPLAY_SPEEDUP,
        reference_name=f"scalar ({n_steps * n_streams / t_scalar:12,.0f} samples/s)",
        fast_name=f"array  ({n_steps * n_streams / t_batch:12,.0f} samples/s)",
        detail=f"{n_steps} steps x {n_streams} streams",
    )


def _fig8_scale_dataset(seed: int = 0, n_per_class: int = 200):
    """A Figure 8-shaped classification problem at paper scale.

    Four classes (the ``w0..w3`` labels of the paper office), the 216
    features of the 9-sensor deployment (72 directed streams x 3 features)
    and several hundred samples — the regime the paper's full campaigns
    produce, where the per-fit Gram work the shared-Gram engine eliminates
    dominates the reference.  Synthetic (overlapping Gaussian classes,
    fixed seed) so the gate's scale does not depend on the benchmark
    campaign length.
    """
    rng = np.random.default_rng(seed)
    d = 216
    centers = rng.normal(size=(4, d)) * 0.25
    X = np.vstack([rng.normal(size=(n_per_class, d)) + c for c in centers])
    y = np.repeat(np.arange(4), n_per_class)
    return X, y


def test_learning_curve_throughput(request, best_of, speedup_gate):
    """Figure 8 gate: shared-Gram curve >= 3x the per-fit reference.

    The fast path combines the three PR-4 optimisations (one Gram per
    (repeat, fold) with index-sliced precomputed fits, warm-started SMO
    across training sizes, the incremental SMO error cache); the
    reference is the per-fit path (fresh Gram per fit, original
    error-recomputing SMO formulation).  The bit-identity contract is
    asserted alongside: slice-stable kernels make the shared-Gram scores
    (warm start off) equal the per-fit cached-SMO scores bit for bit.
    """
    X, y = _fig8_scale_dataset()
    sizes = [80, 160, 320, 480, 640]
    svc = dict(C=1.0, kernel="linear", random_state=0)

    def run(fitter, **flags):
        return learning_curve(
            None, X, y, sizes, n_folds=5, n_repeats=1,
            rng=np.random.default_rng(1),
            fitter=fitter(**svc, **flags),
        )

    t_fast, fast = best_of(lambda: run(SVCFoldFitter))
    t_ref, reference = best_of(
        lambda: run(PerFitFoldFitter, warm_start=False, error_cache=False)
    )

    # Equivalence: shared-Gram (warm start off) == per-fit (cached SMO),
    # bit for bit — the slice-stability contract.
    shared_cold = run(SVCFoldFitter, warm_start=False)
    perfit_cold = run(PerFitFoldFitter, warm_start=False)
    np.testing.assert_array_equal(
        shared_cold.all_scores, perfit_cold.all_scores
    )
    # The fast path's warm-started fits stop at tol-equivalent (not
    # bitwise-equal) stationary points: the curves must agree closely.
    assert np.nanmax(np.abs(fast.all_scores - reference.all_scores)) <= 0.15

    speedup_gate(
        "learning-curve throughput",
        t_ref,
        t_fast,
        MIN_CURVE_SPEEDUP,
        reference_name="per-fit  ",
        fast_name="shared gram",
        detail=f"{X.shape[0]} samples x {X.shape[1]} features, sizes {sizes}",
    )


def test_cv_throughput(request, best_of):
    """Report (no gate): both CV paths are dominated by the same SVM fits."""
    recording = _bench_campaign(request)
    config = FadewichConfig()
    evaluation = evaluate_md(recording, config, recording.layout.sensor_ids)
    re_module, dataset = build_sample_dataset(evaluation, config, random_state=0)

    t_vec, vectorized = best_of(
        lambda: cross_validated_predictions(
            re_module, dataset, rng=np.random.default_rng(0)
        )
    )
    t_scalar, scalar = best_of(
        lambda: cross_validated_predictions_scalar(
            re_module, dataset, rng=np.random.default_rng(0)
        )
    )

    print(
        f"\nCV throughput ({len(dataset)} samples): "
        f"scalar {t_scalar:.3f}s, vectorized {t_vec:.3f}s "
        f"({t_scalar / max(t_vec, 1e-9):.2f}x)"
    )
    assert vectorized == scalar
