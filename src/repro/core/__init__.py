"""The FADEWICH core: the paper's contribution.

* :mod:`~repro.core.config` — all tunable parameters with the paper's values,
* :mod:`~repro.core.kma` — Keyboard/Mouse Activity module,
* :mod:`~repro.core.movement` — Movement Detection (Algorithm 1),
* :mod:`~repro.core.windows` — variation windows and TP/FP/FN matching,
* :mod:`~repro.core.radio_env` — Radio Environment classifier,
* :mod:`~repro.core.controller` — the Quiet/Noisy automaton and Rules 1-2,
* :mod:`~repro.core.system` — the assembled online system,
* :mod:`~repro.core.security` — the decision-tree security model,
* :mod:`~repro.core.adversary` — Insider / Co-worker attackers,
* :mod:`~repro.core.baseline` — the inactivity time-out baseline,
* :mod:`~repro.core.usability` — the usability cost simulation,
* :mod:`~repro.core.evaluation` — the shared evaluation pipeline.
"""

from .adversary import (
    COWORKER,
    INSIDER,
    Adversary,
    attack_opportunities,
    attack_opportunity_percentage,
)
from .baseline import TimeoutBaseline
from .config import FadewichConfig, MDConfig, REConfig
from .controller import ControllerAction, ControllerState, FadewichController
from .evaluation import (
    CampaignStdFeatures,
    DayEvaluation,
    MDEvaluation,
    build_sample_dataset,
    cross_validated_predictions,
    departure_outcomes,
    evaluate_md,
    evaluate_md_grid,
    sensor_subset,
    streams_for_sensors,
)
from .kma import KeyboardMouseActivity
from .movement import OfflineMDResult, rolling_std_matrix
from .radio_env import RadioEnvironment, RENotTrainedError
from .security import (
    DeauthCase,
    DeauthOutcome,
    case_counts,
    classify_outcome,
    deauthentication_curve,
    vulnerable_time_seconds,
)
from .system import FadewichSystem, ReplayReport
from .usability import UsabilityDayInput, UsabilityResult, UsabilitySimulator
from .windows import (
    MatchResult,
    TrueWindow,
    VariationWindow,
    match_windows,
    true_window_for_event,
)

__all__ = [
    "COWORKER",
    "INSIDER",
    "Adversary",
    "CampaignStdFeatures",
    "ControllerAction",
    "ControllerState",
    "DayEvaluation",
    "DeauthCase",
    "DeauthOutcome",
    "FadewichConfig",
    "FadewichController",
    "FadewichSystem",
    "KeyboardMouseActivity",
    "MDConfig",
    "MDEvaluation",
    "MatchResult",
    "OfflineMDResult",
    "REConfig",
    "RENotTrainedError",
    "RadioEnvironment",
    "ReplayReport",
    "TimeoutBaseline",
    "TrueWindow",
    "UsabilityDayInput",
    "UsabilityResult",
    "UsabilitySimulator",
    "VariationWindow",
    "attack_opportunities",
    "attack_opportunity_percentage",
    "build_sample_dataset",
    "case_counts",
    "classify_outcome",
    "cross_validated_predictions",
    "deauthentication_curve",
    "departure_outcomes",
    "evaluate_md",
    "evaluate_md_grid",
    "match_windows",
    "rolling_std_matrix",
    "sensor_subset",
    "streams_for_sensors",
    "true_window_for_event",
    "vulnerable_time_seconds",
]
