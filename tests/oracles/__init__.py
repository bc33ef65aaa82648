"""Reference implementations that the library's fast paths are pinned to.

Each module here holds code that ``src/repro`` once shipped and that no
library path runs any more: the per-sample and per-observation engines of
Algorithm 1, the scalar evaluation and replay loops, the bisection
threshold rule, the original SMO sweep and the per-fit learning curve,
and an in-memory idle tracker.  The equivalence suites in ``tests/``
compare the production code with them bit for bit, and the throughput
gates in ``benchmarks/`` time them as their slow sides, so their bodies
keep the operations they had in ``src/repro``.

* :mod:`tests.oracles.movement` — ``StreamBuffer``, ``StdSumTracker``,
  ``NormalProfile``, ``MovementDetector``, ``detect_offline_scalar``;
* :mod:`tests.oracles.evaluation` — ``evaluate_md_scalar``,
  ``cross_validated_predictions_scalar``;
* :mod:`tests.oracles.system` — ``replay_day_scalar(system, day)``;
* :mod:`tests.oracles.kde` — ``bisect_quantiles`` and ``updated``, the
  profile's batch update;
* :mod:`tests.oracles.svm` — ``ReferenceBinarySVC``,
  ``ReferenceOneVsOneSVC``, ``PerFitFoldFitter``;
* :mod:`tests.oracles.idle` — ``IdleTracker``.

``tests`` is not a package, so ``tests.oracles`` resolves from the
repository root: ``python -m pytest`` puts the working directory on
``sys.path``, and ``pythonpath = ["."]`` in ``pyproject.toml`` does the
same for plain ``pytest``.  Scripts run from elsewhere put the root on
``sys.path`` themselves.
"""
