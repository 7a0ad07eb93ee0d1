"""C³-UCB contextual combinatorial bandit tuning engine.

The third engine beside COLT and the offline/continuous baselines: arms
are candidate indexes, context features come from workload and catalog
signals, the super-arm is chosen by the storage-budget knapsack, and
rewards are *observed* execution costs -- never what-if forecasts.  See
``docs/BANDIT.md`` for the algorithm and when to prefer it over COLT.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "features": ("FEATURE_DIM", "FEATURE_NAMES", "FeatureMap"),
        "linucb": ("RidgeModel",),
        "persist": ("restore_bandit_tuner", "snapshot_bandit_tuner"),
        "tuner": ("BanditProfile", "BanditTuner"),
    },
)
