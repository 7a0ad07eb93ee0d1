"""C³-UCB contextual combinatorial bandit tuning engine.

The third engine beside COLT and the offline/continuous baselines: arms
are candidate indexes, context features come from workload and catalog
signals, the super-arm is chosen by the storage-budget knapsack, and
rewards are *observed* execution costs -- never what-if forecasts.  See
``docs/BANDIT.md`` for the algorithm and when to prefer it over COLT.
"""

from repro.bandit.config import BanditConfig
from repro.bandit.features import FEATURE_DIM, FEATURE_NAMES, FeatureMap
from repro.bandit.linucb import RidgeModel
from repro.bandit.persist import restore_bandit_tuner, snapshot_bandit_tuner
from repro.bandit.tuner import BanditProfile, BanditTuner

__all__ = [
    "BanditConfig",
    "BanditProfile",
    "BanditTuner",
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "FeatureMap",
    "RidgeModel",
    "restore_bandit_tuner",
    "snapshot_bandit_tuner",
]
