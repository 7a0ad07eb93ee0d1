"""Benchmark harness: experiment drivers for every table and figure.

``harness`` runs COLT and OFFLINE over a workload on separate catalogs
and collects per-query ledgers; ``figures`` turns those ledgers into the
exact series each figure of the paper plots; ``replay`` is the
throughput driver (wall-clock QPS and latency percentiles over 1M+
event streams, serial vs multiprocess fleet); ``scenario`` is the
store-backed scoreboard (observed execution cost of a tuner, or of no
tuning, over an adversarial scenario).
"""

from repro.bench.harness import (
    ColtRun,
    OfflineRun,
    run_colt,
    run_offline,
)
from repro.bench.figures import (
    figure3_stable,
    figure4_shifting,
    figure5_overhead,
    figure6_noise,
    table1_dataset,
)
from repro.bench.replay import (
    ReplayEvent,
    ReplayReport,
    ReplayStream,
    build_replay_tuner,
    replay_fleet,
    replay_serial,
)

__all__ = [
    "ColtRun",
    "OfflineRun",
    "ReplayEvent",
    "ReplayReport",
    "ReplayStream",
    "build_replay_tuner",
    "figure3_stable",
    "figure4_shifting",
    "figure5_overhead",
    "figure6_noise",
    "replay_fleet",
    "replay_serial",
    "run_colt",
    "run_offline",
    "table1_dataset",
]
