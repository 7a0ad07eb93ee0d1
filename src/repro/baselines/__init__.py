"""Baseline tuners the paper compares against (or improves on).

``OFFLINE`` is the paper's idealized off-line technique: it has complete
knowledge of the workload and unlimited processing time, and exhaustively
searches the space of single-column index sets within the storage budget,
evaluating each configuration with the same what-if optimizer COLT uses.
Within the single-column setting it therefore strictly dominates
heuristic off-line tools.

``ContinuousTuner`` is a QUIET-style unregulated on-line tuner modelling
the prior work (§1) whose uncontrolled what-if overhead COLT's
re-budgeting was designed to fix.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "continuous": ("ContinuousTuner",),
        "offline": ("OfflineResult", "OfflineTuner"),
    },
)
