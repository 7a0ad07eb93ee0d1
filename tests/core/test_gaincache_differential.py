"""Differential harness: cache-on must be *indistinguishable* in policy.

The gain cache's whole contract is that it only serves values a real
what-if probe would have returned (structural zeros), charged against
the same ``#WI_lim`` budget -- so a cache-on tuner and a cache-off tuner fed the same
shifting workload must walk in lockstep: identical profiled epoch
benefits (``BenefitH``/``BenefitM``), identical reorganization
decisions, identical materialized sets and execution costs, epoch by
epoch.  The only permitted difference is the overhead ledger: the
cache-on run issues strictly fewer extended-optimizer calls.

The workload is the Figure-4 shape (4 phases with gradual transitions)
at 540 queries -- above the 500-query floor the acceptance criteria set
-- so the equivalence is exercised across several distribution shifts,
epoch reorganizations, and materialization changes.
"""

from repro.core import ColtConfig, ColtTuner
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import shifting_workload

PHASE_LENGTH = 120
TRANSITION = 20
BUDGET_PAGES = 9_000.0


def _workload():
    return shifting_workload(
        phase_distributions(),
        build_catalog(),
        phase_length=PHASE_LENGTH,
        transition=TRANSITION,
        seed=0,
    )


def _capture_epoch_reports(tuner, sink):
    """Record every epoch's profiled benefit report, then pass it on."""
    original = tuner.profiler.end_epoch

    def wrapper(tracked):
        original(tracked)
        sink.append({rec.index: rec.epoch for rec in tracked})

    tuner.profiler.end_epoch = wrapper


def _run(gain_cache):
    catalog = build_catalog()
    tuner = ColtTuner(
        catalog,
        ColtConfig(
            storage_budget_pages=BUDGET_PAGES,
            seed=0,
            gain_cache=gain_cache,
        ),
    )
    reports = []
    _capture_epoch_reports(tuner, reports)
    workload = _workload()
    outcomes = tuner.run(workload.queries)
    epochs = [
        {
            "materialize": [str(ix) for ix in o.reorganization.materialize],
            "drop": [str(ix) for ix in o.reorganization.drop],
            "hot": [str(ix) for ix in o.reorganization.hot],
            "budget": o.reorganization.whatif_budget,
            "ratio": o.reorganization.improvement_ratio,
        }
        for o in outcomes
        if o.epoch_ended
    ]
    return {
        "tuner": tuner,
        "outcomes": outcomes,
        "reports": reports,
        "epochs": epochs,
        "final_m": [str(ix) for ix in tuner.materialized_set],
        "exec_cost": sum(o.execution_cost for o in outcomes),
        "total_cost": sum(o.total_cost for o in outcomes),
        "call_count": tuner.whatif.call_count,
    }


class TestDifferentialEquivalence:
    def setup_method(self):
        self.off = _run(gain_cache=False)
        self.on = _run(gain_cache=True)

    def test_workload_is_long_enough(self):
        assert len(self.off["outcomes"]) >= 500

    def test_identical_profiled_benefits_every_epoch(self):
        # BenefitH / BenefitM: the (low, high, measured) triple per
        # profiled index, for every one of the ~54 epochs.
        assert len(self.on["reports"]) == len(self.off["reports"])
        for i, (on_r, off_r) in enumerate(
            zip(self.on["reports"], self.off["reports"])
        ):
            assert on_r == off_r, f"benefit report diverged at epoch {i}"

    def test_identical_reorganization_decisions_every_epoch(self):
        assert self.on["epochs"] == self.off["epochs"]

    def test_identical_chosen_m(self):
        assert self.on["final_m"] == self.off["final_m"]

    def test_identical_execution_cost(self):
        assert self.on["exec_cost"] == self.off["exec_cost"]

    def test_cache_saves_whatif_calls(self):
        hits = self.on["tuner"].profiler.gain_cache.hits
        assert hits > 0
        # Every hit is exactly one probe the cache-off run paid for.
        assert self.on["call_count"] == self.off["call_count"] - hits

    def test_cache_never_hurts_total_cost(self):
        # Same decisions, fewer charged what-if calls: the ledger can
        # only improve.
        assert self.on["total_cost"] <= self.off["total_cost"]

    def test_budget_accounting_identical(self):
        # Cache hits consume #WI_lim units exactly like real probes, so
        # the per-epoch granted budgets (already compared above) and
        # the final residual spend agree.
        on_p = self.on["tuner"].profiler
        off_p = self.off["tuner"].profiler
        assert on_p.whatif_used == off_p.whatif_used
        assert on_p.whatif_budget == off_p.whatif_budget
