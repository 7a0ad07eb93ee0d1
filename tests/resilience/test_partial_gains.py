"""Regression tests: failed what-if probes no longer lose paid-for gains.

A multi-index ``what_if_optimize`` batch that fails midway used to
discard every gain measured before the failing call, even though those
calls were already counted and charged.  Now the exception carries them
(``WhatIfProbeError.partial_gains``) and the profiler consumes them --
recording the measurements and feeding the gain cache -- before
treating the failure as probe noise.
"""

import pytest

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.core.profiler import Profiler
from repro.optimizer.whatif import WhatIfOptimizer
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedWhatIfFault,
)
from repro.resilience.errors import WhatIfProbeError

from tests.fleet.workloads import eq_query


@pytest.fixture
def whatif(small_catalog):
    return WhatIfOptimizer(LocalBackend(small_catalog))


class TestWhatIfPartialGains:
    def test_fault_mid_batch_carries_earlier_gains(self, small_catalog, whatif):
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(at_calls=(2,))))
        whatif.failpoint = injector.whatif_failpoint
        user = small_catalog.index_for("events", "user_id")
        day = small_catalog.index_for("events", "day")
        session = whatif.begin_query(eq_query(7))
        with pytest.raises(InjectedWhatIfFault) as err:
            whatif.what_if_optimize(session, [user, day])
        assert set(err.value.partial_gains) == {user}
        assert err.value.partial_gains[user] > 0
        # The failed call was still counted (and charged).
        assert whatif.call_count == 2

    def test_fault_on_first_probe_carries_empty_gains(self, small_catalog, whatif):
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(at_calls=(1,))))
        whatif.failpoint = injector.whatif_failpoint
        user = small_catalog.index_for("events", "user_id")
        session = whatif.begin_query(eq_query(7))
        with pytest.raises(InjectedWhatIfFault) as err:
            whatif.what_if_optimize(session, [user])
        assert err.value.partial_gains == {}

    def test_partial_gains_match_a_clean_batch(self, small_catalog):
        user = small_catalog.index_for("events", "user_id")
        day = small_catalog.index_for("events", "day")
        clean = WhatIfOptimizer(LocalBackend(small_catalog))
        session = clean.begin_query(eq_query(7))
        reference = clean.what_if_optimize(session, [user, day])

        faulty = WhatIfOptimizer(LocalBackend(small_catalog))
        injector = FaultInjector(FaultPlan(whatif=FaultSpec(at_calls=(2,))))
        faulty.failpoint = injector.whatif_failpoint
        session = faulty.begin_query(eq_query(7))
        with pytest.raises(InjectedWhatIfFault) as err:
            faulty.what_if_optimize(session, [user, day])
        assert err.value.partial_gains[user] == reference[user]

    def test_wrapped_optimizer_errors_carry_partial_gains(
        self, small_catalog, whatif
    ):
        user = small_catalog.index_for("events", "user_id")
        day = small_catalog.index_for("events", "day")
        session = whatif.begin_query(eq_query(7))
        calls = []
        real = whatif.backend.optimize

        def flaky(query, config=None, cache=None):
            calls.append(config)
            if len(calls) >= 2:  # call 1 prices user; call 2 prices day
                raise RuntimeError("optimizer exploded")
            return real(query, config=config, cache=cache)

        whatif.backend.optimize = flaky
        with pytest.raises(WhatIfProbeError) as err:
            whatif.what_if_optimize(session, [user, day])
        assert set(err.value.partial_gains) == {user}


class TestProfilerConsumesPartialGains:
    def _profiler(self, catalog):
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        config = ColtConfig(storage_budget_pages=6000.0)
        return Profiler(catalog, whatif, config), whatif

    def test_partial_gains_recorded_despite_failure(self, small_catalog):
        profiler, whatif = self._profiler(small_catalog)
        user = small_catalog.index_for("events", "user_id")
        day = small_catalog.index_for("events", "day")

        def always_fail(session, probation):
            raise WhatIfProbeError("boom", partial_gains={day: 42.0})

        whatif.what_if_optimize = always_fail
        query = eq_query(7)
        session = whatif.begin_query(query)
        outcome = profiler.profile_query(query, session, hot=[user], materialized=[])
        assert outcome.gains == {day: 42.0}
        assert profiler.probe_failures == 1
