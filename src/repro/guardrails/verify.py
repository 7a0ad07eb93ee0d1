"""Observed-cost verification: does a materialized index deliver?

The what-if optimizer *predicts* each index's benefit; this module
closes the loop by accumulating, per materialized index, an **observed**
benefit alongside the predicted one, and turning the two streams into a
verdict.

Verification math
-----------------

For each sampled query ``q`` whose chosen plan uses index ``I``:

* predicted: ``p_with = cost(q, M)`` (the base optimization) and
  ``p_without = cost(q, M - {I})`` (a reverse what-if);
* observed: ``o_with`` and ``o_without``, the same two plans priced by a
  :class:`CostObserver`.

Sums over the verification window give *relative savings* on each side::

    pred_frac = sum(p_without - p_with) / sum(p_without)
    obs_frac  = sum(o_without - o_with) / sum(o_without)
    ratio     = obs_frac / pred_frac

Comparing savings *fractions* rather than raw cost deltas makes the
verdict scale-free: the observer may price plans in physical-operation
units on a down-sampled store while the optimizer predicts at paper
scale, and an honest index still scores ``ratio ~= 1``.  Once the window
holds :data:`VERIFY_WINDOW` samples, ``ratio <`` :data:`QUARANTINE_RATIO`
is a REGRESSED verdict; anything else is VERIFIED.  An index whose
predicted savings fall below :data:`MIN_PREDICTED_FRACTION` is trivially
VERIFIED -- nothing was promised.

Observers
---------

* :class:`PlanCostObserver` -- prices both plans with the optimizer's
  own numbers.  Observed equals predicted by construction, so verdicts
  are always VERIFIED and tuning decisions are provably unchanged; what
  remains measurable is the verification *overhead* (the reverse
  what-if probes), which the 1.05x obs bar in the benchmarks covers.
* :class:`ExecutionObserver` -- prices both plans with
  :meth:`~repro.executor.instrument.CountingStore.observed_cost`, which
  executes each on the store and weighs the physical-operation counters
  into cost units.  This is the observer that catches a misleading cost
  model: point heap fetches behind an index scan are charged at
  random-page rates, so an index the optimizer loves but that actually
  selects half the table observes *negative* benefit.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.engine.index import _by_table

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.engine.storage import PhysicalStore
    from repro.optimizer.plan import PlanNode
    from repro.optimizer.whatif import WhatIfSession

#: Observations per index before a verdict.
VERIFY_WINDOW = 8

#: Observed/predicted savings ratio below which an index is REGRESSED.
QUARANTINE_RATIO = 0.5

#: Predicted relative savings below this count as "nothing promised":
#: never REGRESSED.
MIN_PREDICTED_FRACTION = 0.01

#: Fraction of a shadow execution's observed cost charged as overhead:
#: the shadow run does real work, all of which is charged.
SHADOW_COST_FACTOR = 1.0


class Verdict(enum.Enum):
    """Verification outcome for one materialized index."""

    PENDING = "pending"
    VERIFIED = "verified"
    REGRESSED = "regressed"


@dataclasses.dataclass
class Observation:
    """One sampled (query, index) verification measurement.

    Attributes:
        predicted_with: Optimizer cost of the plan using the index.
        predicted_without: Optimizer cost of the plan denied the index.
        observed_with: Observer's price for the with-plan.
        observed_without: Observer's price for the without-plan.
        charge: Overhead cost units the observation itself incurred
            (e.g. the shadow execution of the counterfactual plan).
    """

    predicted_with: float
    predicted_without: float
    observed_with: float
    observed_without: float
    charge: float = 0.0


class CostObserver:
    """Interface: price a with/without plan pair for one query."""

    def observe(
        self,
        session: WhatIfSession,
        without_plan: PlanNode,
        predicted_with: float,
        predicted_without: float,
    ) -> Observation:
        """Price both plans; see :class:`Observation`."""
        raise NotImplementedError


class PlanCostObserver(CostObserver):
    """Trusts the optimizer: observed prices are the predicted ones.

    The null observer for pure cost-model simulations, where no
    independent ground truth exists.  Verification then never changes a
    tuning decision; it only exercises (and prices) the machinery.
    """

    def observe(
        self,
        session: WhatIfSession,
        without_plan: PlanNode,
        predicted_with: float,
        predicted_without: float,
    ) -> Observation:
        return Observation(
            predicted_with=predicted_with,
            predicted_without=predicted_without,
            observed_with=predicted_with,
            observed_without=predicted_without,
        )


class ExecutionObserver(CostObserver):
    """Prices plans by executing them on an instrumented physical store.

    The counterfactual (without-plan) execution is charged as
    verification overhead, scaled by :data:`SHADOW_COST_FACTOR`.

    Args:
        store: The physical store holding real rows.
    """

    def __init__(self, store: PhysicalStore) -> None:
        # The executor loads only for an observer that executes plans.
        from repro.executor.instrument import CountingStore

        self._counting = CountingStore(store)

    def observe(
        self,
        session: WhatIfSession,
        without_plan: PlanNode,
        predicted_with: float,
        predicted_without: float,
    ) -> Observation:
        o_with = self._counting.observed_cost(session.base.plan)
        o_without = self._counting.observed_cost(without_plan)
        return Observation(
            predicted_with=predicted_with,
            predicted_without=predicted_without,
            observed_with=o_with,
            observed_without=o_without,
            charge=o_without * SHADOW_COST_FACTOR,
        )


@dataclasses.dataclass
class VerificationState:
    """Accumulated verification evidence for one materialized index."""

    index: IndexDef
    samples: int = 0
    predicted_gain: float = 0.0
    predicted_without: float = 0.0
    observed_gain: float = 0.0
    observed_without: float = 0.0
    verdict: Verdict = Verdict.PENDING
    ratio: Optional[float] = None


class IndexVerifier:
    """Folds observations into per-index verdicts."""

    def __init__(self) -> None:
        self._states: Dict[IndexDef, VerificationState] = {}

    def __len__(self) -> int:
        return len(self._states)

    @property
    def states(self) -> List[VerificationState]:
        """Every tracked index's state, sorted by table then key columns."""
        return [self._states[ix] for ix in sorted(self._states, key=_by_table)]

    def verdict_for(self, index: IndexDef) -> Verdict:
        """Current verdict for an index (PENDING when never sampled)."""
        state = self._states.get(index)
        return state.verdict if state is not None else Verdict.PENDING

    def needs_samples(self, index: IndexDef) -> bool:
        """Whether this index still needs observations for a verdict."""
        state = self._states.get(index)
        return state is None or state.verdict is Verdict.PENDING

    # ------------------------------------------------------------------
    def record(self, index: IndexDef, observation: Observation) -> VerificationState:
        """Fold one observation in and refresh the index's verdict."""
        state = self._states.setdefault(index, VerificationState(index=index))
        state.samples += 1
        state.predicted_gain += (
            observation.predicted_without - observation.predicted_with
        )
        state.predicted_without += observation.predicted_without
        state.observed_gain += (
            observation.observed_without - observation.observed_with
        )
        state.observed_without += observation.observed_without
        if state.samples >= VERIFY_WINDOW:
            state.ratio = self._ratio(state)
            state.verdict = (
                Verdict.REGRESSED
                if state.ratio is not None
                and state.ratio < QUARANTINE_RATIO
                else Verdict.VERIFIED
            )
        return state

    def _ratio(self, state: VerificationState) -> Optional[float]:
        """Scale-free observed/predicted savings ratio (None: no promise)."""
        if state.predicted_without <= 0.0 or state.observed_without <= 0.0:
            return None
        pred_frac = state.predicted_gain / state.predicted_without
        if pred_frac < MIN_PREDICTED_FRACTION:
            return None
        obs_frac = state.observed_gain / state.observed_without
        return obs_frac / pred_frac

    def reset(self, index: IndexDef) -> None:
        """Forget an index's evidence (it left the materialized set)."""
        self._states.pop(index, None)

    # ------------------------------------------------------------------
    def to_snapshot(self) -> List[Dict]:
        """JSON-compatible serialization of every tracked state."""
        return [
            {
                "table": s.index.table,
                "columns": list(s.index.columns),
                "samples": s.samples,
                "predicted_gain": s.predicted_gain,
                "predicted_without": s.predicted_without,
                "observed_gain": s.observed_gain,
                "observed_without": s.observed_without,
                "verdict": s.verdict.value,
                "ratio": s.ratio,
            }
            for s in self.states
        ]

    def restore(self, entries: List[Dict], catalog: Catalog) -> None:
        """Rebuild tracked states against an equivalent catalog."""
        for raw in entries:
            index = catalog.composite_index_for(raw["table"], raw["columns"])
            state = VerificationState(
                index=index,
                samples=int(raw["samples"]),
                predicted_gain=float(raw["predicted_gain"]),
                predicted_without=float(raw["predicted_without"]),
                observed_gain=float(raw["observed_gain"]),
                observed_without=float(raw["observed_without"]),
                verdict=Verdict(raw["verdict"]),
                ratio=None if raw.get("ratio") is None else float(raw["ratio"]),
            )
            self._states[index] = state
