"""What-if optimization interface (the paper's Extended Query Optimizer).

``WhatIfOptimize(q, P)`` measures, for every index ``I`` in the probation
set ``P``, the query gain

    QueryGain(q, I) = QueryCost(q, M − {I}) − QueryCost(q, M ∪ {I})

i.e. the *savings* in execution cost when ``I`` is part of the
materialized set ``M`` (non-negative whenever the index helps).  For a
hypothetical index (``I ∉ M``) this is traditional forward what-if:
optimize with the index added.  For a materialized index the EQO works in
reverse, pretending the index is unavailable, because the normal
optimization already includes it -- exactly as described in §4.1 of the
paper.

Note on sign convention: the paper's formula as printed reads
``QueryCost(q, M ∪ {I}) − QueryCost(q, M − {I})``, but the surrounding
text defines QueryGain as "the savings in execution time", so we use the
orientation that makes gains positive for useful indexes.

Every probe is one ``optimize(query, config)`` call on a pluggable
:class:`~repro.backend.base.Backend` -- the in-python engine
(:class:`~repro.backend.local.LocalBackend`) or a recorded-trace
replayer.  Each probed index costs one what-if call; on the
local backend the per-query :class:`~repro.optimizer.optimizer.PlanCache`
makes the incremental cost of each call small by reusing sub-plans from
the initial optimization -- the same engineering the paper's PostgreSQL
prototype does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

from repro.backend.base import BackendError, WhatIfSession
from repro.resilience.errors import WhatIfProbeError

if TYPE_CHECKING:
    from repro.backend.base import Backend
    from repro.engine.index import IndexDef
    from repro.optimizer.access import IndexConfig
    from repro.sql.ast import Query

__all__ = ["WhatIfOptimizer", "WhatIfSession", "WhatIfProbeError"]


class WhatIfOptimizer:
    """The paper's EQO: a cost oracle plus a what-if interface.

    Attributes:
        backend: The :class:`~repro.backend.base.Backend` answering
            probes.
        call_count: Total number of what-if calls issued (one per probed
            index), the quantity Figure 5 charts per epoch.
        failpoint: Optional hook invoked once per probe with the index
            being probed; a fault injector installs one that raises
            :class:`WhatIfProbeError` per its plan.  A failed probe is
            still counted (and charged) -- in the system this simulates,
            a timed-out what-if call costs time.
    """

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self.call_count = 0
        self.probed_indexes: set = set()
        self.failpoint: Optional[Callable[[IndexDef], None]] = None

    def begin_query(self, query: Query) -> WhatIfSession:
        """Normally optimize ``query`` and open a what-if session for it."""
        return self.backend.begin_query(query)

    def what_if_optimize(
        self, session: WhatIfSession, probation: Iterable[IndexDef]
    ) -> Dict[IndexDef, float]:
        """Measure QueryGain for each index in the probation set.

        The materialized set ``M`` is the backend's current
        configuration.

        Args:
            session: Session from :meth:`begin_query` for this query.
            probation: Indexes to probe (the set ``P`` of Figure 2).

        Returns:
            Mapping from each probed index to its QueryGain (cost units;
            >= 0 means the index helps or is neutral; may be negative in
            rare cases where hypothesizing an index changes join-order
            tie-breaks).

        Raises:
            WhatIfProbeError: when a probe fails (an injected fault or
                an optimizer error).  The failed call is already
                counted; gains measured earlier in this invocation ride
                along on the exception's ``partial_gains`` so callers
                can consume them instead of re-probing.
            BackendError: when the backend itself is unusable for the
                request (e.g. a trace miss during deterministic replay);
                never absorbed as probe noise.
        """
        materialized = self.backend.current_config()
        optimize = self.backend.optimize
        query, cache = session.query, session.cache
        gains: Dict[IndexDef, float] = {}
        for index in probation:
            self.call_count += 1
            self.probed_indexes.add(index)
            try:
                if self.failpoint is not None:
                    self.failpoint(index)
                if index in materialized:
                    # Reverse what-if: how much worse would the query be
                    # without this materialized index?
                    without_cost = optimize(
                        query, config=materialized - {index}, cache=cache
                    ).cost
                    with_cost = self._cost_under(session, materialized)
                    gains[index] = without_cost - with_cost
                else:
                    with_cost = optimize(
                        query, config=materialized | {index}, cache=cache
                    ).cost
                    without_cost = self._cost_under(session, materialized)
                    gains[index] = without_cost - with_cost
            except WhatIfProbeError as exc:
                exc.partial_gains = dict(gains)
                raise
            except BackendError:
                raise
            except Exception as exc:
                raise WhatIfProbeError(
                    f"what-if probe for {index} failed: {exc}",
                    partial_gains=gains,
                ) from exc
        return gains

    def _cost_under(self, session: WhatIfSession, config: IndexConfig) -> float:
        if config == session.base.config:
            return session.base.cost
        return self.backend.optimize(
            session.query, config=config, cache=session.cache
        ).cost
