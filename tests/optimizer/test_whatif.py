"""Unit tests for the what-if optimizer interface."""

import pytest

from repro.backend.local import LocalBackend
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query


def _query(catalog, sql):
    return bind_query(parse_query(sql), catalog)


class TestForwardWhatIf:
    def test_gain_matches_direct_optimization(self, small_catalog):
        catalog = small_catalog
        q = _query(catalog, "select amount from events where user_id = 5")
        optimizer = Optimizer(catalog)
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        ix = catalog.index_for("events", "user_id")

        session = whatif.begin_query(q)
        gains = whatif.what_if_optimize(session, [ix])

        base = optimizer.optimize(q, config=frozenset()).cost
        with_ix = optimizer.optimize(q, config=frozenset([ix])).cost
        assert gains[ix] == pytest.approx(base - with_ix)
        assert gains[ix] > 0

    def test_useless_index_zero_gain(self, small_catalog):
        catalog = small_catalog
        q = _query(catalog, "select amount from events where user_id = 5")
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        session = whatif.begin_query(q)
        gains = whatif.what_if_optimize(
            session, [catalog.index_for("users", "score")]
        )
        assert gains[catalog.index_for("users", "score")] == pytest.approx(0.0)

    def test_call_count_per_probed_index(self, small_catalog):
        catalog = small_catalog
        q = _query(catalog, "select amount from events where user_id = 5")
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        session = whatif.begin_query(q)
        whatif.what_if_optimize(
            session,
            [catalog.index_for("events", "user_id"), catalog.index_for("events", "day")],
        )
        assert whatif.call_count == 2
        assert len(whatif.probed_indexes) == 2


class TestReverseWhatIf:
    def test_materialized_index_reverse_gain(self, small_catalog):
        catalog = small_catalog
        ix = catalog.index_for("events", "user_id")
        catalog.materialize_index(ix)
        q = _query(catalog, "select amount from events where user_id = 5")
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        session = whatif.begin_query(q)
        gains = whatif.what_if_optimize(session, [ix])
        # Removing the index would make the query slower: positive gain.
        assert gains[ix] > 0

    def test_forward_and_reverse_agree(self, small_catalog):
        """The same index yields the same QueryGain whether probed as
        hypothetical (forward) or as materialized (reverse)."""
        catalog = small_catalog
        ix = catalog.index_for("events", "user_id")
        q = _query(catalog, "select amount from events where user_id = 5")
        whatif = WhatIfOptimizer(LocalBackend(catalog))

        session = whatif.begin_query(q)
        forward = whatif.what_if_optimize(session, [ix])[ix]

        catalog.materialize_index(ix)
        session2 = whatif.begin_query(q)
        reverse = whatif.what_if_optimize(session2, [ix])[ix]
        assert forward == pytest.approx(reverse)


class TestSessionCaching:
    def test_repeated_probes_cheap(self, small_catalog):
        catalog = small_catalog
        q = _query(catalog, "select amount from events where user_id = 5")
        backend = LocalBackend(catalog)
        optimizer = backend.optimizer
        whatif = WhatIfOptimizer(backend)
        session = whatif.begin_query(q)
        ix = catalog.index_for("events", "user_id")
        whatif.what_if_optimize(session, [ix])
        count = optimizer.optimize_count
        whatif.what_if_optimize(session, [ix])
        # Second probe answered entirely from the session's plan cache.
        assert optimizer.optimize_count == count

    def test_one_query_one_gain_per_probed_index(self, small_catalog):
        catalog = small_catalog
        q = _query(catalog, "select amount from events where user_id = 5")
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        session = whatif.begin_query(q)
        gains = whatif.what_if_optimize(session, [catalog.index_for("events", "user_id")])
        assert len(gains) == 1
