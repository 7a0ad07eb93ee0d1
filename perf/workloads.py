"""The five benchmark workloads.

Each workload makes its inputs from the seed alone, builds the system
under test through a default-constructed public entry point, and hands
the driver loop an endless stream of *dispatch units* plus the one call
that processes a unit.  Why each exists, and which optimisation it
exercises or bypasses, is recorded in ``BENCHMARK.json`` (one line) and
``perf/README.md`` (in full).

Units by workload: a bound ``Query`` (``shift_cyclic``, ``shift_bandit``),
a ``Query`` or an ``("insert", table, rows)`` tuple (``stable_htap``), a
``(sql text, generator's query)`` pair (``sql_fresh``), a 200-arrival
``(queries, client_ids)`` chunk (``fleet_workers``).
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterator, List, Sequence, Tuple

from repro.bandit.tuner import BanditTuner
from repro.core.colt import ColtTuner
from repro.core.gaincache import query_signature
from repro.fleet import FleetCoordinator
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.sql.render import render_query
from repro.workload import (
    build_catalog,
    multi_client_workload,
    shifting_workload,
    stable_workload,
)
from repro.workload.experiments import phase_distributions, stable_distribution

#: Arrivals per ``fleet.run`` call = the fleet epoch, so every chunk
#: closes exactly one fleet reorganization.
FLEET_CHUNK = 200

# render_query prints tiny floats with an exponent (1.03e-05), which
# parse_query rejects (about one sql_fresh query in 20 000).  Such texts
# are left out of the stream: the benchmark's workloads are ones on which
# no operation fails.  The driver still counts any failure it meets.
_EXPONENT_LITERAL = re.compile(r"\d[eE][-+]?\d")


def shifting_base(catalog, seed: int):
    """``repro replay``'s base: 2 shifting clients, 440 bound queries."""
    phases = phase_distributions()
    clients = [
        shifting_workload(
            [phases[i % len(phases)], phases[(i + 1) % len(phases)]],
            catalog,
            phase_length=100,
            transition=20,
            seed=seed + i,
        )
        for i in range(2)
    ]
    return multi_client_workload(clients, seed=seed + 7)


class Workload:
    """Inputs plus system under test for one named workload.

    Attributes:
        name: The workload's name in ``BENCHMARK.json``.
        block_units: Dispatch units per timed block.  Where the stream
            cycles, a block is a whole number of cycles, so every block
            carries the same inputs and blocks differ only by noise and
            tuner state.
        unit_events: Events (queries + inserts) in one dispatch unit.
        tuner / fleet: The system under test, after :meth:`build`.
    """

    name = ""
    block_units = 0
    unit_events = 1
    tuner = None
    fleet = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Inputs are generated against a catalog the system under test
        # never sees (bound queries replay across identical catalogs).
        self.catalog = build_catalog()

    def build(self) -> None:
        """Construct the system under test (part of set-up)."""
        raise NotImplementedError

    def units(self) -> Iterator:
        """The endless stream of dispatch units."""
        raise NotImplementedError

    def dispatch(self, unit):
        """Process one unit; the call the driver times."""
        raise NotImplementedError

    def events_of(self, unit) -> Sequence:
        """The unit's events: ``Query`` or ``("insert", table, rows)``."""
        return (unit,)

    def mismatches(self) -> int:
        """Output mismatches found in the block just dispatched."""
        return 0

    def close(self) -> None:
        """Stop whatever :meth:`build` started."""


class ShiftCyclic(Workload):
    name = "shift_cyclic"
    engine = ColtTuner

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.base = shifting_base(self.catalog, seed)
        self.block_units = 2 * len(self.base.queries)

    def build(self) -> None:
        self.tuner = self.engine(build_catalog())
        self.dispatch = self.tuner.process_query

    def units(self) -> Iterator:
        return itertools.cycle(self.base.queries)


class ShiftBandit(ShiftCyclic):
    name = "shift_bandit"
    engine = BanditTuner


class StableHtap(Workload):
    name = "stable_htap"
    block_units = 2000  # 1 500 queries (3 cycles of the base) + 500 inserts
    insert_tables = ("lineitem_1", "lineitem_2", "orders_1", "orders_2")
    insert_rows = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.base = stable_workload(stable_distribution(), 500, self.catalog, seed)

    def build(self) -> None:
        self.tuner = ColtTuner(build_catalog())

    def units(self) -> Iterator:
        queries = itertools.cycle(self.base.queries)
        tables = itertools.cycle(self.insert_tables)
        while True:
            yield next(queries)
            yield next(queries)
            yield next(queries)
            yield ("insert", next(tables), self.insert_rows)

    def dispatch(self, unit):
        if type(unit) is tuple:
            return self.tuner.process_insert(unit[1], count=unit[2])
        return self.tuner.process_query(unit)


class SqlFresh(Workload):
    name = "sql_fresh"
    block_units = 800

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.dropped = 0
        self._bound: List = []
        self._originals: List = []
        # The first cycle is generated and rendered in set-up; later
        # cycles between timed blocks, outside every timed region.
        self._first = self._cycle(0)

    def _cycle(self, k: int) -> List[Tuple[str, object]]:
        """4 phases x 2 000 + 3 transitions x 400 fresh-literal queries."""
        workload = shifting_workload(
            phase_distributions(),
            self.catalog,
            phase_length=2000,
            transition=400,
            seed=self.seed * 4096 + k,
        )
        out = []
        for query in workload.queries:
            text = render_query(query, self.catalog)
            if _EXPONENT_LITERAL.search(text):
                self.dropped += 1
                continue
            out.append((text, query))
        return out

    def build(self) -> None:
        self.tuner = ColtTuner(build_catalog())

    def units(self) -> Iterator:
        yield from self._first
        for k in itertools.count(1):
            yield from self._cycle(k)

    def dispatch(self, unit):
        query = bind_query(parse_query(unit[0]), self.tuner.catalog)
        self._bound.append(query)
        self._originals.append(unit[1])
        return self.tuner.process_query(query)

    def events_of(self, unit) -> Sequence:
        return (unit[1],)

    def mismatches(self) -> int:
        """Parsed+bound queries whose signature differs from the generator's."""
        bad = sum(
            query_signature(bound) != query_signature(original)
            for bound, original in zip(self._bound, self._originals)
        )
        self._bound.clear()
        self._originals.clear()
        return bad


class FleetWorkers(Workload):
    name = "fleet_workers"
    unit_events = FLEET_CHUNK
    workers = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = shifting_base(self.catalog, seed)
        n = len(base.queries)
        # Chunk j covers stream positions [200j, 200j + 200) of the
        # cycled base; the chunk sequence itself repeats after
        # lcm(n, 200) / 200 chunks.
        period = math.lcm(n, FLEET_CHUNK) // FLEET_CHUNK
        self.chunks = [
            (
                [base.queries[(j * FLEET_CHUNK + i) % n] for i in range(FLEET_CHUNK)],
                [base.client_ids[(j * FLEET_CHUNK + i) % n] for i in range(FLEET_CHUNK)],
            )
            for j in range(period)
        ]
        self.block_units = period  # ~0.35 s per block

    def build(self) -> None:
        self.fleet = self.make_fleet(workers=self.workers)

    def make_fleet(self, **size):
        """The fleet under test, or (``n_replicas=2``) its in-process twin."""
        return FleetCoordinator(
            build_catalog, policy="client", fleet_epoch_length=FLEET_CHUNK, **size
        )

    def units(self) -> Iterator:
        return itertools.cycle(self.chunks)

    def dispatch(self, unit):
        return self.fleet.run(unit[0], client_ids=unit[1], on_error="skip")

    def events_of(self, unit) -> Sequence:
        return unit[0]

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


WORKLOADS = {
    cls.name: cls
    for cls in (ShiftCyclic, SqlFresh, StableHtap, ShiftBandit, FleetWorkers)
}
