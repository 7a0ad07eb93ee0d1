"""The worker wire protocol, driven without a process.

``_worker_main`` serves a scripted connection in this process; both
directions cross ``pickle`` as they would cross the pipe.  Events are
encoded by a real :class:`WorkerHandle` (bare key, ``(key, query)`` on a
first crossing, ``None`` for an idle tick) and every reply -- outcomes,
status, error -- plus the served replica's breaker clock
is held ``==`` to a local :class:`TunerReplica` fed the decoded
sequence.  The idle-tick branch is only reachable this way: a live
worker's breaker cannot be tripped from the parent, and a crashed
replica is never ticked.
"""

import dataclasses
import pickle
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.core.loop import QueryOutcome
from repro.fleet import workers
from repro.fleet.replica import TunerReplica
from repro.resilience.breaker import CircuitBreaker

from tests.fleet.test_workers import make_config
from tests.fleet.workloads import (
    bad_query,
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)

COOLDOWN = 3  # ticks from OPEN to HALF_OPEN: reachable inside one batch


def make_replica(*args, **kwargs):
    return TunerReplica(*args, breaker=CircuitBreaker(cooldown_ticks=COOLDOWN), **kwargs)


class ScriptedConnection:
    """A pipe end that plays ``script``: commands are handed to ``recv``
    (callables among them are run on the served replica in between),
    replies are kept."""

    def __init__(self, script):
        self._script = iter(script)
        self.replica = None
        self.replies = []

    def recv(self):
        for step in self._script:
            if callable(step):
                step(self.replica)
                continue
            return pickle.loads(pickle.dumps(step))
        return ("stop",)

    def send(self, reply):
        self.replies.append(pickle.loads(pickle.dumps(reply)))

    def close(self):
        pass


def serve(script):
    """Run ``_worker_main`` over ``script``; returns (its replica, replies)."""
    conn = ScriptedConnection(script)

    def capture(*args, **kwargs):
        conn.replica = make_replica(*args, **kwargs)
        return conn.replica

    with mock.patch.object(workers, "TunerReplica", capture):
        workers._worker_main(
            conn, 0, build_small_catalog, make_config(), "colt", None
        )
    assert conn.replies.pop() == ("ok", None, None)  # the stop
    return conn.replica, conn.replies


def breaker_clock(replica):
    breaker = replica.breaker
    return (breaker.state, breaker._ticks, breaker._cooldown, breaker.transitions)


def assert_outcome(slim, expected: QueryOutcome):
    inflated = QueryOutcome(*slim)
    plain = dataclasses.replace(expected, plan=None, reorganization=None, error=None)
    assert dataclasses.replace(inflated, error=None) == plain
    if expected.error is None:
        assert len(slim) == 10 and inflated.error is None
    else:
        assert str(inflated.error) == repr(expected.error)


POOL = [eq_query(7), day_query(8100), score_query(3), eq_query(9), bad_query()]

#: A step is a batch (query pool positions, None = idle tick, plus the
#: error mode) or tripping the replica's breaker.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(st.one_of(st.none(), st.integers(0, len(POOL) - 1)), max_size=12),
            st.sampled_from(["skip", "raise"]),
        ),
        st.just(("trip",)),
    ),
    max_size=8,
)


@given(steps)
def test_replies_and_breaker_clock_equal_a_local_replica(steps):
    encode = workers.WorkerHandle(0, None, None, 1.0).encode_query
    script = []
    for step in steps:
        if step[0] == "batch":
            wire = [None if e is None else encode(POOL[e]) for e in step[1]]
            script.append(("batch", wire, step[2]))
        else:
            script.append(lambda replica: replica.breaker.trip())
    served, replies = serve(script)
    replies = iter(replies)

    local = make_replica(0, build_small_catalog(), make_config())
    for step in steps:
        if step[0] == "trip":
            local.breaker.trip()
            continue
        kind, payload, status = next(replies)
        expected, error = [], None
        for event in step[1]:
            if event is None:
                local.idle_tick()
                continue
            try:
                expected.append(local.process(POOL[event], on_error=step[2]))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                break
        if error is not None:
            assert (kind, payload, status) == ("error", error, None)
            continue
        assert kind == "ok" and len(payload) == len(expected)
        for slim, outcome in zip(payload, expected):
            assert_outcome(slim, outcome)
        assert status == workers._status(local)
    assert next(replies, None) is None
    assert breaker_clock(served) == breaker_clock(local)
    assert served.trace().to_json() == local.trace().to_json()


def test_idle_ticks_walk_an_open_breaker_to_half_open():
    encode = workers.WorkerHandle(0, None, None, 1.0).encode_query
    query = eq_query(7)
    script = [
        ("batch", [encode(query)], "raise"),
        lambda replica: replica.breaker.trip(),
        ("batch", [None] * (COOLDOWN - 1), "raise"),
        ("batch", [None, encode(query)], "raise"),
    ]
    _, replies = serve(script)
    assert [status["breaker_state"] for _, _, status in replies] == [
        "closed",
        "open",
        "half_open",
    ]
    assert [len(payload) for _, payload, _ in replies] == [1, 0, 1]
    # The repeat crossed as a bare key and found the first batch's query.
    assert script[0][1] == [(0, query)] and script[3][1] == [None, 0]
