"""The epoch log and its readers held to the folds they replaced.

``TuningLoop`` writes one row per close into its dashboard, and
``TunerTrace.of`` and ``run_colt`` read that log; the per-query folds
they replaced are kept verbatim in ``oracle.py``.  The properties here
fold the same run through the oracle and require the trace JSON (every
epoch field, costs bit for bit) and every ``ColtRun`` field to be equal:
for every engine of ``ENGINES``, with ``on_error="skip"`` failures that
land on epoch boundaries too, with the gain cache on and off, and with
guardrails verifying against executed plans (``ExecutionObserver``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_colt
from repro.bench.tracing import TunerTrace
from repro.core.config import ColtConfig
from repro.engines import ENGINES, engine_spec
from repro.guardrails import ExecutionObserver, GuardrailManager
from repro.workload import build_adversarial_store, build_catalog, misleading_workload
from repro.workload.experiments import phase_distributions
from repro.workload.phases import shifting_workload
from tests.bench import oracle
from tests.fleet.workloads import bad_query


def _paper_stream(seed):
    return shifting_workload(
        phase_distributions(), build_catalog(), phase_length=25, transition=5, seed=seed
    ).queries


def _with_failures(queries, positions):
    """``queries`` with a failing arrival at each of ``positions``."""
    stream = list(queries)
    for position in sorted(positions):
        stream.insert(min(position, len(stream)), bad_query())
    return stream


def _assert_traces_equal(trace, reference):
    assert trace.to_json() == reference.to_json()
    assert trace.epochs == reference.epochs
    assert trace.total_whatif == reference.total_whatif
    assert trace.total_cost == pytest.approx(reference.total_cost, rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    seed=st.integers(0, 50),
    epoch_length=st.sampled_from([3, 5, 10]),
    length=st.integers(0, 90),
    gain_cache=st.booleans(),
    failures=st.lists(st.integers(0, 100), max_size=6),
    on_boundary=st.lists(st.integers(0, 9), max_size=3),
)
def test_trace_is_the_fold_of_the_ledger(
    engine, seed, epoch_length, length, gain_cache, failures, on_boundary
):
    # A failed arrival at stream position p closes an epoch when
    # (p + 1) is a multiple of the epoch length.
    boundary = [(k + 1) * epoch_length - 1 for k in on_boundary]
    stream = _with_failures(_paper_stream(seed)[:length], failures + boundary)
    config = ColtConfig(
        storage_budget_pages=9_000.0,
        seed=seed,
        epoch_length=epoch_length,
        gain_cache=gain_cache,
    )
    tuner = engine_spec(engine).build(build_catalog(), config)
    reference = oracle.TraceAccumulator(tuner)
    for query in stream:
        reference.add(tuner.run([query], on_error="skip")[0])
    _assert_traces_equal(TunerTrace.of(tuner), reference.trace())


@settings(max_examples=6, deadline=None)
@given(
    engine=st.sampled_from(sorted(ENGINES)),
    seed=st.integers(0, 20),
    length=st.integers(20, 140),
    failures=st.lists(st.integers(0, 140), max_size=4),
)
def test_guarded_trace_is_the_fold_of_the_ledger(engine, seed, length, failures):
    store = build_adversarial_store()
    catalog = store.catalog
    stream = _with_failures(
        misleading_workload(catalog, length=length, seed=seed).queries,
        failures + [19, 39],  # two failed arrivals close an epoch
    )
    tuner = engine_spec(engine).build(
        catalog,
        ColtConfig(epoch_length=20, storage_budget_pages=200.0, seed=seed),
        store=store,
        guardrails=GuardrailManager(observer=ExecutionObserver(store)),
    )
    reference = oracle.TraceAccumulator(tuner)
    for query in stream:
        reference.add(tuner.run([query], on_error="skip")[0])
    _assert_traces_equal(TunerTrace.of(tuner), reference.trace())


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 50),
    epoch_length=st.sampled_from([3, 7, 10]),
    length=st.integers(0, 120),
    gain_cache=st.booleans(),
)
def test_colt_run_is_the_fold_of_the_ledger(seed, epoch_length, length, gain_cache):
    queries = _paper_stream(seed)[:length]
    config = ColtConfig(
        storage_budget_pages=9_000.0,
        seed=seed,
        epoch_length=epoch_length,
        gain_cache=gain_cache,
    )
    run = run_colt(build_catalog(), queries, config)
    reference = oracle.run_colt(build_catalog(), queries, config)
    assert run.whatif_per_epoch == reference.whatif_per_epoch
    assert run.budget_per_epoch == reference.budget_per_epoch
    assert run.materialized_history == reference.materialized_history
    assert run.total_costs == reference.total_costs
    assert run.execution_costs == reference.execution_costs
    assert run.final_materialized == reference.final_materialized
    assert run.profiled_index_count == reference.profiled_index_count
