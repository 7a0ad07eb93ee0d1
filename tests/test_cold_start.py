"""What a cold start loads.

Each case imports in a fresh interpreter without a bytecode cache (as
every set-up child of ``perf/run.py`` runs) and reads which ``repro``
modules came in.  Package façades load a submodule when one of its names
is first read, and optional subsystems load where they are first
constructed, so the core does not drag in the fleet, the benchmark
drivers or the executor.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The ``repro`` import lines of ``perf/run.py`` and ``perf/workloads.py``,
#: copied as they stand there.
BENCHMARK_IMPORTS = """
from repro.core.colt import InsertOutcome, QueryOutcome  # noqa: E402
from repro.optimizer.optimizer import Optimizer  # noqa: E402
from repro.persist import restore_any, snapshot_any  # noqa: E402
from repro.workload import build_catalog  # noqa: E402

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
"""


def loaded_after(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def matching(modules: set, patterns) -> list:
    """Modules named by ``patterns``: ``"a.b.*"`` is a.b and everything under it."""
    hits = []
    for module in sorted(modules):
        for pattern in patterns:
            if pattern.endswith(".*"):
                stem = pattern[:-2]
                if module == stem or module.startswith(stem + "."):
                    hits.append(module)
            elif module == pattern:
                hits.append(module)
    return hits


def test_import_repro_loads_only_the_root_and_the_facade_helper():
    assert loaded_after("import repro") == {"repro", "repro._facade"}


def test_the_core_tuner_loads_no_fleet_bench_or_executor_code():
    modules = loaded_after("from repro import ColtTuner")
    assert "repro.core.colt" in modules
    assert not matching(modules, [
        "repro.fleet.*",
        "repro.bench.*",
        "repro.baselines.*",
        "repro.bandit.*",
        "repro.executor.*",
        "repro.workload.adversarial",
    ])


def test_benchmark_setup_imports_load_no_optional_subsystem():
    modules = loaded_after(BENCHMARK_IMPORTS)
    assert {"repro.fleet.coordinator", "repro.bandit.tuner"} <= modules
    assert not matching(modules, [
        "repro.fleet.workers",
        "repro.executor.*",
        "repro.bench.figures",
        "repro.bench.harness",
        "repro.bench.tracing",
        "repro.workload.adversarial",
        "repro.baselines.*",
    ])


def test_a_submodule_resolves_as_an_attribute_of_a_cold_package():
    modules = loaded_after(
        "import repro.fleet\n"
        "assert repro.fleet.workers.WorkerFleetCoordinator is not None\n"
    )
    assert "repro.fleet.workers" in modules


def test_a_fleet_is_built_without_the_guardrail_manager():
    modules = loaded_after(
        "from repro.fleet import FleetCoordinator\n"
        "from repro.workload import build_catalog\n"
        "FleetCoordinator(build_catalog, n_replicas=2)\n"
    )
    assert "repro.fleet.coordinator" in modules
    assert not matching(modules, [
        "repro.guardrails.manager",
        "repro.guardrails.quarantine",
        "repro.guardrails.verify",
    ])
