"""Synthetic TPC-H-style data and workload generation.

The paper evaluates COLT on four instances of the TPC-H schema (32 tables,
6,928,120 tuples, 244 indexable attributes -- Table 1) with synthetic query
workloads drawn from fixed, shifting, and noisy distributions.  This
package reconstructs all of it:

* ``spec`` / ``tpch`` -- the schema with declarative column specifications
  from which both paper-scale statistics and physical rows derive.
* ``datagen`` -- catalog construction (declared statistics) and physical
  data generation at a configurable scale factor.
* ``querygen`` -- parameterized query distributions over focus attributes
  with controlled selectivities.
* ``phases`` -- stable, shifting, and noise-injected workload builders
  matching the three experiments of §6.
"""

from repro.workload.adversarial import (
    SCENARIOS,
    Scenario,
    ScenarioEvent,
    build_adhoc_scenario,
    build_adversarial_store,
    build_correlated_scenario,
    build_drift_scenario,
    build_htap_scenario,
    build_misleading_scenario,
    misleading_workload,
)
from repro.workload.datagen import build_catalog, build_physical
from repro.workload.phases import (
    multi_client_shifting_workload,
    multi_client_workload,
    noisy_workload,
    shifting_workload,
    stable_workload,
)
from repro.workload.querygen import QueryDistribution, QueryTemplate, PredicateSpec
from repro.workload.tpch import TPCH_INSTANCES, dataset_summary, tpch_schema

__all__ = [
    "PredicateSpec",
    "QueryDistribution",
    "QueryTemplate",
    "SCENARIOS",
    "Scenario",
    "ScenarioEvent",
    "TPCH_INSTANCES",
    "build_adhoc_scenario",
    "build_adversarial_store",
    "build_correlated_scenario",
    "build_drift_scenario",
    "build_htap_scenario",
    "build_misleading_scenario",
    "build_catalog",
    "build_physical",
    "misleading_workload",
    "dataset_summary",
    "multi_client_shifting_workload",
    "multi_client_workload",
    "noisy_workload",
    "shifting_workload",
    "stable_workload",
    "tpch_schema",
]
