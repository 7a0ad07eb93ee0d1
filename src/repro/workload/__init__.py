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

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adversarial": (
            "SCENARIOS",
            "Scenario",
            "ScenarioEvent",
            "build_adhoc_scenario",
            "build_adversarial_store",
            "build_correlated_scenario",
            "build_drift_scenario",
            "build_htap_scenario",
            "build_misleading_scenario",
            "misleading_workload",
        ),
        "datagen": ("build_catalog", "build_physical"),
        "phases": (
            "multi_client_shifting_workload",
            "multi_client_workload",
            "noisy_workload",
            "shifting_workload",
            "stable_workload",
        ),
        "querygen": ("QueryDistribution", "QueryTemplate", "PredicateSpec"),
        "tpch": ("TPCH_INSTANCES", "dataset_summary", "tpch_schema"),
    },
)
