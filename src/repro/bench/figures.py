"""Experiment drivers: one function per table/figure of the paper.

Each function runs the full experiment and returns a small dataclass
holding exactly the series the paper plots, plus a ``to_text()`` renderer
the benchmark targets print.  EXPERIMENTS.md records paper-vs-measured
for each of these.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.bench.harness import bar_series, run_colt, run_offline
from repro.core.config import ColtConfig
from repro.workload.datagen import build_catalog
from repro.workload.experiments import (
    noise_distributions,
    phase_distributions,
    stable_distribution,
)
from repro.workload.phases import noisy_workload, shifting_workload, stable_workload
from repro.workload.tpch import dataset_summary

if TYPE_CHECKING:
    from repro.bench.harness import ColtRun, OfflineRun
    from repro.workload.phases import Workload
    from repro.workload.tpch import DatasetSummary

# Budget sized so that 3-6 of the stable workload's 18 relevant indexes
# fit (§6.2): lineitem indexes are ~3,277 pages, orders ~819, dimension
# indexes smaller.
DEFAULT_BUDGET_PAGES = 9_000.0
BAR_WIDTH = 50


def _config(budget: float, seed: int = 0) -> ColtConfig:
    return ColtConfig(storage_budget_pages=budget, seed=seed)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Table1Result:
    """Data set characteristics (paper Table 1)."""

    summary: DatasetSummary
    paper: Dict[str, object]

    def to_text(self) -> str:
        """Render the measured-vs-paper comparison table."""
        s = self.summary
        rows = [
            ("Size (binary data)", f"{s.size_bytes / 2**30:.2f} GB", self.paper["size"]),
            ("# Tables", str(s.num_tables), self.paper["tables"]),
            ("# Tuples in all tables", f"{s.total_tuples:,}", self.paper["tuples"]),
            ("# Tuples in largest table", f"{s.max_table_tuples:,}", self.paper["max"]),
            ("# Tuples in smallest table", str(s.min_table_tuples), self.paper["min"]),
            ("# Indexable attributes", str(s.indexable_attributes), self.paper["attrs"]),
        ]
        lines = [f"{'characteristic':<28} {'measured':>14} {'paper':>12}"]
        lines += [f"{name:<28} {ours:>14} {paper:>12}" for name, ours, paper in rows]
        return "\n".join(lines)


def table1_dataset() -> Table1Result:
    """Reproduce Table 1: the data set characteristics."""
    return Table1Result(
        summary=dataset_summary(),
        paper={
            "size": "1.4 GB",
            "tables": "32",
            "tuples": "6,928,120",
            "max": "1,200,000",
            "min": "5",
            "attrs": "244",
        },
    )


# ----------------------------------------------------------------------
# Figures 3 and 4 share a bar-comparison structure
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ComparisonResult:
    """COLT vs OFFLINE, summed into 50-query bars (Figures 3/4 format)."""

    name: str
    colt: ColtRun
    offline: OfflineRun
    colt_bars: List[float]
    offline_bars: List[float]

    @property
    def total_ratio(self) -> float:
        """COLT total cost / OFFLINE total cost over the whole workload."""
        return self.colt.total_cost / self.offline.total_cost

    def reduction_percent(self, start: int = 0, end: Optional[int] = None) -> float:
        """COLT's cost reduction vs OFFLINE over a query range (percent)."""
        colt = sum(self.colt.total_costs[start:end])
        off = sum(self.offline.per_query_costs[start:end])
        return (1.0 - colt / off) * 100.0

    def to_text(self) -> str:
        """Render the per-bar COLT-vs-OFFLINE comparison."""
        lines = [
            f"{self.name}: COLT vs OFFLINE per {BAR_WIDTH}-query bar",
            f"{'queries':>12} {'COLT':>12} {'OFFLINE':>12} {'winner':>8}",
        ]
        for i, (c, o) in enumerate(zip(self.colt_bars, self.offline_bars)):
            lo = i * BAR_WIDTH + 1
            hi = lo + BAR_WIDTH - 1
            winner = "COLT" if c < o else "OFFLINE"
            lines.append(f"{f'{lo}-{hi}':>12} {c:>12.0f} {o:>12.0f} {winner:>8}")
        lines.append(
            f"total: COLT {self.colt.total_cost:,.0f}  OFFLINE "
            f"{self.offline.total_cost:,.0f}  ratio {self.total_ratio:.3f}"
        )
        return "\n".join(lines)


def _compare(
    name: str,
    workload: Workload,
    budget: float,
    seed: int = 0,
    offline_tuning_queries: Optional[Sequence] = None,
) -> ComparisonResult:
    colt_run = run_colt(build_catalog(), workload.queries, _config(budget, seed))
    offline_run = run_offline(
        build_catalog(),
        workload.queries,
        budget,
        tuning_workload=offline_tuning_queries,
    )
    return ComparisonResult(
        name=name,
        colt=colt_run,
        offline=offline_run,
        colt_bars=bar_series(colt_run.total_costs, BAR_WIDTH),
        offline_bars=bar_series(offline_run.per_query_costs, BAR_WIDTH),
    )


def figure3_stable(
    length: int = 500,
    budget: float = DEFAULT_BUDGET_PAGES,
    seed: int = 0,
) -> ComparisonResult:
    """Reproduce Figure 3: on-line tuning for a stable workload.

    Expected shape: COLT pays extra during the first ~100 queries
    (monitoring + index builds), then matches OFFLINE within a few
    percent.
    """
    catalog = build_catalog()
    workload = stable_workload(stable_distribution(), length, catalog, seed=seed)
    return _compare("Figure 3 (stable workload)", workload, budget, seed)


def figure4_shifting(
    phase_length: int = 300,
    transition: int = 50,
    budget: float = DEFAULT_BUDGET_PAGES,
    seed: int = 0,
) -> ComparisonResult:
    """Reproduce Figure 4: on-line tuning for a shifting workload.

    Expected shape: COLT beats OFFLINE on most bars; the paper reports a
    49% reduction in phase 2 and 33% over the whole workload.
    """
    catalog = build_catalog()
    workload = shifting_workload(
        phase_distributions(),
        catalog,
        phase_length=phase_length,
        transition=transition,
        seed=seed,
    )
    return _compare("Figure 4 (shifting workload)", workload, budget, seed)


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------
@dataclasses.dataclass
class OverheadResult:
    """What-if calls per epoch over the shifting workload (Figure 5)."""

    whatif_per_epoch: List[int]
    budget_per_epoch: List[int]
    phase_boundaries_epochs: List[int]
    max_per_epoch: int
    profiled_indexes: int
    relevant_indexes: int

    @property
    def profiled_fraction(self) -> float:
        """Fraction of relevant indexes ever profiled (paper: ~11%)."""
        if self.relevant_indexes == 0:
            return 0.0
        return self.profiled_indexes / self.relevant_indexes

    def mean_calls(self, epochs: Sequence[int]) -> float:
        """Average what-if calls over a set of epoch indexes."""
        values = [self.whatif_per_epoch[e] for e in epochs if e < len(self.whatif_per_epoch)]
        return sum(values) / len(values) if values else 0.0

    def to_text(self) -> str:
        """Render the per-epoch what-if usage chart."""
        lines = ["Figure 5 (what-if calls per epoch; max "
                 f"{self.max_per_epoch}/epoch, transitions at epochs "
                 f"{self.phase_boundaries_epochs})"]
        for i, calls in enumerate(self.whatif_per_epoch):
            marker = " <- transition" if i in self.phase_boundaries_epochs else ""
            lines.append(f"epoch {i:3d}: {'#' * calls}{'' if calls else '.'} ({calls}){marker}")
        lines.append(
            f"profiled {self.profiled_indexes}/{self.relevant_indexes} relevant "
            f"indexes ({self.profiled_fraction * 100:.0f}%)"
        )
        return "\n".join(lines)


def figure5_overhead(
    phase_length: int = 300,
    transition: int = 50,
    budget: float = DEFAULT_BUDGET_PAGES,
    seed: int = 0,
) -> OverheadResult:
    """Reproduce Figure 5: self-regulating profiling overhead.

    Runs the Figure 4 workload and charts per-epoch what-if usage.
    Expected shape: peaks near the four distribution changes, less than
    half the budget elsewhere.
    """
    catalog = build_catalog()
    distributions = phase_distributions()
    workload = shifting_workload(
        distributions,
        catalog,
        phase_length=phase_length,
        transition=transition,
        seed=seed,
    )
    config = _config(budget, seed)
    colt_run = run_colt(build_catalog(), workload.queries, config)

    boundaries = workload.phase_boundaries()
    boundary_epochs = sorted({b // config.epoch_length for b in boundaries})
    relevant = set()
    for dist in distributions:
        relevant.update(dist.relevant_indexes(catalog))
    return OverheadResult(
        whatif_per_epoch=colt_run.whatif_per_epoch,
        budget_per_epoch=colt_run.budget_per_epoch,
        phase_boundaries_epochs=boundary_epochs,
        max_per_epoch=config.max_whatif_per_epoch,
        profiled_indexes=colt_run.profiled_index_count,
        relevant_indexes=len(relevant),
    )


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
@dataclasses.dataclass
class NoisePoint:
    """One burst-length measurement."""

    burst_length: int
    ratio: float
    colt_cost: float
    offline_cost: float


@dataclasses.dataclass
class NoiseResult:
    """Performance ratio vs noise-burst duration (Figure 6)."""

    points: List[NoisePoint]
    excluded_prefix: int

    def to_text(self) -> str:
        """Render the burst-length sweep table."""
        lines = [
            "Figure 6 (COLT/OFFLINE execution time vs burst length; "
            f"first {self.excluded_prefix} queries excluded)",
            f"{'burst':>6} {'ratio':>7} {'COLT':>12} {'OFFLINE':>12}",
        ]
        for p in self.points:
            lines.append(
                f"{p.burst_length:>6} {p.ratio:>7.3f} {p.colt_cost:>12.0f} "
                f"{p.offline_cost:>12.0f}"
            )
        return "\n".join(lines)


def figure6_noise(
    burst_lengths: Sequence[int] = (20, 30, 40, 50, 60, 70, 80, 90),
    budget: float = DEFAULT_BUDGET_PAGES,
    seed: int = 0,
    warmup: int = 100,
) -> NoiseResult:
    """Reproduce Figure 6: resilience to bursts of noise.

    OFFLINE is tuned solely on the base distribution Q1 (it ignores
    noise); the ratio excludes the first ``warmup`` queries.  Expected
    shape: ratio near 1 for short (<= 20) and long (>= 70) bursts, with
    a hump in the 30-60 range (the paper reports an average 18% loss
    there).
    """
    base, noise = noise_distributions()
    points: List[NoisePoint] = []
    for burst in burst_lengths:
        catalog = build_catalog()
        workload = noisy_workload(
            base, noise, catalog, burst_length=burst, warmup=warmup, seed=seed
        )
        q1_queries = [
            q
            for q, src in zip(workload.queries, workload.source)
            if src == base.name
        ]
        colt_run = run_colt(build_catalog(), workload.queries, _config(budget, seed))
        offline_run = run_offline(
            build_catalog(),
            workload.queries,
            budget,
            tuning_workload=q1_queries,
        )
        colt_cost = sum(colt_run.total_costs[warmup:])
        offline_cost = sum(offline_run.per_query_costs[warmup:])
        points.append(
            NoisePoint(
                burst_length=burst,
                ratio=colt_cost / offline_cost,
                colt_cost=colt_cost,
                offline_cost=offline_cost,
            )
        )
    return NoiseResult(points=points, excluded_prefix=warmup)

