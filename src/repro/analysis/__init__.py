"""Analysis: the Table 1 latency harness."""

from .latency import (
    PAPER_TABLE1,
    SCENARIOS,
    analytic_estimate,
    measure_scenario,
    measure_table1,
    render_table1,
)

__all__ = [
    "PAPER_TABLE1",
    "SCENARIOS",
    "analytic_estimate",
    "measure_scenario",
    "measure_table1",
    "render_table1",
]
