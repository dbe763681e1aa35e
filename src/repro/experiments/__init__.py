"""Experiment harness: policy runs, figure/table data generators, reports."""

from .config import BenchConfig, bench_workload
from .runner import PolicyRun, RunOptions, run_policy
from .tables import (
    TableComparison,
    render_table1,
    render_table2,
    table1_job_counts,
    table2_proc_hours,
)

__all__ = [
    "BenchConfig",
    "PolicyRun",
    "RunOptions",
    "TableComparison",
    "bench_workload",
    "render_table1",
    "render_table2",
    "run_policy",
    "table1_job_counts",
    "table2_proc_hours",
]
