"""Experiment harness: policy runs, figure/table data generators, reports."""

from .runner import PolicyRun, RunOptions, run_policy
from .tables import (
    TableComparison,
    render_table1,
    render_table2,
    table1_job_counts,
    table2_proc_hours,
)

__all__ = [
    "PolicyRun",
    "RunOptions",
    "TableComparison",
    "render_table1",
    "render_table2",
    "run_policy",
    "table1_job_counts",
    "table2_proc_hours",
]
