"""Job model for the parallel-job scheduling simulator.

A job is the unit the scheduler reasons about: a rectangle in the 2D
(processors x time) chart whose width is the requested node count and whose
length is the *user estimated* runtime (the wall-clock limit, WCL).  The
actual runtime is only discovered by the simulator when the job completes.

Jobs created by the 72-hour runtime-limit transform form *chunk chains*: the
original trace job is the parent, and each chunk is an ordinary job carrying
``parent_id``/``chunk_index`` so metrics can be aggregated either per
scheduler-visible job or per original job.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Optional

if sys.version_info >= (3, 10):
    # __slots__ halves per-job memory and speeds attribute access on the
    # simulator hot paths; the keyword is 3.10+, and 3.9 (the oldest
    # supported interpreter) silently falls back to dict-backed instances.
    _job_dataclass = dataclass(slots=True)
else:  # pragma: no cover - exercised only on Python 3.9
    _job_dataclass = dataclass


class JobState(enum.Enum):
    """Lifecycle of a job inside one simulation."""

    PENDING = "pending"    # not yet submitted (arrival event still queued)
    QUEUED = "queued"      # submitted, waiting for nodes
    RUNNING = "running"
    COMPLETED = "completed"


@_job_dataclass
class Job:
    """A single parallel job.

    Times are seconds from the trace epoch (floats).  ``runtime`` is the
    actual execution time; ``wcl`` is the user-supplied wall-clock limit the
    scheduler must plan with.  Schedulers never read ``runtime``.
    """

    id: int
    submit_time: float
    nodes: int
    runtime: float
    wcl: float
    user_id: int = 0
    group_id: int = 0
    # chunk-chain bookkeeping (runtime-limit transform)
    parent_id: Optional[int] = None
    chunk_index: int = 0
    chunk_count: int = 1
    #: queue-seniority reference time: chunk continuations inherit the
    #: original job's submit time, so a split job does not restart its
    #: starvation clock with every chunk (None = use submit_time)
    seniority_time: Optional[float] = None
    # mutable simulation state
    state: JobState = field(default=JobState.PENDING, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    end_time: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError(f"job {self.id}: nodes must be positive, got {self.nodes}")
        if self.runtime < 0:
            raise ValueError(f"job {self.id}: runtime must be >= 0, got {self.runtime}")
        if self.wcl <= 0:
            raise ValueError(f"job {self.id}: wcl must be positive, got {self.wcl}")
        if self.submit_time < 0:
            raise ValueError(f"job {self.id}: submit_time must be >= 0")

    # -- derived quantities -------------------------------------------------

    @property
    def area(self) -> float:
        """Processor-seconds of actual work (nodes x runtime)."""
        return self.nodes * self.runtime

    @property
    def is_chunk(self) -> bool:
        return self.parent_id is not None

    @property
    def seniority(self) -> float:
        """Time this job (or its original, for chunks) first entered the
        system; drives starvation-queue eligibility and FCFS order."""
        return self.seniority_time if self.seniority_time is not None else self.submit_time

    # -- helpers ------------------------------------------------------------

    def fresh_copy(self) -> "Job":
        """A copy with simulation state reset (for running the same workload
        through several schedulers).

        Positional construction of every non-state field, in declaration
        order: several times cheaper than ``dataclasses.replace``, and the
        engine copies every job of every run.  ``tests/test_job.py`` pins
        the argument list against ``dataclasses.fields(Job)``.
        """
        return type(self)(
            self.id, self.submit_time, self.nodes, self.runtime, self.wcl,
            self.user_id, self.group_id, self.parent_id, self.chunk_index,
            self.chunk_count, self.seniority_time,
        )

    def __repr__(self) -> str:  # compact, log-friendly
        return (
            f"Job(id={self.id}, t={self.submit_time:.0f}, n={self.nodes}, "
            f"rt={self.runtime:.0f}, wcl={self.wcl:.0f}, u={self.user_id})"
        )
