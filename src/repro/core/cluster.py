"""Space-shared cluster resource model.

The paper's simulator (like most batch-scheduling simulators) is a pure
*counting* model: a cluster is a pool of identical nodes, a job holds an
integer number of them for its lifetime, and placement is delegated to a
separate compute-process allocator that none of the evaluated metrics see.
The cluster also keeps its running jobs' expected ends (``start + wcl``)
sorted, so a blocked queue head's shadow time is read, not rebuilt.
"""

from __future__ import annotations

from typing import Dict, Iterator

from .job import Job, JobState
from .listsched import RunningTimeline


class AllocationError(RuntimeError):
    """Raised on over-allocation or double start/finish — these indicate
    scheduler bugs, never normal operation."""


class Cluster:
    """A pool of ``size`` identical nodes with running-job accounting."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"cluster size must be positive, got {size}")
        self.size = size
        self._free = size
        self._running: Dict[int, Job] = {}
        #: running jobs' expected ends, ``start + wcl``
        self.expected_ends = RunningTimeline(size)

    # -- queries -------------------------------------------------------------

    @property
    def free_nodes(self) -> int:
        return self._free

    @property
    def used_nodes(self) -> int:
        return self.size - self._free

    @property
    def running_count(self) -> int:
        return len(self._running)

    def running_jobs(self) -> Iterator[Job]:
        return iter(self._running.values())

    def fits(self, job: Job) -> bool:
        return job.nodes <= self._free

    # -- state changes ---------------------------------------------------------

    def start(self, job: Job, now: float) -> None:
        if job.id in self._running:
            raise AllocationError(f"job {job.id} already running")
        if job.nodes > self._free:
            raise AllocationError(
                f"job {job.id} needs {job.nodes} nodes, only {self._free} free"
            )
        if job.nodes > self.size:
            raise AllocationError(
                f"job {job.id} needs {job.nodes} nodes > cluster size {self.size}"
            )
        self._free -= job.nodes
        self._running[job.id] = job
        job.state = JobState.RUNNING
        job.start_time = now
        self.expected_ends.add(now + job.wcl, job.nodes)

    def finish(self, job: Job, now: float) -> None:
        if job.id not in self._running:
            raise AllocationError(f"job {job.id} is not running")
        del self._running[job.id]
        self._free += job.nodes
        self.expected_ends.remove(job.start_time + job.wcl, job.nodes)
        job.state = JobState.COMPLETED
        job.end_time = now

    def check_invariants(self) -> None:
        """Cheap internal consistency check used by tests and debug runs."""
        used = sum(j.nodes for j in self._running.values())
        if used + self._free != self.size:
            raise AllocationError(
                f"node accounting broken: used={used} free={self._free} size={self.size}"
            )
        if self._free < 0:
            raise AllocationError(f"negative free nodes: {self._free}")
        if self.expected_ends._busy != used:
            raise AllocationError(
                f"expected-end timeline holds {self.expected_ends._busy} "
                f"busy nodes, running jobs hold {used}"
            )
