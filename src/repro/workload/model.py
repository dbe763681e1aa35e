"""Workload container and summary statistics."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List

import numpy as np

from ..core.job import Job
from . import categories


#: a job's place in a workload: by submit time, then id
_SUBMIT_ORDER = attrgetter("submit_time", "id")


@dataclass
class Workload:
    """An ordered job list plus the machine it targets.

    Jobs are kept sorted by submit time; ids are unique.  A workload is
    immutable in spirit — transforms return new instances.
    """

    jobs: List[Job]
    system_size: int
    name: str = "workload"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.system_size <= 0:
            raise ValueError("system_size must be positive")
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in workload")
        too_wide = [j.id for j in self.jobs if j.nodes > self.system_size]
        if too_wide:
            raise ValueError(
                f"jobs wider than system ({self.system_size}): {too_wide[:5]}"
            )
        self.jobs = sorted(self.jobs, key=_SUBMIT_ORDER)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    # -- bulk views (NumPy) ------------------------------------------------------

    def submit_times(self) -> np.ndarray:
        return np.array([j.submit_time for j in self.jobs])

    def nodes(self) -> np.ndarray:
        return np.array([j.nodes for j in self.jobs], dtype=np.int64)

    def runtimes(self) -> np.ndarray:
        return np.array([j.runtime for j in self.jobs])

    def wcls(self) -> np.ndarray:
        return np.array([j.wcl for j in self.jobs])

    def users(self) -> np.ndarray:
        return np.array([j.user_id for j in self.jobs], dtype=np.int64)

    # -- aggregates ------------------------------------------------------------------

    @property
    def total_work(self) -> float:
        """Processor-seconds of actual work."""
        return float(sum(j.area for j in self.jobs))

    @property
    def span(self) -> float:
        """Last submit - first submit, seconds."""
        if not self.jobs:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    @property
    def n_users(self) -> int:
        return len({j.user_id for j in self.jobs})

    def offered_load(self, horizon: float | None = None) -> float:
        """Total work / (horizon x system size); horizon defaults to span."""
        horizon = horizon if horizon is not None else self.span
        if horizon <= 0:
            return 0.0
        return self.total_work / (horizon * self.system_size)

    # -- category tables (Tables 1-2 machinery) ------------------------------------------

    def count_table(self) -> np.ndarray:
        """Table 1 for this workload: job counts per width x length cell."""
        return categories.category_matrix(self.nodes(), self.runtimes())

    def proc_hours_table(self) -> np.ndarray:
        """Table 2 for this workload: proc-hours per width x length cell."""
        areas_h = self.nodes() * self.runtimes() / 3600.0
        return categories.category_matrix(self.nodes(), self.runtimes(), areas_h)

    # -- misc -----------------------------------------------------------------------------

    def content_digest(self) -> str:
        """SHA-256 of the job list and machine size.

        Floats are hashed by their exact bit pattern (``float.hex``), so
        two workloads digest equal iff a simulation cannot tell them apart
        — the scenario determinism contract (same recipe + seed must yield
        the same digest in any process, mirroring campaign cache keys).
        Names and metadata are deliberately excluded.
        """
        h = hashlib.sha256()
        h.update(f"system={self.system_size};n={len(self.jobs)}".encode())
        for j in self.jobs:
            h.update(
                (
                    f"|{j.id},{j.submit_time.hex()},{j.nodes},"
                    f"{j.runtime.hex()},{j.wcl.hex()},{j.user_id},{j.group_id},"
                    f"{j.parent_id},{j.chunk_index},{j.chunk_count},"
                    f"{'' if j.seniority_time is None else j.seniority_time.hex()}"
                ).encode()
            )
        return h.hexdigest()

    def describe(self) -> str:
        if not self.jobs:
            return f"{self.name}: empty"
        rt = self.runtimes()
        nd = self.nodes()
        return (
            f"{self.name}: {len(self.jobs)} jobs, {self.n_users} users, "
            f"{self.span / 86400:.1f} days, system={self.system_size} nodes, "
            f"work={self.total_work / 3600:.0f} proc-h, "
            f"offered load={self.offered_load():.2f}, "
            f"median rt={np.median(rt):.0f}s, median width={int(np.median(nd))}"
        )
