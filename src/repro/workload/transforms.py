"""Workload transforms.

The load-bearing one is :func:`split_by_runtime_limit` — the paper's
Section 5.1 "maximum runtime limits" policy.  Jobs longer than the limit
are broken into chunks that the scheduler sees as ordinary jobs; chunk
*k+1* is submitted the instant chunk *k* completes (CPlant users had
checkpoint/restart scripts for exactly this).  Metrics count chunks as the
scheduler-visible jobs; :func:`parent_view` rebuilds the per-original-job
picture when wanted (docs/ARCHITECTURE.md, substitution 4).
"""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import NormalDist
from typing import Dict, List

import numpy as np

from ..core.job import Job, JobState
from .model import Workload


def split_by_runtime_limit(
    workload: Workload,
    limit: float,
    min_chunk_wcl: float = 60.0,
) -> Workload:
    """Split every job longer than ``limit`` seconds into limit-sized chunks.

    * runtime is divided into ``ceil(runtime / limit)`` segments;
    * every chunk's wall-clock limit is capped at ``limit`` (users must now
      request at most the limit); the last chunk carries the remaining
      estimate, floored at ``min_chunk_wcl``;
    * unsplit jobs keep their ids; chunks get fresh ids above the original
      maximum and carry ``parent_id`` (the original job id), so collapsing
      chunks back with :func:`parent_view` restores the exact original id
      set.
    """
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")

    new_jobs: List[Job] = []
    next_id = max((j.id for j in workload.jobs), default=0) + 1

    for job in workload.jobs:
        k = max(1, math.ceil(job.runtime / limit))
        if k == 1:
            clone = replace(job.fresh_copy(), wcl=min(job.wcl, limit))
            new_jobs.append(clone)
            continue
        remaining_wcl = job.wcl
        for i in range(k):
            if i < k - 1:
                chunk_rt = limit
                chunk_wcl = min(remaining_wcl, limit)
            else:
                chunk_rt = job.runtime - (k - 1) * limit
                chunk_wcl = min(max(remaining_wcl, min_chunk_wcl), limit)
            chunk_wcl = max(chunk_wcl, min_chunk_wcl)
            new_jobs.append(
                Job(
                    id=next_id,
                    submit_time=job.submit_time,  # placeholder for i>0; the
                    # engine stamps the real submit when the predecessor ends
                    nodes=job.nodes,
                    runtime=chunk_rt,
                    wcl=chunk_wcl,
                    user_id=job.user_id,
                    group_id=job.group_id,
                    parent_id=job.id,
                    chunk_index=i,
                    chunk_count=k,
                    seniority_time=job.submit_time,
                )
            )
            next_id += 1
            remaining_wcl -= limit

    return Workload(
        jobs=new_jobs,
        system_size=workload.system_size,
        name=f"{workload.name}+max{limit / 3600:.0f}h",
        metadata={**workload.metadata, "max_runtime": limit},
    )


def parent_view(jobs: List[Job]) -> List[Job]:
    """Collapse completed chunk chains back into per-original-job records.

    The synthetic parent spans first-chunk submit to last-chunk completion;
    its runtime is the summed chunk runtimes.  Non-chunk jobs pass through
    unchanged.  All inputs must be completed.
    """
    chains: Dict[int, List[Job]] = {}
    out: List[Job] = []
    for j in jobs:
        if j.state is not JobState.COMPLETED:
            raise ValueError(f"job {j.id} not completed; parent_view needs results")
        if j.is_chunk:
            chains.setdefault(j.parent_id, []).append(j)
        else:
            out.append(j)
    for pid, chunks in chains.items():
        chunks.sort(key=lambda c: c.chunk_index)
        expected = chunks[0].chunk_count
        if len(chunks) != expected:
            raise ValueError(
                f"chain {pid}: {len(chunks)} chunks present, expected {expected}"
            )
        parent = Job(
            id=pid,
            submit_time=chunks[0].submit_time,
            nodes=chunks[0].nodes,
            runtime=sum(c.runtime for c in chunks),
            wcl=sum(c.wcl for c in chunks),
            user_id=chunks[0].user_id,
            group_id=chunks[0].group_id,
        )
        parent.state = JobState.COMPLETED
        parent.start_time = chunks[0].start_time
        parent.end_time = chunks[-1].end_time
        out.append(parent)
    out.sort(key=lambda j: (j.submit_time, j.id))
    return out


def remap_runtime_tail(
    workload: Workload,
    dist: str = "pareto",
    alpha: float = 1.1,
    sigma: float = 2.0,
    median: float | None = None,
    min_runtime: float = 10.0,
    max_runtime: float = 40 * 86_400.0,
    preserve_work: bool = True,
) -> Workload:
    """Remap runtimes onto a heavy-tailed distribution, rank-preserved.

    Each job keeps its *rank* in the runtime order but its value is mapped
    to the corresponding quantile of the target distribution — ``pareto``
    (shape ``alpha``; smaller = heavier tail) or ``lognormal`` (log-sd
    ``sigma``) — anchored at the median runtime (or an explicit
    ``median``).  The fairness of size-based policies hinges on exactly
    this tail weight (Dell'Amico et al., *On Fair Size-Based Scheduling*),
    which the calibrated CPlant trace cannot dial.

    With ``preserve_work`` (the default) the mapped runtimes are rescaled
    so total processor-seconds match the input: the offered load — and so
    the queueing regime — stays comparable while only the tail shape
    moves.  Wall-clock limits are scaled by each job's runtime ratio, so
    the overestimation-factor structure (Figures 5-7) survives the remap.
    The mapping is a deterministic function of the input workload — no
    RNG.
    """
    if not workload.jobs:
        return workload
    rt = workload.runtimes()
    n = len(rt)
    order = np.argsort(rt, kind="stable")
    u = (np.arange(n) + 0.5) / n  # plotting-position quantile per rank
    med = float(median) if median is not None else float(np.median(rt))
    med = max(med, min_runtime)
    if dist == "pareto":
        if alpha <= 0:
            raise ValueError(f"pareto alpha must be positive, got {alpha}")
        xm = med / 2.0 ** (1.0 / alpha)
        q = xm * (1.0 - u) ** (-1.0 / alpha)
    elif dist == "lognormal":
        if sigma <= 0:
            raise ValueError(f"lognormal sigma must be positive, got {sigma}")
        nd = NormalDist()
        q = med * np.exp(sigma * np.array([nd.inv_cdf(x) for x in u]))
    else:
        raise ValueError(f"unknown tail dist {dist!r}; known: 'pareto', 'lognormal'")
    q = np.clip(q, min_runtime, max_runtime)
    new_rt = np.empty(n)
    new_rt[order] = q
    if preserve_work:
        nodes = workload.nodes()
        target = float((nodes * rt).sum())
        for _ in range(4):
            cur = float((nodes * new_rt).sum())
            if cur <= 0:
                break
            ratio = target / cur
            if abs(ratio - 1.0) < 0.01:
                break
            new_rt = np.clip(new_rt * ratio, min_runtime, max_runtime)
    jobs: List[Job] = []
    for j, nr in zip(workload.jobs, new_rt):
        f = nr / max(j.runtime, 1e-9)
        jobs.append(
            replace(j.fresh_copy(), runtime=float(nr), wcl=float(max(j.wcl * f, 60.0)))
        )
    tag = f"{dist}(a={alpha})" if dist == "pareto" else f"{dist}(s={sigma})"
    return Workload(
        jobs,
        workload.system_size,
        name=f"{workload.name}|tail:{tag}",
        metadata={**workload.metadata,
                  "runtime_tail": {"dist": dist, "alpha": alpha, "sigma": sigma}},
    )


def flash_crowds(
    workload: Workload,
    fraction: float = 0.25,
    n_crowds: int = 4,
    width_hours: float = 2.0,
    seed: int = 0,
) -> Workload:
    """Concentrate a fraction of arrivals into a few short bursts.

    A seeded RNG picks ``fraction`` of the jobs and resubmits each inside
    one of ``n_crowds`` windows of ``width_hours`` placed across the trace
    span — the flash-crowd overloads of the paper's Section 2.2 narrative
    ("extremely high queue lengths and wait times"), made dialable instead
    of emergent from the weekly profile.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if n_crowds < 1:
        raise ValueError(f"need at least one crowd, got {n_crowds}")
    sub = workload.submit_times()
    n = len(sub)
    k = int(round(fraction * n))
    if k == 0 or n == 0:
        return workload
    rng = np.random.default_rng(seed)
    t0, t1 = float(sub[0]), float(sub[-1])
    moved = rng.choice(n, size=k, replace=False)
    centers = t0 + (t1 - t0) * rng.uniform(0.05, 0.95, size=n_crowds)
    which = rng.integers(0, n_crowds, size=k)
    w = width_hours * 3600.0
    new_sub = sub.copy()
    new_sub[moved] = np.maximum(
        centers[which] + rng.uniform(-w / 2.0, w / 2.0, size=k), 0.0
    )
    jobs = [
        replace(j.fresh_copy(), submit_time=float(s), seniority_time=None)
        for j, s in zip(workload.jobs, new_sub)
    ]
    return Workload(
        jobs,
        workload.system_size,
        name=f"{workload.name}|crowds({n_crowds}x{width_hours}h)",
        metadata={**workload.metadata,
                  "flash_crowds": {"fraction": fraction, "n_crowds": n_crowds,
                                   "width_hours": width_hours, "seed": seed}},
    )
