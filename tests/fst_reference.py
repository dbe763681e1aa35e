"""From-scratch reference for the hybrid fair-start time (Section 4.1).

:class:`ReferenceFSTObserver` recomputes everything at every arrival and
keeps no state between events:

* the machine state is rebuilt from the cluster's running jobs, each at
  its hypothetical end (perfect mode: start + capped runtime + chain
  tail; ``wcl`` mode: ``max(start + wcl, now + tail)``), clamped at
  ``now``;
* each reference order sorts the scheduler's *whole* ``waiting_jobs()``
  list on a tuple key — ``(usage, submit_time, id)`` with the user's
  decayed usage read from the tracker, ``(submit_time, id)``, or
  ``(duration, submit_time, id)`` on the hypothetical duration;
* the order is placed on the per-node vector of
  ``tests/listsched_reference.py``'s :class:`ListScheduler` (NumPy
  partition per job) until the arriving job.

It shares no order, placement or incremental-state code with
``HybridFSTObserver``: only the duration rules (chain tails, the
``AT_WCL`` cap, the 1e-9 floor) are restated here, because they define
what the metric means.  Series land in :attr:`series` under the same
keys the production observer writes to ``SimulationResult.series``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.engine import KillPolicy, Observer
from tests.listsched_reference import ListScheduler


class ReferenceFSTObserver(Observer):
    """Hybrid FSTs for every order, rebuilt from scratch per arrival."""

    def __init__(self, estimate_mode: str = "perfect",
                 orders: Sequence[str] = ("fairshare",)) -> None:
        self.estimate_mode = estimate_mode
        self.orders = tuple(orders)
        self.series: Dict[str, Dict[int, float]] = {
            ("fst_hybrid" if o == "fairshare" else f"fst_hybrid_{o}"): {}
            for o in self.orders
        }

    def on_attach(self, engine) -> None:
        self.engine = engine

    def duration(self, job) -> float:
        engine = self.engine
        if self.estimate_mode == "wcl":
            return job.wcl + engine.tail_wcl.get(job.id, 0.0)
        rt = job.runtime
        if engine.kill_policy is KillPolicy.AT_WCL:
            rt = min(rt, job.wcl)
        return max(rt + engine.tail_runtime.get(job.id, 0.0), 1e-9)

    def running_end(self, job, now: float) -> float:
        if self.estimate_mode == "wcl":
            return max(job.start_time + job.wcl,
                       now + self.engine.tail_wcl.get(job.id, 0.0))
        return job.start_time + self.duration(job)

    def order(self, name: str, waiting, now: float):
        if name == "fairshare":
            tracker = self.engine.scheduler.tracker
            return sorted(waiting, key=lambda j: (
                tracker.usage_of(j.user_id, now), j.submit_time, j.id))
        if name == "fcfs":
            return sorted(waiting, key=lambda j: (j.submit_time, j.id))
        assert name == "shortest-first", name
        return sorted(waiting,
                      key=lambda j: (self.duration(j), j.submit_time, j.id))

    def on_arrival(self, job, now: float) -> None:
        engine = self.engine
        waiting = engine.scheduler.waiting_jobs()
        base = ListScheduler.from_running(
            engine.cluster.size, now,
            [(r.nodes, self.running_end(r, now))
             for r in engine.cluster.running_jobs()],
        )
        for name, key in zip(self.orders, self.series):
            machine = base.copy()
            for queued in self.order(name, waiting, now):
                start = machine.place(queued.nodes, self.duration(queued),
                                      earliest=now)
                if queued is job:
                    self.series[key][job.id] = start
                    break
            else:
                raise AssertionError(f"job {job.id} not waiting at arrival")
