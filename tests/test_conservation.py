"""Little's law on every sample path.

Each job adds one to the queue length when it arrives and takes one away
when it starts, so the time integral of the queue length that
:class:`~repro.metrics.queue.QueueObserver` accumulates equals the sum of
the jobs' waits.  The chunks of a runtime-limited job are separate
arrivals (a successor arrives when its predecessor completes), so each
chunk's wait counts on its own.

Both sides add the same terms in different orders and groupings, so they
agree to float rounding only.  ``REL_TOL`` bounds the gap; it was fixed
before the first run and must not be widened to make a case pass.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.experiments.runner import RunOptions, policy_engine
from repro.metrics.queue import QueueObserver
from repro.sched.registry import get_policy
from repro.workload.model import Workload
from repro.workload.transforms import split_by_runtime_limit
from tests.test_digest_regression import (
    ALL_DIGESTS,
    build_digest_workloads,
    run_case,
)

#: relative gap allowed between the queue-length integral and the waits
REL_TOL = 1e-9
SIZE = 16


def assert_littles_law(obs: QueueObserver, jobs) -> None:
    waits = math.fsum(j.start_time - j.submit_time for j in jobs)
    assert obs._len_integral == pytest.approx(waits, rel=REL_TOL, abs=0.0)


@pytest.fixture(scope="module")
def digest_workloads():
    return build_digest_workloads()


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_littles_law_on_the_digest_workloads(case, digest_workloads):
    obs = QueueObserver()
    run = run_case(case, digest_workloads, observers=[obs])
    # the engine's jobs: chunks, not the collapsed trace jobs
    assert_littles_law(obs, run.result.jobs)


@st.composite
def job_lists(draw, max_jobs=20):
    """Jobs on a 50 s submit grid with repeated runtimes (simultaneous
    arrivals, starts and completions), some overrunning their estimate."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),             # submit slot
            st.integers(min_value=1, max_value=SIZE),           # nodes
            st.sampled_from([50.0, 100.0, 250.0, 600.0, 1234.5]),
            st.sampled_from([0.5, 1.0, 2.0]),                   # wcl factor
            st.integers(min_value=1, max_value=4),              # user
        ),
        min_size=1, max_size=max_jobs,
    ))
    return [
        Job(id=i + 1, submit_time=50.0 * s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in enumerate(rows)
    ]


@settings(max_examples=80, deadline=None)
@given(
    jobs=job_lists(),
    policy=st.sampled_from([
        "easy.fairshare", "cons.nomax", "consdyn.nomax", "cplant24.nomax.all",
        "fcfs.nobackfill", "fsp.easy", "rr.user",
    ]),
    kill=st.sampled_from(["NEVER", "AT_WCL", "IF_NEEDED"]),
    chunk=st.sampled_from([None, 100.0, 300.0]),
)
def test_littles_law_under_hypothesis(jobs, policy, kill, chunk):
    wl = Workload(jobs, SIZE)
    if chunk is not None:
        wl = split_by_runtime_limit(wl, chunk)  # chunk chains
    obs = QueueObserver()
    engine = policy_engine(get_policy(policy), SIZE,
                           RunOptions(kill_policy=kill), wl.jobs, [obs])
    assert_littles_law(obs, engine.run().jobs)
