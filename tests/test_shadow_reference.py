"""Differential test: the EASY head reservation vs its list-based reference.

The simulator answers "when are ``need`` nodes expected free, and how
many extra then?" for every blocked queue head from the cluster's
persistent expected-end timeline (``RunningTimeline.shadow``, kept by
``Cluster.start``/``finish``).  Its answer must equal
:func:`tests.shadow_reference.head_reservation`, which sorts the running
jobs' expected ends from scratch, on every running set: ends before, at
and after ``now`` (overdue jobs clamp to ``now``), several jobs ending
exactly at the shadow, jobs that already finished, a head that needs
exactly the free nodes, and a head wider than the machine (a named
``RuntimeError``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.job import Job
from tests.shadow_reference import head_reservation

NOW = 100.0


def running_jobs(rows):
    jobs = []
    for i, (start, wcl, nodes) in enumerate(rows, start=1):
        job = Job(id=i, submit_time=0.0, nodes=nodes, runtime=wcl, wcl=wcl,
                  user_id=1)
        job.start_time = start
        jobs.append(job)
    return jobs


def shadow_under_test(size, running, need, now, finished=()):
    """The cluster's answer after starting ``running`` and ``finished``
    at their start times and then finishing ``finished``."""
    cluster = Cluster(size)
    for job in list(running) + list(finished):
        cluster.start(job, job.start_time)
    for job in finished:
        cluster.finish(job, now)
    cluster.check_invariants()
    shadow, free_then = cluster.expected_ends.shadow(need, now)
    return shadow, free_then - need


def outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return ("RuntimeError", str(exc))


def assert_matches_reference(size, running, need, now=NOW, finished=()):
    free_now = size - sum(j.nodes for j in running)
    expected = outcome(head_reservation, need, free_now, now, running)
    got = outcome(shadow_under_test, size, running, need, now, finished)
    assert got == expected
    return expected


#: (start, wcl, nodes): starts and limits from small sets, so ends land
#: before, exactly at and after ``NOW`` and often tie with each other
ROWS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 40.0, 90.0, 100.0]) | st.floats(0.0, 100.0),
        st.sampled_from([10.0, 60.0, 100.0]) | st.floats(1.0, 500.0),
        st.integers(1, 8),
    ),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(ROWS, st.integers(0, 16), st.integers(1, 200), st.booleans(),
       st.integers(0, 4))
def test_shadow_matches_reference(rows, idle, need_draw, exact, n_finished):
    jobs = running_jobs(rows)
    # the first few jobs ran and finished: their nodes are idle again
    finished, running = jobs[:n_finished], jobs[n_finished:]
    size = sum(j.nodes for j in jobs) + idle
    if size == 0:
        size = 1
    free_now = size - sum(j.nodes for j in running)
    # a head that needs exactly the free nodes, or anything up to two
    # nodes past the machine (the over-ask)
    need = free_now if exact and free_now else 1 + need_draw % (size + 2)
    assert_matches_reference(size, running, need, finished=finished)


def test_head_reservation_helper_case():
    running = running_jobs([(0.0, 100.0, 4)])
    assert assert_matches_reference(8, running, 6, now=10.0) == (100.0, 2)


def test_overdue_jobs_clamp_to_now():
    running = running_jobs([(0.0, 50.0, 2), (0.0, 80.0, 1), (0.0, 300.0, 4)])
    assert assert_matches_reference(8, running, 3) == (NOW, 1)


def test_jobs_ending_at_the_shadow_all_count():
    running = running_jobs([(0.0, 150.0, 2), (50.0, 100.0, 3), (60.0, 90.0, 1),
                            (0.0, 400.0, 2)])
    assert assert_matches_reference(8, running, 2) == (150.0, 4)


def test_need_equal_to_free_now_ignores_overdue_jobs():
    running = running_jobs([(0.0, 50.0, 3), (0.0, 300.0, 3)])
    assert assert_matches_reference(8, running, 2) == (NOW, 0)


def test_over_ask_is_a_named_error():
    running = running_jobs([(0.0, 200.0, 5)])
    kind, message = assert_matches_reference(8, running, 9)
    assert kind == "RuntimeError"
    assert message == "head needs 9 nodes but running+free only frees 8"
    with pytest.raises(RuntimeError, match="head needs 9 nodes"):
        shadow_under_test(8, running, 9, NOW)
