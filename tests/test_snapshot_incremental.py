"""Live snapshots equal a full rescan of the run, byte for byte.

``LiveSimulation.snapshot`` is read by every ``metrics`` call of a
served session.  Each payload here is compared, as JSON text, with
``tests/snapshot_reference.py``: the full-scan snapshot that counts every
job's state and rebuilds every user's record from every completed job.
The cases cover jobs ingested in random waves, pre-loaded jobs whose ids
are not in submit order, snapshots between what-if forks, a snapshot of a
finished session, and non-default ``epsilon``.  Submit times sit on a
coarse grid and runtimes repeat, so simultaneous arrivals and completions
are common.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.experiments.runner import RunOptions
from repro.service import LiveSimulation
from repro.workload.generator import GeneratorConfig, generate_cplant_workload
from tests.snapshot_reference import reference_snapshot

SIZE = 16

#: policies a session accepts, with one warm override each
WHATIF_OVERRIDES = {
    "easy.fairshare": {"decay_factor": 0.5},
    "cplant24.nomax.all": {"starvation_threshold": 600.0},
}
POLICIES = sorted(WHATIF_OVERRIDES) + ["cons.nomax", "fcfs.nobackfill"]
EPSILONS = st.sampled_from([0.0, 1.0, 60.0, 1800.0])


@st.composite
def job_lists(draw, max_jobs=24):
    """Jobs on a 50 s submit grid with repeated runtimes, some of which
    overrun their estimates; ids are a random permutation, so id order
    and submit order disagree."""
    rows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),             # submit slot
            st.integers(min_value=1, max_value=SIZE),           # nodes
            st.sampled_from([50.0, 100.0, 250.0, 1000.0, 1234.5]),
            st.sampled_from([0.5, 1.0, 1.5, 3.0]),              # wcl factor
            st.integers(min_value=1, max_value=5),              # user
        ),
        min_size=1, max_size=max_jobs,
    ))
    ids = draw(st.permutations(range(1, len(rows) + 1)))
    return [
        Job(id=i, submit_time=50.0 * s, nodes=n, runtime=r,
            wcl=max(r * f, 1.0), user_id=u)
        for i, (s, n, r, f, u) in zip(ids, rows)
    ]


def assert_matches_reference(live: LiveSimulation) -> dict:
    snap = live.snapshot()
    ref = reference_snapshot(live)
    assert json.dumps(snap, sort_keys=True) == json.dumps(ref, sort_keys=True)
    # the server writes payloads without sort_keys: key order counts too
    assert json.dumps(snap) == json.dumps(ref)
    return snap


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists(), policy=st.sampled_from(POLICIES), epsilon=EPSILONS,
       data=st.data())
def test_snapshots_over_ingest_waves(jobs, policy, epsilon, data):
    live = LiveSimulation(policy, system_size=SIZE,
                          options=RunOptions(epsilon=epsilon))
    jobs = sorted(jobs, key=lambda j: (j.submit_time, j.id))
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=len(jobs)), max_size=6)))
    waves = [jobs[a:b] for a, b in zip([0, *cuts], [*cuts, len(jobs)]) if b > a]
    for k, wave in enumerate(waves):
        live.submit(wave)
        assert_matches_reference(live)
        if k + 1 < len(waves):
            # stay behind the next wave's first arrival
            if data.draw(st.booleans()):
                live.advance(waves[k + 1][0].submit_time, inclusive=False)
            else:
                live.advance(wave[-1].submit_time)
        else:
            live.advance(wave[-1].submit_time + data.draw(
                st.sampled_from([0.0, 100.0, 1000.0])))
        assert_matches_reference(live)
    live.finish()
    snap = assert_matches_reference(live)
    assert snap["jobs_completed"] == len(jobs)


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists(), policy=st.sampled_from(POLICIES), epsilon=EPSILONS,
       steps=st.lists(st.sampled_from([0.0, 25.0, 50.0, 300.0, 2000.0]),
                      min_size=1, max_size=8))
def test_snapshots_of_preloaded_sessions(jobs, policy, epsilon, steps):
    live = LiveSimulation(policy, system_size=SIZE, jobs=jobs,
                          options=RunOptions(epsilon=epsilon))
    assert_matches_reference(live)
    t = 0.0
    for dt in steps:
        t += dt
        live.advance(t)
        assert_matches_reference(live)
    live.finish()
    assert_matches_reference(live)
    # a second snapshot of a finished session reads the same records
    assert_matches_reference(live)


@settings(max_examples=40, deadline=None)
@given(jobs=job_lists(), policy=st.sampled_from(sorted(WHATIF_OVERRIDES)),
       epsilon=EPSILONS,
       steps=st.lists(st.sampled_from([0.0, 50.0, 300.0, 1000.0]),
                      min_size=1, max_size=4))
def test_snapshots_between_whatifs(jobs, policy, epsilon, steps):
    live = LiveSimulation(policy, system_size=SIZE, jobs=jobs,
                          options=RunOptions(epsilon=epsilon))
    t = 0.0
    for dt in steps:
        t += dt
        live.advance(t)
        before = assert_matches_reference(live)
        w = live.whatif(WHATIF_OVERRIDES[policy])
        assert w["jobs_completed_before_fork"] == before["jobs_completed"]
        assert assert_matches_reference(live) == before
    live.finish()
    assert_matches_reference(live)


def test_snapshots_along_a_calibrated_trace():
    wl = generate_cplant_workload(GeneratorConfig(scale=0.03), seed=11)
    live = LiveSimulation("easy.fairshare", system_size=wl.system_size,
                          jobs=wl.jobs)
    horizon = max(j.submit_time for j in wl.jobs)
    for k in range(1, 13):
        live.advance(horizon * k / 12)
        assert_matches_reference(live)
        if k % 4 == 0:
            live.whatif({"decay_factor": 0.5})
            assert_matches_reference(live)
    live.finish()
    assert_matches_reference(live)
