"""Unit tests for the per-node list-scheduler reference behind the hybrid
FST metric's differential tests (tests/listsched_reference.py)."""

import pytest

from tests.conftest import make_job
from tests.listsched_reference import ListScheduler


class TestPlace:
    def test_empty_machine_starts_now(self):
        ls = ListScheduler(8, now=50.0)
        assert ls.place(4, 100.0, earliest=50.0) == 50.0

    def test_takes_nth_smallest_free_time(self):
        ls = ListScheduler(4)
        ls.free_times[:] = [10.0, 20.0, 30.0, 40.0]
        # needs 2 nodes -> earliest instant two are free is t=20
        assert ls.place(2, 5.0, earliest=0.0) == 20.0
        # those two nodes now free at 25; remaining at 30, 40
        assert sorted(ls.free_times) == [25.0, 25.0, 30.0, 40.0]

    def test_full_width_waits_for_everything(self):
        ls = ListScheduler(4)
        ls.free_times[:] = [10.0, 20.0, 30.0, 40.0]
        assert ls.place(4, 5.0) == 40.0
        assert (ls.free_times == 45.0).all()

    def test_later_job_can_start_before_earlier_wide_job(self):
        # the paper: "fewer restraints than a no backfill scheduler"
        ls = ListScheduler(4)
        ls.free_times[:] = [0.0, 0.0, 100.0, 100.0]
        wide = ls.place(4, 10.0)     # starts at 100
        narrow = ls.place(2, 10.0)   # other nodes free at 110... all busy to 110
        assert wide == 100.0
        assert narrow == 110.0

    def test_no_holes_exploited(self):
        # node free at 0, occupied [50, 100) by a later placement: a list
        # scheduler cannot go back and use [0, 50)
        ls = ListScheduler(1)
        ls.place(1, 50.0, earliest=50.0)  # occupies [50, 100)
        assert ls.free_times[0] == 100.0
        assert ls.place(1, 10.0, earliest=0.0) == 100.0

    def test_invalid_requests(self):
        ls = ListScheduler(4)
        with pytest.raises(ValueError):
            ls.place(0, 10.0)
        with pytest.raises(ValueError):
            ls.place(5, 10.0)
        with pytest.raises(ValueError):
            ls.place(2, -1.0)


class TestFromRunning:
    def test_running_jobs_occupy(self):
        ls = ListScheduler.from_running(8, now=10.0, running=[(3, 100.0), (2, 50.0)])
        assert sorted(ls.free_times) == [10.0, 10.0, 10.0, 50.0, 50.0, 100.0, 100.0, 100.0]

    def test_over_subscription_rejected(self):
        with pytest.raises(ValueError, match="over-subscribe"):
            ListScheduler.from_running(4, 0.0, [(3, 10.0), (2, 10.0)])

    def test_end_clamped_to_now(self):
        ls = ListScheduler.from_running(2, now=100.0, running=[(1, 50.0)])
        assert sorted(ls.free_times) == [100.0, 100.0]


class TestOrderedPlacement:
    def test_start_time_of_stops_at_target(self):
        jobs = [
            make_job(id=1, nodes=4, runtime=100.0),
            make_job(id=2, nodes=2, runtime=50.0),
            make_job(id=3, nodes=4, runtime=10.0),
        ]
        ls = ListScheduler(4)
        t = ls.start_time_of(jobs, target_id=2, now=0.0)
        assert t == 100.0  # waits for job 1 (full width)

    def test_missing_target_raises(self):
        with pytest.raises(KeyError):
            ListScheduler(4).start_time_of([make_job(id=1)], target_id=9, now=0.0)

    def test_prefix_independence(self):
        """Jobs after the target cannot change its start (the observer's
        early-exit optimization relies on this)."""
        jobs = [make_job(id=i, nodes=(i % 3) + 1, runtime=60.0 * i) for i in range(1, 8)]
        full = ListScheduler(4).schedule_all(jobs, now=0.0)
        for k, job in enumerate(jobs):
            t = ListScheduler(4).start_time_of(jobs[: k + 1], job.id, now=0.0)
            assert t == full[job.id]

    def test_wcl_mode_uses_estimates(self):
        jobs = [
            make_job(id=1, nodes=2, runtime=10.0, wcl=100.0),
            make_job(id=2, nodes=2, runtime=10.0, wcl=10.0),
        ]
        starts = ListScheduler(2).schedule_all(jobs, now=0.0, use_wcl=True)
        assert starts[2] == 100.0

    def test_copy_is_independent(self):
        ls = ListScheduler(4)
        clone = ls.copy()
        clone.place(4, 100.0)
        assert (ls.free_times == 0.0).all()
