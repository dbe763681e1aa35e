"""Unit tests for the reservation profile."""

import pytest

from repro.core.profile import ProfileError, ReservationProfile


class TestBasics:
    def test_initial_state(self):
        p = ReservationProfile(10)
        assert p.available_at(0.0) == 10
        assert p.available_at(1e9) == 10

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ReservationProfile(0)

    def test_reserve_reduces_window(self):
        p = ReservationProfile(10)
        p.reserve_fitted(100.0, 200.0, 4)
        assert p.available_at(50.0) == 10
        assert p.available_at(100.0) == 6
        assert p.available_at(199.0) == 6
        assert p.available_at(200.0) == 10

    def test_release_restores(self):
        p = ReservationProfile(10)
        p.reserve_fitted(100.0, 200.0, 4)
        p.release_reserved(100.0, 200.0, 4)
        assert p.segments() == [(0.0, float("inf"), 10)]

    def test_overlapping_reservations_stack(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 3)
        p.reserve_fitted(50.0, 150.0, 3)
        assert p.available_at(25.0) == 7
        assert p.available_at(75.0) == 4
        assert p.available_at(125.0) == 7



class TestEarliestFit:
    def test_fits_immediately_when_free(self):
        p = ReservationProfile(10)
        assert p.earliest_fit(4, 50.0, 0.0) == 0.0

    def test_respects_earliest(self):
        p = ReservationProfile(10)
        assert p.earliest_fit(4, 50.0, 33.0) == 33.0

    def test_waits_for_blocker_end(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 8)
        assert p.earliest_fit(4, 50.0, 0.0) == 100.0

    def test_fits_alongside_narrow_blocker(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 4)
        assert p.earliest_fit(6, 50.0, 0.0) == 0.0
        assert p.earliest_fit(7, 50.0, 0.0) == 100.0

    def test_window_must_span_duration(self):
        # hole of length 50 between blockers; a 60-long job must wait
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 8)
        p.reserve_fitted(150.0, 300.0, 8)
        assert p.earliest_fit(4, 50.0, 0.0) == 100.0
        assert p.earliest_fit(4, 60.0, 0.0) == 300.0

    def test_uses_hole_exactly(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 8)
        p.reserve_fitted(150.0, 300.0, 8)
        start = p.earliest_fit(2, 1000.0, 0.0)
        assert start == 0.0  # 2 nodes free throughout

    def test_wider_than_size_raises(self):
        with pytest.raises(ProfileError):
            ReservationProfile(10).earliest_fit(11, 1.0, 0.0)

    def test_fit_then_reserve_roundtrip(self):
        p = ReservationProfile(16)
        placed = []
        for i, (n, d) in enumerate([(8, 100), (8, 50), (8, 50), (16, 10)]):
            s = p.earliest_fit(n, d, 0.0)
            p.reserve_fitted(s, s + d, n)
            placed.append(s)
        # two 8-wide fit side by side, third waits for the 50-end,
        # full-width job waits for everything
        assert placed == [0.0, 0.0, 50.0, 100.0]


class TestAdvanceCoalesce:
    def test_advance_trims_history(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 4)
        p.reserve_fitted(200.0, 300.0, 2)
        p.advance(150.0)
        assert p.times[0] == 150.0
        assert p.available_at(150.0) == 10
        assert p.available_at(250.0) == 8

    def test_advance_into_active_segment(self):
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 4)
        p.advance(50.0)
        assert p.available_at(50.0) == 6

    def test_coalesce_merges_equal_segments(self):
        # mutation re-merges equal neighbours itself
        p = ReservationProfile(10)
        p.reserve_fitted(0.0, 100.0, 4)
        p.reserve_fitted(100.0, 200.0, 4)
        assert p.segments() == [(0.0, 200.0, 6), (200.0, float("inf"), 10)]
        p.release_reserved(0.0, 100.0, 4)
        p.release_reserved(100.0, 200.0, 4)
        assert len(p.times) == 1

    def test_invariants_checker(self):
        p = ReservationProfile(10)
        p.reserve_fitted(10.0, 20.0, 3)
        p.check_invariants()
        p.avail[-1] = 5  # corrupt the unbounded tail
        with pytest.raises(ProfileError):
            p.check_invariants()
