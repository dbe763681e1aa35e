"""Tests for the width x length category grid."""

import numpy as np
import pytest

from repro.workload import categories as C
from repro.workload.cplant import TABLE1_COUNTS, TABLE2_PROC_HOURS


class TestClassification:
    @pytest.mark.parametrize("nodes,expect", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4),
        (17, 5), (32, 5), (33, 6), (64, 6), (65, 7), (128, 7), (129, 8),
        (256, 8), (257, 9), (512, 9), (513, 10), (1024, 10), (100000, 10),
    ])
    def test_width_category_boundaries(self, nodes, expect):
        assert C.width_category(nodes) == expect

    @pytest.mark.parametrize("rt,expect", [
        (0.0, 0), (899.0, 0), (900.0, 1), (3599.0, 1), (3600.0, 2),
        (4 * 3600.0 - 1, 2), (4 * 3600.0, 3), (8 * 3600.0, 4),
        (16 * 3600.0, 5), (24 * 3600.0 - 1, 5), (86400.0, 6),
        (2 * 86400.0 - 1, 6), (2 * 86400.0, 7), (1e9, 7),
    ])
    def test_length_category_boundaries(self, rt, expect):
        assert C.length_category(rt) == expect

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            C.width_category(0)
        with pytest.raises(ValueError):
            C.length_category(-1.0)

    def test_vectorized_matches_scalar(self):
        nodes = [1, 7, 33, 513, 2, 128]
        rts = [10.0, 3600.0, 90000.0, 900.0, 4e5, 0.0]
        assert list(C.width_categories(nodes)) == [C.width_category(n) for n in nodes]
        assert list(C.length_categories(rts)) == [C.length_category(r) for r in rts]

    def test_bounds_match_width_category(self):
        for cat, (lo, hi) in enumerate(C.WIDTH_BOUNDS):
            assert C.width_category(lo) == cat
            if hi is not None:
                assert C.width_category(hi) == cat
                assert C.width_category(hi + 1) == cat + 1

    def test_labels_align(self):
        assert len(C.WIDTH_LABELS) == C.N_WIDTH
        assert len(C.LENGTH_LABELS) == C.N_LENGTH


class TestCategoryMatrix:
    def test_counts(self):
        nodes = [1, 1, 16, 600]
        rts = [100.0, 100.0, 3600.0, 100.0]
        m = C.category_matrix(nodes, rts)
        assert m[0, 0] == 2
        assert m[4, 2] == 1
        assert m[10, 0] == 1
        assert m.sum() == 4

    def test_weighted(self):
        m = C.category_matrix([4], [7200.0], weights=[8.0])
        assert m[2, 2] == 8.0

    def test_paper_tables_shape(self):
        assert TABLE1_COUNTS.shape == (C.N_WIDTH, C.N_LENGTH)
        assert TABLE2_PROC_HOURS.shape == (C.N_WIDTH, C.N_LENGTH)

    def test_paper_tables_consistent(self):
        """Cells with jobs should (mostly) have hours and vice versa.  The
        paper's own tables carry two anomalies we preserve verbatim:
        (513+, 1-4 h) lists 1 job / 0 proc-hours, and (513+, 4-8 h) lists
        0 jobs / 3183 proc-hours."""
        jobs_no_hours = (TABLE1_COUNTS > 0) & (TABLE2_PROC_HOURS == 0)
        hours_no_jobs = (TABLE1_COUNTS == 0) & (TABLE2_PROC_HOURS > 0)
        assert jobs_no_hours.sum() == 1 and jobs_no_hours[10, 2]
        assert hours_no_jobs.sum() == 1 and hours_no_jobs[10, 3]

    def test_format_table_renders(self):
        txt = C.format_category_table(TABLE1_COUNTS.astype(float), "Table 1")
        assert "513+" in txt
        assert "2+ days" in txt
        assert txt.splitlines()[0] == "Table 1"

    def test_format_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            C.format_category_table(np.zeros((2, 2)), "bad")
