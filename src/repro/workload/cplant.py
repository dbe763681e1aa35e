"""Published CPlant/Ross workload characterization (Tables 1 and 2).

These are the paper's numbers for the December 1, 2002 – July 14, 2003
trace (231 days).  They are both the ground truth the synthetic generator
is calibrated against and the reference the Table 1/2 reproduction
benchmarks compare to.

The paper never states the machine size; substitution 2 in
docs/ARCHITECTURE.md derives 1024 nodes from the Table 2 totals
(≈3.97 M proc-hours ⇒ ≈70 % average utilization with >90 % peaks,
matching Figure 3).
"""

from __future__ import annotations

import numpy as np

from .categories import N_LENGTH, N_WIDTH

#: nodes in the simulated CPlant/Ross machine (docs/ARCHITECTURE.md,
#: substitution 2)
SYSTEM_SIZE = 1024

#: trace span (the paper: "13614 jobs over the 7.5 months (231 days)")
TRACE_DAYS = 231
TRACE_SECONDS = TRACE_DAYS * 86_400.0
TRACE_WEEKS = 33

#: job count the paper quotes for the full trace
REPORTED_TOTAL_JOBS = 13_614

# Table 1: number of jobs in each width x length category.
# Rows: width categories (1, 2, 3-4, ..., 513+); columns: length categories
# (0-15 min, 15-60 min, 1-4 h, 4-8 h, 8-16 h, 16-24 h, 1-2 d, 2+ d).
TABLE1_COUNTS = np.array(
    [
        [681, 141, 44, 7, 7, 3, 6, 16],
        [458, 80, 8, 0, 2, 0, 1, 0],
        [672, 440, 273, 55, 26, 3, 5, 5],
        [832, 238, 700, 155, 142, 90, 76, 91],
        [1032, 131, 347, 206, 260, 141, 205, 160],
        [917, 608, 113, 72, 67, 53, 116, 160],
        [879, 130, 134, 70, 79, 48, 130, 178],
        [494, 72, 78, 31, 49, 24, 53, 76],
        [447, 127, 9, 5, 12, 1, 3, 10],
        [147, 24, 6, 3, 1, 0, 0, 1],
        [51, 18, 1, 0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

# Table 2: processor-hours in each width x length category.
TABLE2_PROC_HOURS = np.array(
    [
        [14, 61, 76, 42, 70, 62, 259, 2883],
        [32, 70, 21, 0, 53, 0, 68, 0],
        [103, 1197, 2210, 1272, 1030, 213, 614, 1310],
        [281, 1101, 10263, 6582, 12107, 14118, 18287, 92549],
        [522, 1102, 12522, 18175, 45859, 42072, 105884, 207496],
        [968, 6870, 6630, 11008, 22031, 28232, 109166, 363944],
        [1775, 2895, 15252, 20429, 48457, 48493, 251748, 986649],
        [1876, 4149, 19125, 17333, 53098, 48296, 179321, 796517],
        [3273, 12395, 4219, 4322, 27041, 5451, 19030, 183949],
        [3719, 4723, 5027, 6850, 3888, 0, 0, 30761],
        [2692, 9503, 0, 3183, 0, 0, 0, 0],
    ],
    dtype=np.float64,
)

assert TABLE1_COUNTS.shape == (N_WIDTH, N_LENGTH)
assert TABLE2_PROC_HOURS.shape == (N_WIDTH, N_LENGTH)

#: jobs actually accounted for in Table 1 (slightly below the quoted 13,614;
#: the paper's tables evidently exclude a few hundred degenerate entries)
TABLE_TOTAL_JOBS = int(TABLE1_COUNTS.sum())

#: total work in the trace per Table 2
TOTAL_PROC_HOURS = float(TABLE2_PROC_HOURS.sum())

#: implied average utilization at SYSTEM_SIZE nodes
AVERAGE_UTILIZATION = TOTAL_PROC_HOURS / (TRACE_DAYS * 24.0 * SYSTEM_SIZE)
