"""Synthetic CPlant/Ross workload generator.

The paper's SWF trace is not publicly bundled; this generator produces a
statistically equivalent workload calibrated against everything the paper
quantifies (docs/ARCHITECTURE.md, substitution 1):

* per-cell job counts of **Table 1** (exact at scale=1);
* per-cell processor-hours of **Table 2** (within ~2%, via in-cell runtime
  rescaling);
* the bursty weekly offered-load shape of **Figure 3** (weeks above 100%
  followed by light weeks);
* the user-estimate structure of **Figures 5-7**: overestimation factors
  that shrink with runtime (log-uniform between 1 and max-WCL/runtime),
  a slice of exact estimates, a tail of under-estimates (aborted/overrun
  jobs), and round "standard" wall-clock limits;
* a Zipf user population so the fairshare priority has heavy and light
  users to discriminate.

Everything is driven by one :class:`numpy.random.Generator` seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.job import Job
from . import cplant
from .categories import LENGTH_BOUNDS, WIDTH_BOUNDS
from .model import Workload

DAY = 86_400.0
WEEK = 7 * DAY

#: round wall-clock limits users actually type (seconds)
STANDARD_WCLS = np.array(
    [300, 900, 1800, 3600, 2 * 3600, 4 * 3600, 8 * 3600, 12 * 3600,
     24 * 3600, 36 * 3600, 48 * 3600, 72 * 3600, 96 * 3600, 7 * 86_400,
     10 * 86_400, 30 * 86_400, 40 * 86_400],
    dtype=np.float64,
)


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic trace; defaults reproduce the paper's trace."""

    system_size: int = cplant.SYSTEM_SIZE
    #: fraction of the full trace to generate (scales job counts and weeks
    #: together, preserving the offered-load level)
    scale: float = 1.0
    weeks: Optional[int] = None
    n_users: int = 120
    n_groups: int = 12
    zipf_exponent: float = 1.10
    # wall-clock-limit model
    exact_estimate_prob: float = 0.08
    underestimate_prob: float = 0.04
    round_wcl_prob: float = 0.5
    min_wcl: float = 60.0
    max_wcl: float = 10 * DAY
    #: log10 half-normal spread of the overestimation factor (median ~3.7)
    overest_sigma: float = 0.85
    #: cap for the open-ended "2+ days" runtime bucket
    max_runtime: float = 10 * DAY
    #: weekly offered-load peak as a multiple of the mean (Fig. 3 tops ~1.6
    #: at a ~0.7 mean)
    peak_load_ratio: float = 2.3

    def resolved_weeks(self) -> int:
        if self.weeks is not None:
            return self.weeks
        return max(4, round(cplant.TRACE_WEEKS * self.scale))

    def __post_init__(self) -> None:
        if not (0 < self.scale <= 1.0):
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if self.min_wcl <= 0 or self.max_wcl <= self.min_wcl:
            raise ValueError("need 0 < min_wcl < max_wcl")


# --------------------------------------------------------------------------
# per-cell sampling
# --------------------------------------------------------------------------

def _sample_widths(rng: np.random.Generator, cat: int, n: int, size_cap: int) -> np.ndarray:
    """Node counts within one width category, biased to 'standard' sizes."""
    lo, hi = WIDTH_BOUNDS[cat]
    open_ended = hi is None
    hi = min(hi if hi is not None else size_cap, size_cap)
    # a bucket lying entirely above a small machine collapses to
    # full-machine jobs (scenario machines can be far below 1024 nodes)
    lo = min(lo, hi)
    if lo >= hi:
        return np.full(n, lo, dtype=np.int64)
    out = rng.integers(lo, hi + 1, size=n)
    if open_ended:
        # the paper's 513+ bucket is 70 short jobs (~17 min mean): wide
        # scaling tests just above half the machine, not full-machine
        # monsters.  Sample mostly 513-700, occasionally wider, full
        # machine only as a rare event — a full drain is exceptional.
        u = rng.random(n)
        out = lo + rng.integers(0, max(hi - lo, 1) + 1, size=n)
        mid_cap = min(lo + max((hi - lo) // 3, 1), hi)
        out[u < 0.80] = rng.integers(lo, mid_cap + 1, size=int((u < 0.80).sum()))
        out[u >= 0.95] = hi
    else:
        # users favor powers of two / the bucket's round top (Figure 4)
        snap = rng.random(n) < 0.55
        out[snap] = hi
        snap_lo = (~snap) & (rng.random(n) < 0.3)
        out[snap_lo] = lo
    return out.astype(np.int64)


def _sample_runtimes(
    rng: np.random.Generator,
    cat: int,
    widths: np.ndarray,
    target_proc_hours: float,
    max_runtime: float,
) -> np.ndarray:
    """Runtimes within one length bucket, rescaled so the cell's total
    processor-hours match Table 2 (where the bucket bounds allow)."""
    lo, hi = LENGTH_BOUNDS[cat]
    hi = hi if hi is not None else max_runtime
    lo_c = max(lo, 10.0)
    hi_c = hi - 1.0
    n = len(widths)
    # log-uniform within the bucket
    r = np.exp(rng.uniform(np.log(lo_c), np.log(hi_c), size=n))
    if target_proc_hours <= 0:
        return r
    target = target_proc_hours * 3600.0
    for _ in range(6):
        cur = float((widths * r).sum())
        if cur <= 0:
            break
        ratio = target / cur
        if abs(ratio - 1.0) < 0.01:
            break
        r = np.clip(r * ratio, lo_c, hi_c)
    return r


def _weekly_profile(rng: np.random.Generator, weeks: int, peak_ratio: float) -> np.ndarray:
    """Relative weekly work weights, bursty like Figure 3.

    A slow cycle with lognormal noise, plus *guaranteed* spike weeks pinned
    at ``peak_ratio`` x mean (roughly one spike every 8 weeks, at least
    one): the overload-then-lull pattern the paper highlights must survive
    down-scaling, so spikes are enforced rather than left to noise.
    """
    k = np.arange(weeks)
    base = 1.0 + 0.45 * np.sin(
        2 * np.pi * k / max(8, weeks // 4) + rng.uniform(0, 2 * np.pi)
    )
    noise = rng.lognormal(mean=0.0, sigma=0.3, size=weeks)
    w = base * noise
    w = np.minimum(w / w.mean(), peak_ratio)
    n_spikes = max(1, round(weeks / 8))
    spikes = rng.choice(weeks, size=n_spikes, replace=False)
    w[spikes] = peak_ratio * rng.uniform(0.95, 1.15, size=n_spikes)
    return w / w.mean()


def _assign_weeks(
    rng: np.random.Generator,
    areas: np.ndarray,
    profile: np.ndarray,
) -> np.ndarray:
    """Greedy weighted assignment of jobs to weeks so per-week arriving work
    tracks the profile.  Big jobs placed first against remaining deficits.

    Each job's week is the draw ``rng.choice(weeks, p=p / total)`` over the
    clipped deficits ``p``, made by the steps ``Generator.choice`` itself
    runs for a 1-D ``p``: cumulative sum of ``p / total``, normalized by its
    last entry, one ``rng.random()`` draw, right-sided search.  Only
    ``choice``'s per-call validation of ``p`` is skipped, so the weeks and
    the RNG stream are bit-identical (``tests/generator_reference.py``
    keeps the ``choice`` form for the differential test).
    """
    weeks = len(profile)
    target = profile / profile.sum() * areas.sum()
    deficit = target.copy()
    area_of = areas.tolist()
    out = [0] * len(area_of)
    # the ufuncs themselves: np.clip/ndarray.sum wrappers cost more than
    # the arithmetic on a few dozen weeks
    maximum, reduce, accumulate = np.maximum, np.add.reduce, np.add.accumulate
    random = rng.random
    for idx in np.argsort(-areas).tolist():
        p = maximum(deficit, 0.0)
        total = reduce(p)
        if total <= 0:
            week = int(rng.integers(0, weeks))
        else:
            cdf = accumulate(p / total).tolist()
            last = cdf[-1]
            u = random()
            # searchsorted(cdf / cdf[-1], u, side="right")
            lo, hi = 0, weeks
            while lo < hi:
                mid = (lo + hi) >> 1
                if cdf[mid] / last <= u:
                    lo = mid + 1
                else:
                    hi = mid
            week = lo
        out[idx] = week
        deficit[week] -= area_of[idx]
    return np.array(out, dtype=np.int64)


def _arrival_offsets(rng: np.random.Generator, n: int) -> np.ndarray:
    """Second-of-week offsets with a work-hours bias: weekdays over
    weekends, 9:00-18:00 over nights."""
    day_w = np.array([1.0, 1.0, 1.0, 1.0, 0.9, 0.45, 0.4])  # Mon..Sun
    day = rng.choice(7, size=n, p=day_w / day_w.sum())
    hour_w = np.ones(24)
    hour_w[9:18] = 3.0
    hour_w[0:7] = 0.5
    hour = rng.choice(24, size=n, p=hour_w / hour_w.sum())
    sec = rng.uniform(0, 3600, size=n)
    return day * DAY + hour * 3600.0 + sec


def _sample_wcls(
    rng: np.random.Generator,
    runtimes: np.ndarray,
    cfg: GeneratorConfig,
) -> np.ndarray:
    n = len(runtimes)
    u = rng.random(n)
    wcl = np.empty(n)

    exact = u < cfg.exact_estimate_prob
    under = (~exact) & (u < cfg.exact_estimate_prob + cfg.underestimate_prob)
    over = ~(exact | under)

    wcl[exact] = runtimes[exact]
    # aborted / overrunning jobs: the estimate undershoots the trace runtime
    f_under = np.exp(rng.uniform(np.log(0.02), np.log(0.9), size=int(under.sum())))
    wcl[under] = runtimes[under] * f_under
    # the common case: half-normal (in log10) overestimation capped by the
    # largest permissible request — the bulk of jobs overestimate by a few
    # x, short jobs can reach huge factors, long jobs are capped low
    # (Figure 6's wedge)
    rt_o = np.maximum(runtimes[over], 1.0)
    f_cap = np.maximum(cfg.max_wcl / rt_o, 1.05)
    log_f = np.abs(rng.normal(0.0, cfg.overest_sigma, size=len(rt_o)))
    f = np.minimum(10.0 ** log_f, f_cap)
    wcl[over] = rt_o * f

    snap = over & (rng.random(n) < cfg.round_wcl_prob)
    idx = np.searchsorted(STANDARD_WCLS, wcl[snap], side="left")
    idx = np.minimum(idx, len(STANDARD_WCLS) - 1)
    wcl[snap] = STANDARD_WCLS[idx]

    return np.clip(wcl, cfg.min_wcl, cfg.max_wcl)


def _zipf_weights(n_users: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def generate_cplant_workload(
    config: GeneratorConfig | None = None,
    seed: int = 0,
) -> Workload:
    """Generate the calibrated synthetic CPlant/Ross trace."""
    cfg = config or GeneratorConfig()
    rng = np.random.default_rng(seed)

    widths_all: List[np.ndarray] = []
    runtimes_all: List[np.ndarray] = []
    counts = cplant.TABLE1_COUNTS
    hours = cplant.TABLE2_PROC_HOURS
    for wi in range(counts.shape[0]):
        for li in range(counts.shape[1]):
            base = int(counts[wi, li])
            if base == 0:
                continue
            if cfg.scale >= 1.0:
                n = base
            else:
                exact = base * cfg.scale
                n = int(exact) + (1 if rng.random() < exact - int(exact) else 0)
            if n == 0:
                continue
            w = _sample_widths(rng, wi, n, cfg.system_size)
            target = float(hours[wi, li]) * (n / base)
            r = _sample_runtimes(rng, li, w, target, cfg.max_runtime)
            widths_all.append(w)
            runtimes_all.append(r)

    widths = np.concatenate(widths_all)
    runtimes = np.concatenate(runtimes_all)
    n = len(widths)

    wcls = _sample_wcls(rng, runtimes, cfg)

    weeks = cfg.resolved_weeks()
    profile = _weekly_profile(rng, weeks, cfg.peak_load_ratio)
    week_of = _assign_weeks(rng, widths * runtimes, profile)
    submit = week_of * WEEK + _arrival_offsets(rng, n)

    user_w = _zipf_weights(cfg.n_users, cfg.zipf_exponent)
    users = rng.choice(cfg.n_users, size=n, p=user_w) + 1
    groups = (users - 1) % cfg.n_groups + 1

    # positional construction from plain-Python columns in submit order
    # (as Job.fresh_copy does): no numpy-scalar conversion per field
    order = np.argsort(submit, kind="stable")
    columns = zip(
        submit[order].tolist(), widths[order].tolist(),
        runtimes[order].tolist(), wcls[order].tolist(),
        users[order].tolist(), groups[order].tolist(),
    )
    jobs = [
        Job(i, s, nodes, r, wcl, u, g)
        for i, (s, nodes, r, wcl, u, g) in enumerate(columns, 1)
    ]
    return Workload(
        jobs=jobs,
        system_size=cfg.system_size,
        name=f"cplant-synthetic(scale={cfg.scale}, seed={seed})",
        metadata={
            "seed": seed,
            "scale": cfg.scale,
            "weeks": weeks,
            "weekly_profile": profile,
            "config": cfg,
        },
    )


def replication_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` independent generator seeds derived from one base seed.

    Uses :class:`numpy.random.SeedSequence` spawning rather than
    ``base_seed + i`` so replicated traces draw from decorrelated streams;
    the derivation is deterministic, so campaign cache keys built from
    these seeds are stable across processes and runs.
    """
    if n < 1:
        raise ValueError("need at least one replication")
    ss = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def random_workload(
    n_jobs: int,
    system_size: int = 64,
    seed: int = 0,
    load: float = 0.8,
    n_users: int = 8,
    max_width_frac: float = 0.5,
) -> Workload:
    """Small uniform-ish workload for tests and examples.

    ``load`` sets the offered load: mean inter-arrival = mean job area /
    (load x system size).
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    rng = np.random.default_rng(seed)
    max_w = max(1, int(system_size * max_width_frac))
    widths = rng.integers(1, max_w + 1, size=n_jobs)
    runtimes = np.exp(rng.uniform(np.log(60), np.log(8 * 3600), size=n_jobs))
    mean_area = float((widths * runtimes).mean())
    mean_gap = mean_area / (load * system_size)
    gaps = rng.exponential(mean_gap, size=n_jobs)
    submit = np.cumsum(gaps)
    factors = np.exp(rng.uniform(0.0, np.log(10.0), size=n_jobs))
    wcls = np.maximum(runtimes * factors, 60.0)
    users = rng.integers(1, n_users + 1, size=n_jobs)
    jobs = [
        Job(
            id=i + 1,
            submit_time=float(submit[i]),
            nodes=int(widths[i]),
            runtime=float(runtimes[i]),
            wcl=float(wcls[i]),
            user_id=int(users[i]),
        )
        for i in range(n_jobs)
    ]
    return Workload(jobs, system_size, name=f"random(n={n_jobs}, seed={seed})")
