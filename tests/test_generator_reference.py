"""Differential test: the synthetic trace's week assignment vs ``choice``.

``repro.workload.generator._assign_weeks`` draws each job's week by the
steps ``Generator.choice`` runs for a 1-D ``p`` (cumulative sum,
normalize, one ``random()`` draw, right-sided search) without calling
it.  ``tests/generator_reference.py`` keeps the per-job ``rng.choice``
form.  Both must return the *same* weeks and leave the generator in the
*same* state — no tolerance, because every later draw of the trace (and
so every recorded digest) reads that state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.generator import _assign_weeks
from tests.generator_reference import assign_weeks as reference_assign_weeks

#: exact zeros, ties from a small pool, and six orders of magnitude
AREA = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 3600.0, 1.5e6]),
    st.floats(1e-3, 1e9),
)

#: week weights; zero weeks allowed, an all-zero profile is not (the
#: generator's profile is a normalized positive series)
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


def _assert_same(seed: int, areas, profile) -> np.ndarray:
    """Run both forms from one seed; return the (equal) weeks."""
    areas = np.asarray(areas, dtype=np.float64)
    profile = np.asarray(profile, dtype=np.float64)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _assign_weeks(ours, areas.copy(), profile.copy())
    want = reference_assign_weeks(theirs, areas.copy(), profile.copy())
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
    return got


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(AREA, max_size=80),
    st.lists(WEIGHT, min_size=1, max_size=70).filter(any),
)
def test_matches_choice_reference(seed, areas, profile):
    _assert_same(seed, areas, profile)


@pytest.mark.parametrize("weeks", [1, 2, 33, 70])
def test_all_zero_areas_take_the_integers_fallback(weeks):
    """No deficit anywhere: every job goes through ``rng.integers``."""
    areas = [0.0] * 25
    profile = np.linspace(1.0, 2.0, weeks)
    got = _assert_same(5, areas, profile)
    fallback = np.random.default_rng(5)
    assert got.tolist() == [int(fallback.integers(0, weeks)) for _ in areas]


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_draw_exactly_on_a_cdf_step_goes_right(seed):
    """A draw equal to ``cdf[0]`` picks week 1, as ``searchsorted(...,
    side="right")`` does; random inputs almost never hit the tie."""
    u = np.random.default_rng(seed).random()
    profile = [u, 1.0 - u]
    assert sum(profile) == 1.0  # so the normalized cdf is exactly [u, 1]
    assert _assert_same(seed, [1.0], profile).tolist() == [1]


@pytest.mark.parametrize(
    "seed,area,profile",
    [
        (1, 7e5, [0.733902105086481, 0.7]),
        (1, 7e5, [3.0404515782154213, 2.9]),
        (4, 3.0, [11.592801660933143, 0.7]),
    ],
)
def test_cdf_rounding_matches_choice(seed, area, profile):
    """Draws within an ulp of a step: only ``cumsum(p / total)`` rounded
    exactly as ``choice`` rounds it lands in the reference week (a cdf
    built from unnormalized ``p`` picks week 1 here)."""
    assert _assert_same(seed, [area], profile).tolist() == [0]


def test_one_week_takes_every_job():
    _assert_same(1, [5.0, 0.0, 7.0, 7.0], [3.0])


def test_full_trace_areas_match():
    """The real input: areas and profile of a generated trace."""
    from repro.workload.generator import GeneratorConfig, _weekly_profile

    rng = np.random.default_rng(11)
    profile = _weekly_profile(rng, 33, GeneratorConfig().peak_load_ratio)
    areas = np.exp(rng.uniform(np.log(10.0), np.log(1e9), size=3000))
    areas[::50] = 0.0
    _assert_same(11, areas, profile)
