"""Tests for the named policy registry."""

import math

import pytest

from repro.sched.conservative import ConservativeScheduler
from repro.sched.depthk import DepthKScheduler
from repro.sched.easy import EasyBackfillScheduler
from repro.sched.nobackfill import NoBackfillScheduler
from repro.sched.noguarantee import NoGuaranteeScheduler
from repro.sched.registry import (
    CONSERVATIVE_POLICIES,
    MATRIX_POLICIES,
    MINOR_POLICIES,
    PAPER_POLICIES,
    REGISTRY,
    get_policy,
    policy_names,
    validate_overrides,
)
from repro.sched.roundrobin import RoundRobinScheduler

HOUR = 3600.0


class TestPolicySets:
    def test_nine_paper_policies(self):
        assert len(PAPER_POLICIES) == 9
        assert PAPER_POLICIES[0] == "cplant24.nomax.all"

    def test_minor_is_first_five(self):
        assert MINOR_POLICIES == PAPER_POLICIES[:5]

    def test_conservative_set_matches_figure16(self):
        assert "cplant24.nomax.all" in CONSERVATIVE_POLICIES
        assert "cons.72max" in CONSERVATIVE_POLICIES
        assert len(CONSERVATIVE_POLICIES) == 5

    def test_all_keys_resolvable(self):
        for key in policy_names():
            spec = get_policy(key)
            sched = spec.make_scheduler()
            assert sched is not None

    def test_unknown_key_raises_with_listing(self):
        with pytest.raises(KeyError, match="cplant24.nomax.all"):
            get_policy("no-such-policy")


class TestSpecSemantics:
    def test_baseline_config(self):
        sched = get_policy("cplant24.nomax.all").make_scheduler()
        assert isinstance(sched, NoGuaranteeScheduler)
        assert sched.starvation_threshold == 24 * HOUR
        assert sched.entrance == "all"
        assert get_policy("cplant24.nomax.all").max_runtime is None

    def test_cplant72_threshold(self):
        sched = get_policy("cplant72.nomax.all").make_scheduler()
        assert sched.starvation_threshold == 72 * HOUR

    def test_fair_entrance(self):
        sched = get_policy("cplant24.nomax.fair").make_scheduler()
        assert sched.entrance == "fair"

    def test_72max_policies_carry_limit(self):
        for key in ("cplant24.72max.all", "cplant72.72max.fair",
                    "cons.72max", "consdyn.72max"):
            assert get_policy(key).max_runtime == 72 * HOUR

    def test_conservative_types(self):
        assert isinstance(get_policy("cons.nomax").make_scheduler(),
                          ConservativeScheduler)
        consdyn = get_policy("consdyn.nomax").make_scheduler()
        assert isinstance(consdyn, DepthKScheduler)
        assert consdyn.depth == math.inf

    def test_overrides_forwarded(self):
        sched = get_policy("cons.nomax").make_scheduler(decay_factor=0.25)
        assert sched.tracker.decay_factor == 0.25

    def test_descriptions_present(self):
        for spec in REGISTRY.values():
            assert len(spec.description) > 10


class TestFrontierPolicies:
    """The size-based / baseline extension policies of the matrix."""

    def test_paper_nine_still_lead_the_registry(self):
        # existing digests, figures, and campaign specs index the paper
        # policies; the frontier rides strictly behind them
        assert tuple(REGISTRY)[:9] == PAPER_POLICIES

    def test_matrix_policies_resolvable(self):
        assert len(MATRIX_POLICIES) == 8
        for key in MATRIX_POLICIES:
            assert get_policy(key).key == key

    def test_matrix_spans_paper_and_frontier(self):
        assert "cplant24.nomax.all" in MATRIX_POLICIES
        assert "fsp.easy" in MATRIX_POLICIES
        assert "rr.user" in MATRIX_POLICIES

    def test_size_based_types_and_priorities(self):
        spt = get_policy("spt.nobackfill").make_scheduler()
        assert isinstance(spt, NoBackfillScheduler)
        assert spt.priority == "spt"
        for key, cls, prio in (
                ("easy.spt", EasyBackfillScheduler, "spt"),
                ("easy.srpt", EasyBackfillScheduler, "srpt"),
                ("easy.widest", EasyBackfillScheduler, "widest"),
                ("fsp.easy", EasyBackfillScheduler, "fsp"),
                ("fsp.nobackfill", NoBackfillScheduler, "fsp")):
            sched = get_policy(key).make_scheduler()
            assert isinstance(sched, cls)
            assert sched.priority == prio

    def test_srpt_carries_the_runtime_limit(self):
        # chunking is what makes "remaining" differ from "total"
        assert get_policy("easy.srpt").max_runtime == 72 * HOUR
        assert get_policy("easy.spt").max_runtime is None

    def test_fsp_and_rr_types(self):
        assert isinstance(get_policy("rr.user").make_scheduler(),
                          RoundRobinScheduler)

    def test_unknown_priority_lists_known_orders(self):
        with pytest.raises(ValueError, match="fairshare.*fcfs.*spt"):
            NoBackfillScheduler(priority="lifo")


class TestValidateOverrides:
    def test_offending_key_named_singly(self):
        with pytest.raises(ValueError, match=r"rejects scheduler override 'no_such_knob'"):
            validate_overrides("easy.fcfs", {"no_such_knob": 1})

    def test_offending_key_named_among_valid_ones(self):
        # the valid override must not mask which key was wrong
        with pytest.raises(ValueError, match=r"'typo_knob'") as exc:
            validate_overrides(
                "cplant24.nomax.all",
                {"starvation_threshold": 60.0, "typo_knob": 2},
            )
        assert "starvation_threshold" not in str(exc.value)

    def test_multiple_offenders_all_named(self):
        with pytest.raises(ValueError, match=r"overrides 'bad_a', 'bad_b'"):
            validate_overrides("easy.fcfs", {"bad_a": 1, "bad_b": 2})

    def test_policy_key_in_message(self):
        with pytest.raises(ValueError, match="fsp.easy"):
            validate_overrides("fsp.easy", {"nope": 1})

    @pytest.mark.parametrize("key", ["cons.nomax", "consdyn.nomax"])
    def test_overrun_extension_is_not_an_option(self, key):
        # the overrun extension is one module constant, not a knob
        with pytest.raises(ValueError, match=r"override 'overrun_extension'"):
            validate_overrides(key, {"overrun_extension": 10.0})
