"""Deterministic fault-injection layer: plans, rules, activation."""

from __future__ import annotations

import json

import pytest

from repro.campaign import faults
from repro.campaign.faults import (
    Fault,
    FaultPlan,
    FaultRule,
    InjectedAbortError,
    InjectedError,
    InjectedTransientError,
)
from repro.campaign.retry import TransientError


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


class TestFaultRule:
    def test_rejects_unknown_site_and_kind(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="nope", kind="transient")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="cell.run", kind="nope")

    def test_token_selection_is_prefix_match(self):
        rule = FaultRule(site="cell.run", kind="transient",
                         tokens=("abc",))
        assert rule.selects(0, "abcdef0123")
        assert not rule.selects(0, "abd")

    def test_rate_selection_is_deterministic(self):
        rule = FaultRule(site="cell.run", kind="transient", rate=0.5)
        picks = [rule.selects(7, f"token-{i}") for i in range(200)]
        assert picks == [rule.selects(7, f"token-{i}") for i in range(200)]
        assert 40 < sum(picks) < 160  # a draw, not all-or-nothing

    def test_rate_depends_on_seed(self):
        rule = FaultRule(site="cell.run", kind="transient", rate=0.5)
        a = [rule.selects(1, f"token-{i}") for i in range(200)]
        b = [rule.selects(2, f"token-{i}") for i in range(200)]
        assert a != b


class TestFaultPlan:
    def test_times_bounds_occurrences_via_attempt(self):
        plan = FaultPlan(rules=(
            FaultRule(site="cell.run", kind="transient", tokens=("k",),
                      times=2),
        ))
        assert plan.check("cell.run", "k1", attempt=0) is not None
        assert plan.check("cell.run", "k1", attempt=1) is not None
        assert plan.check("cell.run", "k1", attempt=2) is None

    def test_counts_occurrences_when_attempt_omitted(self):
        plan = FaultPlan(rules=(
            FaultRule(site="cache.put", kind="corrupt", tokens=("k",)),
        ))
        assert plan.check("cache.put", "k1") is not None
        assert plan.check("cache.put", "k1") is None  # times=1 spent
        assert plan.check("cache.put", "k2") is not None  # separate token

    def test_roundtrips_through_dict(self):
        plan = FaultPlan(seed=9, rules=(
            FaultRule(site="cell.run", kind="worker_kill", tokens=("ab",)),
            FaultRule(site="cell.run", kind="delay", rate=0.1, seconds=2.0),
        ))
        again = FaultPlan.from_dict({"seed": 9, "faults": [
            {"site": "cell.run", "kind": "worker_kill", "tokens": ["ab"]},
            {"site": "cell.run", "kind": "delay", "rate": 0.1, "seconds": 2.0},
        ]})
        assert again == FaultPlan(seed=plan.seed, rules=plan.rules)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seed": 1, "faults": [], "typo": True})


class TestFire:
    def test_kinds_raise_their_exceptions(self):
        with pytest.raises(InjectedTransientError):
            Fault("cell.run", "transient", "k").fire()
        with pytest.raises(InjectedError):
            Fault("cell.run", "error", "k").fire()
        with pytest.raises(InjectedAbortError):
            Fault("driver.tick", "abort", "5").fire()

    def test_transient_is_retryworthy(self):
        assert issubclass(InjectedTransientError, TransientError)

    def test_worker_kill_degrades_inline(self):
        # inline=True must raise (retryable) instead of os._exit-ing the
        # test process
        with pytest.raises(InjectedTransientError, match="degraded"):
            Fault("cell.run", "worker_kill", "k").fire(inline=True)

    def test_cooperative_kinds_are_noops(self):
        Fault("cache.put", "corrupt", "k").fire()
        Fault("cache.put", "crash", "k").fire()


class TestActivation:
    def test_install_wins_over_env(self, monkeypatch):
        installed = FaultPlan(seed=1)
        monkeypatch.setenv(faults.PLAN_ENV, json.dumps({"seed": 2}))
        faults.install(installed)
        assert faults.active_plan() is installed

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(faults.PLAN_ENV, json.dumps({
            "seed": 3,
            "faults": [{"site": "cell.run", "kind": "transient",
                        "tokens": ["aa"]}],
        }))
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 3
        assert faults.active_plan() is plan  # memoized

    def test_env_plan_file(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 4, "faults": []}))
        monkeypatch.setenv(faults.PLAN_ENV, str(path))
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 4

    def test_no_plan_means_none(self, monkeypatch):
        monkeypatch.delenv(faults.PLAN_ENV, raising=False)
        assert faults.active_plan() is None


def test_corrupt_blob_truncates():
    blob = '{"key": "x", "metrics": {"a": 1}}'
    assert faults.corrupt_blob(blob) == blob[: len(blob) // 2]
    assert faults.corrupt_blob("a") == "a"
