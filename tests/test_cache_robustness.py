"""Cache crash-consistency and repair: interrupted puts, integrity
verification, tmp-orphan sweeping, and the verify/prune maintenance ops."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignCache, CampaignSpec, cell_key
from repro.campaign import faults
from repro.campaign.faults import FaultPlan, FaultRule, InjectedCrashError


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


def _cell():
    spec = CampaignSpec.from_dict({
        "name": "cache-robustness",
        "policies": ["easy.fcfs"],
        "workloads": [{"kind": "random", "n_jobs": 10, "system_size": 8,
                       "seeds": [1]}],
    })
    return spec.expand()[0]


METRICS_V1 = {"summary.avg_wait": 1.0}
METRICS_V2 = {"summary.avg_wait": 2.0}


class TestCrashConsistency:
    def test_interrupted_put_keeps_old_entry_and_orphan_is_reaped(
            self, tmp_path):
        """The satellite scenario end to end: a put dies mid-write, the
        old entry survives untorn, and the next open sweeps the orphan."""
        cell = _cell()
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        cache.put(key, cell.identity(), METRICS_V1)

        faults.install(FaultPlan(rules=(
            FaultRule(site="cache.put", kind="crash", tokens=(key,)),
        )))
        with pytest.raises(InjectedCrashError):
            cache.put(key, cell.identity(), METRICS_V2)
        faults.clear()

        # the old entry survives and reads back whole — no torn record
        assert cache.get(key) == METRICS_V1
        # the dead writer left exactly one tmp orphan behind
        orphans = list(tmp_path.glob("??/*.tmp"))
        assert len(orphans) == 1

        # ... which the next open (grace elapsed) reaps
        reopened = CampaignCache(tmp_path, tmp_grace=0.0)
        assert list(tmp_path.glob("??/*.tmp")) == []
        assert reopened.get(key) == METRICS_V1

    def test_fresh_tmp_files_survive_the_grace_window(self, tmp_path):
        cell = _cell()
        cache = CampaignCache(tmp_path)
        cache.put(cell_key(cell), cell.identity(), METRICS_V1)
        live = tmp_path / cell_key(cell)[:2] / "writer-in-flight.tmp"
        live.write_text("partial")
        CampaignCache(tmp_path, tmp_grace=3600.0)
        assert live.exists()  # presumed owned by a live concurrent writer

    def test_corrupt_fault_lands_a_truncated_entry(self, tmp_path):
        cell = _cell()
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        faults.install(FaultPlan(rules=(
            FaultRule(site="cache.put", kind="corrupt", tokens=(key,)),
        )))
        cache.put(key, cell.identity(), METRICS_V1)
        faults.clear()
        assert cache.get(key) is None  # truncated entry reads as a miss
        assert cache.stats.corrupt == 1


class TestIntegrity:
    def test_get_rejects_tampered_metrics(self, tmp_path):
        cell = _cell()
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        path = cache.put(key, cell.identity(), METRICS_V1)
        doc = json.loads(path.read_text())
        doc["metrics"]["summary.avg_wait"] = 99.0  # bit-flip, digest stale
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_verify_classifies_the_store(self, tmp_path):
        cell = _cell()
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        cache.put(key, cell.identity(), METRICS_V1)

        bad = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        orphan = tmp_path / "ab" / "dead.tmp"
        orphan.write_text("partial")

        audit = cache.verify()
        assert audit.n_entries == 2
        assert audit.n_ok == 1
        assert audit.n_corrupt == 1
        assert audit.n_tmp == 1
        assert audit.corrupt[0][1] == "not JSON"
        assert not audit.ok

    def test_prune_removes_corrupt_and_reaps_tmp(self, tmp_path):
        cell = _cell()
        key = cell_key(cell)
        cache = CampaignCache(tmp_path)
        cache.put(key, cell.identity(), METRICS_V1)
        bad = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("truncated{")
        (tmp_path / "ab" / "dead.tmp").write_text("partial")

        audit = cache.prune()
        assert audit.n_corrupt == 1 and audit.n_tmp == 1
        assert not bad.exists()
        assert list(tmp_path.glob("??/*.tmp")) == []
        assert cache.get(key) == METRICS_V1  # sound entries untouched

    def test_prune_quarantine_moves_instead_of_deleting(self, tmp_path):
        cache = CampaignCache(tmp_path)
        bad = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        cache.prune(quarantine=True)
        assert not bad.exists()
        assert (tmp_path / "quarantine" / bad.name).exists()


class TestCLI:
    def test_cache_verify_and_prune_commands(self, tmp_path, capsys):
        from repro.cli import main

        cell = _cell()
        cache = CampaignCache(tmp_path)
        cache.put(cell_key(cell), cell.identity(), METRICS_V1)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "1 entries — 1 ok, 0 corrupt" in capsys.readouterr().out

        bad = tmp_path / "ab" / ("ab" + "0" * 62 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "corrupt" in capsys.readouterr().out

        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert not bad.exists()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

    def test_cache_verify_json_output(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_entries"] == 0 and doc["corrupt"] == []


def test_schema_bump_reads_as_miss_not_corrupt(tmp_path):
    """Entries from another schema are invalidation, not damage — verify
    must not flag them and get() must count a plain miss."""
    from repro.campaign.cache import CACHE_SCHEMA

    cell = _cell()
    key = cell_key(cell)
    cache = CampaignCache(tmp_path)
    path = cache.put(key, cell.identity(), METRICS_V1)
    doc = json.loads(path.read_text())
    doc["schema"] = CACHE_SCHEMA - 1
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")

    assert cache.get(key) is None
    assert cache.stats.corrupt == 0
    audit = cache.verify()
    assert audit.n_other_schema == 1 and audit.n_corrupt == 0
