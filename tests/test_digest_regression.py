"""Full-run digest-equality regression tests.

Every digest below was recorded from the straightforward pre-optimization
simulator (PR 4's seed state) on deterministic workloads.  The perf work
promises *byte-identical* results — same start/end times, same FSTs, same
event counts — so any optimization that changes a digest is a behavior
change, not a speedup, and must be rejected.

The cases cover every scheduler family, both estimate modes of the hybrid
FST observer, all three kill policies, chunk chains (72max policies), and
a workload where a third of the jobs overrun their estimates (exercising
the conservative rebuild path).  ``SimulationResult.digest()`` renders
floats with ``repr`` (exact round-trip), so equality here is bit-level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.job import Job
from repro.experiments.runner import RunOptions, run_policy
from repro.workload.generator import GeneratorConfig, generate_cplant_workload, random_workload
from repro.workload.model import Workload

#: "<policy>|<workload>[|option=value...]" -> sha256 recorded pre-optimization
RECORDED_DIGESTS = {
    "cons.nomax|small":
        "59a88df490bff71eb60f445ea82e1a5a1ee44bb77968f05a6bc48c5bed966a44",
    "cons.72max|small":
        "59a88df490bff71eb60f445ea82e1a5a1ee44bb77968f05a6bc48c5bed966a44",
    "consdyn.nomax|small":
        "1335c0040ff0bd1ee939a0c2f71547f0f7bdea3460023c52399edf6ff208cd6d",
    "cplant24.nomax.all|small":
        "7fa0a6ae09db3014efaab6e39ddf5ac5a141960adf9ceb838576d22f0026da84",
    "cplant72.72max.fair|small":
        "50a17c621e3c6a01676dcbcb494b480246b011bb939f6c64bac2947fcb9350e5",
    "easy.fairshare|small":
        "610e691eba54202e082b8e5a529a5414fad1bd1370134b43b063ff53b5bf8bce",
    "fcfs.nobackfill|small":
        "58ba7eb38d41daff105730f2200454348e35a0831021154797b0d3891bb4e5c3",
    "depth2.fairshare|small":
        "1335c0040ff0bd1ee939a0c2f71547f0f7bdea3460023c52399edf6ff208cd6d",
    "cons.nomax|heavy":
        "9ba322eed1dcbe972e12249e0d462f0e19f6bfd438080601a0ac42fe0189c283",
    "cplant24.nomax.all|heavy":
        "f6194418a62f3dd23ba2213e2b2000a6cd36911b6b2e1bd8fb33a6fa824d7cf6",
    "easy.fairshare|heavy":
        "ca1f2836971d7174484f914cf25842157af95e5058a64663e3b649d383f02f31",
    "cons.nomax|heavy|estimate_mode=wcl":
        "c6ce9516c7ec43fb1793d4207bdc3e31c42e760d21d1d516096dd797c79ddea5",
    "cons.nomax|overrun|kill_policy=IF_NEEDED":
        "c9d0ea2a7ba566c24d9a7f91f27b0ae47cb7141a8a00617811d877e38df0a9a7",
    "cons.nomax|overrun|kill_policy=AT_WCL":
        "5af8464c6a6c990f4bebeba932eefa960c7f5dd69fe789be2c9371ac5407324e",
    "cons.nomax|overrun|kill_policy=NEVER":
        "701d37faf7b0e29964260aacf0c0a4b1978135aec806442e45164eada6cb24e1",
    "consdyn.nomax|overrun|kill_policy=IF_NEEDED":
        "0d59a27fa625c8d40d6bc457a35911cdea1d8475db7855deadff978b5e1c58db",
    "cplant24.nomax.all|overrun|kill_policy=IF_NEEDED":
        "73ba9b550fa99952103568a2e531c76e04eb073a70e516dc81adc94e4bbfb47d",
    "cplant24.nomax.all|overrun|kill_policy=AT_WCL":
        "8c151179af0ab2ecfd0ae27b3cc3e6c5b121b35172eb2525f39c582bc2d6f97d",
    "easy.fairshare|overrun|kill_policy=IF_NEEDED":
        "5457ac5ded5ea3aff9cd8f6a5f4ed29668c3efa4660cd52e5414cfb1c4fa12db",
    "depth2.fairshare|overrun|kill_policy=IF_NEEDED":
        "a1f6a69198af4bb8e22f76cb2b48ce10ad304f75991a3367dd40ea1d7fbd3a46",
    "cons.nomax|overrun|estimate_mode=wcl":
        "d49e8334ec3a9f74ef10fe1ac39345232be0dc250f5aa684d0c0ea1a01d189cd",
    "cons.72max|cplant0.03":
        "6f6da2bef902d9f8faf24367287673d2fe6d7cd1ce8a5e53a07d5135d46a7273",
    "cplant72.72max.fair|cplant0.03":
        "e041afa9eea60ca2222d79dd0cd142f135112b1dda017dadbfcd53da666b353e",
    "cplant24.nomax.all|cplant0.03|estimate_mode=wcl":
        "988b2090bfe667416349b42e5a10b77026c72f29dc3883d3dc6b28405112541f",
}

#: the size-based / baseline frontier policies, recorded at introduction
#: (same byte-identical contract as the pre-optimization digests above).
#: easy.spt == easy.srpt on unchunked traces by construction: with no
#: chain tail, remaining work equals the static estimate.
FRONTIER_DIGESTS = {
    "spt.nobackfill|small":
        "1bca2d14f42117073820ab19a557b25a221a768a466ed27aba8aed8b4fe677d9",
    "easy.spt|small":
        "67c01bbc8e8138f4e4db6d99fc2e88688415354108ffc4169a67efffc8a1f02c",
    "easy.srpt|small":
        "67c01bbc8e8138f4e4db6d99fc2e88688415354108ffc4169a67efffc8a1f02c",
    "easy.widest|small":
        "42b2b03eccbdf6e24b7548e329953536326d5caeb6b4b72cfe0a3d1310f2be8c",
    "fsp.easy|small":
        "a5bb093c71bc403144cc44e70c8dff5225eec5b87ca5cf4b3b360cb6553517e1",
    "fsp.nobackfill|small":
        "5838c14c5198309f0002ce398bb0951cb23f8a66bfe5ea8b67c7faf59fe9f91f",
    "rr.user|small":
        "0a9cedf205041f1f5487bf330e3723dc9737ae85145d16b20f9a987ab8ea85cb",
    "spt.nobackfill|heavy":
        "2120da3d52b62ff467466c9484d39d240c5363b5fb1cb21b5e6510e27ac165b5",
    "easy.spt|heavy":
        "f1584cd005a4673a568a1b3af5a2bc875915cc9f0af80a848a81335b49cc24d7",
    "easy.widest|heavy":
        "293ad0415533c238ef8f78a7f718bdb2e9c3bc71253fc4ecec56f8e39d7a9c0b",
    "fsp.easy|heavy":
        "ec3b25b619e53a6dffe56dacb22d7e3523081f34f8c114e200d057d946e4146b",
    "rr.user|heavy":
        "0fbeb1daa113f92fd927f5c3a34f142a779d54339fcfc217e28671cc4cfc5fc9",
    "easy.srpt|cplant0.03":
        "6f6da2bef902d9f8faf24367287673d2fe6d7cd1ce8a5e53a07d5135d46a7273",
    "fsp.easy|cplant0.03":
        "e0aaee62813227ed2a179424df024a976be289ffe95d206e53e8f5fd1559f271",
    "rr.user|cplant0.03":
        "e0aaee62813227ed2a179424df024a976be289ffe95d206e53e8f5fd1559f271",
}


def _overrun_workload() -> Workload:
    """Dense 48-node workload where ~1/3 of jobs underestimate (and so
    overrun their WCL), forcing rebuilds and WCL kills."""
    rng = np.random.default_rng(123)
    n = 200
    widths = rng.integers(1, 24, size=n)
    runtimes = np.exp(rng.uniform(np.log(120), np.log(6 * 3600), size=n))
    factors = np.where(
        rng.random(n) < 0.35,
        rng.uniform(0.4, 0.95, size=n),
        np.exp(rng.uniform(0.0, np.log(8.0), size=n)),
    )
    wcls = np.maximum(runtimes * factors, 60.0)
    gaps = rng.exponential(float((widths * runtimes).mean()) / (1.2 * 48), size=n)
    submit = np.cumsum(gaps)
    jobs = [
        Job(id=i + 1, submit_time=float(submit[i]), nodes=int(widths[i]),
            runtime=float(runtimes[i]), wcl=float(wcls[i]),
            user_id=int(rng.integers(1, 7)))
        for i in range(n)
    ]
    return Workload(jobs, 48, name="overrun-mix")


@pytest.fixture(scope="module")
def digest_workloads():
    return {
        "small": random_workload(120, system_size=32, seed=42, load=0.9),
        "heavy": random_workload(250, system_size=64, seed=11, load=1.3),
        "cplant0.03": generate_cplant_workload(GeneratorConfig(scale=0.03), seed=5),
        "overrun": _overrun_workload(),
    }


#: runs that evaluate several hybrid-FST reference orders at once, so the
#: per-order ``fst_hybrid_<order>`` series are pinned too (recorded before
#: the orders shared one observer)
MULTI_ORDER_DIGESTS = {
    "easy.srpt|cplant0.03|reference_orders=fairshare,fcfs,shortest-first":
        "691d1f41a74b0b22be227dc5284e381e3d0c8a567d38a4081f251166ca160e7e",
    "cplant24.72max.all|cplant0.03|estimate_mode=wcl"
    "|reference_orders=fairshare,fcfs,shortest-first":
        "c18539e22464b7c416d439348ba08286f346f16e4bb093d87a3158f5307fa3dd",
    "consdyn.nomax|overrun|reference_orders=fairshare,fcfs,shortest-first":
        "74363f2d506d3166b6247966c2f9d5445d86d06a80fcd6f83f925526ba697aca",
    "fsp.easy|heavy|reference_orders=fairshare,fcfs,shortest-first":
        "b2e922f4f6401ed5f8dbb0e7694eb255c5f82146718f1d532863680c49828071",
    "rr.user|small|reference_orders=fcfs,shortest-first":
        "2837175db251c9d39532fa6810cd3fa975f57bea11987478e89dbfbf096b4669",
}


#: the order-heavy policies, recorded before FSP's fluid machine was
#: vectorised and the fairshare/FCFS sorts moved to scalar keys: the
#: strict no-backfill variants follow the priority order exactly, and
#: cplant24.nomax.fair reads the fairshare order through both queues
ORDER_DIGESTS = {
    "fairshare.nobackfill|small":
        "0ab695460252ab2d62ed106cc54bce326ff0315c6db2c935c9c6385610b5314f",
    "fairshare.nobackfill|heavy":
        "7b8d149136357efe6a8e1e9ed72aebd55494d444b8c0d10170395bdb4293210d",
    "fsp.nobackfill|heavy":
        "cd42e4307930cc6ec38cbab7f9b8ae6c07c915dc9bf95471e8e596fcb54025a8",
    "fsp.nobackfill|cplant0.03":
        "821881ea3a1b293e96d122fdf9709473a6aec6198fe264230cc77e2c9d278a0f",
    "cplant24.nomax.fair|cplant0.03":
        "45a48a376524bb931ed184052a6b1c22dde2cfa977c86754c7fcd2b511e6f57a",
}


ALL_DIGESTS = {**RECORDED_DIGESTS, **FRONTIER_DIGESTS, **MULTI_ORDER_DIGESTS,
               **ORDER_DIGESTS}


@pytest.mark.parametrize("case", sorted(ALL_DIGESTS))
def test_digest_matches_recorded_baseline(case, digest_workloads):
    parts = case.split("|")
    policy, workload = parts[0], parts[1]
    kwargs = {}
    for extra in parts[2:]:
        key, value = extra.split("=")
        kwargs[key] = value.split(",") if key == "reference_orders" else value
    run = run_policy(digest_workloads[workload], policy, RunOptions(**kwargs))
    assert run.result.digest() == ALL_DIGESTS[case], (
        f"{case}: simulation outcome changed — optimizations must be "
        "byte-identical (see docs/PERFORMANCE.md)"
    )


def test_digest_is_deterministic(digest_workloads):
    """Two identical runs must digest identically (guards accidental
    iteration-order or float nondeterminism in the simulator)."""
    a = run_policy(digest_workloads["small"], "cons.nomax").result.digest()
    b = run_policy(digest_workloads["small"], "cons.nomax").result.digest()
    assert a == b


#: policies whose cross-process stability is asserted below — one per
#: scheduler family touched by the frontier, plus the paper baseline
CROSS_PROCESS_POLICIES = (
    "cplant24.nomax.all", "spt.nobackfill", "easy.srpt", "fsp.easy",
    "rr.user", "fsp.nobackfill", "fairshare.nobackfill",
)


def test_digests_stable_across_processes():
    """Same policy + workload must digest identically in a fresh
    interpreter: no set/dict iteration order, hash randomization, or
    module-level state may leak into a schedule (the property the
    campaign cache and the CI matrix-smoke job rely on)."""
    wl = random_workload(120, system_size=32, seed=42, load=0.9)
    here = {
        p: run_policy(wl, p).result.digest() for p in CROSS_PROCESS_POLICIES
    }
    prog = (
        "import json\n"
        "from repro.experiments.runner import run_policy\n"
        "from repro.workload.generator import random_workload\n"
        "wl = random_workload(120, system_size=32, seed=42, load=0.9)\n"
        f"keys = {CROSS_PROCESS_POLICIES!r}\n"
        "out = {p: run_policy(wl, p).result.digest() for p in keys}\n"
        "print(json.dumps(out))\n"
    )
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], env=env, capture_output=True,
        text=True, check=True,
    )
    assert json.loads(proc.stdout) == here
