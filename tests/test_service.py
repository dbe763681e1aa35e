"""Simulation-as-a-service: live sessions, tenant merge, TCP server.

The load-bearing contract everywhere: however a trace reaches the engine —
preloaded, ingested in waves, streamed by concurrent tenants over TCP under
any interleaving — the finished simulation is byte-identical (digest and
per-user metrics) to a one-shot batch run of the merged trace.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro import api
from repro.core.job import JobState
from repro.service import (
    LiveSimulation,
    ServiceClient,
    ServiceError,
    TenantError,
    TenantMux,
    merged_workload,
    serve_async,
)
from repro.workload.generator import GeneratorConfig, generate_cplant_workload


def payload_of(job):
    return {"at": job.submit_time, "nodes": job.nodes, "runtime": job.runtime,
            "wcl": job.wcl, "user": job.user_id}


def partition(workload, n, prefix="t"):
    """Split a workload into n per-tenant payload streams by user id."""
    streams = {}
    for j in workload.jobs:
        streams.setdefault(f"{prefix}{j.user_id % n}", []).append(payload_of(j))
    return streams


@pytest.fixture(scope="module")
def trace():
    """A small calibrated trace shared across the module."""
    return generate_cplant_workload(GeneratorConfig(scale=0.03), seed=11)


# -- LiveSimulation ------------------------------------------------------------


def test_step_driven_run_matches_one_shot(trace):
    live = LiveSimulation("easy.fairshare", system_size=trace.system_size,
                          jobs=trace.jobs)
    horizon = max(j.submit_time for j in trace.jobs) * 2
    t, step = 0.0, horizon / 23
    while not live.engine.finished and t < horizon:
        t += step
        live.advance(t)
    run = live.finish()
    batch = api.run(policy="easy.fairshare", workload=trace)
    assert run.result.digest() == batch.digest()
    assert run.result.events_processed == batch.result.events_processed


def test_ingest_waves_match_one_shot(trace):
    live = api.open_session(policy="easy.fairshare",
                            system_size=trace.system_size)
    jobs = sorted(trace.jobs, key=lambda j: (j.submit_time, j.id))
    for i in range(0, len(jobs), 60):
        wave = jobs[i:i + 60]
        live.submit(wave)
        live.advance(wave[-1].submit_time)  # mid-flight stepping
    run = live.finish()
    batch = api.run(policy="easy.fairshare", workload=trace)
    assert run.result.digest() == batch.digest()


def test_snapshot_is_live_and_side_effect_free(trace):
    live = api.open_session(policy="easy.fairshare", workload=trace)
    live.advance(200000.0)
    before = live.engine.events_processed
    snap = live.snapshot()
    assert live.engine.events_processed == before  # snapshots never simulate
    assert snap["jobs_submitted"] == len(trace.jobs)
    assert snap["jobs_completed"] + snap["jobs_running"] + snap["jobs_queued"] \
        == len(trace.jobs)
    assert 0.0 <= snap["utilization_now"] <= 1.0
    done = [j for j in live.engine.jobs if j.state is JobState.COMPLETED]
    assert set(snap["per_user"]) == {str(j.user_id) for j in done}


def test_session_rejects_runtime_limit_policies():
    with pytest.raises(ValueError, match="runtime-limit"):
        LiveSimulation("cons.72max", system_size=64)


def test_ingest_rejects_jobs_behind_the_clock(trace, job_factory):
    live = api.open_session(policy="easy.fairshare", workload=trace)
    live.advance(200000.0)
    late = job_factory(id=999999, submit=100.0)
    with pytest.raises(ValueError, match="before the clock"):
        live.submit([late])


# -- warm what-if --------------------------------------------------------------


def test_whatif_is_warm_and_non_destructive(trace):
    live = api.open_session(policy="cplant24.nomax.all", workload=trace)
    live.advance(150000.0)
    inherited = live.engine.events_processed
    assert inherited > 0
    w = live.whatif({"starvation_threshold": 600.0})
    assert w["events_inherited"] == inherited
    # completed history was inherited, not re-simulated
    assert w["jobs_completed_before_fork"] > 0
    full = api.run(policy="cplant24.nomax.all", workload=trace)
    assert w["baseline"]["events_simulated"] \
        == full.result.events_processed - inherited
    # the unmodified fork lands exactly where the batch run lands ...
    assert w["baseline"]["digest"] == full.digest()
    # ... and the live session is untouched by either fork
    assert live.engine.events_processed == inherited
    assert live.finish().result.digest() == full.digest()


def test_whatif_variant_actually_diverges():
    # a heavier trace where a 10-minute starvation threshold must bite
    wl = generate_cplant_workload(GeneratorConfig(scale=0.05), seed=3)
    live = api.open_session(policy="cplant24.nomax.all", workload=wl)
    live.advance(120000.0)
    w = live.whatif({"starvation_threshold": 600.0})
    assert w["variant"]["digest"] != w["baseline"]["digest"]
    assert w["variant"]["n_jobs"] == w["baseline"]["n_jobs"]


def test_whatif_completed_jobs_keep_their_times(trace):
    live = api.open_session(policy="easy.fairshare", workload=trace)
    live.advance(300000.0)
    done = {j.id: j.end_time for j in live.engine.jobs
            if j.state is JobState.COMPLETED}
    assert done
    fork = live.engine.fork()
    fork.finish()
    for j in fork.jobs:
        if j.id in done:
            assert j.end_time == done[j.id]


def test_whatif_rejects_unknown_overrides(trace):
    live = api.open_session(policy="cplant24.nomax.all", workload=trace)
    with pytest.raises(ValueError, match="rejects scheduler override"):
        live.whatif({"warp_speed": 9})


# -- TenantMux: deterministic merge --------------------------------------------


def stream_through_mux(streams, system_size, schedule):
    """Feed payload streams through a TenantMux following an interleaving
    schedule: a sequence of (tenant, batch_size) picks."""
    live = LiveSimulation("easy.fairshare", system_size=system_size)
    mux = TenantMux(live, max_pending=10_000)
    iters = {}
    for name in streams:
        mux.register(name)
        iters[name] = iter(streams[name])
    for name, batch in schedule:
        if name not in iters:
            continue
        chunk = list(itertools.islice(iters[name], batch))
        if chunk:
            mux.submit(name, chunk)
        else:
            mux.drain(name)
            del iters[name]
        mux.drive()
    for name in list(iters):
        for payload in iters[name]:
            mux.submit(name, [payload])
        mux.drain(name)
    mux.drive()
    return live.finish()


def test_interleavings_converge_to_the_merged_batch_run(trace):
    streams = partition(trace, 4)
    names = sorted(streams)
    round_robin = [(n, 3) for _ in range(400) for n in names]
    lopsided = ([(names[0], 50)] * 10
                + [(n, 7) for _ in range(200) for n in reversed(names)])
    run_a = stream_through_mux(streams, trace.system_size, round_robin)
    run_b = stream_through_mux(streams, trace.system_size, lopsided)
    offline = api.run(policy="easy.fairshare",
                      workload=merged_workload(streams, trace.system_size))
    assert run_a.result.digest() == offline.digest()
    assert run_b.result.digest() == offline.digest()


def test_mux_enforces_nondecreasing_arrivals(trace):
    live = LiveSimulation("easy.fairshare", system_size=64)
    mux = TenantMux(live)
    mux.register("a")
    mux.submit("a", [{"at": 100.0, "nodes": 1, "runtime": 10.0}])
    with pytest.raises(TenantError, match="non-decreasing"):
        mux.submit("a", [{"at": 50.0, "nodes": 1, "runtime": 10.0}])


def test_mux_bounds_the_pending_buffer():
    live = LiveSimulation("easy.fairshare", system_size=64)
    mux = TenantMux(live, max_pending=2)
    mux.register("a")
    with pytest.raises(TenantError, match="buffer overflow"):
        mux.submit("a", [{"at": float(i), "nodes": 1, "runtime": 1.0}
                         for i in range(3)])


def test_mux_rejects_unknown_tenants_and_duplicates():
    live = LiveSimulation("easy.fairshare", system_size=64)
    mux = TenantMux(live)
    with pytest.raises(TenantError, match="hello first"):
        mux.submit("ghost", [{"at": 0.0, "nodes": 1, "runtime": 1.0}])
    mux.register("a")
    with pytest.raises(TenantError, match="already registered"):
        mux.register("a")


def test_mux_holds_jobs_until_the_frontier_covers_them():
    live = LiveSimulation("easy.fairshare", system_size=64)
    mux = TenantMux(live)
    mux.register("fast")
    mux.register("slow")
    mux.submit("fast", [{"at": 1000.0, "nodes": 1, "runtime": 10.0},
                        {"at": 1500.0, "nodes": 1, "runtime": 10.0}])
    assert mux.drive()["admitted"] == 0  # slow's watermark still at 0
    mux.submit("slow", [{"at": 2000.0, "nodes": 1, "runtime": 10.0}])
    # frontier = min(1500, 2000): only the at=1000 job is strictly below it
    assert mux.drive()["admitted"] == 1
    mux.drain("fast")
    mux.drain("slow")
    assert mux.all_drained
    assert mux.drive()["admitted"] == 2  # frontier -> inf flushes the rest


@pytest.mark.parametrize("bad", [
    {"nodes": "two"},
    {"wcl": "soon"},
    {"nodes": 0},
    {"nodes": 65},
], ids=["nodes-str", "wcl-str", "nodes-zero", "wider-than-cluster"])
def test_malformed_payload_rejects_its_batch_and_loses_no_jobs(bad):
    live = LiveSimulation("easy.fairshare", system_size=64)
    mux = TenantMux(live)
    mux.register("a")
    mux.register("b")
    mux.submit("a", [{"at": 10.0, "nodes": 1, "runtime": 5.0},
                     {"at": 20.0, "nodes": 2, "runtime": 5.0}])
    batch = [{"at": 15.0, "nodes": 1, "runtime": 5.0},
             {"at": 30.0, "nodes": 1, "runtime": 5.0, **bad}]
    with pytest.raises(TenantError):
        mux.submit("b", batch)
    assert mux.backlog("b") == 0  # nothing of the bad batch was buffered
    mux.drain("a")
    mux.drain("b")
    assert mux.drive()["admitted"] == 2
    assert [j.submit_time for j in live.engine.jobs] == [10.0, 20.0]
    assert [j.id for j in live.engine.jobs] == [0, 1]


def test_malformed_payloads_are_tenant_errors():
    from repro.service import build_job

    with pytest.raises(TenantError, match="missing required field"):
        build_job(0, {"at": 1.0, "nodes": 2}, user_id=1)
    with pytest.raises(TenantError, match="unknown job field"):
        build_job(0, {"at": 1.0, "nodes": 1, "runtime": 1.0, "color": "red"},
                  user_id=1)
    with pytest.raises(TenantError, match="nodes must be positive"):
        build_job(0, {"at": 1.0, "nodes": 0, "runtime": 1.0}, user_id=1)
    job = build_job(3, {"at": 1.0, "nodes": 1, "runtime": 1.0}, user_id=9)
    assert (job.id, job.user_id, job.wcl) == (3, 9, 1.0)  # wcl defaults to runtime


# -- the TCP server ------------------------------------------------------------


async def _start_server(**kwargs):
    info = {}
    task = asyncio.create_task(
        serve_async(ready=lambda h, p, s: info.update(host=h, port=p, svc=s),
                    **kwargs))
    while not info:
        await asyncio.sleep(0.005)
    return task, info


async def _tenant(host, port, name, jobs, batch=5, yield_every=1):
    async with await ServiceClient.connect(host, port) as c:
        await c.hello(name)
        for i, start in enumerate(range(0, len(jobs), batch)):
            await c.submit(jobs[start:start + batch])
            if i % yield_every == 0:
                await asyncio.sleep(0)
        await c.drain()


async def _run_server_session(streams, system_size, tenant_kwargs=None,
                              max_pending=64):
    task, info = await _start_server(
        policy="easy.fairshare", system_size=system_size,
        max_pending=max_pending)
    h, p = info["host"], info["port"]
    await asyncio.gather(*(
        _tenant(h, p, name, jobs, **(tenant_kwargs or {}).get(name, {}))
        for name, jobs in streams.items()
    ))
    async with await ServiceClient.connect(h, p) as c:
        result = await c.result()
        await c.shutdown()
    await task
    return result


def test_server_is_interleaving_invariant(trace):
    streams = partition(trace, 3)
    names = sorted(streams)
    result_a = asyncio.run(_run_server_session(streams, trace.system_size))
    skew = {names[0]: {"batch": 40}, names[1]: {"batch": 2, "yield_every": 3}}
    result_b = asyncio.run(_run_server_session(
        streams, trace.system_size, tenant_kwargs=skew))
    offline = api.run(policy="easy.fairshare",
                      workload=merged_workload(streams, trace.system_size))
    assert result_a["digest"] == offline.digest()
    assert result_b["digest"] == offline.digest()
    assert result_a["summary"]["n_jobs"] == len(trace.jobs)


def test_server_protocol_errors(trace):
    async def scenario():
        task, info = await _start_server(policy="easy.fairshare",
                                         system_size=64, max_pending=8)
        h, p = info["host"], info["port"]
        async with await ServiceClient.connect(h, p) as c:
            with pytest.raises(ServiceError, match="hello first"):
                await c.submit([{"at": 0.0, "nodes": 1, "runtime": 1.0}])
            await c.hello("a")
            with pytest.raises(ServiceError, match="exceeds max_pending"):
                await c.submit([{"at": float(i), "nodes": 1, "runtime": 1.0}
                                for i in range(9)])
            with pytest.raises(ServiceError, match="still active"):
                await c.result()
            with pytest.raises(ServiceError, match="unknown op"):
                await c.request("dance")
            await c.shutdown()
        await task
    asyncio.run(scenario())


def test_server_metrics_and_whatif_over_the_wire(trace):
    streams = partition(trace, 2)

    async def scenario():
        task, info = await _start_server(policy="cplant24.nomax.all",
                                         system_size=trace.system_size,
                                         max_pending=4096)
        h, p = info["host"], info["port"]
        clients = {}
        for name in sorted(streams):
            c = await ServiceClient.connect(h, p)
            await c.hello(name)
            clients[name] = c
        for name, c in clients.items():
            await c.submit(streams[name])
        snap = await clients[min(clients)].metrics()
        assert snap["jobs_submitted"] > 0
        w = await clients[min(clients)].whatif(
            {"starvation_threshold": 600.0})
        assert w["events_inherited"] == snap["events_processed"]
        assert {"baseline", "variant"} <= set(w)
        for name, c in clients.items():
            await c.drain()
            await c.close()
        async with await ServiceClient.connect(h, p) as c:
            result = await c.result()
            await c.shutdown()
        await task
        return result

    result = asyncio.run(scenario())
    offline = api.run(policy="cplant24.nomax.all",
                      workload=merged_workload(streams, trace.system_size))
    assert result["digest"] == offline.digest()


# -- the acceptance soak -------------------------------------------------------


def test_soak_eight_tenants_byte_identical_per_user_metrics():
    """8 concurrent tenants streaming >= 2k jobs over TCP: the final
    per-user metrics must be byte-identical to an offline batch run of
    the merged trace."""
    wl = generate_cplant_workload(GeneratorConfig(scale=0.16), seed=5)
    assert len(wl.jobs) >= 2000
    streams = partition(wl, 8)
    assert len(streams) == 8

    result = asyncio.run(_run_server_session(
        streams, wl.system_size,
        tenant_kwargs={name: {"batch": 11 + 7 * i}
                       for i, name in enumerate(sorted(streams))},
        max_pending=128,
    ))

    offline_wl = merged_workload(streams, wl.system_size)
    offline = api.run(policy="easy.fairshare", workload=offline_wl)
    ref = LiveSimulation("easy.fairshare", system_size=wl.system_size,
                         jobs=offline_wl.jobs)
    ref_run = ref.finish()
    assert ref_run.result.digest() == offline.digest()

    served = json.dumps(result["per_user"], sort_keys=True)
    batch = json.dumps(ref.per_user_metrics(ref_run.metric_jobs),
                       sort_keys=True)
    assert served == batch  # byte-for-byte
    assert result["digest"] == offline.digest()
    assert result["summary"]["n_jobs"] == len(wl.jobs)
