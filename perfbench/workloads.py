"""The three benchmark workloads, driven through ``repro.api`` and a real
``repro serve`` process.

Each workload returns an :class:`Outcome`: its raw end-to-end figures
(from untraced passes; ``run.py`` scales the CPU times to the nominal
host speed), its per-layer metrics (traced runs only), how many
operations and checks it attempted, and which of them failed.  Work is
timed in CPU seconds (see ``calib.py`` for why), and every unit of work
is preceded by reference slices that calibrate the run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import calib
import tracing
from calib import cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: trace scale of policy-sweep: the smallest at which the five slow
#: policies take at least half of the sweep (52% at generator seed 7);
#: 0.5 gives 60% but the sweep then takes 1.6x as long
SCALE = 0.45
#: trace scale of paper-build: its 17 cells run one after another, so it
#: gets a smaller trace than the sweep to keep a run near 25 s
BUILD_SCALE = 0.3
#: service-stream streams the full 13,236-job trace
SERVICE_SCALE = 1.0
SERVICE_POLICY = "easy.fairshare"
#: paper-build worker processes: the ``repro paper build`` default (cells
#: run inline).  With 2 workers on a shared 2-vCPU host the cold build
#: spread 15-30% between runs, against 2% inline.
BUILD_JOBS = 1
#: jobs per submit: 13,236 jobs make >= 3,000 closed-loop submits
BATCH = 4
#: tenant 0 takes a snapshot every SNAPSHOT_EVERY of its submits (>= 200)
SNAPSHOT_EVERY = 7
#: what-if queries per stream, spread evenly over tenant 0's submits
WHATIFS = 4
WHATIF_OVERRIDES = {"decay_factor": 0.5}
#: warm rebuilds after each cold build; op_p50_ms is their median
WARM_REBUILDS = 9
SERVER_TIMEOUT = 60.0

#: the counters the traced run reports (names from repro.obs.counters)
COUNTS = (
    "engine.events", "engine.schedule_pass", "profile.earliest_fit",
    "profile.from_occupations", "cons.rebuild", "cons.compress",
    "cons.compress_skipped", "listsched.place", "listsched.rebuild",
    "sched.order_sort", "sched.order_cache_hit", "fairshare.settle",
    "fsp.settle", "rr.rotate", "sched.backfill_start",
)

clock = time.perf_counter


@dataclass
class Context:
    seed: int
    gen_seed: int
    seconds: float
    trace: bool
    work: Path
    scale: Optional[float] = None
    cal: calib.Calibration = field(default_factory=calib.Calibration)

    def trace_scale(self, default: float) -> float:
        return self.scale if self.scale is not None else default


@dataclass
class Outcome:
    #: ``cpu_s`` and ``op_ms`` (CPU time at the nominal host speed),
    #: ``peak_rss_mb``, and the unit's unscaled ``raw_cpu_s`` and ``wall_s``
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: everything a traced run writes to its trace file
    trace_doc: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def peak_rss_mb(*who: int) -> float:
    """Largest peak RSS among ``who`` (``resource.RUSAGE_SELF``: this
    process; ``RUSAGE_CHILDREN``: the largest child waited for)."""
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def repeat(unit: Callable[[], object], seconds: float) -> List[object]:
    """Run ``unit`` at least once, and again while the next run is
    expected to end within ``seconds`` of the first start."""
    out, t0 = [], clock()
    while True:
        t = clock()
        out.append(unit())
        if clock() - t0 + (clock() - t) > seconds:
            return out


def load_digests() -> Dict[str, object]:
    return json.loads((HERE / "digests.json").read_text())


def layer_self(tracer: tracing.Tracer, policies) -> Dict[str, float]:
    """The span-derived per-layer metrics shared by every workload."""
    out: Dict[str, float] = {}
    for p in policies:
        out[f"sched.self_s.{p}"] = tracer.self_s(tracing.SCHED, p)
        out[f"metrics.fairness.self_s.{p}"] = tracer.self_s(tracing.FAIRNESS, p)
    out["core.engine.self_s"] = tracer.self_s(tracing.ENGINE)
    out["metrics.loc.self_s"] = tracer.self_s(tracing.LOC)
    out["experiments.runner.derive_s"] = tracer.total_s(tracing.DERIVE)
    out["workload.transforms.split_s"] = tracer.total_s(tracing.SPLIT)
    covered = [
        sum(tracer.self_s(layer, p) for layer in tracing.CELL_LAYERS)
        / tracer.total_s(tracing.CELL, p)
        for p in tracer.labels() if tracer.total_s(tracing.CELL, p) > 0
    ]
    out["trace.coverage"] = min(covered) if covered else 0.0
    return out


def layer_split(tracer: tracing.Tracer) -> Dict[str, Dict[str, float]]:
    """Per policy cell: each layer's share of the cell's wall time."""
    out = {}
    for p in tracer.labels():
        wall = tracer.total_s(tracing.CELL, p)
        if wall > 0:
            out[p] = {layer: round(tracer.self_s(layer, p) / wall, 4)
                      for layer in tracing.CELL_LAYERS}
    return out


def count_layers(counts: Dict[str, int]) -> Dict[str, float]:
    return {f"count.{name}": counts.get(name, 0) for name in COUNTS}


# -- policy-sweep ---------------------------------------------------------------


def policy_sweep(ctx: Context) -> Outcome:
    """Every registered policy, serially through ``api.run``, on one trace.

    The seed shuffles the order the policies run in; the trace itself is
    fixed by the generator seed (see README.md for why).
    """
    from repro import api
    from repro.workload.generator import GeneratorConfig, generate_cplant_workload

    scale = ctx.trace_scale(SCALE)
    wl = generate_cplant_workload(GeneratorConfig(scale=scale), seed=ctx.gen_seed)
    policies = list(api.list_policies())
    random.Random(ctx.seed).shuffle(policies)
    out = Outcome()

    def sweep() -> Tuple[float, Dict[str, float], Dict[str, str], float,
                         Dict[str, float]]:
        """Returns the sweep's CPU seconds, each policy's, the digests,
        the sweep's wall seconds and each policy's scaled CPU seconds."""
        times: Dict[str, float] = {}
        scaled: Dict[str, float] = {}
        digests: Dict[str, str] = {}
        t0 = clock()
        for p in policies:
            gc.collect()  # no policy pays for garbage an earlier one left
            t, w = cpu(), clock()
            try:
                digests[p] = api.run(policy=p, workload=wl).digest()
            except Exception as exc:  # a cell that raises is a failed op
                out.failures.append(f"{p}: {exc!r}")
            times[p], w1 = cpu() - t, clock()
            ctx.cal.tick(at_least=1)
            scaled[p] = ctx.cal.scaled(times[p], w, w1)
        return sum(times.values()), times, digests, clock() - t0, scaled

    runs = [sweep()] if ctx.trace else repeat(sweep, ctx.seconds)
    out.attempted += len(policies) * len(runs)
    cpus = [r[0] for r in runs]
    times, digests = runs[0][1], runs[0][2]
    for _cpu, _times, again, _wall, _scaled in runs[1:]:
        out.check(again == digests, "sweep digests changed between repetitions")

    recorded = load_digests()
    ref = recorded["sweep"].get(str(ctx.gen_seed))
    if ref is not None and scale == recorded["scale"]:
        for p in policies:
            if p in ref:
                out.check(digests.get(p) == ref[p],
                          f"{p}: digest differs from the recorded digest")
            else:
                print(f"perfbench: no recorded digest for new policy {p}",
                      file=sys.stderr)

    out.e2e = {
        "cpu_s": statistics.median(sum(r[4].values()) for r in runs),
        # the mean policy run: a median over policies of unequal length
        # sits on whichever policy is in the middle, and its single slice
        "op_ms": ms(statistics.median(
            statistics.fmean(r[4].values()) for r in runs)),
        "raw_cpu_s": statistics.median(cpus),
        "wall_s": statistics.median(r[3] for r in runs),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    out.trace_doc["digests"] = digests
    if not ctx.trace:
        return out

    tracer = tracing.Tracer()
    with tracing.traced(tracer) as counts:
        t_cpu, _t_times, t_digests, _t_wall, _t_scaled = sweep()
    out.attempted += len(policies)
    out.check(t_digests == digests, "traced sweep digests differ from untraced")
    out.layers = {
        **{f"sweep.cell_s.{p}": times[p] for p in policies},
        "sweep_slowest_s": max(times.values()),
        **layer_self(tracer, policies),
        **count_layers(counts.as_dict()),
        "trace.overhead_s": t_cpu - cpus[0],
    }
    out.trace_doc.update(spans=tracer.dump(), counts=counts.as_dict(),
                         split=layer_split(tracer))
    return out


# -- paper-build ----------------------------------------------------------------


@dataclass
class Build:
    #: CPU seconds of the cold build and of each warm rebuild, unscaled
    #: and scaled
    cold_s: float
    warm_s: List[float]
    cold_scaled_s: float
    warm_scaled_s: List[float]
    cold_wall_s: float
    cold: object
    warm: List[object]
    cells: list
    cell_digests: Dict[str, str]
    manifest: bytes


def _build(ctx: Context, tag: str, cfg, out: Outcome) -> Build:
    from repro import api
    from repro.artifacts import build as art_build
    from repro.campaign.cache import CampaignCache, metrics_digest

    cells: list = []
    run_cells = art_build.run_cells

    def capture(*args, **kwargs):
        res = run_cells(*args, **kwargs)
        cells.extend(res)
        return res

    def tick(*_cell) -> None:  # the build's progress hook, once per cell
        ctx.cal.tick()

    def timed(build) -> Tuple[object, float, float, float]:
        """A build; its CPU seconds, less the slices its hook took; those
        scaled; and its wall seconds."""
        t, w, spent = cpu(), clock(), ctx.cal.spent
        res = build()
        dt, w1 = cpu() - t - (ctx.cal.spent - spent), clock()
        ctx.cal.tick(at_least=1)
        return res, dt, ctx.cal.scaled(dt, w, w1), w1 - w

    base = ctx.work / f"build-{tag}"
    shutil.rmtree(base, ignore_errors=True)
    cache = CampaignCache(base / "cache")
    art_build.run_cells = capture
    try:
        cold, cold_s, cold_scaled_s, cold_wall_s = timed(
            lambda: api.build_artifacts(
                config=cfg, out_dir=base / "cold", jobs=BUILD_JOBS,
                cache=cache, progress=tick))
        warm, warm_s, warm_scaled_s = [], [], []
        for i in range(WARM_REBUILDS):
            res, dt, scaled, _wall = timed(lambda: api.build_artifacts(
                config=cfg, out_dir=base / f"warm{i}", jobs=BUILD_JOBS,
                cache=cache, progress=tick))
            warm.append(res)
            warm_s.append(dt)
            warm_scaled_s.append(scaled)
    finally:
        art_build.run_cells = run_cells
    out.attempted += len(cold.plan.cells) * (1 + WARM_REBUILDS)
    manifest = cold.manifest_path.read_bytes()
    for w in warm:
        out.check(w.n_simulated == 0,
                  f"warm build simulated {w.n_simulated} cells")
        out.check(w.manifest_path.read_bytes() == manifest,
                  "warm manifest differs from the cold manifest")
    for phase in ("cold", "warm0"):
        problems = art_build.verify_outputs(base / phase)
        out.check(not problems, f"{phase} build: {problems[:3]}")
    cell_digests = {r.key: metrics_digest(r.metrics)
                    for r in cells if not r.cached}
    return Build(cold_s, warm_s, cold_scaled_s, warm_scaled_s, cold_wall_s,
                 cold, warm, cells, cell_digests, manifest)


def paper_build(ctx: Context) -> Outcome:
    """``api.build_artifacts`` of every artifact, cold then warm.

    The build is fully determined by the generator seed; the run seed
    does not change it.
    """
    from repro.artifacts.build import PaperConfig

    cfg = PaperConfig(scale=ctx.trace_scale(BUILD_SCALE), seed=ctx.gen_seed)
    out = Outcome()
    n = [0]

    def unit() -> Build:
        n[0] += 1
        return _build(ctx, f"u{n[0]}", cfg, out)

    builds = [unit()] if ctx.trace else repeat(unit, ctx.seconds)
    first = builds[0]
    for b in builds[1:]:
        out.check(b.manifest == first.manifest,
                  "cold manifest changed between repetitions")
    out.e2e = {
        "cpu_s": statistics.median(b.cold_scaled_s for b in builds),
        "op_ms": ms(statistics.median(
            t for b in builds for t in b.warm_scaled_s)),
        "raw_cpu_s": statistics.median(b.cold_s for b in builds),
        "wall_s": statistics.median(b.cold_wall_s for b in builds),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    out.trace_doc["digests"] = first.cell_digests
    if not ctx.trace:
        return out

    tracer = tracing.Tracer()
    with tracing.traced(tracer) as counts:
        tb = _build(ctx, "traced", cfg, out)
    counts = counts.as_dict()
    out.check(tb.manifest == first.manifest,
              "traced cold manifest differs from untraced")
    out.check(tb.cell_digests == first.cell_digests,
              "traced cell records differ from untraced")

    from repro import api

    stats = first.cold.stats
    matrix = set(first.cold.plan.cell_keys.get("matrix", {}).values())
    ran = [r for r in first.cells if not r.cached]
    cache_stats = [b.stats.cache for b in (tb.cold, *tb.warm)]
    out.layers = {
        **layer_self(tracer, list(api.list_policies())),
        **count_layers(counts),
        "campaign.cell_p50_s": stats.cell_seconds["p50"],
        "campaign.cell_max_s": stats.cell_seconds["max"],
        "campaign.utilization": stats.pool_utilization or 0.0,
        "campaign.matrix_cells_s": sum(r.elapsed for r in ran if r.key in matrix),
        "campaign.paper_cells_s": sum(r.elapsed for r in ran
                                      if r.key not in matrix),
        "campaign.cache.get_s": tracer.total_s(tracing.CACHE_GET),
        "campaign.cache.put_s": tracer.total_s(tracing.CACHE_PUT),
        "campaign.cache.hits": sum(s.hits for s in cache_stats),
        "campaign.cache.misses": sum(s.misses for s in cache_stats),
        "artifacts.plan_s": tracer.total_s(tracing.PLAN),
        "artifacts.render_s": tracer.total_s(tracing.RENDER),
        "artifacts.manifest_s": tracer.total_s(tracing.MANIFEST),
        "artifacts.workload_s": tracer.total_s(tracing.WORKLOAD),
        "trace.overhead_s": (tb.cold_s + sum(tb.warm_s))
        - (first.cold_s + sum(first.warm_s)),
    }
    out.trace_doc.update(spans=tracer.dump(), counts=counts,
                         split=layer_split(tracer))
    return out


# -- service-stream -------------------------------------------------------------


class Server:
    """One scheduler server process, started and read until it listens."""

    def __init__(self, cmd: List[str]) -> None:
        t0 = clock()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(ln) for ln in self.proc.stdout],
            daemon=True,
        )
        self._reader.start()
        deadline = t0 + SERVER_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server did not announce its port") from None
            if "listening on " in line:
                break
            if self.proc.poll() is not None and lines.empty():
                raise RuntimeError(f"server exited during start: {line!r}")
        host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def shutdown(self) -> int:
        """Ask the server to stop; returns its exit status."""
        from repro.service import ServiceClient

        async def bye() -> None:
            async with await ServiceClient.connect(self.host, self.port) as c:
                await c.shutdown()

        try:
            asyncio.run(bye())
        except OSError:  # already gone: stop() reaps it
            pass
        return self.stop()

    def stop(self) -> int:
        try:
            rc = self.proc.wait(timeout=SERVER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self._reader.join(timeout=SERVER_TIMEOUT)
        return rc


def serve_cmd(system_size: int, trace_out: Optional[Path] = None) -> List[str]:
    if trace_out is None:
        return [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--policy", SERVICE_POLICY, "--system-size", str(system_size)]
    return [sys.executable, str(HERE / "serve_traced.py"), str(SRC),
            str(trace_out), SERVICE_POLICY, str(system_size)]


@dataclass
class Stream:
    wall_s: float = 0.0
    #: CPU seconds of the client during the stream plus the server from
    #: start to exit, unscaled and scaled
    cpu_s: float = 0.0
    scaled_s: float = 0.0
    jobs: int = 0
    accepted: int = 0
    requests: int = 0
    submit: List[float] = field(default_factory=list)
    snapshot: List[float] = field(default_factory=list)
    whatif: List[float] = field(default_factory=list)
    #: client-observed round trip of every request
    rtt_total: float = 0.0
    snapshot_jobs: int = 0
    result: Dict[str, object] = field(default_factory=dict)


async def _stream(host: str, port: int, tenants: Dict[str, list],
                  snapshot_phase: int, whatif_at: set,
                  cal: calib.Calibration) -> Stream:
    from repro.service import ServiceClient

    st = Stream(jobs=sum(map(len, tenants.values())))
    clients = {name: await ServiceClient.connect(host, port) for name in tenants}

    async def call(client, op: str, sink: Optional[list] = None, **fields):
        t = clock()
        resp = await client.request(op, **fields)
        dt = clock() - t
        st.requests += 1
        st.rtt_total += dt
        if sink is not None:
            sink.append(dt)
        return resp

    async def feed(name: str, jobs: list, lead: bool) -> None:
        c = clients[name]
        for i in range(0, len(jobs), BATCH):
            resp = await call(c, "submit", st.submit, jobs=jobs[i:i + BATCH])
            st.accepted += resp["accepted"]
            cal.tick()
            k = i // BATCH
            if lead and k % SNAPSHOT_EVERY == snapshot_phase:
                snap = await call(c, "metrics", st.snapshot)
                st.snapshot_jobs = snap["jobs_completed"]
            if lead and k in whatif_at:
                await call(c, "whatif", st.whatif, overrides=WHATIF_OVERRIDES)
        await call(c, "drain")

    try:
        for name, c in clients.items():
            await call(c, "hello", tenant=name)
        t0 = clock()
        await asyncio.gather(*(feed(name, jobs, lead=(i == 0))
                               for i, (name, jobs) in enumerate(tenants.items())))
        st.wall_s = clock() - t0
        st.result = await call(clients[next(iter(tenants))], "result")
    finally:
        for c in clients.values():
            await c.close()
    return st


def _run_stream(system_size: int, tenants, phase, whatif_at,
                cal: calib.Calibration,
                trace_out: Optional[Path] = None) -> Tuple[Stream, int]:
    server_cpu, w = calib.children_cpu(), clock()  # the server is the only child
    server = Server(serve_cmd(system_size, trace_out))
    try:
        t, spent = cpu(), cal.spent
        st = asyncio.run(_stream(server.host, server.port, tenants, phase,
                                 whatif_at, cal))
        st.cpu_s = cpu() - t - (cal.spent - spent)
    finally:
        rc = server.shutdown()
    st.cpu_s += calib.children_cpu() - server_cpu
    w1 = clock()
    cal.tick(at_least=1)
    st.scaled_s = cal.scaled(st.cpu_s, w, w1)
    return st, rc


def service_stream(ctx: Context) -> Outcome:
    """The full trace streamed by two closed-loop tenants into ``repro
    serve``, with live snapshots and what-if queries from tenant 0.

    The seed sets the snapshot phase and jitters the what-if positions.
    """
    from repro import api
    from repro.obs.stats import percentile
    from repro.service import merged_workload
    from repro.workload.generator import GeneratorConfig, generate_cplant_workload

    wl = generate_cplant_workload(
        GeneratorConfig(scale=ctx.trace_scale(SERVICE_SCALE)), seed=ctx.gen_seed)
    tenants: Dict[str, list] = {"tenant-0": [], "tenant-1": []}
    for j in sorted(wl.jobs, key=lambda j: (j.submit_time, j.id)):
        tenants[f"tenant-{j.user_id % 2}"].append(
            {"at": j.submit_time, "nodes": j.nodes, "runtime": j.runtime,
             "wcl": j.wcl, "user": j.user_id})
    rng = random.Random(ctx.seed)
    phase = rng.randrange(SNAPSHOT_EVERY)
    lead_batches = -(-len(tenants["tenant-0"]) // BATCH)
    jitter = max(1, lead_batches // 100)
    whatif_at = {
        max(0, min(lead_batches - 1,
                   lead_batches * (i + 1) // (WHATIFS + 1)
                   + rng.randint(-jitter, jitter)))
        for i in range(WHATIFS)
    }

    out = Outcome()
    merged = merged_workload(tenants, wl.system_size)
    offline = api.run(policy=SERVICE_POLICY, workload=merged)
    session = api.open_session(policy=SERVICE_POLICY, workload=merged)
    per_user = json.dumps(session.per_user_metrics(session.finish().metric_jobs),
                          sort_keys=True)
    recorded = load_digests()["service"].get(str(ctx.gen_seed))
    if recorded is not None and ctx.scale is None:
        out.check(offline.digest() == recorded,
                  "offline service digest differs from the recorded digest")

    def verify(st: Stream, rc: int, label: str) -> None:
        out.attempted += st.requests
        out.check(rc == 0, f"{label}: server exited with {rc}")
        out.check(st.accepted == st.jobs,
                  f"{label}: {st.accepted} of {st.jobs} jobs accepted")
        out.check(st.result.get("digest") == offline.digest(),
                  f"{label}: served digest differs from offline api.run")
        out.check(json.dumps(st.result.get("per_user"), sort_keys=True)
                  == per_user,
                  f"{label}: served per-user payload differs from offline")

    def unit() -> Stream:
        st, rc = _run_stream(wl.system_size, tenants, phase, whatif_at,
                             ctx.cal)
        verify(st, rc, "stream")
        return st

    streams = [unit()] if ctx.trace else repeat(unit, ctx.seconds)
    out.e2e = {
        "cpu_s": statistics.median(st.scaled_s for st in streams),
        # the server's CPU per request cannot be told apart from outside
        # it, so an operation costs its stream's share
        "op_ms": ms(statistics.median(st.scaled_s / st.requests
                                      for st in streams)),
        "raw_cpu_s": statistics.median(st.cpu_s for st in streams),
        "wall_s": statistics.median(st.wall_s for st in streams),
        # the server (set-up probes, the only other children, are smaller)
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    out.trace_doc["digests"] = {"served": streams[0].result.get("digest")}
    if not ctx.trace:
        return out

    trace_out = ctx.work / "server-trace.json"
    tst, rc = _run_stream(wl.system_size, tenants, phase, whatif_at, ctx.cal,
                          trace_out)
    verify(tst, rc, "traced stream")
    doc = json.loads(trace_out.read_text())
    tracer = tracing.Tracer()
    tracer.merge(doc["tracer"])
    first = streams[0]
    snaps = [ms(t) for t in first.snapshot]
    fork_s = tracer.total_s(tracing.FORK)
    out.layers = {
        **layer_self(tracer, list(api.list_policies())),
        **count_layers(doc["counts"]),
        "service.tenancy.drive_s": tracer.self_s(tracing.DRIVE),
        "service.session.advance_s": tracer.total_s(tracing.ADVANCE),
        "service.session.snapshot_s": tracer.total_s(tracing.SNAPSHOT),
        "service.session.snapshot_jobs": tst.snapshot_jobs,
        "service.session.whatif_fork_s": fork_s,
        "service.session.whatif_drain_s": tracer.total_s(tracing.WHATIF) - fork_s,
        "service.server.other_s": tst.rtt_total - tracer.root_s,
        "submit_p99_ms": ms(percentile(first.submit, 99)),
        "snapshot_p50_ms": statistics.median(snaps),
        "snapshot_p95_ms": percentile(snaps, 95),
        "whatif_p50_ms": ms(statistics.median(first.whatif)),
        "trace.overhead_s": tst.cpu_s - first.cpu_s,
    }
    out.trace_doc.update(spans=tracer.dump(), counts=doc["counts"])
    return out


WORKLOADS = {
    "policy-sweep": policy_sweep,
    "paper-build": paper_build,
    "service-stream": service_stream,
}

#: set-up samples per run; ``setup_s`` is their median
SETUP_SAMPLES = 5

#: per workload: the modules it imports and its default trace scale
_SETUP = {
    "policy-sweep": (("repro.api",), SCALE),
    "paper-build": (("repro.api", "repro.artifacts"), BUILD_SCALE),
    "service-stream": (("repro.api", "repro.service"), SERVICE_SCALE),
}


def setup_s(ctx: Context, workload: str) -> Tuple[float, float]:
    """Median CPU seconds to get ready, scaled and unscaled, sampled in
    fresh processes: import what the workload uses and generate its trace;
    for service-stream, then run a server from start to a shutdown as soon
    as it listens."""
    modules, scale = _SETUP[workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before, w = calib.children_cpu(), clock()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC),
             str(ctx.trace_scale(scale)), str(ctx.gen_seed), *modules],
            check=True,
        )
        if workload == "service-stream":
            from repro.workload.cplant import SYSTEM_SIZE

            Server(serve_cmd(SYSTEM_SIZE)).shutdown()
        dt, w1 = calib.children_cpu() - before, clock()
        ctx.cal.tick(at_least=1)
        samples.append((ctx.cal.scaled(dt, w, w1), dt))
    return (statistics.median(s for s, _ in samples),
            statistics.median(r for _, r in samples))
