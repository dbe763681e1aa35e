#!/usr/bin/env python
"""CI smoke for the scheduler service (the `service-smoke` job).

End to end, against a real server process:

1. launch ``repro serve`` on an ephemeral port and parse the announced
   address from stdout;
2. stream a calibrated trace through three concurrent tenants, polling
   live metrics mid-flight: every payload's job counts must add up
   (completed + running + queued = submitted) and its per-user ``n_jobs``
   must sum to ``jobs_completed``;
3. ask a warm what-if while a tenant is still streaming and the engine
   has work left: its baseline fork must simulate forward and complete
   more jobs than the live run had; ask another after every tenant has
   drained and check it inherited completed history;
4. drain everyone, fetch the final result, and verify the digest and
   per-user metrics are byte-identical to an offline batch run of the
   merged trace; the live snapshot taken after the result must carry the
   same per-user bytes (the session's incremental records against the
   batch records rebuilt from every job);
5. shut the server down cleanly and require exit status 0.

Usage::

    python tools/service_smoke.py           # from the repository root
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.service import ServiceClient, merged_workload  # noqa: E402
from repro.workload.generator import (  # noqa: E402
    GeneratorConfig,
    generate_cplant_workload,
)

POLICY = "easy.fairshare"
SCALE, SEED, TENANTS = 0.02, 4, 3
STARTUP_TIMEOUT = 30.0
WHATIF = {"decay_factor": 0.5}


def start_server(system_size: int) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--policy", POLICY, "--system-size", str(system_size),
         "--max-pending", "64"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    lines: queue.Queue[str] = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(ln) for ln in proc.stdout],  # type: ignore[union-attr]
        daemon=True,
    ).start()
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=0.5)
        except queue.Empty:
            if proc.poll() is not None:
                raise SystemExit(f"server died during startup (rc={proc.returncode})")
            continue
        print(line, end="")
        if "[repro-serve] listening on " in line:
            addr = line.split("listening on ", 1)[1].split()[0]
            host, port = addr.rsplit(":", 1)
            return proc, host, int(port)
    proc.kill()
    raise SystemExit("server did not announce a port in time")


async def tenant(host: str, port: int, name: str, jobs: list) -> None:
    async with await ServiceClient.connect(host, port) as c:
        await c.hello(name)
        for i in range(0, len(jobs), 7):
            await c.submit(jobs[i:i + 7])
            await asyncio.sleep(0)
        await c.drain()


def check_counts(snap: dict) -> None:
    """A metrics payload's job counts and per-user records agree."""
    assert (snap["jobs_completed"] + snap["jobs_running"]
            + snap["jobs_queued"]) == snap["jobs_submitted"], \
        f"job counts do not add up at t={snap['now']}"
    assert sum(u["n_jobs"] for u in snap["per_user"].values()) \
        == snap["jobs_completed"], \
        f"per-user n_jobs do not sum to jobs_completed at t={snap['now']}"


async def whatif_with_work_left(ctl: ServiceClient, snap: dict) -> dict | None:
    """Ask a what-if after ``snap``, a poll that showed work left.

    Tenants keep streaming between the two calls, so the fork may start
    later than ``snap`` and, rarely, after that work has drained; then
    ``None`` asks the caller to try again at a later poll.
    """
    whatif = await ctl.whatif(WHATIF)
    assert whatif["events_inherited"] >= snap["events_processed"], \
        "mid-flight what-if forked from an earlier state than its poll"
    base = whatif["baseline"]
    if base["events_simulated"] == 0:
        return None
    assert base["n_jobs"] > whatif["jobs_completed_before_fork"], \
        "mid-flight baseline fork simulated events but completed no job"
    return whatif


async def drive(host: str, port: int, streams: dict) -> dict:
    # tenants stream concurrently while a control connection watches
    feeders = [asyncio.create_task(tenant(host, port, n, j))
               for n, j in streams.items()]
    async with await ServiceClient.connect(host, port) as ctl:
        polls = 0
        mid = None
        while not all(f.done() for f in feeders):
            snap = await ctl.metrics()
            check_counts(snap)
            polls += 1
            if mid is None and snap["jobs_running"] + snap["jobs_queued"]:
                mid = await whatif_with_work_left(ctl, snap)
            await asyncio.sleep(0.005)
        await asyncio.gather(*feeders)
        assert mid is not None, \
            "no mid-flight what-if found work left to simulate"
        print(f"[smoke] mid-flight what-if at t={mid['forked_at']:.0f}: "
              f"baseline simulated {mid['baseline']['events_simulated']} "
              f"events forward, completing "
              f"{mid['baseline']['n_jobs'] - mid['jobs_completed_before_fork']}"
              f" more jobs")
        snap = await ctl.metrics()
        check_counts(snap)
        print(f"[smoke] {polls} metric polls; engine at t={snap['now']:.0f}, "
              f"{snap['jobs_completed']} completed")
        assert snap["jobs_submitted"] == sum(map(len, streams.values()))

        whatif = await ctl.whatif(WHATIF)
        assert whatif["events_inherited"] == snap["events_processed"], \
            "what-if did not start from warm state"
        assert whatif["baseline"]["events_simulated"] >= 0
        print(f"[smoke] what-if inherited {whatif['events_inherited']} events, "
              f"simulated {whatif['variant']['events_simulated']} forward")

        result = await ctl.result()
        final = await ctl.metrics()
        check_counts(final)
        assert final["jobs_completed"] == snap["jobs_submitted"]
        assert json.dumps(final["per_user"], sort_keys=True) \
            == json.dumps(result["per_user"], sort_keys=True), \
            "live per-user records differ from the result's"
        await ctl.shutdown()
        return result


def main() -> int:
    wl = generate_cplant_workload(GeneratorConfig(scale=SCALE), seed=SEED)
    streams: dict = {}
    for j in wl.jobs:
        streams.setdefault(f"tenant-{j.user_id % TENANTS}", []).append(
            {"at": j.submit_time, "nodes": j.nodes, "runtime": j.runtime,
             "wcl": j.wcl, "user": j.user_id})
    print(f"[smoke] {len(wl.jobs)} jobs across {len(streams)} tenants")

    proc, host, port = start_server(wl.system_size)
    try:
        result = asyncio.run(drive(host, port, streams))
        rc = proc.wait(timeout=STARTUP_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
    if rc != 0:
        print(f"[smoke] FAIL: server exited with {rc}", file=sys.stderr)
        return 1

    offline = api.run(policy=POLICY,
                      workload=merged_workload(streams, wl.system_size))
    live = api.open_session(policy=POLICY,
                            workload=merged_workload(streams, wl.system_size))
    ref = live.finish()
    if result["digest"] != offline.digest():
        print("[smoke] FAIL: served digest != offline batch digest",
              file=sys.stderr)
        return 1
    served = json.dumps(result["per_user"], sort_keys=True)
    batch = json.dumps(live.per_user_metrics(ref.metric_jobs), sort_keys=True)
    if served != batch:
        print("[smoke] FAIL: per-user metrics differ from the batch run",
              file=sys.stderr)
        return 1
    print(f"[smoke] OK: digest {result['digest'][:12]}... matches offline, "
          f"per-user metrics byte-identical, clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
