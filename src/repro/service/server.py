"""The multi-tenant scheduler server: line-JSON over TCP.

One :class:`SchedulerService` owns one :class:`LiveSimulation` and one
:class:`TenantMux`; any number of tenants connect concurrently and stream
job submissions.  Every request is a single JSON object on its own line;
every response is ``{"ok": true, ...}`` or
``{"ok": false, "error": {"code", "message"}}``.  The protocol (and the
determinism contract behind it) is documented in docs/SERVICE.md.

Backpressure: each tenant has a bounded pending buffer; a ``submit`` that
would overflow it *waits* (the response is withheld, which stalls a
well-behaved client and ultimately the TCP window) until the merge
frontier advances and the buffer drains into the engine.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Mapping, Optional, Union

from ..experiments.runner import RunOptions
from .session import LiveSimulation
from .tenancy import TenantError, TenantMux

#: ops a connection may send before (or without) identifying as a tenant
_ANONYMOUS_OPS = frozenset({"hello", "status", "metrics", "whatif", "result", "shutdown"})


def _jsonable(obj):
    """json.dumps default hook: numpy scalars -> Python numbers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


class SchedulerService:
    """One live simulation shared by every connected tenant."""

    def __init__(
        self,
        policy: str = "easy.fairshare",
        system_size: int = 1024,
        options: Union[RunOptions, Mapping[str, object], None] = None,
        max_pending: int = 512,
    ) -> None:
        opts = (
            options
            if isinstance(options, RunOptions)
            else RunOptions.from_mapping(options)
        )
        self.live = LiveSimulation(policy, system_size=system_size, options=opts)
        self.mux = TenantMux(self.live, max_pending=max_pending)
        self._room = asyncio.Condition()
        self._stop = asyncio.Event()
        self._final: Optional[Dict[str, object]] = None

    # -- driving -----------------------------------------------------------------

    async def _drive(self) -> Dict[str, int]:
        """Admit + advance under the condition lock, then wake any
        submitter waiting for buffer room."""
        async with self._room:
            progress = self.mux.drive()
            self._room.notify_all()
        return progress

    def final_report(self) -> Dict[str, object]:
        """Seal the run and render the final metric payload (memoized).

        ``per_user`` is rendered by the same projection the live snapshot
        uses, so it is byte-comparable against an offline batch run of the
        merged trace.
        """
        if self._final is None:
            self.mux.drive()
            run = self.live.finish()
            s, f = run.summary, run.fairness
            self._final = {
                "policy": run.policy,
                "digest": run.result.digest(),
                "events_processed": run.result.events_processed,
                "summary": s.as_dict(),
                "fairness": {
                    "percent_unfair": f.percent_unfair,
                    "avg_miss_time": f.average_miss_time,
                },
                "per_user": self.live.per_user_metrics(run.metric_jobs),
            }
        return self._final

    # -- protocol ----------------------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """One tenant connection: read request lines until EOF/shutdown."""
        tenant: Optional[str] = None
        try:
            while not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    resp, tenant = await self._dispatch(line, tenant)
                except TenantError as exc:
                    resp = _error("tenant-protocol", str(exc))
                except (ValueError, KeyError) as exc:
                    resp = _error("bad-request", str(exc))
                writer.write(json.dumps(resp, default=_jsonable).encode() + b"\n")
                await writer.drain()
                if resp.get("bye"):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(self, line: bytes, tenant: Optional[str]):
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            return _error("bad-json", str(exc)), tenant
        if not isinstance(msg, dict) or "op" not in msg:
            return _error("bad-request", "each line must be a JSON object with an 'op'"), tenant
        op = msg["op"]
        if tenant is None and op not in _ANONYMOUS_OPS:
            return _error("tenant-protocol", f"op {op!r} requires a hello first"), tenant

        if op == "hello":
            name = str(msg.get("tenant", ""))
            self.mux.register(name, user_id=msg.get("user"))
            return {"ok": True, "tenant": name,
                    "user": self.mux.tenants[name].user_id,
                    "max_pending": self.mux.max_pending}, name

        if op == "submit":
            jobs = msg.get("jobs")
            if not isinstance(jobs, list) or not jobs:
                return _error("bad-request", "submit needs a non-empty 'jobs' list"), tenant
            if len(jobs) > self.mux.max_pending:
                return _error(
                    "bad-request",
                    f"batch of {len(jobs)} exceeds max_pending={self.mux.max_pending}",
                ), tenant
            # backpressure: hold the response until the buffer has room
            async with self._room:
                await self._room.wait_for(
                    lambda: self.mux.has_room(tenant, len(jobs))
                    or self._stop.is_set()
                )
                if self._stop.is_set():
                    return {"ok": True, "accepted": 0, "bye": True}, tenant
                accepted = self.mux.submit(tenant, jobs)
            progress = await self._drive()
            return {"ok": True, "accepted": accepted,
                    "pending": self.mux.backlog(tenant),
                    "now": self.live.now, **progress}, tenant

        if op == "drain":
            self.mux.drain(tenant)
            progress = await self._drive()
            return {"ok": True, "drained": tenant, **progress}, tenant

        if op == "status":
            return {"ok": True, **self.mux.status()}, tenant

        if op == "metrics":
            return {"ok": True, **self.live.snapshot()}, tenant

        if op == "whatif":
            overrides = msg.get("overrides")
            if not isinstance(overrides, dict) or not overrides:
                return _error("bad-request",
                              "whatif needs a non-empty 'overrides' object"), tenant
            return {"ok": True, **self.live.whatif(overrides)}, tenant

        if op == "result":
            if not self.mux.all_drained:
                active = [n for n, b in sorted(self.mux.tenants.items())
                          if not b.drained]
                return _error(
                    "not-drained",
                    f"result needs every tenant drained; still active: {active}"
                    if active else "result needs at least one registered tenant",
                ), tenant
            return {"ok": True, **self.final_report()}, tenant

        if op == "shutdown":
            self._stop.set()
            async with self._room:
                self._room.notify_all()
            return {"ok": True, "bye": True}, tenant

        return _error("bad-request", f"unknown op {op!r}"), tenant


def _error(code: str, message: str) -> Dict[str, object]:
    return {"ok": False, "error": {"code": code, "message": message}}


async def serve_async(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    policy: str = "easy.fairshare",
    system_size: int = 1024,
    options: Union[RunOptions, Mapping[str, object], None] = None,
    max_pending: int = 512,
    ready=None,
) -> None:
    """Run the server until a ``shutdown`` op arrives.

    ``port=0`` binds an ephemeral port; the bound address is announced on
    stdout (``[repro-serve] listening on HOST:PORT``) and passed to the
    optional ``ready(host, port, service)`` callback (tests use it).
    """
    service = SchedulerService(
        policy=policy, system_size=system_size,
        options=options, max_pending=max_pending,
    )
    server = await asyncio.start_server(service.handle, host, port)
    bound = server.sockets[0].getsockname()
    print(f"[repro-serve] listening on {bound[0]}:{bound[1]} "
          f"(policy={policy}, nodes={system_size})", flush=True)
    if ready is not None:
        ready(bound[0], bound[1], service)
    async with server:
        await service._stop.wait()


def serve(host: str = "127.0.0.1", port: int = 0, **kwargs) -> None:
    """Blocking entry point (the ``repro serve`` CLI command)."""
    asyncio.run(serve_async(host, port, **kwargs))
