"""Standard Workload Format (SWF) version 2 reader/writer.

The paper converted the raw CPlant PBS/yod logs to SWF V2; this module lets
real traces from the Parallel Workloads Archive be dropped into the
pipeline, and lets generated workloads be exported for other simulators.

SWF records are whitespace-separated lines of 18 integer fields
(missing = -1):

  1 job number            7 used memory         13 group id
  2 submit time           8 requested procs     14 executable id
  3 wait time             9 requested time      15 queue id
  4 run time             10 requested memory    16 partition id
  5 used procs           11 status              17 preceding job
  6 avg cpu time         12 user id             18 think time

Header comments start with ';'.  We honor ``; UnixStartTime`` and
``; MaxNodes`` if present.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import List, TextIO, Tuple, Union

from ..core.job import Job
from .model import Workload

N_FIELDS = 18


@dataclass
class SwfHeader:
    version: int = 2
    computer: str = "synthetic CPlant/Ross"
    max_nodes: int | None = None
    unix_start_time: int = 0
    note: str = ""


class SwfFormatError(ValueError):
    """Malformed SWF input."""


def _parse_fields(line: str, lineno: int) -> List[float]:
    parts = line.split()
    if len(parts) != N_FIELDS:
        raise SwfFormatError(
            f"line {lineno}: expected {N_FIELDS} fields, got {len(parts)}"
        )
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise SwfFormatError(f"line {lineno}: non-numeric field ({exc})") from None


def read_swf(
    source: Union[str, Path, TextIO],
    system_size: int | None = None,
    name: str | None = None,
    skip_invalid: bool = True,
) -> Workload:
    """Parse an SWF file into a :class:`Workload`.

    Jobs with non-positive width or negative runtime are skipped when
    ``skip_invalid`` (the archive convention: status/cleanup records), else
    raised on.  ``system_size`` overrides the ``; MaxNodes`` header.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        text = path.read_text()
        stream: TextIO = io.StringIO(text)
        default_name = path.stem
    else:
        stream = source
        default_name = "swf"

    header = SwfHeader()
    jobs: List[Job] = []
    skipped = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            _parse_header_line(line, header)
            continue
        f = _parse_fields(line, lineno)
        job, ok = _fields_to_job(f)
        if ok:
            jobs.append(job)
        elif skip_invalid:
            skipped += 1
        else:
            raise SwfFormatError(f"line {lineno}: invalid job record {f[:9]}")

    size = system_size or header.max_nodes
    if size is None:
        size = max((j.nodes for j in jobs), default=1)
    wl = Workload(
        jobs=jobs,
        system_size=size,
        name=name or default_name,
        metadata={"swf_header": header, "skipped_records": skipped},
    )
    return wl


def _parse_header_line(line: str, header: SwfHeader) -> None:
    body = line.lstrip(";").strip()
    if ":" not in body:
        return
    key, _, value = body.partition(":")
    key = key.strip().lower()
    value = value.strip()
    if key == "version":
        try:
            header.version = int(float(value))
        except ValueError:
            pass
    elif key == "computer":
        header.computer = value
    elif key == "maxnodes":
        try:
            header.max_nodes = int(value)
        except ValueError:
            pass
    elif key == "unixstarttime":
        try:
            header.unix_start_time = int(value)
        except ValueError:
            pass


def _fields_to_job(f: List[float]) -> Tuple[Job | None, bool]:
    """Map one SWF record to a Job; returns (job, valid)."""
    (job_no, submit, _wait, run, used_procs, _avg_cpu, _used_mem, req_procs,
     req_time, _req_mem, _status, uid, gid, _exe, _queue, _part, _prev,
     _think) = f
    nodes = int(req_procs) if req_procs > 0 else int(used_procs)
    runtime = run if run >= 0 else -1.0
    wcl = req_time if req_time > 0 else runtime
    if nodes <= 0 or runtime < 0 or submit < 0:
        return None, False
    if wcl <= 0:
        wcl = max(runtime, 1.0)
    job = Job(
        id=int(job_no),
        submit_time=submit,
        nodes=nodes,
        runtime=runtime,
        wcl=wcl,
        user_id=int(uid) if uid >= 0 else 0,
        group_id=int(gid) if gid >= 0 else 0,
    )
    return job, True


def write_swf(
    workload: Workload,
    target: Union[str, Path, TextIO],
    header: SwfHeader | None = None,
) -> None:
    """Write a workload as SWF V2 (wait/used fields are -1: scheduling
    outcomes belong to simulations, not workloads)."""
    header = header or SwfHeader(max_nodes=workload.system_size)
    if header.max_nodes is None:
        header.max_nodes = workload.system_size

    def emit(out: TextIO) -> None:
        out.write(f"; Version: {header.version}\n")
        out.write(f"; Computer: {header.computer}\n")
        out.write(f"; MaxNodes: {header.max_nodes}\n")
        out.write(f"; UnixStartTime: {header.unix_start_time}\n")
        if header.note:
            out.write(f"; Note: {header.note}\n")
        for j in workload.jobs:
            fields = [
                j.id, int(j.submit_time), -1, int(round(j.runtime)), j.nodes,
                -1, -1, j.nodes, int(round(j.wcl)), -1, 1, j.user_id,
                j.group_id, -1, -1, -1, -1, -1,
            ]
            out.write(" ".join(str(v) for v in fields) + "\n")

    if isinstance(target, (str, Path)):
        with open(target, "w") as out:
            emit(out)
    else:
        emit(target)
