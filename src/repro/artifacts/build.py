"""The paper-artifact build: plan, execute, render, manifest.

``plan_build`` turns an artifact selection into the deduplicated list of
campaign cells it needs (artifacts overwhelmingly share cells — all of
Figures 8-19 project the same nine-policy suite — so the union is tiny).
``build_artifacts`` executes that plan through the campaign executor and
its content-addressed cache (rebuilds are incremental: an unchanged cell
is a cache hit, an unchanged selection simulates nothing), renders every
artifact in parallel, and writes a ``manifest.json`` mapping each
artifact to the content digests of its inputs (cell keys, workload
digest) and its output bytes.

The manifest is deterministic: identical code + config produce
byte-identical manifests across processes and machines, which is what
the CI ``paper-smoke`` job asserts.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..campaign.cache import CampaignCache, cell_key, code_version
from ..campaign.executor import ProgressFn, default_journal_dir, run_cells
from ..campaign.retry import RetryPolicy, RunReport
from ..campaign.spec import CampaignCell, WorkloadSpec
from ..experiments.export import RecordRun
from ..workload.model import Workload
from .registry import select_artifacts
from .spec import SHAPE_MIN_JOBS, Artifact, ArtifactInputs

PathLike = Union[str, Path]

#: bump when the manifest document layout changes
#: (2: added the deterministic plan-shape ``stats`` block)
MANIFEST_SCHEMA = 2

#: the manifest filename inside the output directory
MANIFEST_NAME = "manifest.json"

#: sidecar with the volatile run stats (wall time, cache hits) — kept out
#: of the manifest, which must stay byte-identical across rebuilds
STATS_NAME = "build-stats.json"

#: default trace scale for ``repro paper build``
DEFAULT_SCALE = 0.2

#: default generator seed for ``repro paper build``
DEFAULT_SEED = 7


@dataclass(frozen=True)
class PaperConfig:
    """The shared-trace knobs of a paper build.

    ``scale`` shrinks the synthetic CPlant trace (1.0 is the full
    13,236-job, 33-week trace; 0.05 is the CI smoke size); ``seed``
    drives the generator.  Everything else (estimate mode, epsilon, kill
    policy) is pinned to the paper's configuration so every artifact of
    one build describes one experiment.
    """

    scale: float = DEFAULT_SCALE
    seed: int = DEFAULT_SEED

    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            kind="cplant", params=(("scale", self.scale),), seed=self.seed
        )

    def build_workload(self) -> Workload:
        return self.workload_spec().build(self.seed)


@dataclass
class BuildPlan:
    """An artifact selection resolved into a deduplicated cell list."""

    config: PaperConfig
    artifacts: List[Artifact]
    #: union of required cells across the selection, deterministic order
    cells: List[CampaignCell]
    #: cache key per cell, aligned with ``cells``
    keys: List[str]
    #: artifact id -> policy key -> cache key (the per-artifact input
    #: digests; artifacts may run the same policy under different options,
    #: so the mapping cannot be flattened across the selection)
    cell_keys: Dict[str, Dict[str, str]]
    needs_workload: bool

    @property
    def n_shared(self) -> int:
        """How many cell requirements the dedup collapsed away."""
        wanted = sum(len(a.policies) for a in self.artifacts)
        return wanted - len(self.cells)


def plan_build(
    only: Optional[Sequence[str]] = None,
    config: Optional[PaperConfig] = None,
) -> BuildPlan:
    """Resolve a selection into the union of cells it needs.

    Cells are deduplicated by their content-addressed cache key, so two
    artifacts requiring the same (workload, seed, policy, options) cell
    contribute it once; order follows first use across the selection.
    """
    cfg = config or PaperConfig()
    artifacts = select_artifacts(only)
    wspec = cfg.workload_spec()
    cells: List[CampaignCell] = []
    keys: List[str] = []
    cell_keys: Dict[str, Dict[str, str]] = {}
    seen: Dict[str, int] = {}
    for art in artifacts:
        by_policy = cell_keys.setdefault(art.id, {})
        for policy in art.policies:
            cell = CampaignCell(
                workload=wspec, seed=cfg.seed, policy=policy,
                options=art.options,
            )
            key = cell_key(cell)
            if key not in seen:
                seen[key] = len(cells)
                cells.append(cell)
                keys.append(key)
            by_policy[policy] = key
    return BuildPlan(
        config=cfg,
        artifacts=artifacts,
        cells=cells,
        keys=keys,
        cell_keys=cell_keys,
        needs_workload=any(a.needs_workload for a in artifacts),
    )


@dataclass
class ArtifactOutput:
    """One rendered artifact: where it landed and what it hashed to."""

    artifact: Artifact
    path: Path
    sha256: str


@dataclass
class BuildResult:
    """Everything a ``repro paper build`` produced."""

    plan: BuildPlan
    outputs: List[ArtifactOutput]
    manifest_path: Path
    #: the cell run's record, also written to ``stats_path``
    stats: RunReport
    stats_path: Path
    elapsed: float
    texts: Dict[str, str] = field(default_factory=dict)

    @property
    def n_simulated(self) -> int:
        return self.stats.n_simulated

    @property
    def n_cached(self) -> int:
        return self.stats.n_cached


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_artifacts(
    only: Optional[Sequence[str]] = None,
    config: Optional[PaperConfig] = None,
    out_dir: PathLike = "paper-artifacts",
    jobs: int = 1,
    cache: Optional[CampaignCache] = None,
    force: bool = False,
    check: bool = False,
    progress: Optional[ProgressFn] = None,
    retry: Optional[RetryPolicy] = None,
    resume: bool = False,
) -> BuildResult:
    """Build a selection of paper artifacts end to end.

    Missing cells are simulated (in parallel for ``jobs > 1``) and
    cached; renders fan out over a thread pool; the manifest is written
    last so a manifest on disk always describes completed outputs.
    With ``check=True`` each artifact's qualitative shape check runs
    against the freshly built data (shape assertions only engage when
    the trace has at least ``SHAPE_MIN_JOBS`` jobs).

    Every run journals its completions next to the cache, so an
    interrupted build continues with ``resume=True`` (``repro paper
    build --resume``); cell failures follow ``retry`` (default:
    :class:`RetryPolicy`).  Recovery accounting lands in the
    ``build-stats.json`` sidecar, never the manifest.
    """
    t0 = time.perf_counter()
    plan = plan_build(only, config)
    journal_dir = default_journal_dir(cache)
    stats = RunReport()
    results = run_cells(
        plan.cells, jobs=jobs, cache=cache, force=force, progress=progress,
        retry=retry,
        journal=((journal_dir, "paper-build")
                 if journal_dir is not None else None),
        resume=resume, report=stats,
    )
    # the same policy may appear under different options across artifacts,
    # so suites are assembled per artifact from the content-addressed keys
    by_key = {r.key: r.metrics for r in results}

    workload = plan.config.build_workload() if (plan.needs_workload or check) else None
    shape = workload is not None and len(workload) >= SHAPE_MIN_JOBS
    wl_digest = workload.content_digest() if plan.needs_workload else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def _render(art: Artifact) -> Tuple[ArtifactOutput, str]:
        suite = {
            policy: RecordRun(policy, by_key[key])
            for policy, key in plan.cell_keys[art.id].items()
        }
        inputs = ArtifactInputs(
            suite=suite,
            workload=workload if art.needs_workload else None,
        )
        text = art.build_text(inputs, check=check, shape=shape)
        blob = (text + "\n").encode()
        path = out / art.output
        path.write_bytes(blob)
        return ArtifactOutput(artifact=art, path=path, sha256=_sha256(blob)), text

    outputs: List[ArtifactOutput] = []
    texts: Dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=min(8, max(1, len(plan.artifacts)))) as pool:
        futures = [pool.submit(_render, art) for art in plan.artifacts]
        for fut in futures:
            rendered, text = fut.result()
            outputs.append(rendered)
            texts[rendered.artifact.id] = text

    doc = manifest_doc(plan, outputs, wl_digest)
    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    stats_path = out / STATS_NAME
    stats_path.write_text(json.dumps(stats.as_dict(), indent=2,
                                     sort_keys=True) + "\n")
    return BuildResult(
        plan=plan,
        outputs=outputs,
        manifest_path=manifest_path,
        stats=stats,
        stats_path=stats_path,
        elapsed=time.perf_counter() - t0,
        texts=texts,
    )


def manifest_doc(
    plan: BuildPlan,
    outputs: Sequence[ArtifactOutput],
    workload_digest: Optional[str],
) -> Dict[str, object]:
    """The deterministic manifest document (no timings, no paths outside
    the output directory, sorted on serialization)."""
    artifacts: Dict[str, object] = {}
    for rendered in outputs:
        art = rendered.artifact
        inputs: Dict[str, object] = {
            "cells": {p: plan.cell_keys[art.id][p] for p in art.policies}
        }
        if art.needs_workload:
            inputs["workload"] = workload_digest
        artifacts[art.id] = {
            "kind": art.kind,
            "title": art.title,
            "output": art.output,
            "sha256": rendered.sha256,
            "inputs": inputs,
        }
    return {
        "schema": MANIFEST_SCHEMA,
        "code": code_version(),
        "config": {"scale": plan.config.scale, "seed": plan.config.seed},
        "artifacts": artifacts,
        # deterministic plan-shape stats only: anything run-dependent
        # (timings, cache hits) lives in the build-stats.json sidecar so
        # rebuilds stay byte-identical
        "stats": {
            "n_artifacts": len(plan.artifacts),
            "n_cells": len(plan.cells),
            "n_shared": plan.n_shared,
        },
    }


def load_manifest(out_dir: PathLike) -> Dict[str, object]:
    return json.loads((Path(out_dir) / MANIFEST_NAME).read_text())


def verify_outputs(out_dir: PathLike) -> List[str]:
    """Check the outputs on disk against their manifest digests.

    Returns a list of problems (missing files, digest mismatches, or a
    missing manifest); empty means the directory is exactly what the
    manifest says it is.
    """
    out = Path(out_dir)
    try:
        doc = load_manifest(out)
    except OSError:
        return [f"missing {MANIFEST_NAME} in {out}"]
    except ValueError:
        return [f"unreadable {MANIFEST_NAME} in {out}"]
    problems: List[str] = []
    for art_id, entry in sorted(doc.get("artifacts", {}).items()):
        path = out / str(entry["output"])
        if not path.is_file():
            problems.append(f"{art_id}: missing output {entry['output']}")
            continue
        digest = _sha256(path.read_bytes())
        if digest != entry["sha256"]:
            problems.append(
                f"{art_id}: {entry['output']} digest {digest[:12]} != "
                f"manifest {str(entry['sha256'])[:12]} (stale or edited)"
            )
    return problems


def diff_manifests(
    ours: Dict[str, object], theirs: Dict[str, object]
) -> List[str]:
    """Human-readable differences between two manifest documents."""
    diffs: List[str] = []
    for key in ("schema", "code", "config"):
        if ours.get(key) != theirs.get(key):
            diffs.append(f"{key}: {ours.get(key)!r} != {theirs.get(key)!r}")
    a = dict(ours.get("artifacts", {}))
    b = dict(theirs.get("artifacts", {}))
    for art_id in sorted(set(a) | set(b)):
        if art_id not in b:
            diffs.append(f"{art_id}: only in first manifest")
        elif art_id not in a:
            diffs.append(f"{art_id}: only in second manifest")
        elif a[art_id] != b[art_id]:
            ea, eb = a[art_id], b[art_id]
            keys = set(ea) | set(eb)
            changed = sorted(k for k in keys if ea.get(k) != eb.get(k))
            diffs.append(f"{art_id}: differs in {', '.join(changed)}")
    return diffs
