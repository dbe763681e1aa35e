"""Declarative paper-artifact pipeline.

Each figure/table of the paper is a registered
:class:`~repro.artifacts.spec.Artifact`; the builder resolves a
selection into the deduplicated set of simulation cells it needs,
executes them through the campaign subsystem's content-addressed cache,
renders the outputs one after another, and writes a deterministic
``manifest.json`` of input/output digests.  See ``docs/PIPELINE.md``.
"""

from ..experiments.export import RecordRun
from .build import (
    DEFAULT_SCALE,
    DEFAULT_SEED,
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    ArtifactOutput,
    BuildPlan,
    BuildResult,
    PaperConfig,
    build_artifacts,
    diff_manifests,
    load_manifest,
    manifest_doc,
    plan_build,
    verify_outputs,
)
from .registry import (
    BASELINE,
    all_artifacts,
    get_artifact,
    register,
    select_artifacts,
)
from .spec import SHAPE_MIN_JOBS, Artifact, ArtifactInputs

__all__ = [
    "Artifact",
    "ArtifactInputs",
    "ArtifactOutput",
    "BASELINE",
    "BuildPlan",
    "BuildResult",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "PaperConfig",
    "RecordRun",
    "SHAPE_MIN_JOBS",
    "all_artifacts",
    "build_artifacts",
    "diff_manifests",
    "get_artifact",
    "load_manifest",
    "manifest_doc",
    "plan_build",
    "register",
    "select_artifacts",
    "verify_outputs",
]
