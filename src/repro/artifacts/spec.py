"""Declarative paper-artifact specifications.

An :class:`Artifact` names one reproducible output of the paper — a
figure or a table — as pure data: which simulation cells it needs
(policy keys over the shared CPlant trace), how to project those cells
into plain data, how to render that data as text, and which file the
rendering lands in.  The registry (:mod:`.registry`) holds one spec per
paper figure/table; the builder (:mod:`.build`) turns a selection of
specs into a deduplicated cell plan executed through the campaign
cache.

Two input shapes satisfy a spec:

* live :class:`~repro.experiments.runner.PolicyRun` objects (``repro
  figures``, where the suite is simulated in-process), and
* :class:`RecordRun` views over cached campaign metric records (the
  ``repro paper build`` path, where cells come out of the
  content-addressed cache).

Both expose the same attribute surface, so every ``data`` function is
written once and the rendering is byte-identical across paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..experiments.runner import RunOptions
from ..metrics.weekly import WeeklySeries
from ..workload.model import Workload

#: below this many jobs the paper's policy-shape assertions are
#: statistical noise (a couple of spike weeks drive everything);
#: artifacts still render, the shape checks just turn off.
SHAPE_MIN_JOBS = 1500

#: artifact kinds the registry accepts
KINDS = ("figure", "table")


class RecordRun:
    """A :class:`~repro.experiments.runner.PolicyRun`-shaped view over a
    cached campaign metric record.

    The campaign cache stores flattened JSON records
    (:func:`~repro.experiments.export.policy_run_record`), not job lists;
    this adapter exposes the slice of the ``PolicyRun`` attribute surface
    the figure projections consume, reconstructed from those records.
    """

    __slots__ = ("policy", "record")

    def __init__(self, policy: str, record: Mapping[str, object]) -> None:
        self.policy = policy
        self.record = record

    @property
    def percent_unfair(self) -> float:
        return float(self.record["fairness"]["percent_unfair"])

    @property
    def fairness_by_order(self) -> Dict[str, Dict[str, float]]:
        """Per-reference-order fairness blocks (empty for default runs)."""
        return dict(self.record.get("fairness_by_order") or {})

    @property
    def average_miss_time(self) -> float:
        return float(self.record["fairness"]["average_miss_time"])

    @property
    def average_turnaround(self) -> float:
        return float(self.record["summary"]["avg_turnaround"])

    @property
    def loss_of_capacity(self) -> float:
        return float(self.record["loss_of_capacity"])

    @property
    def miss_by_width(self) -> np.ndarray:
        return np.asarray(self.record["miss_by_width"], dtype=float)

    @property
    def turnaround_by_width(self) -> np.ndarray:
        return np.asarray(self.record["turnaround_by_width"], dtype=float)

    @property
    def weekly(self) -> WeeklySeries:
        w = self.record["weekly"]
        return WeeklySeries(
            week_start=np.asarray(w["week_start"], dtype=float),
            offered_load=np.asarray(w["offered_load"], dtype=float),
            utilization=np.asarray(w["utilization"], dtype=float),
        )


@dataclass(frozen=True)
class ArtifactInputs:
    """Everything an artifact's ``data`` function may consume.

    ``suite`` maps policy key -> run-like object (``PolicyRun`` or
    :class:`RecordRun`), restricted to the artifact's declared policies
    on the build path; ``workload`` is the shared trace, present only
    when the artifact declared ``needs_workload``.
    """

    suite: Mapping[str, object]
    workload: Optional[Workload] = None


@dataclass(frozen=True)
class Artifact:
    """One paper figure/table as a declarative build target.

    ``policies`` are the simulation cells the artifact requires (empty
    for workload-characterization artifacts); ``options`` the engine
    options those cells run under (the default is the paper's pinned
    configuration — artifacts needing e.g. extra hybrid-FST reference
    orders declare it here and the planner keys their cells separately);
    ``data`` projects inputs into plain data; ``render`` turns that data
    into the output text; ``check`` optionally asserts the paper's
    qualitative shape (given whether the trace is large enough for shape
    assertions to be meaningful).
    """

    id: str
    kind: str
    title: str
    output: str
    data: Callable[[ArtifactInputs], object]
    render: Callable[[object], str]
    policies: Tuple[str, ...] = ()
    needs_workload: bool = False
    check: Optional[Callable[[object, bool], None]] = None
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown artifact kind {self.kind!r}; known: {KINDS}")
        if not self.output.endswith(".txt"):
            raise ValueError(f"artifact {self.id}: output must be a .txt file")
        if not self.policies and not self.needs_workload:
            raise ValueError(f"artifact {self.id} declares no inputs at all")

    @property
    def stem(self) -> str:
        """Output filename without extension (the report/emit name)."""
        return self.output.rsplit(".", 1)[0]

    def build_text(
        self, inputs: ArtifactInputs, check: bool = False, shape: bool = False
    ) -> str:
        """Project, optionally check, and render this artifact.

        ``shape`` says whether the underlying trace is large enough for
        the paper's qualitative shape assertions (see
        :data:`SHAPE_MIN_JOBS`); range/sanity checks run regardless.
        """
        data = self.data(inputs)
        if check and self.check is not None:
            self.check(data, shape)
        return self.render(data)


def suite_subset(
    suite: Mapping[str, object], keys: Tuple[str, ...]
) -> Dict[str, object]:
    """The declared-policy slice of a suite, failing on missing cells."""
    missing = [k for k in keys if k not in suite]
    if missing:
        raise KeyError(f"suite is missing policies: {missing}")
    return {k: suite[k] for k in keys}
