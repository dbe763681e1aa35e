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
* :class:`~repro.experiments.export.RecordRun` views over cached
  campaign metric records (the ``repro paper build`` path, where cells
  come out of the content-addressed cache).

Both expose the same attribute surface, so every ``data`` function is
written once and the rendering is byte-identical across paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..experiments.runner import RunOptions
from ..workload.model import Workload

#: below this many jobs the paper's policy-shape assertions are
#: statistical noise (a couple of spike weeks drive everything);
#: artifacts still render, the shape checks just turn off.
SHAPE_MIN_JOBS = 1500

#: artifact kinds the registry accepts
KINDS = ("figure", "table")


@dataclass(frozen=True)
class ArtifactInputs:
    """Everything an artifact's ``data`` function may consume.

    ``suite`` maps policy key -> run-like object (``PolicyRun`` or
    ``RecordRun``); :meth:`Artifact.build_text` restricts it to the
    artifact's declared policies.  ``workload`` is the shared trace,
    present only when the artifact declared ``needs_workload``.
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

        ``inputs.suite`` may hold more runs than the artifact declares;
        the projection sees exactly its declared ``policies``, and a
        missing one raises ``KeyError``.  ``shape`` says whether the
        underlying trace is large enough for the paper's qualitative
        shape assertions (see :data:`SHAPE_MIN_JOBS`); range/sanity
        checks run regardless.
        """
        suite = suite_subset(inputs.suite, self.policies)
        data = self.data(replace(inputs, suite=suite))
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
