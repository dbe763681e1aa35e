#!/usr/bin/env python
"""Docs-consistency checks (run by the CI `docs` job and usable locally).

Eleven checks:

1. **Scenario catalog** — every scenario registered in
   ``repro.scenarios`` must appear (as `` `name` ``) in
   docs/SCENARIOS.md, so the catalog cannot silently drift from the
   code (the tier-1 suite asserts the same in tests/test_scenarios.py).
2. **Link integrity** — every relative markdown link in README.md,
   PAPER.md, and docs/*.md must point at a file that exists.
3. **Performance docs** — docs/PERFORMANCE.md must exist, name the
   benchmark entry points it documents by path (``perfbench/run.py``,
   ``BENCHMARK.json``; they must exist on disk), and docs/ARCHITECTURE.md
   must carry a Performance section, so the benchmark workflow stays
   discoverable.  Every ``*.py`` path named
   in a Layer cell of its hot-path map must exist under ``src/repro/``,
   so a row cannot outlive the code it describes.
4. **Pipeline docs** — the artifact table in docs/PIPELINE.md must
   list exactly the artifacts registered in ``repro.artifacts``, each
   with its output file, in registry order; the page must also cover
   the build CLI and manifest, so the paper-artifact catalog cannot
   drift.
5. **Observability docs** — docs/OBSERVABILITY.md must document every
   counter in ``repro.obs.counters.CATALOG`` (as `` `name` ``) and the
   trace/stats entry points, and docs/ARCHITECTURE.md must carry an
   Observability section, so the telemetry catalog cannot drift.
6. **Scheduler docs** — docs/SCHEDULERS.md must document every policy
   key in ``repro.sched.registry`` and every hybrid-FST reference order
   in ``repro.metrics.REFERENCE_ORDERS`` (as `` `name` ``), and its
   "Queue priorities" section every value of
   ``repro.sched.base.PRIORITY_POLICIES``, so the scheduler catalog
   cannot drift.
7. **Robustness docs** — docs/ROBUSTNESS.md must document every fault
   site and kind in ``repro.campaign.faults`` (as `` `name` ``) plus
   the resume/cache-maintenance entry points, and docs/ARCHITECTURE.md
   must carry a Robustness section, so the fault-plan contract cannot
   drift.
8. **Service docs** — docs/SERVICE.md must document every protocol op
   the server dispatches (as `` `op` ``), the backpressure and what-if
   mechanisms, and the serve entry points, and docs/ARCHITECTURE.md
   must carry an API section, so the wire protocol cannot drift.
9. **Source citations** — every ``*.md`` file named in a ``.py`` file
   under ``src/`` must exist: a path with a directory (``docs/X.md``)
   relative to the repository root, a bare name at the root or in
   ``docs/``, so a docstring cannot point readers at a missing file.
10. **Counter emitters** — every name in ``repro.obs.counters.CATALOG``
    must appear as a string literal (``"name"``) in some ``*.py`` file
    under ``src/repro/`` other than ``obs/counters.py``, so a counter
    cannot outlive the code that hits it.
11. **Engine ownership docs** — docs/, README.md and examples/ must not
    name an engine service that ownership made obsolete, a deleted
    second path of the campaign executor, or another deleted second way
    (:data:`DELETED_SERVICES`: schedulers no longer call back into the
    engine, every task enters the worker through ``_run_task``,
    ``run_cells`` alone places a run journal, FSP is a priority rather
    than a scheduler class, and ``collect_counters`` alone turns counters
    on), and the observer paragraph of docs/ARCHITECTURE.md's "The
    event-loop contract" must name every hook in
    ``repro.core.engine.OBSERVER_HOOKS`` (as `` `hook` ``), so the
    observer contract cannot drift.

Exit status 0 = consistent; 1 = problems (all listed on stderr).

Usage::

    python tools/check_docs.py          # from the repository root
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: [text](target) — target captured; images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: a markdown file name as source code cites it (``docs/SERVICE.md``)
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
#: one row of the docs/PIPELINE.md artifact table: | `id` | `output` | ...
_ARTIFACT_ROW = re.compile(r"^\| `(\w+)` \| `([\w.]+)` \|", re.M)
#: the first (Layer) cell of a markdown table row
_LAYER_CELL = re.compile(r"^\|([^|]*)\|", re.M)
#: a source path as a Layer cell names it (`sched/base.py`)
_PY_PATH = re.compile(r"`([\w/]+\.py)`")
#: engine services and order classes that one-way ownership deleted (a
#: scheduler starts jobs on the cluster and pushes its own timers, and an
#: order is a function bound with ``functools.partial``), and the
#: executor's deleted lone-cell worker entry and journal-directory helper,
#: the FSP scheduler class (FSP is the ``fsp`` priority) and the counter
#: switches (``collect_counters`` is the one way to turn counters on)
DELETED_SERVICES = ("start_job", "add_timer", "chain_tail_",
                    "FairshareOrder", "SrptOrder", "GENERIC_TIMER",
                    "_run_cell_timed", "default_journal_dir",
                    "FairSojournScheduler", "enable_counters",
                    "disable_counters", "counters_active")


def check_scenario_catalog() -> list[str]:
    from repro.scenarios import scenario_names

    doc_path = ROOT / "docs" / "SCENARIOS.md"
    if not doc_path.is_file():
        return [f"missing {doc_path.relative_to(ROOT)}"]
    doc = doc_path.read_text()
    return [
        f"docs/SCENARIOS.md: registered scenario `{name}` is not documented"
        for name in scenario_names()
        if f"`{name}`" not in doc
    ]


def check_links() -> list[str]:
    problems: list[str] = []
    doc_files = [ROOT / "README.md", ROOT / "PAPER.md"]
    doc_files += sorted((ROOT / "docs").glob("*.md"))
    for doc in doc_files:
        if not doc.is_file():
            continue
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not (doc.parent / rel).exists():
                problems.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {target}"
                )
    return problems


def check_source_citations() -> list[str]:
    problems: list[str] = []
    for src in sorted((ROOT / "src").rglob("*.py")):
        for lineno, line in enumerate(src.read_text().splitlines(), 1):
            for name in _MD_NAME.findall(line):
                where = [ROOT / name] if "/" in name else [
                    ROOT / name, ROOT / "docs" / name]
                if not any(p.is_file() for p in where):
                    problems.append(
                        f"{src.relative_to(ROOT)}:{lineno}: cites missing "
                        f"{name}"
                    )
    return problems


def stale_hot_path_layers(text: str) -> list[str]:
    """``*.py`` paths named in the Layer column of the hot-path map in
    ``text`` (docs/PERFORMANCE.md) that do not exist under src/repro/."""
    _, _, section = text.partition("## Hot-path map")
    section = section.split("\n## ", 1)[0]
    return [
        path
        for cell in _LAYER_CELL.findall(section)
        for path in _PY_PATH.findall(cell)
        if not (ROOT / "src" / "repro" / path).is_file()
    ]


def check_performance_docs() -> list[str]:
    problems: list[str] = []
    perf = ROOT / "docs" / "PERFORMANCE.md"
    if not perf.is_file():
        return ["missing docs/PERFORMANCE.md"]
    text = perf.read_text()
    for entry_point in ("perfbench/run.py", "BENCHMARK.json"):
        if entry_point not in text:
            problems.append(
                f"docs/PERFORMANCE.md: does not mention `{entry_point}`"
            )
        if not (ROOT / entry_point).is_file():
            problems.append(
                f"docs/PERFORMANCE.md: documented {entry_point} is missing"
            )
    problems += [
        f"docs/PERFORMANCE.md: hot-path map names {path}, which is not "
        f"under src/repro/"
        for path in stale_hot_path_layers(text)
    ]
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.is_file() or "## Performance" not in arch.read_text():
        problems.append(
            "docs/ARCHITECTURE.md: missing a '## Performance' section"
        )
    return problems


def check_pipeline_docs() -> list[str]:
    from repro.artifacts import all_artifacts

    doc_path = ROOT / "docs" / "PIPELINE.md"
    if not doc_path.is_file():
        return ["missing docs/PIPELINE.md"]
    doc = doc_path.read_text()
    problems = []
    table = _ARTIFACT_ROW.findall(doc)
    registry = [(art.id, art.output) for art in all_artifacts()]
    if table != registry:
        problems.append(
            "docs/PIPELINE.md: the artifact table must list the registered "
            f"(id, output) pairs in registry order; documented {table}, "
            f"registered {registry}"
        )
    for needle in ("repro paper build", "manifest.json", "--scale"):
        if needle not in doc:
            problems.append(f"docs/PIPELINE.md: does not mention `{needle}`")
    return problems


def check_observability_docs() -> list[str]:
    from repro.obs.counters import CATALOG_NAMES

    doc_path = ROOT / "docs" / "OBSERVABILITY.md"
    if not doc_path.is_file():
        return ["missing docs/OBSERVABILITY.md"]
    doc = doc_path.read_text()
    problems = [
        f"docs/OBSERVABILITY.md: registered counter `{name}` is not documented"
        for name in CATALOG_NAMES
        if f"`{name}`" not in doc
    ]
    for needle in ("repro trace run", "repro trace summarize", "--stats"):
        if needle not in doc:
            problems.append(
                f"docs/OBSERVABILITY.md: does not mention `{needle}`"
            )
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.is_file() or "## Observability" not in arch.read_text():
        problems.append(
            "docs/ARCHITECTURE.md: missing a '## Observability' section"
        )
    return problems


def unemitted_counters(names) -> list[str]:
    """The counter ``names`` that no ``*.py`` file under src/repro/,
    other than the catalog in obs/counters.py, spells as a string
    literal."""
    catalog = ROOT / "src" / "repro" / "obs" / "counters.py"
    sources = [
        path.read_text()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if path != catalog
    ]
    return [
        name
        for name in names
        if not any(f'"{name}"' in text or f"'{name}'" in text
                   for text in sources)
    ]


def check_counter_emitters() -> list[str]:
    from repro.obs.counters import CATALOG_NAMES

    return [
        f"src/repro/obs/counters.py: counter `{name}` is in CATALOG but no "
        f"module under src/repro/ emits it"
        for name in unemitted_counters(CATALOG_NAMES)
    ]


def deleted_service_mentions(text: str) -> list[str]:
    """The :data:`DELETED_SERVICES` that ``text`` names."""
    return [name for name in DELETED_SERVICES if name in text]


def missing_observer_hooks(arch: str) -> list[str]:
    """The observer hooks that the observer paragraph (the one naming
    `` `Observer` ``) of the "The event-loop contract" section of ``arch``
    (docs/ARCHITECTURE.md) does not name; every hook when there is no
    such paragraph."""
    from repro.core.engine import OBSERVER_HOOKS

    _, _, section = arch.partition("## The event-loop contract")
    section = section.split("\n## ", 1)[0]
    paragraph = next(
        (p for p in re.split(r"\n\s*\n|\n- ", section) if "`Observer`" in p),
        "",
    )
    return [hook for hook in OBSERVER_HOOKS if f"`{hook}`" not in paragraph]


def check_engine_docs() -> list[str]:
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
            *sorted((ROOT / "examples").glob("*"))]
    problems = [
        f"{path.relative_to(ROOT)}: names `{name}`, which no longer "
        f"exists"
        for path in docs if path.is_file()
        for name in deleted_service_mentions(path.read_text())
    ]
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    problems += [
        f"docs/ARCHITECTURE.md: the event-loop contract's observer "
        f"paragraph does not name the hook `{hook}`"
        for hook in missing_observer_hooks(
            arch.read_text() if arch.is_file() else "")
    ]
    return problems


def undocumented_priorities(doc: str) -> list[str]:
    """The values of ``PRIORITY_POLICIES`` that the "Queue priorities"
    section of ``doc`` (docs/SCHEDULERS.md) does not name as
    `` `value` ``; every value when there is no such section."""
    from repro.sched.base import PRIORITY_POLICIES

    _, _, section = doc.partition("## Queue priorities")
    section = section.split("\n## ", 1)[0]
    return [name for name in PRIORITY_POLICIES if f"`{name}`" not in section]


def check_scheduler_docs() -> list[str]:
    from repro.metrics import REFERENCE_ORDERS
    from repro.sched.registry import policy_names

    doc_path = ROOT / "docs" / "SCHEDULERS.md"
    if not doc_path.is_file():
        return ["missing docs/SCHEDULERS.md"]
    doc = doc_path.read_text()
    problems = [
        f"docs/SCHEDULERS.md: registered policy `{key}` is not documented"
        for key in policy_names()
        if f"`{key}`" not in doc
    ]
    problems += [
        f"docs/SCHEDULERS.md: reference order `{name}` is not documented"
        for name in REFERENCE_ORDERS
        if f"`{name}`" not in doc
    ]
    problems += [
        f"docs/SCHEDULERS.md: priority `{name}` is not documented under "
        f"Queue priorities"
        for name in undocumented_priorities(doc)
    ]
    for needle in ("repro policies", "repro matrix"):
        if needle not in doc:
            problems.append(f"docs/SCHEDULERS.md: does not mention `{needle}`")
    return problems


def check_robustness_docs() -> list[str]:
    from repro.campaign.faults import FAULT_KINDS, FAULT_SITES, PLAN_ENV

    doc_path = ROOT / "docs" / "ROBUSTNESS.md"
    if not doc_path.is_file():
        return ["missing docs/ROBUSTNESS.md"]
    doc = doc_path.read_text()
    problems = [
        f"docs/ROBUSTNESS.md: fault site `{name}` is not documented"
        for name in FAULT_SITES
        if f"`{name}`" not in doc
    ]
    problems += [
        f"docs/ROBUSTNESS.md: fault kind `{name}` is not documented"
        for name in FAULT_KINDS
        if f"`{name}`" not in doc
    ]
    for needle in (PLAN_ENV, "--resume", "--keep-going",
                   "repro cache verify", "repro cache prune"):
        if needle not in doc:
            problems.append(f"docs/ROBUSTNESS.md: does not mention `{needle}`")
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.is_file() or "## Robustness" not in arch.read_text():
        problems.append(
            "docs/ARCHITECTURE.md: missing a '## Robustness' section"
        )
    return problems


def check_service_docs() -> list[str]:
    doc_path = ROOT / "docs" / "SERVICE.md"
    if not doc_path.is_file():
        return ["missing docs/SERVICE.md"]
    doc = doc_path.read_text()
    server_src = ROOT / "src" / "repro" / "service" / "server.py"
    ops = sorted(set(re.findall(r'if op == "(\w+)"', server_src.read_text())))
    problems = [
        f"docs/SERVICE.md: protocol op `{op}` is not documented"
        for op in ops
        if f"`{op}`" not in doc
    ]
    for needle in ("repro serve", "Backpressure", "What-if", "max_pending",
                   "merged_workload", "open_session"):
        if needle not in doc:
            problems.append(f"docs/SERVICE.md: does not mention `{needle}`")
    arch = ROOT / "docs" / "ARCHITECTURE.md"
    if not arch.is_file() or "## API" not in arch.read_text():
        problems.append("docs/ARCHITECTURE.md: missing a '## API' section")
    return problems


def main() -> int:
    problems = (check_scenario_catalog() + check_links()
                + check_performance_docs() + check_pipeline_docs()
                + check_observability_docs() + check_counter_emitters()
                + check_scheduler_docs() + check_engine_docs()
                + check_robustness_docs() + check_service_docs()
                + check_source_citations())
    for p in problems:
        print(f"[check-docs] {p}", file=sys.stderr)
    if problems:
        return 1
    print("[check-docs] catalogs, pipeline docs, and doc links are consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
