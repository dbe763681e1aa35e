"""Shared benchmark fixtures.

Each ablation/campaign/scenario benchmark prints its report (visible in
the terminal) and writes it to benchmarks/reports/<name>.txt.  The paper's
figures and tables are built by ``repro paper build [--only <id>]``; the
end-to-end benchmark is ``perfbench/run.py`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPORTS = Path(__file__).parent / "reports"


@pytest.fixture
def emit(capsys):
    """Print a rendered report (uncaptured) and archive it."""

    def _emit(name: str, text: str) -> None:
        REPORTS.mkdir(exist_ok=True)
        (REPORTS / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _emit
