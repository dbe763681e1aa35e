"""Every script under examples/ runs to completion on the public API.

Each example runs in a fresh interpreter with deprecation warnings as
errors, so an example that drifts onto a removed or deprecated entry point
fails here.  Examples that take ``--scale`` run on a 2% trace.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    argv = [sys.executable, "-W", "error::DeprecationWarning", str(script)]
    if '"--scale"' in script.read_text():
        argv += ["--scale", "0.02"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
