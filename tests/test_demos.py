"""Smoke test: every demo runs to completion.

Each demo runs in its own interpreter with ``src`` on the import path, so
a demo that breaks against the current API fails here. Demo 02 fits one
small hierarchical model (a few seconds); demo 05 runs a miniature
simulation study through ``run_scenario``, ``score`` and
``MetricsReport.rows`` (about 15 s on 2 CPUs).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_design_matrices.py",
    "02_hierarchical_fit.py",
    "03_sequential_testing.py",
    "04_meta_prior_learning.py",
    "05_simulation_study.py",
    "06_closed_form_reference.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
