"""Every benchmark hook still finds the program code it wraps.

A hook whose sites no longer exist is skipped by the traced run, which then
prints its metrics as absent; this catches a rename or deletion in ``src/``
before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))

import hooks  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def present():
    """Names of the hooks that install at least one wrapper."""
    tracing = hooks.Tracing(Tracer("hook-sites"))
    try:
        tracing.install()
        return set(tracing.present)
    finally:
        tracing.restore()


@pytest.mark.parametrize("name", [hook.name for hook in hooks.HOOKS])
def test_hook_resolves_a_callable_site(present, name):
    assert name in present, f"no site of hook {name} names a callable in hbab"
