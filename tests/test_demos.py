"""Each demo script must run clean and actually print its story."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) >= 5
