"""The benchmark harness's self-test still runs against the package.

The harness wraps public ``bhs`` functions by name, so a renamed or deleted
function it relies on shows up here rather than in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_selftest_passes():
    result = subprocess.run([sys.executable, "bhsbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
