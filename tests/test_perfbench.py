"""The benchmark harness's self-test runs in the suite, so a change that
breaks what `perfbench/` imports or pins fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    # bench.py puts src/ on its own path
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test ok" in done.stdout
