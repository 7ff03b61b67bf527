"""The CI workflow against the repository's own documents, without a
network or a YAML parser: its tier-1 step runs ROADMAP's tier-1 command,
and every Python file parses as the oldest Python the package accepts."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _step_run(workflow: str, name: str) -> str:
    """The one-line ``run:`` of the step called ``name``."""
    lines = workflow.splitlines()
    start = lines.index(f"      - name: {name}")
    for line in lines[start + 1:]:
        if line.startswith("      - "):
            break
        key, _, value = line.strip().partition(": ")
        if key == "run":
            assert value and value != "|", f"step {name!r} runs a block"
            return value
    raise AssertionError(f"step {name!r} has no run line")


def test_the_workflow_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap,
                        re.MULTILINE).group(1)
    workflow = WORKFLOW.read_text(encoding="utf-8")
    assert _step_run(workflow, "Tier-1 tests") == command


def test_every_python_file_parses_as_the_oldest_python_accepted():
    """A parse check only: a library call new in a later Python still
    passes it."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
        re.MULTILINE).groups())
    assert f'"{major}.{minor}"' in WORKFLOW.read_text(encoding="utf-8")
    files = [p for top in ("src", "tests", "perfbench")
             for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(major, minor))
