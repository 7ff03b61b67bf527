"""The CI workflow against the repository's own documents, without a
network or a YAML parser: its tier-1 step runs ROADMAP's tier-1 command,
each ``streamasr`` and ``perfbench/run.py`` command it runs parses, every
Python file parses as the oldest Python the package accepts, and none
uses a standard-library name that Python lacks."""

import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

from streamasr import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# Standard-library names that Python 3.10 lacks, from the "New Modules",
# "Improved Modules" and "Builtins" sections of "What's New In Python
# 3.11" and "What's New In Python 3.12" (docs.python.org/3/whatsnew/),
# and the ``except*`` syntax.
NEWER_THAN_3_10 = {
    "tomllib", "typing.Self", "enum.StrEnum", "datetime.UTC",
    "hashlib.file_digest", "itertools.batched", "asyncio.TaskGroup",
    "ExceptionGroup", "BaseExceptionGroup", "except*", "math.cbrt",
    "math.exp2", "contextlib.chdir",
}


def _python_files() -> list[Path]:
    return [p for top in ("src", "tests", "perfbench")
            for p in sorted((ROOT / top).rglob("*.py"))]


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The dotted name an attribute chain or a name stands for, with its
    root resolved through the file's imports (a builtin is its own)."""
    if isinstance(node, ast.Attribute):
        root = _dotted(node.value, bound)
        return None if root is None else f"{root}.{node.attr}"
    if isinstance(node, ast.Name):
        return bound.get(node.id, node.id)
    return None


def newer_stdlib_uses(source: str) -> list[str]:
    """Every use in ``source`` of a name in ``NEWER_THAN_3_10``: imported,
    read through a module or, for ``except*``, written."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}  # local name -> the dotted name it imports
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                used.append(a.name)
                local = a.asname or a.name.partition(".")[0]
                bound[local] = a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                used.append(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = used[-1]
    for node in ast.walk(tree):
        if type(node).__name__ == "TryStar":  # ast.TryStar is new in 3.11
            used.append("except*")
        elif isinstance(node, (ast.Attribute, ast.Name)):
            used.append(_dotted(node, bound))
    return [name for name in used if name in NEWER_THAN_3_10]


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


def workflow_commands(workflow: str) -> list[list[str]]:
    """The arguments of every ``streamasr`` command in ``workflow``, run
    through the entry point or ``python -m``, with continuations joined;
    comment lines are skipped."""
    commands = []
    for line in re.sub(r"\\\n\s*", " ", workflow).splitlines():
        if line.strip().startswith("#") or "streamasr" not in line:
            continue
        words = shlex.split(line)
        at = words.index("streamasr")
        assert at == 0 or words[at - 1] == "-m", line
        commands.append(words[at + 1:])
    return commands


def test_every_streamasr_command_of_the_workflow_parses():
    """A flag removed or renamed fails here, not first in the workflow."""
    commands = workflow_commands(WORKFLOW.read_text(encoding="utf-8"))
    assert [argv[0] for argv in commands] == [
        "gen-corpus", "ablate", "decode", "build-sequences", "verify"]
    # a continued command keeps the flags of its last line
    assert commands[2][-2:] == ["--out", "decoded.jsonl"]
    parser, subcommands = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(cli._config_args(subcommands, argv))
        except SystemExit:
            pytest.fail(f"the workflow runs streamasr {shlex.join(argv)}")


def test_every_perfbench_command_of_the_workflow_parses(monkeypatch):
    """Each ``perfbench/run.py`` line of the workflow goes through
    ``run.main`` with the runs themselves replaced, so a flag or workload
    that ``run.py`` no longer takes fails here, not first in CI."""
    workflow = re.sub(r"\\\n\s*", " ", WORKFLOW.read_text(encoding="utf-8"))
    commands = []
    for line in workflow.splitlines():
        if not line.strip().startswith("#") and "perfbench/run.py" in line:
            words = shlex.split(line)
            commands.append(words[words.index("perfbench/run.py") + 1:])
    assert commands and all(argv[:1] == ["--workload"] for argv in commands)
    from test_perfbench import perfbench_modules

    (run,) = perfbench_modules("run")
    ran = []
    monkeypatch.setattr(run, "run_all", lambda args: ran.append(args) or 0)
    monkeypatch.setattr(run, "run_one", lambda args: ran.append(args) or 0)
    for argv in commands:
        try:
            assert run.main(argv) == 0
        except SystemExit:
            pytest.fail(f"the workflow runs perfbench/run.py {shlex.join(argv)}")
    assert len(ran) == len(commands)


def test_every_python_file_parses_as_the_oldest_python_accepted():
    """A parse check only: a library call new in a later Python still
    passes it."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject,
        re.MULTILINE).groups())
    assert f'"{major}.{minor}"' in WORKFLOW.read_text(encoding="utf-8")
    files = _python_files()
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(major, minor))


def test_no_file_uses_a_standard_library_name_newer_than_3_10():
    """The CI matrix runs Python 3.10 too: a name new in 3.11 or 3.12
    parses above and would fail only there."""
    uses = {str(p.relative_to(ROOT)): newer_stdlib_uses(
        p.read_text(encoding="utf-8")) for p in _python_files()}
    assert {path: names for path, names in uses.items() if names} == {}


_NEWER_USES = [
    ("import tomllib", "tomllib"),
    ("from typing import Self", "typing.Self"),
    ("import typing\ndef f() -> typing.Self: ...", "typing.Self"),
    ("import enum as e\nclass C(e.StrEnum): ...", "enum.StrEnum"),
    ("from datetime import UTC as utc", "datetime.UTC"),
    ("import datetime\nx = datetime.UTC", "datetime.UTC"),
    ("import hashlib\nhashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
    ("from itertools import batched", "itertools.batched"),
    ("import asyncio\nasync def f():\n    async with asyncio.TaskGroup():"
     " ...", "asyncio.TaskGroup"),
    ("raise ExceptionGroup('x', [ValueError()])", "ExceptionGroup"),
    ("try:\n    pass\nexcept BaseExceptionGroup:\n    pass",
     "BaseExceptionGroup"),
    ("import math\nmath.cbrt(8.0)", "math.cbrt"),
    ("from math import exp2 as e\ne(3.0)", "math.exp2"),
    ("from contextlib import chdir", "contextlib.chdir"),
]
if sys.version_info >= (3, 11):  # older parsers reject the syntax itself
    _NEWER_USES.append(("try:\n    pass\nexcept* ValueError:\n    pass",
                        "except*"))


@pytest.mark.parametrize("source, name", _NEWER_USES,
                         ids=[name for _, name in _NEWER_USES])
def test_the_scan_finds_each_newer_name(source, name):
    assert name in newer_stdlib_uses(source)


def test_the_scan_passes_names_3_10_has():
    assert newer_stdlib_uses(
        "import datetime, math, typing\nfrom itertools import chain\n"
        "x = datetime.timezone.utc, math.sqrt(2.0), typing.Any, chain\n"
        "try:\n    pass\nexcept ValueError:\n    pass") == []
