"""The benchmark's worker and tracer still find what they use of the
package, committed benchmark records are correct, importing the package
loads no standard-library module it does not use, the installed command
resolves, the scripts run as scripts, the transitivity probe finds its
documented witness, the table script agrees with the table command,
and every public name of the package has a caller outside the tests."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nclobber
import nclobber.cli  # the package does not import its CLI module
import reproduce_table

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"
WORKER = BENCH / "worker.py"


def test_every_traced_function_resolves_on_the_package():
    # Read TRACED without importing the benchmark's files.
    tree = ast.parse(TRACER.read_text())
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(getattr(nclobber, module, None), name, None))
    ]
    assert traced and not missing, missing


def test_every_worker_import_resolves_on_the_package():
    # Read the worker's imports without importing the benchmark's files.
    wanted = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(WORKER.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nclobber.")
        for alias in node.names
    ]
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert wanted and not missing, missing


def _defined(statement):
    """The names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [
        getattr(statement, "target", None)
    ]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(statement):
    """The names a statement reads: names, attributes and imports."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


# Public names that no program file reads, each kept for a user.
KEPT_FOR_USERS = {
    # The paper's closed form of the prudent order on simple values; the
    # README documents it and C08 checks it against the recursion.
    "preferences.simple_compare",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    # A name counts as used when a program file reads it outside its own
    # definition: src/, scripts/ and bench/, never tests/.
    package = ROOT / "src" / "nclobber"
    files = [*package.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *BENCH.glob("*.py")]
    public, used = set(), set()
    for path in files:
        module = path.stem if path.parent == package else None
        for statement in ast.parse(path.read_text()).body:
            own = _defined(statement) if module else set()
            public |= {f"{module}.{name}" for name in own if not name.startswith("_")}
            used |= _referenced(statement) - own
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and _defined(node) == {"TRACED"}
    ]
    traced = {f"{module}.{name}" for module, names in traced.items() for name in names}
    unused = sorted(
        name for name in public - traced - KEPT_FOR_USERS if name.partition(".")[2] not in used
    )
    assert not unused, unused


def test_committed_bench_records_are_correct():
    # Each is the output of `bench/run.py --workload all --out BENCH_<label>.json`.
    # Each holds exactly the workloads that BENCHMARK.json declares.
    records = sorted(ROOT.glob("BENCH_*.json"))
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert records and declared
    for path in records:
        runs = json.loads(path.read_text())
        assert sorted(run["workload"] for run in runs) == sorted(declared), path.name
        for run in runs:
            assert run["correct"] is True and run["failed"] == 0, (path.name, run["workload"])


def test_eval_cache_entries_is_a_dict():
    # The tracer's solver.positions counter sums len(cache.entries).
    assert isinstance(nclobber.solver.EvalCache().entries, dict)


def _modules_after(statement):
    """The names in sys.modules after running statement in a fresh
    interpreter with only src on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = f"{statement}\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


# Standard-library modules that nothing uses at import time; each costs
# a one-shot CLI call milliseconds of start-up.  The CLI writes json.
UNUSED_AT_IMPORT = {
    "dataclasses",
    "inspect",
    "concurrent.futures",
    "multiprocessing",
    "logging",
    "csv",
}


@pytest.mark.parametrize(
    "module, unwanted",
    [("nclobber", UNUSED_AT_IMPORT | {"json"}), ("nclobber.cli", UNUSED_AT_IMPORT)],
)
def test_importing_loads_no_unused_standard_library_module(module, unwanted):
    loaded = _modules_after(f"import {module}") - _modules_after("pass")
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_the_installed_command_resolves_to_a_callable():
    # Every CLI test calls main directly, so check the pyproject entry.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, function = pyproject["project"]["scripts"]["nclobber"].partition(":")
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_every_script_runs_with_only_src_on_the_path(script):
    # pytest puts scripts/ on sys.path; a script run directly must find
    # its sibling modules without that help.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_the_transitivity_probe_finds_its_documented_witness():
    # The probe reaches the prudent relation through prudent_less, so this
    # pins that relation end to end on the pair the script's docstring names.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "transitivity_probe.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--max-n", "6", "--sample", "1000"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "asymmetry broken (prudent, p=2): [1,[[1,[1,3]]]] / [3,[1,3],[[1,[1,3]]]]" in lines
    assert "1 violation(s) found" in lines


def test_the_table_script_and_the_table_command_write_the_same_csv(tmp_path, capsys):
    script, command = tmp_path / "script.csv", tmp_path / "command.csv"
    assert reproduce_table.main(["--max-n", "5", "--out", str(script)]) == 0
    assert nclobber.cli.main(["table", "5", "--format", "csv", "--out", str(command)]) == 0
    capsys.readouterr()
    assert script.read_text() == command.read_text()
