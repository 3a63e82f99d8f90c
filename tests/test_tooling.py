"""The benchmark's worker and tracer still find what they use of the
package, committed benchmark records are correct, importing the package
loads no standard-library module it does not use, the installed command
resolves, the scripts run as scripts, the transitivity probe finds its
documented witness, the table script agrees with the table command,
the solve digests and the n = 9 inventory keep their pinned outputs,
and every public name of the package has a caller outside the tests."""

import ast
import hashlib
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
import solve_digest

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
    # The tracer's solver.positions counter sums len(cache.entries).  The
    # memo is a dict of tables, so that sum counts tables, not positions,
    # until the tracer counts the entries of each table.
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


# What scripts/solve_digest.py prints for --max-n 7 and for --players 2 4
# --max-n 5: every solve of the novel lines and of a grid sample, in every
# mode, hashed (the script's docstring).
PINNED_DIGESTS = """\
players=3 mode=raw max_n=7 solves=5985 sha256=3a290eccbd26bef826f795ea5917a2c9c37654e150d614bb09e2a94086a44c5e
players=3 mode=raw grids=280 solves=840 sha256=711b3395687d98656fb8ce9d1ffd5ae4b715f4e2917a68989afdb6baae3c6008
players=3 mode=syntactic max_n=7 solves=5985 sha256=4c79dcb6e2cb04fc1afdc65e9cd6ac3c0db6172f89b9dcea697ae68c81719679
players=3 mode=syntactic grids=280 solves=840 sha256=cb2e4c1703a630ac97d3c0e9988bbf45df43dbba99443db4662d7ae1b82777c8
players=3 mode=selfish max_n=7 solves=5985 sha256=966eea1623173fb293c0c62ea2339730f30c5f6e71dcf3f5a9967b8a8a586036
players=3 mode=selfish grids=280 solves=840 sha256=25711db4b3b30683a562018c9e86ad887d3db38d8da7b7f2b2a4afe6f4e12df0
players=3 mode=indifferent max_n=7 solves=5985 sha256=4561abf2ed41cabd20c3da509037b8cbf06e28ad6831ea701bf84f3ef655079c
players=3 mode=indifferent grids=280 solves=840 sha256=457be14a4392d2fc18f51f0c07af725d4e686c7db9bdcacf3d1cc4f6673f82ad
players=3 mode=prudent max_n=7 solves=5985 sha256=a312382502b077212beaf46702a1b918b5f8c3a5ad9957b1653716c341617029
players=3 mode=prudent grids=280 solves=840 sha256=1e363bf6aa1ccf7107c65d4361ad61401479f9e00a70b4f7684606077f41331f
players=2 mode=raw max_n=5 solves=64 sha256=3add9afc093fcb8078c88ee6e8d7e2d5a9b5ff24102736256e1b34724c764052
players=2 mode=raw grids=280 solves=560 sha256=341d603b54044e8253f2e019f60ce644d0d87d9f0a2ed1e84903d147ed709512
players=2 mode=syntactic max_n=5 solves=64 sha256=3add9afc093fcb8078c88ee6e8d7e2d5a9b5ff24102736256e1b34724c764052
players=2 mode=syntactic grids=280 solves=560 sha256=e03c8beb08f079f91cfbd5916dd9c1ccebcf59147467d82d2058540abd5562a9
players=2 mode=selfish max_n=5 solves=64 sha256=a4a82ec9372682f40fc909969d770a8ba9774686a9382c95a11f055dd29efc24
players=2 mode=selfish grids=280 solves=560 sha256=7ed9b9a1fc2d9db0cbf2b3ac90a11ec3404a27ecdfc207c10302966ba8aef370
players=2 mode=indifferent max_n=5 solves=64 sha256=39a195d15ccdbaf9e268e9ba2573f9d73ec0ec5510f2539eb935a48f6190c23c
players=2 mode=indifferent grids=280 solves=560 sha256=6132749939a33c73fac064605392bc9a3ebaea6243ecd6cb6e825a8750669e79
players=4 mode=raw max_n=5 solves=2940 sha256=05f127e6703be148987454a86605ec859965ed8c24759d624bff13bd64fd018f
players=4 mode=raw grids=280 solves=1120 sha256=4e95e43d78b80fb9079618040ce4dd1cd795b50be2ece4e846aa8833d5b0d8d2
players=4 mode=syntactic max_n=5 solves=2940 sha256=05f127e6703be148987454a86605ec859965ed8c24759d624bff13bd64fd018f
players=4 mode=syntactic grids=280 solves=1120 sha256=bf02fcbb129e29fdb0c3f920bf29b648d0b7ea3f10bca867bf04a9db9c374bba
players=4 mode=selfish max_n=5 solves=2940 sha256=826b98ade4f39be391bf12435908a744b59b21c90cad1a22ea7a9011c265b117
players=4 mode=selfish grids=280 solves=1120 sha256=1930df7f36a1daae9e2385bbc4b8cbfbeac760d9986de8d26df1531092b25eef
players=4 mode=indifferent max_n=5 solves=2940 sha256=1c9f611b7d9a7cfa8280547f28dc5f20ae7154301df3cb76222fb80c7a4c0614
players=4 mode=indifferent grids=280 solves=1120 sha256=ea46818a8a330bf8ed73125a951824531e7b5c9a43829974373d4c37ae99ec75
"""
# The sha256 of what nclobber enumerate 9 --inventory --format json prints.
PINNED_INVENTORY_9 = "36ca253a10094cbfe1713f7ae9edbffc18690514f5f9a820fafecc7456835b25"


def test_the_solve_digests_and_the_n9_inventory_keep_their_pinned_outputs(capsys):
    # A refactor must change no solve result and no census value string.
    assert solve_digest.main(["--max-n", "7"]) == 0
    assert solve_digest.main(["--players", "2", "4", "--max-n", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == PINNED_DIGESTS.splitlines()
    assert nclobber.cli.main(["enumerate", "9", "--inventory", "--format", "json"]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == PINNED_INVENTORY_9
