"""The benchmark's per-layer tracer still finds every function it times."""

import ast
from pathlib import Path

import nclobber
import nclobber.cli  # the package does not import its CLI module

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
