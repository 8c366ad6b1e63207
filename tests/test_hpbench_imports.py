"""The benchmark harness under hpbench/ imports names from the package; each
must keep resolving, so a rename in src/ cannot break the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

HPBENCH = Path(__file__).resolve().parents[1] / "hpbench"


def hpdiv_imports():
    """(file, module, name) for every hpdiv import in hpbench/*.py; name is
    None for a plain ``import hpdiv.x``."""
    out = []
    for path in sorted(HPBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "hpdiv":
                    out += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, a.name, None) for a in node.names
                        if a.name.split(".")[0] == "hpdiv"]
    return sorted(set(out), key=str)


def test_hpbench_imports_found():
    found = hpdiv_imports()
    assert {"workloads.py", "run.py"} <= {f for f, _, _ in found}
    assert ("workloads.py", "hpdiv.estimators", "affine_map") in found


@pytest.mark.parametrize("where, module, name", hpdiv_imports())
def test_hpbench_import_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, as `from` finds one
