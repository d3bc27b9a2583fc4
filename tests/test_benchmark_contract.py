"""Every gausslil name the benchmark adapter imports must keep resolving.

The benchmark's adapter is the library's one outside client in this
repository; an API cleanup that drops or renames a name it uses would only
show up when the benchmark runs. This test reads its imports statically.
"""
import ast
import importlib
from pathlib import Path

ADAPTER = Path(__file__).resolve().parents[1] / "perfbench" / "adapter.py"


def test_adapter_imports_resolve():
    tree = ast.parse(ADAPTER.read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "gausslil"
        for alias in node.names
    ]
    assert imported, "adapter imports nothing from gausslil"
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
