"""The scripts under scripts/ stay in step with the library's API."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magband

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("magband", "magband.tables")
        for alias in node.names
    ]


@pytest.mark.parametrize("script", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_exist(script):
    names = _imports(script)
    assert names, f"{script.name} imports nothing from magband"
    imported = {}
    for module, name in names:
        owner = importlib.import_module(module)
        assert hasattr(owner, name), f"{module}.{name}"
        imported[name] = getattr(owner, name)
    # every call of an imported name binds its arguments to the real signature
    for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        signature = inspect.signature(imported[node.func.id])
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        positional = [] if starred else [None] * len(node.args)
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            signature.bind_partial(*positional, **keywords)
        except TypeError as exc:
            pytest.fail(f"{script.name}:{node.lineno}: {node.func.id}(...): {exc}")


def test_scaling_landscape_runs():
    src = str(Path(magband.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "scaling_landscape.py")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "log-log slope of xi_m vs k_m" in proc.stdout
