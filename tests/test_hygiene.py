"""Source hygiene: every imported name is used by the module that imports
it, in the package, its tests and its tools."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_finder():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n"
              "def f(x: np.ndarray):\n    return parse(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


def test_no_unused_imports():
    files = [path for folder in ("src/saasr", "tests", "tools")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(files) > 20
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in files
                 for line, name in unused_imports(path.read_text())]
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)
