"""Every imported name is read somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ imports names only to re-export them
REEXPORTS = ROOT / "src" / "mgtdispatch" / "__init__.py"


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(bound, key=lambda b: b[1]) if name not in read]


def test_checker_flags_unused_names():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from dataclasses import dataclass, field\nx: np.ndarray = os.path.sep\n")
    assert unused_imports(src) == ["line 4: dataclass", "line 4: field"]


def test_no_unused_imports():
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py")) if p != REEXPORTS]
    assert len(files) > 20
    found = [f"{p.relative_to(ROOT)} {hit}" for p in files for hit in unused_imports(p.read_text())]
    assert found == []
