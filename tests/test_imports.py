"""Every imported name is read somewhere in its module, and every private
module-level name in the package is read by some module of it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mgtdispatch"
# the package's __init__ imports names only to re-export them
REEXPORTS = PACKAGE / "__init__.py"


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level _names (functions, classes, constants; dunders aside) that no module reads.

    sources maps module names to source text. A name is read when its own
    module loads it, or when another module imports it relatively
    (test_no_unused_imports checks that every import is read).
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module, a.name) for a in node.names)
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            unread += [f"{mod} line {node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and (mod, name) not in read]
    return unread


def test_checker_flags_unread_private_names():
    sources = {
        "a": "_USED = 1\n_LEFT: int = 2\n__all__ = []\ndef _helper():\n    return _USED\nclass _Old:\n    pass\n",
        "b": "from .a import _helper\n_x, _y = _helper(), 0\nprint(_x)\n",
    }
    assert unread_private_names(sources) == ["a line 2: _LEFT", "a line 6: _Old", "b line 2: _y"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 10
    assert unread_private_names(sources) == []
