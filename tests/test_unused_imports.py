"""Every name a module of the package or of the tests imports is used in it:
read by the module's code or re-exported through its ``__all__``.  An import
kept for its side effect says so with ``# noqa: F401`` on its line."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "pkcswb").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name ``path`` imports and does not use."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported = {}  # the bound name -> the line of its first import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            used.update(element.value for element in node.value.elts)
    return [(line, name) for name, line in imported.items()
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def test_no_module_imports_a_name_it_does_not_use():
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in MODULES for line, name in _unused_imports(path)] == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom a.b import c, d as e\n"
                      "import x.y\n__all__ = ['c']\nprint(x)\n")
    assert _unused_imports(module) == [(1, "os"), (3, "e")]
