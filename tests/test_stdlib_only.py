"""The runtime stays stdlib-only: no import outside the standard library, and
no code generated at import: neither ``dataclasses`` nor ``typing`` is
imported and nothing calls ``exec``, ``eval`` or ``compile``.  One process
is started, by one module: ``rsa`` forks its exponentiation worker with
``os.fork``, and nothing imports ``multiprocessing``, ``concurrent`` or
``subprocess``.  The oracles the tests and the benchmark check pkcswb
against import only the standard library, so neither shares code with what
it checks."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pkcswb"
ORACLES = (ROOT / "bench" / "oracles.py", ROOT / "tests" / "oracles.py")


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    foreign = sorted(
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in PACKAGE.rglob("*.py")
        for name in _imported_modules(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"pkcswb"})
    assert foreign == []
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return
    with open(ROOT / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["dependencies"] == []


def test_package_generates_no_code():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE)
        found += [f"{where}: import {name}" for name in _imported_modules(path)
                  if name.partition(".")[0] in ("dataclasses", "typing")]
        found += [f"{where}:{node.lineno}: {node.func.id}()"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval", "compile")]
    assert found == []


def test_only_rsa_forks_and_nothing_starts_a_process_another_way():
    forking, starting = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE)
        forking += [f"{where}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith("fork")
                    or isinstance(node, ast.alias) and node.name.startswith("fork")]
        starting += [f"{where}: import {name}" for name in _imported_modules(path)
                     if name.partition(".")[0] in ("multiprocessing", "concurrent", "subprocess")]
    assert [entry.partition(":")[0] for entry in forking] == ["rsa.py"]
    assert starting == []


def test_oracles_import_only_the_standard_library():
    foreign = []
    for path in ORACLES:
        where = path.relative_to(ROOT)
        foreign += [f"{where}: {name}" for name in _imported_modules(path)
                    if name.partition(".")[0] not in sys.stdlib_module_names]
        foreign += [f"{where}:{node.lineno}: relative import"
                    for node in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(node, ast.ImportFrom) and node.level]
    assert foreign == []
