"""The layers import downward only: each module of the package imports only
the modules listed before it in LAYERS (the order bench/tracer.py assumes)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pkcswb"
LAYERS = ("asn1", "oids", "errors", "primitives", "pkcs5", "rsa", "pkcs1",
          "keystore", "csr", "cms", "pfx", "token", "cli")


def _package_imports(path: Path):
    """Names of the pkcswb modules that ``path`` imports, relatively or not."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "pkcswb":
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("pkcswb."))


def test_every_module_has_a_place_in_the_layer_order():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules) == sorted(LAYERS)


def test_each_layer_imports_only_the_layers_before_it():
    upward = [f"{layer} imports {name}"
              for index, layer in enumerate(LAYERS)
              for name in _package_imports(PACKAGE / f"{layer}.py")
              if name not in LAYERS[:index]]
    assert upward == []
