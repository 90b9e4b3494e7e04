"""The layers import downward only: each module of the package imports only
the modules listed before it in LAYERS (the order bench/tracer.py assumes).
One decision sits in one layer: only pkcs1 names PssParams, only pkcs5
names the password-based OIDs, AlgorithmIdentifier is defined in asn1 alone,
and only primitives (CBC decryption), cms and pfx (their headers) enter
uniform_decryption."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pkcswb"
LAYERS = ("errors", "asn1", "oids", "primitives", "pkcs5", "rsa", "pkcs1",
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


def _identifiers(path: Path):
    """Every name, attribute and imported name that ``path`` spells."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_pkcs1_names_pss_params():
    # the salt rule is pkcs1's: signers call pkcs1.sign and never build PSS parameters
    naming = sorted(path.stem for path in PACKAGE.glob("*.py")
                    if path.stem != "pkcs1" and "PssParams" in set(_identifiers(path)))
    assert naming == []


def test_only_pkcs5_names_the_password_based_oids():
    # the PBES2 and PBKDF2 headers are pkcs5's: keystore and pfx pass identifiers through
    naming = sorted(path.stem for path in PACKAGE.glob("*.py")
                    if path.stem not in ("oids", "pkcs5")
                    and {"PBES2", "PBKDF2", "LEGACY_PBE"} & set(_identifiers(path)))
    assert naming == []


def test_algorithm_identifier_is_defined_only_in_asn1():
    # RFC 5280's generic type sits below pkcs1, so every layer can name it
    defining = sorted(path.stem for path in PACKAGE.glob("*.py")
                      if any(isinstance(node, ast.ClassDef) and node.name == "AlgorithmIdentifier"
                             for node in ast.walk(ast.parse(path.read_text(), str(path)))))
    assert defining == ["asn1"]


def test_only_primitives_cms_and_pfx_enter_uniform_decryption():
    # the CBC decryption rule is cbc_decrypt's: pkcs5 and keystore pass a reader to it
    entering = sorted(path.stem for path in PACKAGE.glob("*.py")
                      if path.stem != "errors"
                      and "uniform_decryption" in set(_identifiers(path)))
    assert entering == ["cms", "pfx", "primitives"]
