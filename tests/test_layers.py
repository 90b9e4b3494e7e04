"""The layers import downward only: each module of the package imports only
the modules listed before it in LAYERS (the order bench/tracer.py assumes).
One decision sits in one layer: only pkcs1 names PssParams, each algorithm
OID is named by the one module that writes and reads its identifier, only
pkcs1, which writes and reads the RSA key layouts, calls rsa's
check_key_caps, token reads a public key without csr, AlgorithmIdentifier is
defined in asn1 alone, and only primitives (CBC decryption), cms and pfx
(their headers) enter uniform_decryption."""

import ast
from pathlib import Path

from pkcswb import oids

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


# each algorithm OID of oids.py -> the one module that writes and reads its
# identifier: the standard that defines it (RFC 8017 §A.1-A.2, RFC 8018 §A-B),
# and cms for the digest algorithm
OID_OWNERS = {
    "RSA_ENCRYPTION": "pkcs1", "RSASSA_PSS": "pkcs1", "RSAES_OAEP": "pkcs1", "MGF1": "pkcs1",
    "PBES2": "pkcs5", "PBKDF2": "pkcs5", "LEGACY_PBE": "pkcs5", "AES128_CBC": "pkcs5",
    "HMAC_WITH_SHA256": "pkcs5",
    "SHA256": "cms",
}


def _oid_names(path: Path):
    """The names of oids.py that ``path`` spells, as ``oids.NAME`` or imported
    from oids; a bare SHA256 is primitives' hash function, not the OID."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "oids"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oids"):
            yield from (alias.name for alias in node.names)


def test_the_owner_table_holds_every_algorithm_oid():
    # the rest of oids.py: content types, attribute types, name parts, bag types
    others = ("CT_", "AT_", "CN", "COUNTRY", "ORGANIZATION", "KEY_BAG", "SHROUDED_KEY_BAG",
              "CERT_BAG")
    algorithms = {name for name in vars(oids) if name.isupper() and not name.startswith(others)}
    assert algorithms == set(OID_OWNERS)


def test_each_algorithm_oid_is_named_only_by_its_owner():
    # keystore, csr and pfx pass identifiers through; cms names only SHA-256
    naming = sorted(f"{path.stem} names {name}" for path in PACKAGE.glob("*.py")
                    if path.stem != "oids"
                    for name in set(_oid_names(path)) & set(OID_OWNERS)
                    if OID_OWNERS[name] != path.stem)
    assert naming == []


def test_only_pkcs1_checks_key_caps_and_token_does_not_import_csr():
    # the key layouts are PKCS #1 syntax (RFC 8017 §A.1); PKCS #8 and #10 only carry them
    naming = sorted(path.stem for path in PACKAGE.glob("*.py")
                    if path.stem not in ("rsa", "pkcs1")
                    and "check_key_caps" in set(_identifiers(path)))
    token_imports_csr = "csr" in set(_package_imports(PACKAGE / "token.py"))
    assert (naming, token_imports_csr) == ([], False)


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
