"""The layers import downward only: each module of the package imports only
the modules listed before it in LAYERS (the order bench/tracer.py assumes).
One decision sits in one layer: only pkcs1 names PssParams, each algorithm
OID is named by the one module that writes and reads its identifier, each
attribute-type OID by keystore alone (and contentType and messageDigest, the
two attributes it adds and finds, by cms too), only pkcs1, which writes and
reads the RSA key layouts, calls rsa's check_key_caps, each algorithm refusal is raised by the owner of the
identifier alone, token reads a public key without csr, AlgorithmIdentifier
is defined in asn1 alone, only asn1 keeps a container's value and defines its
codec, only asn1 and pkcs5 turn a DER fault into another class, only
primitives (CBC decryption), cms and pfx (their headers) enter
uniform_decryption, only asn1, whose rules decide what a string or time
value holds, reads string octets, only keystore's ``_values_check``, the
one check of an attribute built or received, reads the registry's syntax, and
only keystore, whose ``attribute_make`` builds every attribute value,
constructs an Attribute."""

import ast
from pathlib import Path

from pkcswb import asn1, oids

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


# the attribute-type OIDs of oids.py: keystore's ATTRIBUTE_REGISTRY alone names
# them, but for the contentType and messageDigest attributes that cms adds and finds
ATTRIBUTE_OIDS = {name for name in vars(oids)
                  if name.startswith("AT_") or name in ("CN", "COUNTRY", "ORGANIZATION")}
ATTRIBUTE_OID_NAMERS = {"AT_CONTENT_TYPE": {"keystore", "cms"},
                        "AT_MESSAGE_DIGEST": {"keystore", "cms"}}


def test_each_attribute_oid_is_named_only_by_keystore():
    # csr reads a subject's components through the registry, by name
    naming = sorted(f"{path.stem} names {name}" for path in PACKAGE.glob("*.py")
                    if path.stem != "oids"
                    for name in set(_oid_names(path)) & ATTRIBUTE_OIDS
                    if path.stem not in ATTRIBUTE_OID_NAMERS.get(name, {"keystore"}))
    assert naming == []


def _raised_messages(path: Path):
    """The leading text of each message ``path`` raises, plain or f-string."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            if isinstance(message, ast.JoinedStr) and message.values:
                message = message.values[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                yield message.value


# the leading text of each refusal of a received algorithm -> the one module
# that raises it, the owner of the identifier in OID_OWNERS
ALGORITHM_REFUSALS = {
    "unsupported signature algorithm": "pkcs1",
    "unsupported key algorithm": "pkcs1",
    "unsupported key transport algorithm": "pkcs1",
    "unsupported digest algorithm": "cms",
    "unsupported MAC algorithm": "pkcs5",
    "unsupported cipher": "pkcs5",
    "unsupported key derivation": "pkcs5",
    "unsupported encryption algorithm": "pkcs5",
}


def test_each_algorithm_refusal_is_raised_by_its_owner_alone():
    # requests, signed-data, digested-data, authenticated-data, PBES2 and PFX
    # share each owner's one refusal: none raises its own
    raising = {path.stem: list(_raised_messages(path)) for path in PACKAGE.glob("*.py")}
    owners = {refusal: [module for module, messages in sorted(raising.items())
                        if any(message.startswith(refusal) for message in messages)]
              for refusal in ALGORITHM_REFUSALS}
    assert owners == {refusal: [owner] for refusal, owner in ALGORITHM_REFUSALS.items()}


DER_ERRORS = {cls.__name__ for cls in vars(asn1).values()
              if isinstance(cls, type) and issubclass(cls, asn1.DerError)}


def _translating_handlers(path: Path):
    """The line of each except clause in ``path`` that catches DerError (or a
    subclass of it) by name and raises in its body."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.attr if isinstance(c, ast.Attribute) else getattr(c, "id", "")
                     for c in caught}
            if names & DER_ERRORS and any(isinstance(inner, ast.Raise) and inner.exc is not None
                                          for statement in node.body
                                          for inner in ast.walk(statement)):
                yield node.lineno


def test_only_asn1_and_pkcs5_turn_a_der_fault_into_another_class():
    # DerForm gives a container's faults its class; pkcs5 reports a DER fault
    # in its own PBES2 and PBKDF2 headers as MalformedKey
    translating = sorted(path.stem for path in PACKAGE.glob("*.py")
                         if any(_translating_handlers(path)))
    assert translating == ["asn1", "pkcs5"]


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


def test_only_asn1_keeps_a_container_value_and_defines_its_codec():
    # every container builds through _build and parses through _parse; asn1's
    # DerForm alone keeps the value and defines to_der_value, to_der,
    # from_der_value and from_der, which give a reader's faults their class
    keeping, defining = [], set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "asn1":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "_value"
                    or isinstance(node, ast.Constant) and node.value == "_value"):
                keeping.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.ClassDef):
                defining |= {f"{path.stem}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name in
                             ("to_der_value", "to_der", "from_der_value", "from_der")}
    assert (keeping, defining) == ([], set())


def test_only_primitives_cms_and_pfx_enter_uniform_decryption():
    # the CBC decryption rule is cbc_decrypt's: pkcs5 and keystore pass a reader to it
    entering = sorted(path.stem for path in PACKAGE.glob("*.py")
                      if path.stem != "errors"
                      and "uniform_decryption" in set(_identifiers(path)))
    assert entering == ["cms", "pfx", "primitives"]


# the patterns of asn1's string and time rules, and the names other modules
# have given such patterns
TEXT_RULE_NAMES = {"_TEXT_SYNTAX", "_TIME_TAIL", "_MONTH_DAYS", "_PRINTABLE_RE", "_UTC_TIME",
                   "_GENERALIZED_TIME"}


def _reads_string_octets(node) -> bool:
    """Whether ``node`` decodes a value's octets or content, or names a text rule."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "decode":
        return any(isinstance(inner, ast.Attribute) and inner.attr in ("octets", "content")
                   for inner in ast.walk(node.func.value))
    return (isinstance(node, ast.Name) and node.id in TEXT_RULE_NAMES
            or isinstance(node, ast.Attribute) and node.attr in TEXT_RULE_NAMES)


def test_only_asn1_reads_string_octets():
    # as_text gives the text of a value its type's rule admitted, built or decoded
    reading = sorted({f"{path.stem}.{getattr(top, 'name', '<module>')}"
                      for path in PACKAGE.glob("*.py") if path.stem != "asn1"
                      for top in ast.parse(path.read_text(), str(path)).body
                      for node in ast.walk(top) if _reads_string_octets(node)})
    assert reading == []


def _reads_attribute_syntax(node) -> bool:
    """Whether ``node`` reads the attribute registry's syntax column: binds a
    row's fourth field to a name, indexes a row by it, or loads the OID map
    built from it."""
    if isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Store):
        return len(node.elts) == 4 and not (isinstance(node.elts[3], ast.Name)
                                            and node.elts[3].id == "_")
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return node.slice.value in (3, -1) and any(
            isinstance(inner, ast.Name) and inner.id == "ATTRIBUTE_REGISTRY"
            for inner in ast.walk(node.value))
    return isinstance(node, ast.Name) and node.id == "_SYNTAX_BY_OID" \
        and isinstance(node.ctx, ast.Load)


def _top_level_name(top) -> str:
    """A function's or class's name, or the first name a module-level statement assigns."""
    if hasattr(top, "name"):
        return top.name
    targets = [target for target in getattr(top, "targets", [getattr(top, "target", None)])
               if isinstance(target, ast.Name)]
    return targets[0].id if targets else "<module>"


def test_only_values_check_reads_attribute_syntax():
    # one check of an attribute, built or received: the map is built from the
    # registry's syntax column where it is defined, and read by _values_check alone
    path = PACKAGE / "keystore.py"
    reading = sorted({_top_level_name(top) for top in ast.parse(path.read_text(), str(path)).body
                      for node in ast.walk(top) if _reads_attribute_syntax(node)})
    assert reading == ["_SYNTAX_BY_OID", "_values_check"]
    naming = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "keystore"
                    and {"_values_check", "_SYNTAX_BY_OID"} & set(_identifiers(path)))
    assert naming == []


def _builds_an_attribute(node) -> bool:
    """Whether ``node`` calls the Attribute constructor or names ``_attribute_value``."""
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == "Attribute"
    return "_attribute_value" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))


def test_only_keystore_builds_an_attribute():
    # attribute_make is the one builder of an attribute value: the bundles and
    # csr.Name take their values from it, and no other module constructs one
    building = sorted(f"{path.stem}:{node.lineno}" for path in PACKAGE.glob("*.py")
                      if path.stem != "keystore"
                      for node in ast.walk(ast.parse(path.read_text(), str(path)))
                      if _builds_an_attribute(node))
    assert building == []
