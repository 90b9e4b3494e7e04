"""One declared-error root.  Every class that pkcswb raises derives from
``errors.PkcsError``, except the programming-error raises listed in
PROGRAMMING_ERRORS (an unknown scheme, mode or fault point, a value no bag
holds, a DerValue built from the wrong types, an attribute set on an immutable value,
...), and ``exit_code`` is 1 exactly for the cryptographic failures."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import pkcswb
from pkcswb import asn1, cli, csr, keystore, oids, pfx, pkcs1, primitives
from pkcswb.errors import BadParameter, MalformedKey, PkcsError, UnsupportedAlgorithm
from conftest import seeded

PACKAGE = Path(pkcswb.__file__).resolve().parent

# "module.function": the builtin class it raises for a caller's mistake
PROGRAMMING_ERRORS = {
    "errors.Frozen.__setattr__": AttributeError,
    "asn1.DerValue.__init__": ValueError,
    "primitives.mgf": ValueError,
    "primitives.RandomSource.read": NotImplementedError,
    "primitives.ConstantSource.__init__": ValueError,
    "pkcs1.PssParams.__init__": ValueError,
    "pkcs1.encrypt": ValueError,
    "pkcs1.decrypt": ValueError,
    "csr.build_csr": ValueError,
    "pfx.SafeBag.__init__": ValueError,
    "token.Token.login": ValueError,
    "token.Token.create_object": ValueError,
    "cli.run_scenario": ValueError,
}


def _raises(tree: ast.Module):
    """(qualified function name, raise node) for every raise with an exception
    inside a function."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
            elif isinstance(child, ast.Raise) and child.exc is not None:
                yield ".".join(scope), child
            else:
                yield from walk(child, scope)
    yield from walk(tree, [])


def _raised_classes(module, raise_node: ast.Raise) -> set:
    """The classes a raise statement raises: one, or for DerForm's raise of
    ``cls.fault``, the value of ``fault`` on DerForm and each container class."""
    target = raise_node.exc.func if isinstance(raise_node.exc, ast.Call) else raise_node.exc
    if isinstance(target, ast.Attribute) and target.value.id == "cls":
        forms = [asn1.DerForm, *_declared_classes(asn1.DerForm)]
        return {getattr(form, target.attr) for form in forms}
    if isinstance(target, ast.Attribute):
        return {getattr(getattr(module, target.value.id), target.attr)}
    return {getattr(module, target.id, None) or getattr(builtins, target.id)}


def test_every_raised_class_is_declared_or_a_listed_programming_error():
    undeclared, seen = [], set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"pkcswb.{path.stem}")
        for name, node in _raises(ast.parse(path.read_text(), str(path))):
            for raised in _raised_classes(module, node):
                if issubclass(raised, PkcsError):
                    continue
                where = f"{path.stem}.{name}"
                if PROGRAMMING_ERRORS.get(where) is raised:
                    seen.add(where)
                else:
                    undeclared.append(f"{where}:{node.lineno} raises {raised.__name__}")
    assert undeclared == []
    assert seen == set(PROGRAMMING_ERRORS)  # no entry outlives its raise


def _initialized_token():
    """A token with its SO PIN set, and a read-write session on it."""
    token = pkcswb.token.Token("programming-errors", seeded(b"token"))
    token.initialize("so-pin")
    return token, token.open_session(rw=True)


# "module.function": a call that reaches its programming-error raise with a
# minimal bad input, given the fixture keys (public, private), (public, private)
PROGRAMMING_ERROR_CALLS = {
    "errors.Frozen.__setattr__": lambda a, b: setattr(asn1.Oid((1, 2)), "arcs", (1, 3)),
    "asn1.DerValue.__init__": lambda a, b: asn1.DerValue(
        asn1.TagClass.UNIVERSAL, asn1.SEQUENCE, None),
    "primitives.mgf": lambda a, b: primitives.mgf(b"", -1),
    "primitives.RandomSource.read": lambda a, b: primitives.RandomSource().read(1),
    "primitives.ConstantSource.__init__": lambda a, b: primitives.ConstantSource(256),
    "pkcs1.PssParams.__init__": lambda a, b: pkcs1.PssParams(1024, salt_len=-1),
    "pkcs1.encrypt": lambda a, b: pkcs1.encrypt(b"", a[0], "unknown", seeded(b"r")),
    "pkcs1.decrypt": lambda a, b: pkcs1.decrypt(b"", a[1], "unknown"),
    "csr.build_csr": lambda a, b: csr.build_csr(
        csr.Name((("commonName", "x"),)), (b[0], a[1]), (), seeded(b"r")),
    "pfx.SafeBag.__init__": lambda a, b: pfx.SafeBag(None),
    "token.Token.login": lambda a, b: (
        lambda token, session: token.login(session, "unknown", "so-pin"))(
            *_initialized_token()),
    "token.Token.create_object": lambda a, b: (
        lambda token, session: token.create_object(session, "unknown", {}))(
            *_initialized_token()),
    "cli.run_scenario": lambda a, b: cli.run_scenario(b"seed", "unknown"),
}


def test_the_call_table_covers_every_programming_error():
    assert set(PROGRAMMING_ERROR_CALLS) == set(PROGRAMMING_ERRORS)


@pytest.mark.parametrize("where", PROGRAMMING_ERROR_CALLS)
def test_each_programming_error_raises_its_listed_class(key_1024, key_1024_b, where):
    with pytest.raises(Exception) as raised:
        PROGRAMMING_ERROR_CALLS[where](key_1024, key_1024_b)
    assert raised.type is PROGRAMMING_ERRORS[where]
    tb = raised.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    module, function = where.split(".")[0], where.split(".")[-1]
    assert (tb.tb_frame.f_globals["__name__"], tb.tb_frame.f_code.co_name) == (
        f"pkcswb.{module}", function)  # raised where the row says


def _declared_classes(cls=PkcsError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _declared_classes(sub)


def test_exit_code_is_1_exactly_for_cryptographic_failures():
    importlib.import_module("pkcswb.cli")
    failures = {cls.__name__ for cls in _declared_classes() if cls.exit_code == 1}
    token_errors = {cls.__name__ for cls in _declared_classes(pkcswb.token.TokenError)}
    assert failures == token_errors | {
        "TokenError", "DecryptionError", "IntegrityFailure",
        "DigestMismatch", "SignatureInvalid", "ScenarioStepFailed", "FaultDetected"}
    assert {cls.exit_code for cls in _declared_classes()} == {1, 2}


# Text a user may type, outside the syntax of the builders below: empty, a
# character PrintableString lacks, NUL, non-ASCII, a lone surrogate, a very
# long string, malformed dotted OIDs and malformed times; then dotted text
# that int() would read as another OID's arcs.
FOREIGN_TEXT = ["", "a_b", "\x00", "é", "\udcff", "x" * 70_000, "1", "1..2", "3.1", "1.2.",
                "2024-01-01T00:00:00Z", "991332250000Z"]
LOOSE_DOTTED = ["1.2.\u0661", " 1.2", "1.+2", "1.2_0"]

# every public builder of a value from caller text
TEXT_BUILDERS = {
    **{f"asn1.{f.__name__}": f for f in (asn1.utf8_string, asn1.printable_string,
                                         asn1.ia5_string, asn1.utc_time,
                                         asn1.generalized_time, asn1.oid_value)},
    **{f"attribute_make.{name}": (lambda text, name=name: keystore.attribute_make(name, text))
       for name, (_, kind, _, _) in keystore.ATTRIBUTE_REGISTRY.items()
       if kind is not None and issubclass(str, kind)},
    **{f"csr.Name.{field}": (
        lambda text, field=field: csr.Name((("commonName", "x"), (field, text))).to_der())
       for field in csr._NAME_FIELDS},
}


@pytest.mark.parametrize("text", FOREIGN_TEXT + LOOSE_DOTTED,
                         ids=lambda text: ascii(text[:16]))
@pytest.mark.parametrize("builder", TEXT_BUILDERS)
def test_text_builders_give_a_value_or_a_declared_error(builder, text):
    try:
        TEXT_BUILDERS[builder](text)
    except PkcsError:
        pass


@pytest.mark.parametrize("text", LOOSE_DOTTED + ["", "1", "1..2", "1.2.", "1." + "2" * 5000],
                         ids=lambda text: ascii(text[:16]))
def test_dotted_text_outside_ascii_digit_arcs_is_bad_parameter(text):
    with pytest.raises(BadParameter):
        asn1.Oid.parse(text)


RSA_ENCRYPTION_DER = asn1.der_encode(asn1.oid_value(oids.RSA_ENCRYPTION))
HMAC_SHA256_DER = asn1.der_encode(asn1.oid_value(oids.HMAC_WITH_SHA256))


def _pkcs8_and_10(key_1024):
    """container -> (its class, the class of a fault read in it, its DER, how
    it is opened, the DER of the OID of an algorithm it reads, the refusal of
    that OID with one added to its last octet)."""
    private = key_1024[1]
    info = keystore.PrivateKeyInfo(private)
    epki = keystore.encrypt_private_key(info, b"pw", b"saltsalt", 2, seeded(b"e"))
    request = csr.build_csr(csr.Name((("commonName", "x"),)), key_1024, (), seeded(b"r"))
    return {
        "PrivateKeyInfo": (keystore.PrivateKeyInfo, MalformedKey, info.to_der(),
                           keystore.PrivateKeyInfo.from_der, RSA_ENCRYPTION_DER,
                           "unsupported key algorithm 1.2.840.113549.1.1.2"),
        "EncryptedPrivateKeyInfo": (
            keystore.EncryptedPrivateKeyInfo, MalformedKey, epki.to_der(),
            lambda der: keystore.decrypt_private_key(
                keystore.EncryptedPrivateKeyInfo.from_der(der), b"pw"),
            HMAC_SHA256_DER, "unsupported MAC algorithm 1.2.840.113549.2.10"),
        "CertificationRequest": (csr.CertificationRequest, csr.MalformedRequest,
                                 request.to_der(), csr.CertificationRequest.from_der,
                                 RSA_ENCRYPTION_DER,
                                 "unsupported key algorithm 1.2.840.113549.1.1.2"),
    }


@pytest.mark.parametrize("container", ["PrivateKeyInfo", "EncryptedPrivateKeyInfo",
                                       "CertificationRequest"])
def test_a_pkcs8_or_10_fault_takes_the_container_class_but_an_unsupported_algorithm(
        key_1024, container):
    form, fault, der, read, oid_der, refusal = _pkcs8_and_10(key_1024)[container]
    value = asn1.der_decode(der)
    # a truncated encoding, a value cut to its first field, and one that is no SEQUENCE
    for reading in (lambda: form.from_der(der[:-1]),
                    lambda: form.from_der_value(asn1.sequence(value.children[0])),
                    lambda: form.from_der_value(asn1.integer(0))):
        with pytest.raises(PkcsError) as raised:
            reading()
        assert type(raised.value) is fault
    assert der.count(oid_der) == 1
    end = der.index(oid_der) + len(oid_der) - 1
    with pytest.raises(UnsupportedAlgorithm) as raised:
        read(der[:end] + bytes([der[end] + 1]) + der[end + 1:])
    assert (type(raised.value), str(raised.value)) == (UnsupportedAlgorithm, refusal)
