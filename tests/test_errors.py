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
from pkcswb import asn1, cli, csr, keystore, pfx, pkcs1, primitives
from pkcswb.errors import BadParameter, PkcsError
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
    "csr.Name.__init__": ValueError,
    "csr.build_csr": ValueError,
    "pfx.SafeBag.__init__": ValueError,
    "pfx.pfx_create": ValueError,
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


def _raised_class(module, raise_node: ast.Raise):
    """The class a raise statement raises."""
    target = raise_node.exc.func if isinstance(raise_node.exc, ast.Call) else raise_node.exc
    if isinstance(target, ast.Attribute):
        return getattr(getattr(module, target.value.id), target.attr)
    return getattr(module, target.id, None) or getattr(builtins, target.id)


def test_every_raised_class_is_declared_or_a_listed_programming_error():
    undeclared, seen = [], set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"pkcswb.{path.stem}")
        for name, node in _raises(ast.parse(path.read_text(), str(path))):
            raised = _raised_class(module, node)
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
    "csr.Name.__init__": lambda a, b: csr.Name((("commonName", "x"), ("nickname", "y"))),
    "csr.build_csr": lambda a, b: csr.build_csr(
        csr.Name((("commonName", "x"),)), (b[0], a[1]), (), seeded(b"r")),
    "pfx.SafeBag.__init__": lambda a, b: pfx.SafeBag(None),
    "pfx.pfx_create": lambda a, b: pfx.pfx_create(
        (), pfx.PRIVACY_PUBLIC_KEY, "unknown", pfx.PfxCredentials(destination_pub=b[0]),
        seeded(b"r")),
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
        "DigestMismatch", "SignatureInvalid", "ScenarioStepFailed"}
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
       for name in ("contentType", "signingTime", "challengePassword", "friendlyName")},
    **{f"natural_person_bundle.{field}": (
        lambda text, field=field: keystore.natural_person_bundle(**{field: text}))
       for field in keystore._NATURAL_PERSON_FIELDS},
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
