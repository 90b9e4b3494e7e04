"""One declared-error root.  Every class that pkcswb raises derives from
``errors.PkcsError``, except the programming-error raises listed in
PROGRAMMING_ERRORS (an unknown scheme, mode, bag type or fault point, a
DerValue built from the wrong types, ...), and ``exit_code`` is 1 exactly for
the cryptographic failures."""

import ast
import builtins
import importlib
from pathlib import Path

import pkcswb
from pkcswb.errors import PkcsError

PACKAGE = Path(pkcswb.__file__).resolve().parent

# "module.function": the builtin class it raises for a caller's mistake
PROGRAMMING_ERRORS = {
    "asn1.Oid.__post_init__": ValueError,
    "asn1.DerValue.__init__": ValueError,
    "asn1.bit_string": ValueError,
    "asn1.printable_string": ValueError,
    "primitives.HashAlg.digest": ValueError,
    "primitives.mgf": ValueError,
    "primitives.RandomSource.read": NotImplementedError,
    "primitives.ConstantSource.__init__": ValueError,
    "pkcs1.PssParams.__post_init__": ValueError,
    "pkcs1.encrypt": ValueError,
    "pkcs1.decrypt": ValueError,
    "pkcs1.sign": ValueError,
    "csr.Name.__post_init__": ValueError,
    "csr.build_csr": ValueError,
    "pfx.SafeBag.__post_init__": ValueError,
    "pfx._privacy_wrap": ValueError,
    "pfx.pfx_create": ValueError,
    "token.Token.login": ValueError,
    "token.Token.create_object": ValueError,
    "cli.run_scenario": ValueError,
}


def _raises(tree: ast.Module):
    """(qualified function name, raise node, the function's node) for every
    raise with an exception inside a function."""
    def walk(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child if isinstance(child, ast.FunctionDef) else function
                yield from walk(child, scope + [child.name], inner)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                yield ".".join(scope), child, function
            else:
                yield from walk(child, scope, function)
    yield from walk(tree, [], None)


def _raised_class(module, raise_node: ast.Raise, function: ast.FunctionDef):
    """The class a raise statement raises; a parameter annotated
    ``type[X]`` stands for X."""
    target = raise_node.exc.func if isinstance(raise_node.exc, ast.Call) else raise_node.exc
    if isinstance(target, ast.Attribute):
        return getattr(getattr(module, target.value.id), target.attr)
    annotations = {arg.arg: arg.annotation for arg in function.args.args}
    annotation = annotations.get(target.id)
    if isinstance(annotation, ast.Subscript):  # type[X]
        target = annotation.slice
    return getattr(module, target.id, None) or getattr(builtins, target.id)


def test_every_raised_class_is_declared_or_a_listed_programming_error():
    undeclared, seen = [], set()
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"pkcswb.{path.stem}")
        for name, node, function in _raises(ast.parse(path.read_text(), str(path))):
            raised = _raised_class(module, node, function)
            if issubclass(raised, PkcsError):
                continue
            where = f"{path.stem}.{name}"
            if PROGRAMMING_ERRORS.get(where) is raised:
                seen.add(where)
            else:
                undeclared.append(f"{where}:{node.lineno} raises {raised.__name__}")
    assert undeclared == []
    assert seen == set(PROGRAMMING_ERRORS)  # no entry outlives its raise


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
