"""The benchmark's view of the package: every ``pkcswb`` name that ``bench/``
spells still resolves, so a rename in ``src/`` that would break a benchmark
run fails here first.  ``bench/`` is only read, as source text."""

import ast
import importlib
from pathlib import Path

import pytest

import pkcswb
import pkcswb.cli  # noqa: F401  (the benchmark imports it too)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None unless it is names and attributes only."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _package_path(chain: list[str], aliases: dict[str, str]) -> list[str] | None:
    """The path below ``pkcswb`` of a chain read through ``pk``, ``self.pk``
    or a local alias of one of its modules, such as ``cms = self.pk.cms``."""
    for prefix in (["pk"], ["self", "pk"]):
        if chain[:len(prefix)] == prefix:
            return chain[len(prefix):]
    if chain[0] in aliases:
        return [aliases[chain[0]], *chain[1:]]
    return None


def workload_names() -> set[tuple[str, ...]]:
    """Every pkcswb path that ``bench/workloads.py`` spells, module first."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) and _chain(node.value):
                path = _package_path(_chain(node.value), {})
                if path is not None and len(path) == 1:
                    aliases[node.targets[0].id] = path[0]
        for node in ast.walk(function):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            path = chain and _package_path(chain, aliases)
            if path:
                names.add(tuple(path))
    return names


def tracer_work_keys() -> set[str]:
    """The keys of ``bench/tracer.py``'s WORK table."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [_chain(t) for t in node.targets] == [["WORK"]]:
            return {key.value for key in node.value.keys}
    raise AssertionError("bench/tracer.py has no WORK table")


def test_the_reader_finds_direct_and_aliased_names():
    names = workload_names()
    assert ("csr", "pss_salt_len_for") in names  # pk.csr.pss_salt_len_for
    assert ("cli", "run_scenario") in names  # self.pk.cli.run_scenario
    assert ("cms", "ContentInfo", "from_der") in names  # cms = self.pk.cms
    assert ("cms", "DigestMismatch") in names
    assert {"asn1.der_encode", "rsa.rsa_private_op"} <= tracer_work_keys()


@pytest.mark.parametrize("path", sorted(workload_names()), ids=".".join)
def test_every_name_the_workloads_spell_resolves(path):
    value = pkcswb
    for name in path:
        value = getattr(value, name)


@pytest.mark.parametrize("key", sorted(tracer_work_keys()))
def test_every_work_counter_names_a_function_of_its_layer(key):
    layer, name = key.split(".")
    assert callable(getattr(importlib.import_module(f"pkcswb.{layer}"), name))
