"""The tracer counts where calls enter a layer, patches every import binding, and repeats exactly."""

import sys

import pytest

from bench import run, workloads
from bench.tracer import Tracer


@pytest.fixture
def traced():
    """A freshly imported pkcswb with a tracer installed; discarded afterwards."""
    pk = run.fresh_import()
    tracer = Tracer()
    tracer.install(pk)
    yield pk, tracer
    for name in [m for m in sys.modules if m == "pkcswb" or m.startswith("pkcswb.")]:
        del sys.modules[name]


def test_from_import_bindings_are_patched(traced):
    pk, _ = traced
    assert pk.cms.der_encode is pk.asn1.der_encode
    assert pk.cms.der_decode is pk.asn1.der_decode
    assert pk.pkcs1.rsa_private_op is pk.rsa.rsa_private_op
    assert pk.cli.export_pkcs15_layout is pk.token.export_pkcs15_layout
    assert hasattr(pk.asn1.der_encode, "__wrapped__")


def test_recursion_and_same_layer_calls_count_once(traced):
    pk, tracer = traced
    asn1 = pk.asn1
    value = asn1.sequence(asn1.sequence(asn1.integer(1), asn1.null()), asn1.octet_string(b"x"))
    before = dict(tracer.counts)
    encoded = asn1.der_encode(value)          # recursive inside asn1
    assert tracer.counts["asn1.encode_calls"] - before.get("asn1.encode_calls", 0) == 1
    assert tracer.counts["asn1.calls"] - before.get("asn1.calls", 0) == 1
    asn1.der_decode(encoded)
    assert tracer.counts["asn1.decode_calls"] == 1
    assert tracer.counts["asn1.decode_octets"] == len(encoded)


def test_work_counters_count_calls_made_inside_their_own_layer(traced):
    pk, tracer = traced
    pk.pkcs5.pbes2_encrypt(b"message", b"pw", b"saltsalt", 7, workloads.OpSource(1))
    assert tracer.counts["pkcs5.calls"] == 1          # one entry into pkcs5
    assert tracer.counts["pkcs5.pbkdf2_calls"] == 1   # pbkdf2 called from pbes2_encrypt
    assert tracer.counts["pkcs5.pbkdf2_iterations"] == 7
    assert tracer.counts["primitives.cbc_octets"] == len(b"message")


def test_self_time_excludes_the_spans_a_layer_causes():
    ticks = iter(range(0, 10**6, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer._wrap("asn1", "inner", inner)
    assert tracer._wrap("cms", "outer", outer)() == 2
    tracer.flush(1.0)
    assert tracer.times_ms["asn1.self_ms"] == pytest.approx(10 / 1e6)
    assert tracer.times_ms["cms.self_ms"] == pytest.approx(20 / 1e6)
    assert [s[2:4] for s in tracer.spans] == [("asn1", "inner"), ("cms", "outer")]
    assert tracer.spans[0][1] == tracer.spans[1][0]  # the asn1 span was caused by cms


def test_off_records_nothing(traced):
    pk, tracer = traced
    tracer.off = True
    pk.asn1.der_encode(pk.asn1.integer(5))
    assert not tracer.counts


def test_counts_repeat_exactly(traced, monkeypatch):
    pk, tracer = traced
    monkeypatch.setattr(workloads, "SHAPES", ((512, 2), (768, 3)))
    w = workloads.Verify()
    w.build(pk, seed=3)
    tracer.counts.clear()
    for i in range(len(w.items)):
        w.run(i)
    once = dict(tracer.counts)
    for i in range(len(w.items)):
        w.run(i)
    assert {k: 2 * v for k, v in once.items()} == dict(tracer.counts)
    # a digest mismatch is found before any signature work
    assert once["rsa.public_ops"] == sum(1 for item in w.items if item[3] != "digest")
    assert once["asn1.decode_octets"] >= sum(len(item[2]) for item in w.items)
