import random

import pytest

from pkcswb import asn1, cms, oids, pkcs1, pkcs5
from pkcswb.asn1 import (ArcOverflow, DerValue, IndefiniteLength, NonCanonical,
                         NonMinimalLength, Oid, OversizeTag, TagClass,
                         TrailingOctets, Truncated, der_decode, der_encode,
                         octets_to_oid, oid_to_octets)
from pkcswb.errors import BadParameter


def test_integer_zero():
    assert der_encode(asn1.integer(0)) == bytes.fromhex("020100")


def test_null():
    assert der_encode(asn1.null()) == bytes.fromhex("0500")


def test_long_form_length():
    # 197 content octets in the inner value make the outer content 200 octets
    outer = der_encode(asn1.sequence(asn1.octet_string(b"x" * 197)))
    assert outer[:3] == bytes.fromhex("3081c8")


def test_short_form_boundary():
    assert der_encode(asn1.octet_string(b"y" * 127))[1] == 0x7F
    assert der_encode(asn1.octet_string(b"y" * 128))[1:3] == bytes.fromhex("8180")


def test_decode_integer_128():
    assert der_decode(bytes.fromhex("02020080")).as_integer() == 128


def test_decode_null():
    value = der_decode(bytes.fromhex("0500"))
    assert value.is_universal(asn1.NULL) and value.octets == b""


def test_truncated_integer():
    with pytest.raises(Truncated):
        der_decode(bytes.fromhex("0201"))


@pytest.mark.parametrize("dotted,expected", [
    ("1.2.840.113549.1.1.1", "2a864886f70d010101"),
    ("2.5.4.3", "550403"),
    ("0.0", "00"),
])
def test_oid_encoding(dotted, expected):
    assert oid_to_octets(Oid.parse(dotted)).hex() == expected
    assert octets_to_oid(bytes.fromhex(expected)).dotted() == dotted


def test_oid_large_second_arc():
    # first arc 2 lifts the 39 limit on the second arc
    octets = oid_to_octets(Oid.parse("2.999.1"))
    assert octets_to_oid(octets).dotted() == "2.999.1"


def test_dotted_arc_with_a_leading_zero_is_bad_parameter():
    # RFC 4512 §1.4's numericoid: the text is no second spelling of an OID
    for dotted in ("01.2.840", "1.02", "1.2.840.0113549.1.7.1", "1.2.00"):
        with pytest.raises(BadParameter):
            Oid.parse(dotted)
    assert Oid.parse("0.0").arcs == (0, 0) and Oid.parse("2.0.10").arcs == (2, 0, 10)


def test_oid_arc_overflow():
    with pytest.raises(ArcOverflow):
        octets_to_oid(bytes.fromhex("2a86"))  # continuation bit still set at the end


def test_oid_validation():
    with pytest.raises(ValueError):
        Oid((3, 1))
    with pytest.raises(ValueError):
        Oid((1, 40))
    with pytest.raises(ValueError):
        Oid((1,))
    with pytest.raises(BadParameter, match="non-negative"):
        Oid((1, -1))


def test_integer_values_round_trip():
    for value in (0, 1, -1, 127, 128, -128, -129, 255, 256, 2**64, -2**64, 31337):
        assert der_decode(der_encode(asn1.integer(value))).as_integer() == value


def test_reject_redundant_integer_octets():
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("02020000"))
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("0202ff80"))
    assert der_decode(bytes.fromhex("020200ff")).as_integer() == 255


def test_reject_indefinite_length():
    with pytest.raises(IndefiniteLength):
        der_decode(bytes.fromhex("30800201050000"))


def test_reject_non_minimal_length():
    with pytest.raises(NonMinimalLength):
        der_decode(bytes.fromhex("02810105"))
    with pytest.raises(NonMinimalLength):
        der_decode(bytes.fromhex("0282000105"))
    with pytest.raises(NonMinimalLength, match="leading zero"):
        der_decode(bytes.fromhex("048200ff") + b"z" * 255)


def test_reject_trailing_octets():
    with pytest.raises(TrailingOctets):
        der_decode(bytes.fromhex("050000"))


def test_reject_oversize_tag():
    # a value that cannot be encoded cannot be built
    with pytest.raises(OversizeTag):
        DerValue(TagClass.CONTEXT, 2**22, b"")
    assert der_encode(DerValue(TagClass.CONTEXT, 2**21 - 1, b"")).hex() == "9fffff7f00"
    with pytest.raises(OversizeTag):
        der_decode(bytes.fromhex("9fffffff7f00"))


# ---------------------------------------------------------------------------
# headers at the edges of the inline forms (one tag octet; a short-form, 81 or 82 length)


@pytest.mark.parametrize("header,length", [("047f", 127), ("048180", 128), ("0481ff", 255),
                                           ("04820100", 256)])
def test_length_at_the_short_form_boundary_decodes(header, length):
    value = der_decode(bytes.fromhex(header) + b"z" * length)
    assert value.as_octet_string() == b"z" * length


def test_long_form_for_a_short_length_is_non_minimal():
    with pytest.raises(NonMinimalLength):
        der_decode(bytes.fromhex("04817f") + b"z" * 127)


@pytest.mark.parametrize("encoded,number", [("9e00", 0x1E), ("9f1f00", 0x1F), ("9f810000", 0x80)])
def test_tag_numbers_on_either_side_of_the_high_tag_form(encoded, number):
    value = der_decode(bytes.fromhex(encoded))
    assert value.tag_class == TagClass.CONTEXT and value.tag_number == number
    assert der_encode(rebuilt(value)).hex() == encoded


def test_high_tag_form_for_a_low_number_is_non_canonical():
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("9f1e00"))


@pytest.mark.parametrize("encoded", ["", "04", "0405", "0481", "0482", "048201", "9f", "9f81",
                                     "3003"])
def test_input_ending_inside_or_right_after_a_header_is_truncated(encoded):
    with pytest.raises(Truncated) as raised:
        der_decode(bytes.fromhex(encoded))
    if encoded.startswith("048"):  # ends inside a long-form length, as _decode_length says
        assert str(raised.value) == "input ended inside length octets"


# ---------------------------------------------------------------------------
# the OID parse memo


def test_same_oid_octets_give_one_oid():
    octets = bytes.fromhex("2a864886f70d010101")
    first = octets_to_oid(octets)
    assert octets_to_oid(bytes(octets)) is first
    assert der_decode(bytes.fromhex("0609") + octets).as_oid() is first
    assert octets_to_oid(bytearray(octets)) == octets_to_oid(memoryview(octets)) == first


@pytest.mark.parametrize("content,error", [("2a86", ArcOverflow), ("", ArcOverflow),
                                           ("2a8001", NonCanonical)])
def test_bad_oid_raises_on_every_call(content, error):
    octets = bytes.fromhex(content)
    for _ in range(2):
        with pytest.raises(error):
            octets_to_oid(octets)
        with pytest.raises(error):
            der_decode(bytes([asn1.OBJECT_IDENTIFIER, len(octets)]) + octets)


def test_oid_longer_than_the_memo_keeps_parses_alike():
    oid = Oid((1, 2) + tuple(range(1000, 1040)))
    octets = oid_to_octets(oid)
    assert len(octets) > asn1._OID_MEMO_OCTETS
    before = asn1._memo_oid.cache_info()
    assert octets_to_oid(octets) == octets_to_oid(memoryview(octets)) == oid
    assert asn1.oid_value(oid).as_oid() == octets_to_oid(octets)
    with pytest.raises(ArcOverflow):
        octets_to_oid(octets[:-1])
    assert asn1._memo_oid.cache_info() == before  # parsed, and not kept


# every OID constant of the registry, the refused legacy PBE ones included
OID_CONSTANTS = [value for value in vars(oids).values() if isinstance(value, Oid)] + \
    sorted(oids.LEGACY_PBE, key=lambda oid: oid.arcs)


def test_oid_value_is_one_shared_value_per_oid():
    for oid in OID_CONSTANTS:
        fresh = oid_to_octets(Oid.parse(oid.dotted()))
        value = asn1.oid_value(oid)
        assert der_encode(value) == bytes([asn1.OBJECT_IDENTIFIER, len(fresh)]) + fresh
        assert asn1.oid_value(oid) is value
    assert asn1.oid_value("1.2.3") == asn1.oid_value(Oid.parse("1.2.3"))


def test_oid_value_memo_keeps_at_most_its_cap():
    many = [Oid((1, 3, 6, 1, 4, 1, 32473, n)) for n in range(600)]
    values = [asn1.oid_value(oid) for oid in many]
    info = asn1._memo_oid_value.cache_info()
    assert info.currsize <= info.maxsize == 512
    for oid, value in zip(many, values):
        assert der_decode(der_encode(value)).as_oid() == oid
        assert asn1.oid_value(oid) == value


def test_oid_with_more_arcs_than_the_memo_keeps_encodes_alike():
    oid = Oid((1, 2) + tuple(range(asn1._OID_MEMO_ARCS)))
    before = asn1._memo_oid_value.cache_info()
    first = asn1.oid_value(oid)
    assert first == asn1.oid_value(oid) and first is not asn1.oid_value(oid)
    assert first.octets == oid_to_octets(oid)
    assert asn1._memo_oid_value.cache_info() == before  # encoded, and not kept
    for _ in range(2):  # an arc above 2**63 raises on every call
        with pytest.raises(ArcOverflow):
            asn1.oid_value(Oid((1, 2, 2**64)))


@pytest.mark.parametrize("constant", [
    cms.SHA256_ALGORITHM, pkcs1.PSS_ALGORITHM, pkcs1.OAEP_ALGORITHM, pkcs1.RSA_KEY_ALGORITHM,
    pkcs5.HMAC_SHA256_ALGORITHM], ids=lambda constant: constant.oid.dotted())
def test_algorithm_identifier_constant_is_built_once(constant):
    value = constant.to_der_value()
    assert constant.to_der_value() is value
    fresh = asn1.AlgorithmIdentifier(constant.oid, constant.params)
    assert fresh == constant and hash(fresh) == hash(constant)
    assert der_encode(fresh.to_der_value()) == der_encode(value)
    decoded = asn1.AlgorithmIdentifier.from_der_value(der_decode(der_encode(value)))
    assert decoded == constant and hash(decoded) == hash(constant)


def test_boolean_content_rule():
    assert der_decode(bytes.fromhex("0101ff")).as_boolean() is True
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("010101"))
    with pytest.raises(NonCanonical, match="not a primitive BOOLEAN"):
        asn1.integer(1).as_boolean()


@pytest.mark.parametrize("content, constructed", [
    (b"ab", False), (bytearray(b"ab"), False), ((asn1.null(),), True), ([asn1.null()], True)])
def test_the_form_follows_the_content(content, constructed):
    value = DerValue(TagClass.CONTEXT, 0, content)
    assert value.constructed is constructed
    assert type(value.content) is (tuple if constructed else bytes)


@pytest.mark.parametrize("tag_number, content, message", [
    (-1, b"", "negative tag number"),
    (0, None, "content must be octets or a tuple of values"),
    (0, "ab", "content must be octets or a tuple of values"),
    (0, memoryview(b"ab"), "content must be octets or a tuple of values"),
])
def test_a_value_is_built_from_a_tag_number_and_octets_or_values(tag_number, content, message):
    with pytest.raises(ValueError) as raised:
        DerValue(TagClass.CONTEXT, tag_number, content)
    assert str(raised.value) == message


def test_set_reordered_on_encode():
    unordered = DerValue(TagClass.UNIVERSAL, asn1.SET,
                         (asn1.integer(300), asn1.boolean(True)))
    encoded = der_encode(unordered)
    # BOOLEAN (tag 01) sorts before INTEGER (tag 02)
    assert encoded.hex() == "31070101ff0202012c"


def test_set_decode_requires_canonical_order():
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("31070202012c0101ff"))


def test_high_tag_number_form():
    value = DerValue(TagClass.CONTEXT, 31, b"ab")
    encoded = der_encode(value)
    assert encoded[:2] == bytes.fromhex("9f1f")
    assert der_decode(encoded) == value


def test_text_types_round_trip():
    for factory, text in [(asn1.utf8_string, "héllo"),
                          (asn1.printable_string, "Alice Example"),
                          (asn1.ia5_string, "a@example.org"),
                          (asn1.utc_time, "200101120000Z"),
                          (asn1.generalized_time, "20200101120000Z")]:
        value = factory(text)
        assert der_decode(der_encode(value)).as_text() == text


TEXT_FACTORIES = [asn1.utf8_string, asn1.printable_string, asn1.ia5_string, asn1.utc_time,
                  asn1.generalized_time]


@pytest.mark.parametrize("factory", TEXT_FACTORIES, ids=lambda factory: factory.__name__)
def test_text_utf8_cannot_hold_is_bad_parameter(factory):
    with pytest.raises(BadParameter, match="cannot be encoded"):
        factory("\udcff")  # a lone surrogate


@pytest.mark.parametrize("factory, text", [
    (asn1.printable_string, "é"), (asn1.ia5_string, "é@x"),
    (asn1.utc_time, "20010112000éZ"), (asn1.generalized_time, "1980é"),
], ids=["printable-non-ascii", "ia5-non-ascii", "utc-time-non-ascii",
        "generalized-time-non-ascii"])
def test_text_outside_its_type_is_refused_by_the_types_rule(factory, text):
    with pytest.raises(NonCanonical):
        factory(text)


# contents each string and time type's rule refuses: outside its repertoire,
# not UTF-8, or off RFC 5280 §4.1.2.5's profile or calendar
REFUSED_TEXT = {
    "PrintableString": (asn1.PRINTABLE_STRING, [b"a_b@", b"*"]),
    "IA5String": (asn1.IA5_STRING, [b"\x80"]),
    "UTF8String": (asn1.UTF8_STRING, [b"\xff", b"\xed\xa0\x80"]),  # the second a surrogate
    "UTCTime": (asn1.UTC_TIME, [b"200231120000Z", b"2001011200Z", b"200101120000+0100"]),
    "GeneralizedTime": (asn1.GENERALIZED_TIME, [b"20200101120000.5Z", b"21000229000000Z"]),
}


@pytest.mark.parametrize("tag, content", [
    pytest.param(tag, content, id=f"{name}-{ascii(content)}")
    for name, (tag, contents) in REFUSED_TEXT.items() for content in contents])
def test_string_and_time_rules_refuse_at_build_and_at_decode(tag, content):
    with pytest.raises(NonCanonical):
        DerValue(TagClass.UNIVERSAL, tag, content)
    encoded = bytes([tag, len(content)]) + content
    for octets in (encoded, sequence_around(encoded)):
        with pytest.raises(NonCanonical):
            der_decode(octets)


@pytest.mark.parametrize("name", list(REFUSED_TEXT))
def test_string_and_time_rules_build_what_they_decode_and_read_as_text(name):
    # every one-octet content, then seeded contents of profile characters
    tag = REFUSED_TEXT[name][0]
    rng = random.Random(f"text/{name}")
    contents = [bytes([octet]) for octet in range(256)] + [
        bytes(rng.choice(b"0123456789Z.+-a_\xc3\xa9") for _ in range(rng.choice((13, 15))))
        for _ in range(500)] + [b"000229000000Z", b"20000229235959Z", b"Z"]
    accepted = 0
    for content in contents:
        try:
            value = DerValue(TagClass.UNIVERSAL, tag, content)
        except NonCanonical:
            with pytest.raises(NonCanonical):
                der_decode(bytes([tag, len(content)]) + content)
            continue
        accepted += 1
        assert value.as_text().encode() == content
        assert der_decode(der_encode(value)).as_text() == value.as_text()
    assert accepted


def test_require_names_what_it_found():
    with pytest.raises(asn1.NonCanonical) as raised:
        asn1.require(asn1.context(0, ()), asn1.SEQUENCE)
    assert str(raised.value) == ("expected constructed UNIVERSAL tag 16, "
                                 "got constructed CONTEXT tag 0")
    with pytest.raises(asn1.NonCanonical) as raised:
        asn1.require(asn1.integer(5), asn1.SEQUENCE)
    assert str(raised.value) == ("expected constructed UNIVERSAL tag 16, "
                                 "got primitive UNIVERSAL tag 2")


def test_bit_string_unused_bits():
    with pytest.raises(NonCanonical):
        der_decode(bytes.fromhex("030308ffff"))  # unused count 8 is invalid


# ---------------------------------------------------------------------------
# structural fuzzing


def random_value(rng: random.Random, depth: int) -> DerValue:
    choices = ["integer", "octets", "null", "bool", "oid", "utf8"]
    if depth < 5:
        choices += ["sequence", "set", "context"] * 2
    kind = rng.choice(choices)
    if kind == "integer":
        return asn1.integer(rng.randint(-2**62, 2**62))
    if kind == "octets":
        return asn1.octet_string(rng.randbytes(rng.randint(0, 64)))
    if kind == "null":
        return asn1.null()
    if kind == "bool":
        return asn1.boolean(rng.random() < 0.5)
    if kind == "oid":
        arcs = [rng.randint(0, 2), rng.randint(0, 39)] + \
            [rng.randint(0, 2**20) for _ in range(rng.randint(0, 4))]
        return asn1.oid_value(Oid(tuple(arcs)))
    if kind == "utf8":
        return asn1.utf8_string("".join(rng.choice("abc défg") for _ in range(rng.randint(0, 12))))
    children = tuple(random_value(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    if kind == "sequence":
        return asn1.sequence(*children)
    if kind == "set":
        return asn1.set_value(*children)
    return DerValue(TagClass.CONTEXT, rng.randint(0, 40), children)


def test_fuzz_round_trip_structure_and_octets():
    rng = random.Random(20260810)
    for _ in range(2000):
        value = random_value(rng, 0)
        encoded = der_encode(value)
        decoded = der_decode(encoded)
        assert decoded == value
        assert der_encode(decoded) == encoded


def test_fuzz_malformed_corpus_always_errors():
    rng = random.Random(99)
    for _ in range(500):
        encoded = der_encode(random_value(rng, 2))
        for mutation in ("truncate", "pad", "indefinite"):
            if mutation == "truncate" and len(encoded) > 1:
                bad = encoded[:rng.randint(1, len(encoded) - 1)]
            elif mutation == "pad":
                bad = encoded + b"\x00"
            else:
                bad = encoded[:1] + b"\x80" + encoded[2:] + b"\x00\x00"
            try:
                reparsed = der_decode(bad)
            except asn1.DerError:
                continue
            # the only acceptable non-error: mutation produced a different
            # but valid value; it must still re-encode to the mutated input
            assert der_encode(reparsed) == bad


# ---------------------------------------------------------------------------
# nesting depth


def sequence_around(encoded: bytes) -> bytes:
    """A SEQUENCE header and ``encoded``, used as it is, whether DER or not."""
    return bytes([0x30]) + asn1._encode_length(len(encoded)) + encoded


def nested_sequences(count: int, encoded: bytes = bytes.fromhex("0500")) -> bytes:
    """``count`` SEQUENCEs around a value (a NULL), encoded from the inside out."""
    for _ in range(count):
        encoded = sequence_around(encoded)
    return encoded


def test_nesting_up_to_max_depth_decodes():
    value = der_decode(nested_sequences(asn1.MAX_DEPTH - 1))
    for _ in range(asn1.MAX_DEPTH - 1):
        (value,) = value.children
    assert value.is_universal(asn1.NULL)


def test_header_of_either_form_decodes_at_exactly_max_depth():
    # a short header (inline) and a high-tag, long-form one (the two readers)
    for innermost in (bytes.fromhex("0500"), bytes.fromhex("9f1f8180") + bytes(128)):
        value = der_decode(nested_sequences(asn1.MAX_DEPTH - 1, innermost))
        for _ in range(asn1.MAX_DEPTH - 1):
            (value,) = value.children
        assert der_encode(value) == innermost
        with pytest.raises(asn1.TooDeep):
            der_decode(nested_sequences(asn1.MAX_DEPTH, innermost))


def test_nesting_beyond_max_depth_is_a_der_error():
    with pytest.raises(asn1.TooDeep):
        der_decode(nested_sequences(asn1.MAX_DEPTH))
    with pytest.raises(asn1.DerError):
        der_decode(nested_sequences(3000))


# ---------------------------------------------------------------------------
# canonical form of accepted mutants


def rebuilt(value: DerValue) -> DerValue:
    """A copy made from the fields alone, so no value in it keeps octets."""
    content = value.content
    if value.constructed:
        content = tuple(rebuilt(child) for child in content)
    return DerValue(value.tag_class, value.tag_number, content)


def length_offsets(value: DerValue, start: int = 0) -> list[int]:
    """Offset of the first length octet of ``value`` and of each value inside it."""
    offsets = [start + len(asn1._encode_tag(value))]
    if value.constructed:
        pos = start + len(der_encode(value)) - sum(len(der_encode(c)) for c in value.children)
        for child in value.children:
            offsets += length_offsets(child, pos)
            pos += len(der_encode(child))
    return offsets


def mutants(rng: random.Random, value: DerValue):
    """Bit flips, a truncation and length bumps of the encoding of ``value``."""
    encoded = der_encode(value)
    for _ in range(4):
        flipped = bytearray(encoded)
        flipped[rng.randrange(len(encoded))] ^= 1 << rng.randrange(8)
        yield bytes(flipped)
    yield encoded[:rng.randrange(len(encoded))]
    offsets = length_offsets(value)
    for delta in (1, -1):
        bumped = bytearray(encoded)
        at = rng.choice(offsets)
        bumped[at] = (bumped[at] + delta) % 256
        yield bytes(bumped)


def test_mutants_that_decode_re_encode_from_fields_to_the_input():
    # der_encode of a decoded value returns the octets it came from, so only
    # an encoding made afresh from the fields shows that the decoder accepted
    # nothing but canonical DER
    rng = random.Random(0x5E7)
    accepted = 0
    for _ in range(1500):
        for bad in mutants(rng, random_value(rng, 1)):
            try:
                decoded = der_decode(bad)
            except asn1.DerError:
                continue
            accepted += 1
            assert der_encode(rebuilt(decoded)) == bad
    assert accepted > 1000


def test_values_are_encoded_at_most_once(monkeypatch):
    encoded = der_encode(asn1.sequence(asn1.set_value(asn1.integer(2), asn1.integer(1)),
                                       asn1.octet_string(b"abc")))
    decoded = der_decode(encoded)
    tags = []
    real_encode_tag = asn1._encode_tag
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    # a decoded value returns the octets received, a built one encodes once
    assert der_encode(decoded) == encoded
    assert der_encode(decoded.children[1]) == bytes.fromhex("0403616263")
    assert tags == []
    built = asn1.set_value(asn1.integer(3), asn1.integer(1), asn1.integer(2))
    assert der_encode(built) == der_encode(built) == bytes.fromhex("3109020101020102020103")
    assert len(tags) == 4
    # the kept octets take no part in equality
    assert decoded == rebuilt(decoded)


# ---------------------------------------------------------------------------
# the decoder applies the constructor's rules


U = TagClass.UNIVERSAL


@pytest.mark.parametrize("fields, encoded", [
    ((U, asn1.INTEGER, (asn1.integer(1),)), "2203020101"),
    ((U, asn1.OCTET_STRING, (asn1.octet_string(b"a"),)), "2403040161"),
    ((U, asn1.OBJECT_IDENTIFIER, (asn1.oid_value("1.2.3"),)), "260406022a03"),
    ((U, asn1.SEQUENCE, b""), "1000"),
    ((U, asn1.SET, b"\x05\x00"), "11020500"),
    ((U, asn1.INTEGER, b""), "0200"),
    ((U, asn1.INTEGER, b"\x00\x7f"), "0202007f"),
    ((U, asn1.INTEGER, b"\xff\x80"), "0202ff80"),
    ((U, asn1.BOOLEAN, b"\x01"), "010101"),
    ((U, asn1.BOOLEAN, b""), "0100"),
    ((U, asn1.NULL, b"\x00"), "050100"),
    ((U, asn1.BIT_STRING, b""), "0300"),
    ((U, asn1.BIT_STRING, b"\x08\x00"), "03020800"),
    ((U, asn1.BIT_STRING, b"\x01"), "030101"),
    ((U, asn1.OBJECT_IDENTIFIER, b""), "0600"),
    ((U, asn1.OBJECT_IDENTIFIER, b"\x80\x01"), "06028001"),
    ((U, asn1.OBJECT_IDENTIFIER, b"\x2a\x86"), "06022a86"),
], ids=["constructed-integer", "constructed-octet-string", "constructed-oid",
        "primitive-sequence", "primitive-set", "empty-integer", "integer-leading-00",
        "integer-leading-ff", "boolean-01", "empty-boolean", "null-content",
        "empty-bit-string", "unused-bits-8", "unused-bits-without-octets",
        "empty-oid", "oid-leading-80", "oid-unterminated"])
def test_decoding_refuses_what_building_refuses_with_the_same_error(fields, encoded):
    with pytest.raises(asn1.DerError) as built:
        DerValue(*fields)
    for octets in (bytes.fromhex(encoded), sequence_around(bytes.fromhex(encoded))):
        with pytest.raises(asn1.DerError) as decoded:
            der_decode(octets)
        assert type(decoded.value) is type(built.value)


def test_set_of_equal_children_decodes():
    encoded = bytes.fromhex("3106020105020105")
    value = der_decode(encoded)
    assert value.children == (asn1.integer(5), asn1.integer(5))
    assert der_encode(value) == encoded == der_encode(asn1.set_value(*value.children))


@pytest.mark.parametrize("depth", [1, 5])
def test_set_out_of_order_is_non_canonical_at_any_depth(depth):
    # INTEGER 2 before INTEGER 1, the third of three children, inside depth - 1 SEQUENCEs
    unordered = nested_sequences(depth - 1, bytes.fromhex("3109020101020102020101"))
    with pytest.raises(NonCanonical):
        der_decode(unordered)
    ordered = nested_sequences(depth - 1, bytes.fromhex("3109020101020101020102"))
    assert der_encode(der_decode(ordered)) == ordered


def test_set_order_returns_fewer_than_two_items_as_they_are(monkeypatch):
    monkeypatch.setattr(asn1, "_encoding", None)  # nothing is encoded to order them
    assert asn1.set_order([]) == ()
    only = asn1.integer(1)
    assert asn1.set_order(iter([only])) == (only,)


@pytest.mark.parametrize("value,accessor", [(asn1.integer(1), "children"),
                                            (asn1.sequence(), "octets")],
                         ids=["children-of-a-primitive", "octets-of-a-constructed"])
def test_content_accessor_of_the_other_form_is_non_canonical(value, accessor):
    with pytest.raises(NonCanonical):
        getattr(value, accessor)


def unchecked(tag_class: TagClass, constructed: bool, number: int, content) -> DerValue:
    """A value written field by field, as the decoder writes one, so that it can
    take a form the constructor refuses (a constructed INTEGER, say)."""
    value = object.__new__(DerValue)
    value.__dict__.update(tag_class=tag_class, constructed=constructed, tag_number=number,
                          content=content)
    return value


C, A = TagClass.CONTEXT, TagClass.APPLICATION
_CONTEXT_0 = {"tag_number": 0, "tag_class": C}


# (accessor, value, the message it raises): each value is wrong in one way
@pytest.mark.parametrize("read, value, message", [
    (lambda v: asn1.require(v, 0, tag_class=C), asn1.context(1, ()),
     "expected constructed CONTEXT tag 0, got constructed CONTEXT tag 1"),
    (lambda v: asn1.require(v, 0, tag_class=C), DerValue(A, 0, ()),
     "expected constructed CONTEXT tag 0, got constructed APPLICATION tag 0"),
    (lambda v: asn1.require(v, 0, tag_class=C), asn1.context(0, b""),
     "expected constructed CONTEXT tag 0, got primitive CONTEXT tag 0"),
    (lambda v: asn1.require(v, asn1.INTEGER, constructed=False), asn1.octet_string(b""),
     "expected primitive UNIVERSAL tag 2, got primitive UNIVERSAL tag 4"),
    (lambda v: asn1._fields(v, 1, **_CONTEXT_0), asn1.context(1, ()),
     "expected constructed CONTEXT tag 0, got constructed CONTEXT tag 1"),
    (lambda v: asn1._fields(v, 1, **_CONTEXT_0), DerValue(A, 0, ()),
     "expected constructed CONTEXT tag 0, got constructed APPLICATION tag 0"),
    (lambda v: asn1._fields(v, 1, **_CONTEXT_0), asn1.context(0, b""),
     "expected constructed CONTEXT tag 0, got primitive CONTEXT tag 0"),
    (lambda v: asn1._fields(v, 2), asn1.set_value(),
     "expected constructed UNIVERSAL tag 16, got constructed UNIVERSAL tag 17"),
    (lambda v: asn1._fields(v, 2), asn1.integer(0),
     "expected constructed UNIVERSAL tag 16, got primitive UNIVERSAL tag 2"),
    (lambda v: asn1._fields(v, 2), asn1.sequence(asn1.null()), "expected 2 fields, got 1"),
    (lambda v: asn1._fields(v, 5, 6), asn1.sequence(), "expected 5 or 6 fields, got 0"),
    (lambda v: asn1._fields(v, 5, 6), asn1.context(16, b""),
     "expected constructed UNIVERSAL tag 16, got primitive CONTEXT tag 16"),
    (DerValue.as_integer, asn1.octet_string(b"\x01"), "value is not a primitive INTEGER"),
    (DerValue.as_integer, asn1.context(asn1.INTEGER, b"\x01"),
     "value is not a primitive INTEGER"),
    (DerValue.as_integer, unchecked(TagClass.UNIVERSAL, True, asn1.INTEGER, ()),
     "value is not a primitive INTEGER"),
    (DerValue.as_octet_string, asn1.integer(1), "value is not a primitive OCTET STRING"),
    (DerValue.as_octet_string, asn1.context(asn1.OCTET_STRING, b""),
     "value is not a primitive OCTET STRING"),
    (DerValue.as_octet_string, unchecked(TagClass.UNIVERSAL, True, asn1.OCTET_STRING, ()),
     "value is not a primitive OCTET STRING"),
    (DerValue.as_oid, asn1.octet_string(b"\x2a"), "value is not a primitive OBJECT IDENTIFIER"),
    (DerValue.as_oid, asn1.context(asn1.OBJECT_IDENTIFIER, b"\x2a"),
     "value is not a primitive OBJECT IDENTIFIER"),
    (DerValue.as_oid, unchecked(TagClass.UNIVERSAL, True, asn1.OBJECT_IDENTIFIER, ()),
     "value is not a primitive OBJECT IDENTIFIER"),
    (DerValue.as_bit_string, asn1.octet_string(b"\x00"), "value is not a primitive BIT STRING"),
    (DerValue.as_bit_string, asn1.context(asn1.BIT_STRING, b"\x00"),
     "value is not a primitive BIT STRING"),
    (DerValue.as_bit_string, unchecked(TagClass.UNIVERSAL, True, asn1.BIT_STRING, ()),
     "value is not a primitive BIT STRING"),
    (DerValue.as_bit_string, der_decode(bytes.fromhex("030201ff")),
     "only BIT STRING values with zero unused bits are used here"),
    (lambda v: v.children, asn1.integer(1), "primitive value has no children"),
    (lambda v: v.children, asn1.context(0, b""),
     "primitive value has no children"),
    (lambda v: v.octets, asn1.sequence(), "constructed value has no content octets"),
    (lambda v: v.octets, asn1.context(0, ()), "constructed value has no content octets"),
], ids=["require-number", "require-class", "require-form", "require-primitive",
        "fields-number", "fields-class", "fields-form", "fields-set", "fields-primitive",
        "fields-count", "fields-counts", "fields-class-and-form", "integer-number",
        "integer-class", "integer-form", "octet-string-number", "octet-string-class",
        "octet-string-form", "oid-number", "oid-class", "oid-form", "bit-string-number",
        "bit-string-class", "bit-string-form", "bit-string-unused-bits", "children",
        "children-context", "octets", "octets-context"])
def test_accessor_refusals_keep_their_messages(read, value, message):
    with pytest.raises(NonCanonical) as raised:
        read(value)
    assert str(raised.value) == message


def flattened(value: DerValue, start: int = 0):
    """(value, offset of its encoding in the whole) for ``value`` and each value inside it."""
    yield value, start
    if value.constructed:
        pos = start + len(der_encode(value)) - sum(len(der_encode(c)) for c in value.children)
        for child in value.children:
            yield from flattened(child, pos)
            pos += len(der_encode(child))


def test_decoding_bytes_bytearray_or_memoryview_gives_equal_values_of_their_own():
    encoded = der_encode(asn1.sequence(
        asn1.set_value(asn1.integer(2), asn1.integer(1)), asn1.octet_string(b"x" * 200),
        asn1.oid_value("1.2.840.113549.1.7.1"), asn1.context(0, b"\x01"),
        asn1.explicit(3, asn1.bit_string(b"abc"))))
    caller = bytearray(encoded)
    decoded = [der_decode(encoded), der_decode(caller), der_decode(memoryview(caller))]
    assert decoded[0] == decoded[1] == decoded[2]
    for value in decoded:
        for part, offset in flattened(value):
            assert bytes(part._der) == encoded[offset:offset + len(part._der)]
            if not part.constructed:
                assert type(part.content) is bytes
    caller[:] = bytes(len(caller))  # the caller reuses its buffer
    for value in decoded:
        assert der_encode(value) == encoded
        assert value == decoded[0] and value.children[1].octets == b"x" * 200
