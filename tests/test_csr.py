import pytest

from pkcswb import asn1, oids, pkcs1, rsa
from pkcswb.asn1 import AlgorithmIdentifier, der_encode
from pkcswb.csr import (CertificationRequest, CertificationRequestInfo,
                        MalformedRequest, Name, build_csr, verify_csr)
from pkcswb.errors import MalformedKey, UnsupportedAlgorithm
from pkcswb.keystore import (ATTRIBUTE_REGISTRY, SyntaxViolation, UnknownAttributeType,
                             attribute_make, natural_person_bundle)
from conftest import seeded


def _alice_name():
    return Name((("commonName", "Alice"), ("organization", "Example"),
                 ("country", "US"), ("emailAddress", "alice@example.org")))


def test_name_requires_common_name():
    with pytest.raises(ValueError):
        Name((("organization", "Example"),))
    with pytest.raises(ValueError):
        Name(())


def test_name_country_must_be_two_letters():
    with pytest.raises(ValueError):
        Name((("commonName", "x"), ("country", "USA")))
    with pytest.raises(ValueError):
        Name((("commonName", "x"), ("country", "U1")))


def test_name_round_trip_preserves_order():
    name = _alice_name()
    recoded = Name.from_der_value(name.to_der_value())
    assert recoded == name
    assert recoded.get("commonName") == "Alice"
    assert Name((("commonName", "Alice"),)).get("country") is None


def test_build_and_verify_512(key_512):
    public, private = key_512
    request = build_csr(_alice_name(), (public, private),
                        (attribute_make("challengePassword", "s3cret"),),
                        seeded(b"csr"))
    assert verify_csr(request)


def test_empty_attribute_set_is_valid(key_512):
    public, private = key_512
    request = build_csr(Name((("commonName", "Bob"),)), (public, private), (),
                        seeded(b"csr2"))
    assert verify_csr(request)


def test_bad_attribute_rejected(key_512):
    # no request can be given one: the attribute itself cannot be built
    from pkcswb.keystore import Attribute
    with pytest.raises(SyntaxViolation, match="messageDigest syntax"):
        Attribute(oids.AT_MESSAGE_DIGEST, (asn1.integer(5),))


def test_received_attribute_outside_its_syntax_is_malformed(key_512):
    # a challengePassword that is an INTEGER, in an info signed by hand: build_csr
    # cannot write it, and a request does not read it either
    public, private = key_512
    attribute = asn1.sequence(asn1.oid_value(oids.AT_CHALLENGE_PASSWORD),
                              asn1.set_value(asn1.integer(5)))
    info = asn1.sequence(asn1.integer(0), _alice_name().to_der_value(),
                         pkcs1.encode_public_key_info(public), asn1.context(0, (attribute,)))
    signature = pkcs1.sign(der_encode(info), private, seeded(b"x"))
    assert pkcs1.verify(der_encode(info), signature, public)
    request = der_encode(asn1.sequence(info, pkcs1.PSS_ALGORITHM.to_der_value(),
                                       asn1.bit_string(signature)))
    with pytest.raises(MalformedRequest, match="^value does not match the "
                                               "challengePassword syntax$"):
        CertificationRequest.from_der(request)


def test_mismatched_keypair_rejected(key_512, key_1024):
    public, _ = key_1024
    _, private = key_512
    with pytest.raises(ValueError):
        build_csr(_alice_name(), (public, private), (), seeded(b"x"))


def test_der_round_trip_byte_identical(key_512):
    public, private = key_512
    request = build_csr(_alice_name(), (public, private),
                        (attribute_make("challengePassword", "pw"),), seeded(b"rt"))
    encoded = request.to_der()
    recoded = CertificationRequest.from_der(encoded)
    assert recoded == request
    assert recoded.to_der() == encoded
    assert verify_csr(recoded)


def test_decoding_a_request_encodes_nothing(key_512, monkeypatch):
    # decoded attributes keep their values, so sorting them builds nothing
    attributes = (attribute_make("challengePassword", "pw"),
                  attribute_make("extensionRequest", asn1.sequence()))
    encoded = build_csr(_alice_name(), key_512, attributes, seeded(b"no-enc")).to_der()
    tags = []
    real_encode_tag = asn1._encode_tag
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    request = CertificationRequest.from_der(encoded)
    assert verify_csr(request) and len(request.info.attributes) == 2
    assert tags == []


def test_randomized_pipeline_fifty_subjects(key_512, key_1024):
    rng = seeded(b"many")
    keypairs = [key_512, key_1024]
    for index in range(50):
        name = Name((("commonName", f"Subject {index}"),
                     ("country", "US") if index % 2 else ("organization", "Org")))
        public, private = keypairs[index % 2]
        attrs = ((attribute_make("challengePassword", f"pw{index}"),)
                 if index % 3 else ())
        request = build_csr(name, (public, private), attrs, rng)
        assert verify_csr(CertificationRequest.from_der(request.to_der()))


def test_every_single_octet_mutation_of_info_defeats_verification(key_512):
    public, private = key_512
    request = build_csr(_alice_name(), (public, private),
                        (attribute_make("challengePassword", "pw"),), seeded(b"mut"))
    encoded = request.to_der()
    # the info section sits right after the outer SEQUENCE header
    start = 2 + (encoded[1] & 0x7F if encoded[1] & 0x80 else 0)
    surviving = 0
    for offset in range(start, start + len(der_encode(request.info.to_der_value()))):
        for bit in (0x01, 0x80):
            tampered = bytearray(encoded)
            tampered[offset] ^= bit
            try:
                parsed = CertificationRequest.from_der(bytes(tampered))
            except (MalformedRequest, Exception):
                continue
            if verify_csr(parsed):
                surviving += 1
    assert surviving == 0


def test_key_substitution_defeats_verification(key_512, key_1024):
    public, private = key_512
    other_public, _ = key_1024
    request = build_csr(_alice_name(), (public, private), (), seeded(b"sub"))
    forged = CertificationRequest(
        CertificationRequestInfo(request.info.subject, other_public,
                                 request.info.attributes),
        request.signature_algorithm, request.signature)
    assert not verify_csr(forged)


def test_a_signature_algorithm_other_than_pss_is_unsupported_not_forged(key_512):
    # a v1.5 request (OpenSSL's default) used to verify as False, like a forgery
    public, private = key_512
    request = build_csr(_alice_name(), (public, private), (), seeded(b"v15"))
    v15 = CertificationRequest.from_der(CertificationRequest(
        request.info, AlgorithmIdentifier(asn1.Oid.parse("1.2.840.113549.1.1.11"), asn1.null()),
        request.signature).to_der())
    with pytest.raises(UnsupportedAlgorithm,
                       match="^unsupported signature algorithm 1.2.840.113549.1.1.11$"):
        verify_csr(v15)


def test_malformed_request_decode():
    with pytest.raises(MalformedRequest):
        CertificationRequest.from_der(b"\x30\x03\x02\x01\x00")
    with pytest.raises(MalformedRequest):
        CertificationRequest.from_der(b"")


def test_request_under_another_outer_tag_is_malformed(key_512):
    public, private = key_512
    der = build_csr(_alice_name(), (public, private), (), seeded(b"outer")).to_der()
    assert der[0] == 0x30 and verify_csr(CertificationRequest.from_der(der))
    with pytest.raises(MalformedRequest):
        CertificationRequest.from_der(b"\xa0" + der[1:])


def _request_der(public: rsa.RsaPublicKey) -> bytes:
    info = CertificationRequestInfo(_alice_name(), public)
    return CertificationRequest(info, AlgorithmIdentifier(oids.RSASSA_PSS), bytes(8)).to_der()


def test_public_exponent_above_cap_is_malformed_request():
    n = 2**1023 + 1
    CertificationRequest.from_der(_request_der(rsa.RsaPublicKey(n, 2**rsa.MAX_EXPONENT_BITS - 1)))
    with pytest.raises(MalformedRequest, match="exponent"):
        CertificationRequest.from_der(
            _request_der(rsa.RsaPublicKey(n, 2**rsa.MAX_EXPONENT_BITS + 1)))
    with pytest.raises(MalformedRequest, match="modulus"):
        CertificationRequest.from_der(
            _request_der(rsa.RsaPublicKey(2**rsa.MAX_MODULUS_BITS + 1, 65537)))


def test_request_version_other_than_0_is_refused(key_1024):
    public, private = key_1024
    info_v = CertificationRequestInfo(_alice_name(), public).to_der_value()
    algorithm = AlgorithmIdentifier(oids.RSASSA_PSS).to_der_value()
    # 10**5000 has more digits than CPython prints (4300)
    for version in (0, 1, 5, 10**5000):
        versioned = asn1.sequence(asn1.integer(version), *info_v.children[1:])
        info_der = der_encode(versioned)
        signature = pkcs1.sign(info_der, private, seeded(b"version"))
        der = der_encode(asn1.sequence(versioned, algorithm, asn1.bit_string(signature)))
        if version == 0:  # correctly signed: only the version differs in the others
            assert verify_csr(CertificationRequest.from_der(der))
            continue
        with pytest.raises(MalformedRequest, match="version"):
            CertificationRequest.from_der(der)
        with pytest.raises(MalformedRequest, match="version"):
            CertificationRequestInfo.from_der_value(asn1.der_decode(info_der))


def test_name_and_key_readers_raise_only_declared_errors():
    # octets a UTF8String cannot hold are refused as they are decoded
    name = der_encode(Name((("commonName", "?"),)).to_der_value())
    with pytest.raises(asn1.NonCanonical, match="UTF-8"):
        Name.from_der(name.replace(b"\x0c\x01?", b"\x0c\x01\xff"))
    with pytest.raises(SyntaxViolation, match="country"):
        Name.from_der_value(asn1.sequence(asn1.set_value(
            asn1.sequence(asn1.oid_value(oids.CN), asn1.utf8_string("x"))), asn1.set_value(
            asn1.sequence(asn1.oid_value(oids.COUNTRY), asn1.printable_string("USA")))))
    spki = pkcs1.encode_public_key_info(rsa.RsaPublicKey(2**1023 + 1, 65537))
    for n, e, error in ((2**1023 + 1, 2, rsa.InvalidKey), (1, 65537, rsa.InvalidKey),
                        (2**rsa.MAX_MODULUS_BITS + 1, 65537, rsa.KeyTooLarge)):
        wrapped = asn1.bit_string(der_encode(asn1.sequence(asn1.integer(n), asn1.integer(e))))
        _assert_refused(asn1.sequence(spki.children[0], wrapped), error)


def _assert_refused(spki, error, match=None):
    """The key reader raises exactly ``error``; read inside a request, the
    same refusal is MalformedRequest with the same text."""
    with pytest.raises(error, match=match) as raised:
        pkcs1.decode_public_key_info(spki)
    assert raised.type is error
    info = asn1.sequence(asn1.integer(0), _alice_name().to_der_value(), spki, asn1.context(0, ()))
    request = der_encode(asn1.sequence(info, pkcs1.PSS_ALGORITHM.to_der_value(),
                                       asn1.bit_string(b"")))
    with pytest.raises(MalformedRequest) as in_request:
        CertificationRequest.from_der(request)
    assert str(in_request.value) == str(raised.value)


def test_build_csr_needs_room_for_pss():
    public, private = rsa.generate_key(200, 2, 65537, seeded(b"200"))
    with pytest.raises(pkcs1.ModulusTooSmall):
        build_csr(_alice_name(), (public, private), (), seeded(b"c"))


def test_rsa_encryption_parameters_other_than_null_are_malformed(key_512):
    # RFC 3279 §2.3.1: the parameters are NULL; absent ones stay accepted
    public, _ = key_512
    key_v = pkcs1.encode_public_key_info(public).children[1]

    def spki(params):
        alg = AlgorithmIdentifier(oids.RSA_ENCRYPTION, params).to_der_value()
        return asn1.der_decode(der_encode(asn1.sequence(alg, key_v)))

    _assert_refused(spki(asn1.octet_string(b"")), MalformedKey, match="NULL")
    assert pkcs1.decode_public_key_info(spki(None)) == public


@pytest.mark.parametrize("field", ["commonName", "organization", "emailAddress"])
def test_name_component_must_be_non_empty(field):
    with pytest.raises(SyntaxViolation, match=f"{field} syntax"):
        Name((("commonName", "c"), (field, "")))


@pytest.mark.parametrize("field,bound", [("commonName", 64), ("organization", 64),
                                         ("emailAddress", 255)])
def test_name_component_has_an_upper_bound(field, bound):
    """RFC 5280 Appendix A's ub-common-name, ub-organization-name and
    ub-emailaddress-length, built and received alike."""
    at_bound = Name((("commonName", "c"), (field, "a" * bound)))
    assert Name.from_der(at_bound.to_der()) == at_bound
    oid, _, make, _ = ATTRIBUTE_REGISTRY[field]
    received = asn1.sequence(at_bound.to_der_value().children[0], asn1.set_value(
        asn1.sequence(asn1.oid_value(oid), make("a" * (bound + 1)))))
    message = f"{field} syntax"
    with pytest.raises(SyntaxViolation, match=message):
        Name((("commonName", "c"), (field, "a" * (bound + 1))))
    with pytest.raises(SyntaxViolation, match=message):
        Name.from_der_value(received)


def test_name_refuses_a_field_a_subject_does_not_hold():
    for field in ("shoe_size", "challengePassword", "gender"):
        with pytest.raises(UnknownAttributeType):
            Name((("commonName", "c"), (field, "F")))


def _received_name(oid, value):
    return asn1.sequence(_alice_name().to_der_value().children[0],
                         asn1.set_value(asn1.sequence(asn1.oid_value(oid), value)))


# received name components of a string type their syntax does not allow
@pytest.mark.parametrize("field,value", [
    ("commonName", asn1.utc_time("200101120000Z")),
    ("commonName", asn1.ia5_string("Alice")),
    ("country", asn1.utf8_string("US")),
    ("emailAddress", asn1.utf8_string("alice@example.org")),
], ids=["commonName-UTCTime", "commonName-IA5String", "country-UTF8String",
        "emailAddress-UTF8String"])
def test_received_name_component_of_the_wrong_string_type_is_refused(field, value, key_512):
    name = _received_name(ATTRIBUTE_REGISTRY[field][0], value)
    with pytest.raises(SyntaxViolation, match=f"{field} syntax"):
        Name.from_der_value(name)
    public, _ = key_512
    info = asn1.sequence(asn1.integer(0), name, pkcs1.encode_public_key_info(public),
                         asn1.context(0, ()))
    request = der_encode(asn1.sequence(info, pkcs1.PSS_ALGORITHM.to_der_value(),
                                       asn1.bit_string(b"")))
    with pytest.raises(MalformedRequest, match=f"{field} syntax"):
        CertificationRequest.from_der(request)


def _printable_alice() -> asn1.DerValue:
    # a commonName as older tools write it: a PrintableString, not a UTF8String
    return asn1.sequence(asn1.set_value(asn1.sequence(
        asn1.oid_value(oids.CN), asn1.printable_string("Alice"))))


def test_received_printable_string_common_name_is_accepted():
    # the same text, but not the same name: equality covers the string type
    received, built = Name.from_der_value(_printable_alice()), Name((("commonName", "Alice"),))
    assert received.get("commonName") == built.get("commonName") == "Alice"
    assert received != built and received.to_der() != built.to_der()


def test_a_name_rebuilt_from_received_pairs_encodes_the_received_octets():
    received = Name.from_der_value(_printable_alice())
    rebuilt = Name(received.pairs)
    assert rebuilt == received
    assert rebuilt.to_der() == der_encode(_printable_alice())


def test_received_printable_string_outside_its_repertoire_is_refused(key_512):
    # what attribute_make refuses to write, a request does not read either
    request = build_csr(Name((("commonName", "abcd"),)), key_512, (), seeded(b"a_b@")).to_der()
    edited = request.replace(b"\x0c\x04abcd", b"\x13\x04a_b@")
    assert edited != request
    with pytest.raises(MalformedRequest, match="PrintableString"):
        CertificationRequest.from_der(edited)


def test_build_csr_takes_the_scenario_bundle(key_512):
    # each of these attributes used to fail the registry's check, so build_csr refused them
    bundle = natural_person_bundle(emailAddress="alice@example.org",
                                   countryOfCitizenship="US", placeOfBirth="Springfield",
                                   dateOfBirth="19800101000000Z", gender="F")
    request = build_csr(_alice_name(), key_512, bundle, seeded(b"bundle"))
    received = CertificationRequest.from_der(request.to_der())
    assert received == request and verify_csr(received)
