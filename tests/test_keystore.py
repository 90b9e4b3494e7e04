import math

import pytest

from pkcswb import asn1, cms, csr, keystore, oids, pkcs5, rsa
from pkcswb.asn1 import AlgorithmIdentifier, Oid, der_decode, der_encode
from pkcswb.errors import DecryptionError, MalformedKey, UnsupportedAlgorithm
from pkcswb.keystore import (ATTRIBUTE_REGISTRY, Attribute,
                             EncryptedPrivateKeyInfo, PrivateKeyInfo,
                             SyntaxViolation, UnknownAttributeType, attribute_make, decode_private_key,
                             decrypt_private_key,
                             encode_private_key, encrypt_private_key,
                             natural_person_bundle, pkcs_entity_bundle)
from pkcswb.pkcs5 import pbes2_algorithm, pbes2_fields
from conftest import _pki_der, seeded


# -- PrivateKeyInfo -------------------------------------------------------------


def test_toy_key_round_trip_field_identical():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    assert decode_private_key(encoded) == private


def test_re_encode_is_byte_identical():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    assert encode_private_key(decode_private_key(encoded)) == encoded


def test_truncated_input_is_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    encoded = encode_private_key(private)
    with pytest.raises(MalformedKey):
        decode_private_key(encoded[:len(encoded) // 2])
    with pytest.raises(MalformedKey):
        decode_private_key(b"")


def test_multiprime_versions(key_512):
    _, private = key_512
    assert decode_private_key(encode_private_key(private)) == private
    _, mp = rsa.generate_key(96, 3, 65537, seeded(b"mp"))
    body = der_decode(der_decode(encode_private_key(mp)).children[2].as_octet_string())
    assert body.children[0].as_integer() == 1  # multiprime body version
    assert len(body.children[4].children) == 3


def test_corrupted_key_body_fails_invariants():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    root = der_decode(encode_private_key(private))
    body = der_decode(root.children[2].as_octet_string())
    # structurally valid body whose d no longer satisfies e*d = 1 (mod chi)
    broken_body = asn1.sequence(
        body.children[0], body.children[1], body.children[2],
        asn1.integer(private.d + 1), body.children[4])
    broken = asn1.sequence(root.children[0], root.children[1],
                           asn1.octet_string(der_encode(broken_body)))
    with pytest.raises(MalformedKey):
        decode_private_key(der_encode(broken))


def _with_body_fields(private: rsa.RsaPrivateKey, edit) -> bytes:
    """The .p8 encoding of ``private`` with its key body's five fields
    (version, n, e, d, triples) replaced by ``edit(fields)``."""
    root = der_decode(encode_private_key(private))
    fields = list(der_decode(root.children[2].as_octet_string()).children)
    body = asn1.sequence(*edit(fields))
    return der_encode(asn1.sequence(root.children[0], root.children[1],
                                    asn1.octet_string(der_encode(body))))


def test_a_key_whose_primes_are_not_all_prime_is_refused_when_read():
    # RFC 8017 §3.2 wants the r_i prime; the reader's one checked private
    # operation refuses both keys, which construct
    toy = rsa.RsaPrivateKey(5, 17, (15, 7))
    rng = seeded(b"composite")
    prime = rsa.generate_prime(512, rng)
    product = rsa.generate_prime(256, rng) * rsa.generate_prime(256, rng)
    _, big = rsa.key_from_primes((prime, product), 65537)
    assert big.n.bit_length() == 1024
    for key in (toy, big):
        with pytest.raises(MalformedKey, match="check"):
            decode_private_key(encode_private_key(key))


def test_first_triple_with_a_coefficient_other_than_one_is_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def first_coefficient_two(fields):
        first, *rest = fields[4].children
        r_v, d_v, _ = first.children
        return fields[:4] + [asn1.sequence(asn1.sequence(r_v, d_v, asn1.integer(2)), *rest)]

    with pytest.raises(MalformedKey, match="coefficient"):
        decode_private_key(_with_body_fields(private, first_coefficient_two))


@pytest.mark.parametrize("primes,version", [((5, 11), 1), ((3, 5, 7), 0)])
def test_body_version_that_disagrees_with_the_prime_count_is_malformed(primes, version):
    _, private = rsa.key_from_primes(primes, 3 if len(primes) == 2 else 5)
    edited = _with_body_fields(private, lambda fields: [asn1.integer(version)] + fields[1:])
    with pytest.raises(MalformedKey, match="version"):
        decode_private_key(edited)


@pytest.mark.parametrize("primes,e", [((5, 11), 3), ((3, 5, 7), 5)])
def test_body_with_d_modulo_phi_decodes_and_re_encodes_as_received(primes, e):
    # OpenSSL writes d = e^-1 mod phi(n), which lcm(r_i - 1) divides
    _, private = rsa.key_from_primes(primes, e)
    d_phi = pow(private.e, -1, math.prod(r - 1 for r in private.primes))
    assert d_phi != private.d
    edited = _with_body_fields(private, lambda fields: fields[:3] + [asn1.integer(d_phi)]
                               + fields[4:])
    decoded = decode_private_key(edited)
    assert decoded.d == d_phi and decoded.crt_exponents == private.crt_exponents
    assert encode_private_key(decoded) == edited


@pytest.mark.parametrize("u", [2, 3])
def test_body_with_d_outside_one_to_n_is_malformed(toy_keys, u):
    # the triples still match: lcm(r_i - 1) is a multiple of every r_i - 1
    private = toy_keys[u][1]
    lam = math.lcm(*(r - 1 for r in private.primes))
    for d in (private.d - 3 * lam, private.d + (private.n // lam + 1) * lam):
        edited = _with_body_fields(private, lambda fields: fields[:3] + [asn1.integer(d)]
                                   + fields[4:])
        with pytest.raises(MalformedKey, match=r"\[1, n\)"):
            decode_private_key(edited)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_body_with_a_crt_exponent_not_reduced_is_malformed(i):
    # RFC 8017 §A.1.2: exponent1 is d mod (p - 1); d_i + (r_i - 1) is refused
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def unreduced(fields):
        triples = list(fields[4].children)
        r_v, d_v, t_v = triples[i].children
        r = r_v.as_integer()
        triples[i] = asn1.sequence(r_v, asn1.integer(d_v.as_integer() + r - 1), t_v)
        return fields[:4] + [asn1.sequence(*triples)]

    with pytest.raises(MalformedKey, match="exponent"):
        decode_private_key(_with_body_fields(private, unreduced))


def _with_child(value, index, child):
    """``value`` with its child at ``index`` replaced by ``child``."""
    kids = list(value.children)
    kids[index] = child
    return asn1.DerValue(value.tag_class, value.tag_number, kids)


_SIGNING_TIME = attribute_make("signingTime", "260101120000Z")


def _read_private_key_info(retag, keypair):
    root = PrivateKeyInfo(keypair[1], (attribute_make("friendlyName", "k"),)).to_der_value()
    return PrivateKeyInfo.from_der(der_encode(_with_child(root, 3, retag(root.children[3]))))


def _read_request(retag, keypair):
    request = csr.build_csr(csr.Name((("commonName", "c"),)), keypair,
                            (attribute_make("challengePassword", "pw"),), seeded(b"[0] csr"))
    root = der_decode(request.to_der())
    info_v = root.children[0]
    info_v = _with_child(info_v, 3, retag(info_v.children[3]))
    der = der_encode(_with_child(root, 0, info_v))
    return csr.verify_csr(csr.CertificationRequest.from_der(der))


def _read_signed_data(retag, keypair):
    ident = cms.SignerIdent(csr.Name((("commonName", "s"),)), b"kid")
    signed = cms.sign_data(cms.make_data(b"m"), keypair[1], ident, (_SIGNING_TIME,),
                           seeded(b"[0] signed")).content
    (signer,) = signed.children[3].children
    signer = _with_child(signer, 3, retag(signer.children[3]))
    signed = _with_child(signed, 3, asn1.set_value(signer))
    return cms.verify_signed(cms.ContentInfo(oids.CT_SIGNED_DATA, signed), keypair[0])[1]


def _read_authenticated_data(retag, keypair):
    body = cms.authenticate_data(cms.make_data(b"m"), bytes(16), (_SIGNING_TIME,)).content
    body = _with_child(body, 3, retag(body.children[3]))
    return cms.check_auth(cms.ContentInfo(oids.CT_AUTHENTICATED_DATA, body), bytes(16))


# every reader of a [0] IMPLICIT SET OF Attribute, and the class it raises for a
# set under another tag
_ATTRIBUTE_SET_READERS = {
    "private-key-info": (_read_private_key_info, MalformedKey),
    "request": (_read_request, csr.MalformedRequest),
    "signed-data": (_read_signed_data, asn1.NonCanonical),
    "authenticated-data": (_read_authenticated_data, asn1.NonCanonical),
}


@pytest.mark.parametrize("retag", [lambda v: asn1.context(1, v.children),
                                   lambda v: asn1.set_value(*v.children)],
                         ids=["context-1", "universal-set"])
@pytest.mark.parametrize("reader", list(_ATTRIBUTE_SET_READERS))
def test_every_reader_refuses_an_attribute_set_not_tagged_context_zero(reader, retag, key_512):
    read, refused = _ATTRIBUTE_SET_READERS[reader]
    assert read(lambda v: v, key_512)  # under [0], the same set is read
    with pytest.raises(refused, match="CONTEXT tag 0"):
        read(retag, key_512)


def test_unsupported_key_algorithm():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    root = der_decode(encode_private_key(private))
    swapped = asn1.sequence(
        root.children[0],
        AlgorithmIdentifier(Oid.parse("1.2.840.10040.4.1")).to_der_value(),
        root.children[2],
    )
    with pytest.raises(UnsupportedAlgorithm):
        decode_private_key(der_encode(swapped))


def test_attributes_round_trip_and_canonical_order():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    a = attribute_make("friendlyName", "alice key")
    b = attribute_make("localKeyId", b"\x01\x02")
    info_ab = PrivateKeyInfo(private, (a, b))
    info_ba = PrivateKeyInfo(private, (b, a))
    assert info_ab.to_der() == info_ba.to_der()
    decoded = PrivateKeyInfo.from_der(info_ab.to_der())
    assert decoded == info_ab
    assert decoded.to_der() == info_ab.to_der()


@pytest.mark.parametrize("attribute", [
    (oids.AT_FRIENDLY_NAME, asn1.integer(5), "^value does not match the friendlyName syntax$"),
    (Oid.parse("1.2.3.4"), asn1.null(), "^unregistered attribute type 1.2.3.4$"),
], ids=["friendlyName-integer", "unregistered"])
def test_received_attribute_the_registry_refuses_is_malformed(attribute):
    # the DER by hand: PrivateKeyInfo(key, attributes) cannot be given such an attribute
    attr_type, value, message = attribute
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    root = der_decode(encode_private_key(private))
    refused = asn1.sequence(asn1.oid_value(attr_type), asn1.set_value(value))
    edited = der_encode(asn1.sequence(*root.children, asn1.context(0, (refused,))))
    with pytest.raises(MalformedKey, match=message):
        decode_private_key(edited)


def test_each_received_attribute_is_checked_once_on_each_read_path(key_512, monkeypatch):
    from pkcswb import pfx
    _, private = key_512
    name = csr.Name((("commonName", "x"),))
    friendly, key_id = attribute_make("friendlyName", "k"), attribute_make("localKeyId", b"\x01")
    challenge = attribute_make("challengePassword", "pw")
    signed = cms.sign_data(cms.make_data(b"m"), private, cms.SignerIdent(name, b"k"),
                           (attribute_make("signingTime", "200101120000Z"),), seeded(b"s"))
    packed = pfx.pfx_create((pfx.SafeBag(cms.make_data(b"c"), (friendly, key_id)),),
                            b"pw", b"pw", seeded(b"p")).to_der()
    reads = {
        "PrivateKeyInfo": (PrivateKeyInfo(private, (friendly, key_id)).to_der(),
                           PrivateKeyInfo.from_der, [oids.AT_FRIENDLY_NAME, oids.AT_LOCAL_KEY_ID]),
        "CertificationRequest": (
            csr.build_csr(name, key_512, (challenge,), seeded(b"r")).to_der(),
            lambda octets: csr.verify_csr(csr.CertificationRequest.from_der(octets)),
            [oids.CN, oids.AT_CHALLENGE_PASSWORD]),  # the subject's one component, too
        "signed-data": (signed.to_der(),
                        lambda octets: cms.verify_signed(cms.ContentInfo.from_der(octets),
                                                         key_512[0]),
                        [oids.AT_CONTENT_TYPE, oids.AT_MESSAGE_DIGEST, oids.AT_SIGNING_TIME]),
        "pfx": (packed, lambda octets: pfx.pfx_open(pfx.PfxPdu.from_der(octets), b"pw", b"pw"),
                [oids.AT_FRIENDLY_NAME, oids.AT_LOCAL_KEY_ID]),
    }
    checked = []
    real = keystore._values_check
    monkeypatch.setattr(keystore, "_values_check",
                        lambda attr_type, values: checked.append(attr_type) or real(
                            attr_type, values))
    for path, (octets, read, expected) in reads.items():
        checked.clear()
        assert read(octets)
        assert sorted(map(str, checked)) == sorted(map(str, expected)), path


def test_each_built_attribute_value_is_checked_once_on_each_build_path(key_512, monkeypatch):
    # the write-side twin of the read-path test above: building and encoding
    # check each value once, in the Attribute constructor (a Name in its own)
    from pkcswb import pfx
    _, private = key_512
    ident = cms.SignerIdent(csr.Name((("commonName", "x"),)), b"k")
    friendly = lambda: attribute_make("friendlyName", "k")
    key_id = lambda: attribute_make("localKeyId", b"\x01")
    builds = {
        "attribute_make": (lambda: attribute_make("friendlyName", "k").to_der(),
                           [oids.AT_FRIENDLY_NAME]),
        "natural_person_bundle": (
            lambda: [a.to_der() for a in natural_person_bundle(emailAddress="a@b.c", gender="F")],
            [oids.AT_EMAIL_ADDRESS, oids.AT_GENDER]),
        "pkcs_entity_bundle": (
            lambda: [a.to_der() for a in
                     pkcs_entity_bundle(pkcs7PDU=cms.make_data(b"m").to_der_value())],
            [oids.AT_PKCS7_PDU]),
        "Name": (lambda: csr.Name((("commonName", "x"), ("country", "US"))).to_der(),
                 [oids.CN, oids.COUNTRY]),
        "sign_data": (
            lambda: cms.sign_data(cms.make_data(b"m"), private, ident,
                                  (attribute_make("signingTime", "200101120000Z"),),
                                  seeded(b"s")).to_der(),
            [oids.AT_SIGNING_TIME, oids.AT_CONTENT_TYPE, oids.AT_MESSAGE_DIGEST]),
        "authenticate_data": (
            lambda: cms.authenticate_data(cms.make_data(b"m"), b"key",
                                          (attribute_make("sequenceNumber", 1),)).to_der(),
            [oids.AT_SEQUENCE_NUMBER, oids.AT_CONTENT_TYPE, oids.AT_MESSAGE_DIGEST]),
        "PrivateKeyInfo": (lambda: PrivateKeyInfo(private, (friendly(), key_id())).to_der(),
                           [oids.AT_FRIENDLY_NAME, oids.AT_LOCAL_KEY_ID]),
        "SafeBag": (lambda: pfx.SafeBag(cms.make_data(b"c"), (friendly(), key_id())).to_der(),
                    [oids.AT_FRIENDLY_NAME, oids.AT_LOCAL_KEY_ID]),
    }
    checked = []
    real = keystore._values_check
    monkeypatch.setattr(keystore, "_values_check",
                        lambda attr_type, values: checked.extend([attr_type] * len(values))
                        or real(attr_type, values))
    for path, (build, expected) in builds.items():
        checked.clear()
        assert build()
        assert sorted(map(str, checked)) == sorted(map(str, expected)), path


# -- EncryptedPrivateKeyInfo -------------------------------------------------------


def test_encrypt_decrypt_round_trip(key_512):
    _, private = key_512
    info = PrivateKeyInfo(private, (attribute_make("friendlyName", "k"),))
    epki = encrypt_private_key(info, b"pw", b"saltsalt", 64, seeded(b"iv"))
    assert decrypt_private_key(epki, b"pw") == info
    recoded = EncryptedPrivateKeyInfo.from_der(epki.to_der())
    assert recoded == epki and recoded.to_der() == epki.to_der()
    assert decrypt_private_key(recoded, b"pw") == info


def test_wrong_password_fifty_trials(key_512):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv2"))
    for index in range(50):
        with pytest.raises(DecryptionError):
            decrypt_private_key(epki, b"bad-%04d" % index)


def test_different_salts_change_ciphertext(key_512):
    _, private = key_512
    info = PrivateKeyInfo(private)
    a = encrypt_private_key(info, b"pw", b"salt-aaa", 64, seeded(b"iv3"))
    b = encrypt_private_key(info, b"pw", b"salt-bbb", 64, seeded(b"iv3"))
    assert a.encrypted_data != b.encrypted_data


def test_empty_password_rejected(key_512):
    _, private = key_512
    with pytest.raises(ValueError):
        encrypt_private_key(PrivateKeyInfo(private), b"", b"saltsalt", 64, seeded(b"x"))


def test_legacy_pbe_identifier_unsupported():
    for legacy in ("1.2.840.113549.1.5.3", "1.2.840.113549.1.12.1.3"):
        epki = EncryptedPrivateKeyInfo(AlgorithmIdentifier(Oid.parse(legacy)), b"x")
        with pytest.raises(UnsupportedAlgorithm):
            decrypt_private_key(epki, b"pw")


# -- attribute registry --------------------------------------------------------------


# the attribute-type OIDs of oids: every AT_*, and the three X.520 name components
ATTRIBUTE_TYPE_OIDS = [value for name, value in vars(oids).items()
                       if name.startswith("AT_") or name in ("CN", "COUNTRY", "ORGANIZATION")]


def test_registry_has_one_row_per_attribute_type_oid():
    oid_list = [oid for oid, *_ in ATTRIBUTE_REGISTRY.values()]
    assert len(ATTRIBUTE_TYPE_OIDS) == len(set(ATTRIBUTE_TYPE_OIDS)) == 27
    assert len(oid_list) == len(set(oid_list)) and set(oid_list) == set(ATTRIBUTE_TYPE_OIDS)


def test_challenge_password_directory_string():
    attribute = attribute_make("challengePassword", "s3cret")
    assert attribute.values[0].is_universal(asn1.PRINTABLE_STRING)
    unicode_attr = attribute_make("challengePassword", "gehéim")
    assert unicode_attr.values[0].is_universal(asn1.UTF8_STRING)


def test_message_digest_attribute():
    assert attribute_make("messageDigest", b"\x00" * 32).values == (asn1.octet_string(bytes(32)),)


def test_friendly_name_must_be_non_empty():
    with pytest.raises(SyntaxViolation):
        attribute_make("friendlyName", "")
    assert attribute_make("friendlyName", "display name").values[0].as_text() == "display name"


def test_built_values_pass_through_every_type():
    built = {"contentType": asn1.oid_value(oids.CT_DATA),
             "messageDigest": asn1.octet_string(bytes(32)),
             "signingTime": asn1.utc_time("200101120000Z"),
             "sequenceNumber": asn1.integer(3),
             "randomNonce": asn1.octet_string(b"\x01\x02\x03\x04"),
             "counterSignature": asn1.sequence(asn1.integer(1)),
             "challengePassword": asn1.utf8_string("pw"),
             "extensionRequest": asn1.sequence(),
             "friendlyName": asn1.utf8_string("k"),
             "localKeyId": asn1.octet_string(b"\x01"),
             "emailAddress": asn1.ia5_string("a@example.org"),
             "unstructuredName": asn1.ia5_string("router"),
             "unstructuredAddress": asn1.printable_string("1 Main St"),
             "dateOfBirth": asn1.generalized_time("19800101000000Z"),
             "placeOfBirth": asn1.utf8_string("Zürich"),
             "gender": asn1.printable_string("f"),
             "countryOfCitizenship": asn1.printable_string("US"),
             "countryOfResidence": asn1.printable_string("de"),
             "pseudonym": asn1.printable_string("Al"),
             "serialNumber": asn1.printable_string("1234"),
             "pkcs7PDU": asn1.sequence(asn1.oid_value(oids.CT_DATA)),
             "userPKCS12": asn1.sequence(asn1.integer(3)),
             "pkcs15Token": asn1.sequence(),
             "encryptedPrivateKeyInfo": asn1.sequence(asn1.sequence(), asn1.octet_string(b"x")),
             "commonName": asn1.printable_string("Alice"),  # as older tools write it
             "organization": asn1.utf8_string("Example"),
             "country": asn1.printable_string("US")}
    assert set(built) == set(ATTRIBUTE_REGISTRY)
    for name, value in built.items():
        assert attribute_make(name, value).values == (value,)
        assert Attribute(ATTRIBUTE_REGISTRY[name][0], (value,)).values == (value,)
    for name in ("counterSignature", "extensionRequest", "pkcs7PDU", "userPKCS12",
                 "pkcs15Token", "encryptedPrivateKeyInfo"):
        with pytest.raises(SyntaxViolation, match="already-built"):
            attribute_make(name, b"\x30\x00")
    # and one valid native value of each row that takes one
    native = [("contentType", oids.CT_DATA), ("contentType", "1.2.840.113549.1.7.1"),
              ("messageDigest", bytes(32)), ("signingTime", "200101120000Z"),
              ("signingTime", "20520101120000Z"), ("sequenceNumber", 3),
              ("randomNonce", bytearray(b"\x01\x02\x03\x04")),
              ("challengePassword", "pw"), ("friendlyName", "k"),
              ("localKeyId", memoryview(b"\x01")), ("emailAddress", "a@example.org"),
              ("unstructuredName", "router"), ("unstructuredAddress", "1 Main St"),
              ("dateOfBirth", "19800101000000Z"), ("placeOfBirth", "Zürich"),
              ("gender", "M"), ("countryOfCitizenship", "US"), ("countryOfResidence", "fr"),
              ("pseudonym", "Al"), ("serialNumber", "1234"), ("commonName", "Alice"),
              ("organization", "Exämple"), ("country", "US")]
    assert {name for name, _ in native} == {
        name for name, (_, kind, _, _) in ATTRIBUTE_REGISTRY.items() if kind is not None}
    for name, value in native:
        attribute = attribute_make(name, value)
        assert attribute.attr_type == ATTRIBUTE_REGISTRY[name][0], name


# the Python type each builder takes (None: only a built value); 5 used to give five
# zero octets, 3.7 the integer 3, True the integer 1 or one zero octet, and the rest
# Python's own ValueError, TypeError or AttributeError.  The naturalPerson bundle and a
# Name each used to raise TypeError from a pattern match or AttributeError from a
# builder, and a pkcsEntity bundle to give an Attribute that failed only when encoded.
BUILDER_TYPES = {"contentType": str, "messageDigest": bytes, "signingTime": str,
                 "sequenceNumber": int, "randomNonce": bytes, "counterSignature": None,
                 "challengePassword": str, "extensionRequest": None, "friendlyName": str,
                 "localKeyId": bytes, "emailAddress": str, "unstructuredName": str,
                 "unstructuredAddress": str, "dateOfBirth": str, "placeOfBirth": str,
                 "gender": str, "countryOfCitizenship": str, "countryOfResidence": str,
                 "pseudonym": str, "serialNumber": str, "pkcs7PDU": None, "userPKCS12": None,
                 "pkcs15Token": None, "encryptedPrivateKeyInfo": None, "commonName": str,
                 "organization": str, "country": str}


def _builders(name: str) -> list:
    """Each way a caller builds a value of registry row ``name``: attribute_make,
    and the bundle or Name that holds the row."""
    builders = [lambda value: attribute_make(name, value)]
    if name in keystore._NATURAL_PERSON:
        builders.append(lambda value: natural_person_bundle(**{name: value})[0])
    if name in keystore._PKCS_ENTITY:
        builders.append(lambda value: pkcs_entity_bundle(**{name: value})[0])
    if name in csr._NAME_FIELDS:
        builders.append(lambda value: csr.Name(
            (("commonName", "c"),) * (name != "commonName") + ((name, value),)))
    return builders


@pytest.mark.parametrize("value", ["a_b", 5, 3.7, b"\x01\x02\x03\x04", None, True], ids=repr)
@pytest.mark.parametrize("name", BUILDER_TYPES)
def test_attribute_builders_take_only_their_own_type(name, value):
    assert set(BUILDER_TYPES) == set(ATTRIBUTE_REGISTRY)
    for build in _builders(name):
        if type(value) is not BUILDER_TYPES[name]:
            with pytest.raises(SyntaxViolation):
                build(value)
            continue
        try:
            built = build(value)
        except SyntaxViolation:
            continue
        assert isinstance(built, (csr.Name, Attribute))


def test_unknown_attribute_type():
    with pytest.raises(UnknownAttributeType):
        attribute_make("nonexistent", 1)


# (type, value) pairs the registry refuses: a type it does not hold, a value of
# another ASN.1 type, a signingTime in 1950-2049 as a GeneralizedTime (RFC 5652
# §11.3 writes it as a UTCTime), and a sequenceNumber of 0
REFUSED_ATTRIBUTES = {
    "unregistered": (Oid.parse("1.2.3.4"), asn1.null(), "unregistered attribute type 1.2.3.4"),
    "friendlyName-integer": (oids.AT_FRIENDLY_NAME, asn1.integer(5), "friendlyName syntax"),
    "messageDigest-integer": (oids.AT_MESSAGE_DIGEST, asn1.integer(5), "messageDigest syntax"),
    "generalized-signing-time": (oids.AT_SIGNING_TIME, asn1.generalized_time("20300101000000Z"),
                                 "signingTime syntax"),
    "sequence-number-0": (oids.AT_SEQUENCE_NUMBER, asn1.integer(0), "sequenceNumber syntax"),
}


@pytest.mark.parametrize("case", list(REFUSED_ATTRIBUTES))
def test_the_attribute_constructor_refuses_what_the_registry_refuses(case):
    # one gate, built or received: so no writer of PKCS #8, #10, #12 or CMS is handed one
    attr_type, value, message = REFUSED_ATTRIBUTES[case]
    with pytest.raises(SyntaxViolation, match=message):
        Attribute(attr_type, (value,))
    received = asn1.sequence(asn1.oid_value(attr_type), asn1.set_value(value))
    with pytest.raises(SyntaxViolation, match=message):
        Attribute.from_der(der_encode(received))


def test_an_attribute_needs_a_value():
    with pytest.raises(asn1.NonCanonical, match="at least one value"):
        Attribute(oids.AT_SIGNING_TIME, ())


def test_content_type_text_with_a_leading_zero_arc_is_refused():
    # no second spelling of 1.2.840.113549.1.7.1 (RFC 4512 §1.4)
    with pytest.raises(SyntaxViolation):
        attribute_make("contentType", "1.2.840.0113549.1.7.1")


def test_signing_time_syntax():
    attribute_make("signingTime", "200101120000Z")
    attribute_make("signingTime", "20520101120000Z")
    for text in ("000101000000Z", "991231235959Z", "00000101000000Z", "99991231235959Z"):
        attribute_make("signingTime", text)  # the calendar's bounds
    # leap days: a UTCTime year 00-49 is 20xx and 50-99 19xx (RFC 5280 §4.1.2.5.1)
    for text in ("000229000000Z", "520229000000Z", "20520229000000Z"):
        attribute_make("signingTime", text)
    # 1950-2049 is UTCTime's span, and a GeneralizedTime in it is refused (RFC 5652 §11.3)
    for text in ("19491231235959Z", "20500101000000Z"):
        attribute_make("signingTime", text)
    for text in ("19500101000000Z", "20491231235959Z"):
        with pytest.raises(SyntaxViolation):
            attribute_make("signingTime", text)
        with pytest.raises(SyntaxViolation, match="signingTime syntax"):
            Attribute(oids.AT_SIGNING_TIME, (asn1.generalized_time(text),))
    with pytest.raises(SyntaxViolation):  # 1900 is no leap year
        attribute_make("signingTime", "19000229000000Z")
    with pytest.raises(SyntaxViolation):
        attribute_make("signingTime", "not a time")
    # a value that is neither UTCTime nor GeneralizedTime
    with pytest.raises(SyntaxViolation, match="signingTime syntax"):
        Attribute(oids.AT_SIGNING_TIME, (asn1.integer(200101120000),))


# the calendar after the year: each field just out of its range (month 01-12, day
# 01-31, hour 00-23, minutes and seconds 00-59), then month 13, day 32, hour 25, and
# every digit 9, then days their month does not have in 1999 and 2099: 31 February,
# 31 April and 29 February
IMPOSSIBLE_TAILS = ["0001000000Z", "1301000000Z", "0100000000Z", "0132000000Z",
                    "0101240000Z", "0101006000Z", "0101000060Z", "1332250000Z", "9999999999Z",
                    "0231000000Z", "0431000000Z", "0229000000Z"]


@pytest.mark.parametrize("tail", IMPOSSIBLE_TAILS)
def test_impossible_calendar_times_are_refused(tail):
    utc, generalized = "99" + tail, "2099" + tail  # 1999 is a UTCTime's year
    for text in (utc, generalized):
        with pytest.raises(SyntaxViolation, match="signingTime syntax"):
            attribute_make("signingTime", text)
    # asn1's time rules refuse to build such a value
    for build, text in ((asn1.utc_time, utc), (asn1.generalized_time, generalized)):
        with pytest.raises(asn1.NonCanonical, match="day its month|outside its type"):
            build(text)
    with pytest.raises(SyntaxViolation):
        natural_person_bundle(dateOfBirth=generalized)


def test_sequence_number_and_nonce():
    attribute_make("sequenceNumber", 9)
    with pytest.raises(SyntaxViolation):
        attribute_make("sequenceNumber", 0)
    with pytest.raises(SyntaxViolation):  # every value is checked, not the first alone
        Attribute(oids.AT_SEQUENCE_NUMBER, (asn1.integer(3), asn1.integer(0)))
    attribute_make("randomNonce", b"\x01\x02\x03\x04")
    with pytest.raises(SyntaxViolation):
        attribute_make("randomNonce", b"\x01")


def test_attribute_der_round_trip_order_insensitive():
    attribute = Attribute(oids.AT_LOCAL_KEY_ID,
                          (asn1.octet_string(b"zz"), asn1.octet_string(b"aa")))
    recoded = Attribute.from_der_value(der_decode(der_encode(attribute.to_der_value())))
    assert recoded == attribute
    assert recoded.values[0].octets == b"aa"  # canonical order


def test_received_attribute_set_out_of_order_is_non_canonical():
    # a [0] IMPLICIT SET OF Attribute is not a universal SET, so its order is
    # checked where it is read, by the same neighbour comparison
    low, high = sorted((der_encode(attribute_make("signingTime", "200101120000Z").to_der_value()),
                        der_encode(attribute_make("sequenceNumber", 7).to_der_value())))
    for children, ok in ((low + high, True), (high + low, False), (low + low, True)):
        received = der_decode(bytes([0xA0, len(children)]) + children)
        if ok:
            assert len(keystore._attributes_from_der(received)) == len(received.children)
        else:
            with pytest.raises(asn1.NonCanonical):
                keystore._attributes_from_der(received)


def test_natural_person_bundle():
    bundle = natural_person_bundle(emailAddress="a@example.org",
                                   countryOfCitizenship="US",
                                   gender="F",
                                   dateOfBirth="19800101000000Z")
    assert len(bundle) == 4
    assert {a.attr_type for a in bundle} == {
        oids.AT_EMAIL_ADDRESS, oids.AT_COUNTRY_OF_CITIZENSHIP,
        oids.AT_GENDER, oids.AT_DATE_OF_BIRTH}
    assert all(isinstance(attribute, Attribute) for attribute in bundle)
    # a registry name outside the object class is as unknown as no name at all
    for name in ("shoe_size", "email_address", "friendlyName", "pkcs7PDU", "commonName"):
        with pytest.raises(UnknownAttributeType):
            natural_person_bundle(**{name: "44"})
    assert natural_person_bundle(dateOfBirth="19991231235959Z")[0].attr_type == \
        oids.AT_DATE_OF_BIRTH
    # each text at its upper bound (the refusals above it are below)
    assert len(natural_person_bundle(serialNumber="1" * 64, emailAddress="a" * 255)) == 2


@pytest.mark.parametrize("field,value", [
    ("dateOfBirth", "1980"),
    ("dateOfBirth", "198001010000Z"),           # UTCTime, not GeneralizedTime
    ("dateOfBirth", "19800101000000"),
    ("gender", "Female"),
    ("gender", "X"),
    ("gender", "F\n"),
    ("countryOfCitizenship", "USA"),
    ("countryOfCitizenship", "U"),
    ("countryOfResidence", "1"),
    ("countryOfResidence", "U1"),
    # RFC 2985 §5.2 and X.520 bound each of these texts to SIZE (1..ub)
    ("emailAddress", ""),
    ("pseudonym", ""),
    ("placeOfBirth", ""),
    ("serialNumber", ""),
    ("unstructuredAddress", ""),
    ("unstructuredName", ""),
    # and X.520 ub-serial-number and RFC 2985 pkcs-9-ub-emailAddress from above
    pytest.param("serialNumber", "1" * 65, id="serialNumber-65-characters"),
    pytest.param("emailAddress", "a" * 256, id="emailAddress-256-characters"),
    # an emailAddress is an IA5String: it used to raise BadParameter here
    ("emailAddress", "é@example.org"),
])
def test_natural_person_bundle_refuses_a_value_outside_its_syntax(field, value):
    # RFC 2985 §5.2 and RFC 3739 §3.2: dateOfBirth is a GeneralizedTime
    # YYYYMMDDHHMMSSZ, gender one of M, F, m and f, a country two letters
    with pytest.raises(SyntaxViolation):
        natural_person_bundle(**{field: value})


@pytest.mark.parametrize("name", ["challengePassword", "unstructuredName",
                                  "unstructuredAddress", "friendlyName"])
def test_pkcs9_string_rows_are_bounded_at_255_characters(name):
    # RFC 2985 Appendix A: each is SIZE (1..pkcs-9-ub-pkcs9String), 255
    for letter in "aé":  # a PrintableString where the row writes one, and UTF8String
        assert attribute_make(name, letter * 255).values[0].as_text() == letter * 255
        with pytest.raises(SyntaxViolation, match=f"{name} syntax"):
            attribute_make(name, letter * 256)
    with pytest.raises(SyntaxViolation, match=f"{name} syntax"):
        Attribute(ATTRIBUTE_REGISTRY[name][0], (asn1.utf8_string("a" * 256),))


def test_natural_person_bundle_takes_each_letter_case():
    bundle = natural_person_bundle(gender="m", countryOfCitizenship="fr",
                                   countryOfResidence="DE")
    assert [a.values[0].octets for a in bundle] == [b"m", b"fr", b"DE"]


def test_pkcs_entity_bundle():
    epki = asn1.sequence(asn1.sequence(asn1.oid_value(oids.PBES2)), asn1.octet_string(b"blob"))
    bundle = pkcs_entity_bundle(encryptedPrivateKeyInfo=epki)
    assert bundle[0].attr_type == oids.AT_ENCRYPTED_PRIVATE_KEY_INFO
    assert bundle[0].values == (epki,)
    for name in ("unknown_thing", "encrypted_private_key_info", "counterSignature"):
        with pytest.raises(UnknownAttributeType):
            pkcs_entity_bundle(**{name: asn1.sequence()})


@pytest.mark.parametrize("name", ["pkcs7PDU", "userPKCS12", "pkcs15Token",
                                  "encryptedPrivateKeyInfo"])
@pytest.mark.parametrize("value", [asn1.octet_string(b"blob"), asn1.null(),
                                   asn1.set_value(asn1.integer(1))], ids=["octets", "null", "set"])
def test_pkcs_entity_bundle_refuses_a_value_that_is_not_a_sequence(name, value):
    # RFC 2985 §5.2 gives all four a SEQUENCE syntax; each used to build
    with pytest.raises(SyntaxViolation, match=f"{name} syntax"):
        pkcs_entity_bundle(**{name: value})


# -- hostile PBES2 headers ----------------------------------------------------------


def _pbes2_epki(kdf: AlgorithmIdentifier, enc: AlgorithmIdentifier) -> EncryptedPrivateKeyInfo:
    header = AlgorithmIdentifier(oids.PBES2,
                                 asn1.sequence(kdf.to_der_value(), enc.to_der_value()))
    return EncryptedPrivateKeyInfo.from_der(EncryptedPrivateKeyInfo(header, bytes(32)).to_der())


def test_pbes2_identifiers_without_parameters_are_malformed():
    kdf = AlgorithmIdentifier(oids.PBKDF2, asn1.sequence(
        asn1.octet_string(b"saltsalt"), asn1.integer(64),
        AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value()))
    enc = AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(bytes(16)))
    for epki in (_pbes2_epki(AlgorithmIdentifier(oids.PBKDF2), enc),
                 _pbes2_epki(kdf, AlgorithmIdentifier(oids.AES128_CBC)),
                 EncryptedPrivateKeyInfo(AlgorithmIdentifier(oids.PBES2, asn1.null()),
                                         bytes(32))):
        with pytest.raises(MalformedKey):
            decrypt_private_key(epki, b"pw")


@pytest.mark.parametrize("field", ["PBES2", "PBKDF2"])
def test_pbes2_parameters_under_another_tag_are_malformed(key_512, field):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-tag"))
    params = epki.algorithm.params
    if field == "PBKDF2":
        params = params.children[0].children[1]
    der = epki.to_der()
    at = der.index(der_encode(params))
    assert der[at] == 0x30 and decrypt_private_key(epki, b"pw") == PrivateKeyInfo(private)
    edited = EncryptedPrivateKeyInfo.from_der(der[:at] + b"\xa0" + der[at + 1:])
    with pytest.raises(MalformedKey):
        decrypt_private_key(edited, b"pw")


def test_p8e_iteration_count_above_cap_fails_before_pbkdf2(key_512, monkeypatch):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-cap"))
    salt, _, iv = pbes2_fields(epki.algorithm)
    edited = EncryptedPrivateKeyInfo(pbes2_algorithm(salt, 2**40, iv),
                                     epki.encrypted_data).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on an over-cap iteration count")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(pkcs5.TooManyIterations):
        decrypt_private_key(EncryptedPrivateKeyInfo.from_der(edited), b"pw")
    assert pkcs5.MAX_ITERATIONS < 2**40


@pytest.mark.parametrize("salt,count", [(b"saltsalt", 0), (b"saltsalt", -1), (b"", 64)])
def test_p8e_nonpositive_count_or_empty_salt_is_malformed(key_512, monkeypatch, salt, count):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 64,
                               seeded(b"iv-low"))
    _, _, iv = pbes2_fields(epki.algorithm)
    edited = EncryptedPrivateKeyInfo(pbes2_algorithm(salt, count, iv),
                                     epki.encrypted_data).to_der()

    def no_pbkdf2(*args):
        raise AssertionError("PBKDF2 ran on a malformed header")

    monkeypatch.setattr(pkcs5, "pbkdf2", no_pbkdf2)
    with pytest.raises(MalformedKey):
        decrypt_private_key(EncryptedPrivateKeyInfo.from_der(edited), b"pw")


# -- size caps on keys read from a file -------------------------------------------


@pytest.fixture
def no_key_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a key was built before its size was checked")

    monkeypatch.setattr(keystore, "RsaPrivateKey", refuse)


def test_private_key_modulus_above_cap_is_malformed(no_key_built):
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(2**rsa.MAX_MODULUS_BITS + 1, 65537, (3, 3)))


def test_private_key_prime_count_above_cap_is_malformed(no_key_built):
    over = _pki_der(3 * 5, 65537, (3,) * (rsa.MAX_PRIMES + 1))
    with pytest.raises(MalformedKey, match="primes"):
        PrivateKeyInfo.from_der(over)
    # wrapped under a password, the same key is one more decryption failure
    epki = EncryptedPrivateKeyInfo(*pkcs5.pbes2_encrypt(over, b"pw", b"saltsalt", 64,
                                                        seeded(b"iv-u")))
    with pytest.raises(DecryptionError) as info:
        decrypt_private_key(epki, b"pw")
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_private_key_modulus_not_the_product_of_the_primes_is_malformed(no_key_built):
    # compared before the key, and so any inverse, is computed
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(5 * 11 + 2, 3, (5, 11)))


def test_private_key_prime_longer_than_the_modulus_is_malformed(monkeypatch):
    # refused before any product: its cost grows faster than the file's size
    def refuse(*args):
        raise AssertionError("the primes were multiplied")

    monkeypatch.setattr(math, "prod", refuse)
    with pytest.raises(MalformedKey, match="modulus"):
        PrivateKeyInfo.from_der(_pki_der(5 * 11, 3, (5, 2**64 + 1)))


@pytest.mark.parametrize("primes,e,d", [
    ((3, 5, 15), 3, 19),   # 15 shares 3 and 5 with the others; 3 * 19 = 1 mod 28
    ((9, 15), 3, 19),      # 9 and 15 share 3; 3 * 19 = 1 mod 56
    ((5, 11), 5, 1),       # gcd(5, 11 - 1) = 5: no d exists
])
def test_private_key_primes_not_coprime_to_each_other_or_e_are_malformed(primes, e, d):
    # n is the product of the primes, so only the key's own checks can refuse
    with pytest.raises(MalformedKey):
        PrivateKeyInfo.from_der(_pki_der(math.prod(primes), e, primes, d))


def test_private_key_prime_of_one_is_malformed():
    # primes (1, 15) multiply to n = 15, and lcm(r_i - 1) would be zero
    with pytest.raises(MalformedKey, match="primes"):
        PrivateKeyInfo.from_der(_pki_der(15, 3, (1, 15)))


def test_key_body_and_triple_with_too_few_fields_are_malformed():
    _, private = rsa.key_from_primes((3, 5, 7), 5)

    def short_triple(fields):
        first, *rest = fields[4].children
        return fields[:4] + [asn1.sequence(asn1.sequence(*first.children[:2]), *rest)]

    for edit in (lambda fields: fields[:2], short_triple):
        with pytest.raises(MalformedKey, match="fields"):
            decode_private_key(_with_body_fields(private, edit))


def test_encrypted_private_key_info_with_a_third_field_is_malformed(key_512):
    _, private = key_512
    epki = encrypt_private_key(PrivateKeyInfo(private), b"pw", b"saltsalt", 2, seeded(b"3"))
    extra = asn1.sequence(*epki.to_der_value().children, asn1.null())
    with pytest.raises(MalformedKey, match="fields"):
        EncryptedPrivateKeyInfo.from_der(der_encode(extra))


def test_rsa_encryption_parameters_other_than_null_are_malformed():
    # RFC 3279 §2.3.1: the parameters are NULL; absent ones stay accepted
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    version_v, _, body_v = der_decode(encode_private_key(private)).children

    def pki(params):
        alg = AlgorithmIdentifier(oids.RSA_ENCRYPTION, params).to_der_value()
        return der_encode(asn1.sequence(version_v, alg, body_v))

    with pytest.raises(MalformedKey, match="NULL"):
        PrivateKeyInfo.from_der(pki(asn1.octet_string(b"")))
    assert PrivateKeyInfo.from_der(pki(None)).key == private
