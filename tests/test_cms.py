import pytest

from pkcswb import asn1, cms, csr, keystore, oids, rsa
from pkcswb.asn1 import AlgorithmIdentifier
from pkcswb.cms import (ContentInfo, DigestMismatch, SignatureInvalid, SignerIdent,
                        WrongContentType,
                        authenticate_data, authenticated_content, cert_fields,
                        check_auth, check_digest, data_payload, decrypt_data,
                        digest_data, digested_content, encrypt_data, envelope,
                        make_data, open_envelope, sign_data, toy_issue,
                        verify_signed)
from pkcswb.csr import Name, build_csr
from pkcswb.errors import DecryptionError
from pkcswb.keystore import Attribute, _attributes_to_der, attribute_make
from pkcswb.pkcs1 import ModulusTooSmall
from pkcswb.primitives import SHA256, BadLength, hmac_digest
from conftest import seeded
from oracles import der_tlv_count

SIGNING_TIME = attribute_make("signingTime", "200101120000Z")


@pytest.fixture()
def ident():
    return SignerIdent(Name((("commonName", "Signer"),)), b"key-1")


# -- data --------------------------------------------------------------------


def test_data_round_trip():
    for payload in (b"", b"payload"):
        ci = make_data(payload)
        assert data_payload(ci) == payload
        assert ContentInfo.from_der(ci.to_der()) == ci


def test_nested_data_in_data():
    inner = make_data(b"x")
    outer = make_data(inner.to_der())
    assert ContentInfo.from_der(data_payload(outer)) == inner


# -- signed-data ----------------------------------------------------------------


def test_sign_verify_round_trip(key_1024, ident):
    public, private = key_1024
    inner = make_data(b"to be signed")
    signed = sign_data(inner, private, ident, (SIGNING_TIME,), seeded(b"s"))
    recovered, ok = verify_signed(signed, public)
    assert ok and recovered == inner


def test_signed_attrs_auto_augmented(key_1024, ident):
    _, private = key_1024
    signed = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s"))
    signer = signed.content.children[3].children[0]
    attrs = [Attribute.from_der_value(c) for c in signer.children[3].children]
    present = {a.attr_type for a in attrs}
    assert oids.AT_CONTENT_TYPE in present and oids.AT_MESSAGE_DIGEST in present


def test_sign_without_attrs(key_1024, ident):
    public, private = key_1024
    signed = sign_data(make_data(b"bare"), private, ident, (), seeded(b"s"))
    recovered, ok = verify_signed(signed, public)
    assert ok and data_payload(recovered) == b"bare"


def test_payload_tamper_is_digest_mismatch(key_1024, ident):
    public, private = key_1024
    signed = sign_data(make_data(b"payload"), private, ident, (SIGNING_TIME,),
                       seeded(b"s"))
    version, algs, _encap, signers = signed.content.children
    forged = ContentInfo(oids.CT_SIGNED_DATA, asn1.sequence(
        version, algs, make_data(b"payloaX").to_der_value(), signers))
    with pytest.raises(DigestMismatch):
        verify_signed(forged, public)


def test_attr_tamper_is_signature_invalid(key_1024, ident):
    public, private = key_1024
    signed = sign_data(make_data(b"payload"), private, ident, (SIGNING_TIME,),
                       seeded(b"s"))
    version, algs, encap, signers = signed.content.children
    signer_kids = list(signers.children[0].children)
    replaced = []
    for child in signer_kids[3].children:
        attribute = Attribute.from_der_value(child)
        if attribute.attr_type == oids.AT_SIGNING_TIME:
            attribute = attribute_make("signingTime", "210101120000Z")
        replaced.append(attribute.to_der_value())
    signer_kids[3] = asn1.context(0, tuple(sorted(replaced, key=asn1.der_encode)))
    forged = ContentInfo(oids.CT_SIGNED_DATA, asn1.sequence(
        version, algs, encap, asn1.set_value(asn1.sequence(*signer_kids))))
    with pytest.raises(SignatureInvalid):
        verify_signed(forged, public)


def test_wrong_key_is_signature_invalid(key_1024, key_1024_b, ident):
    _, private = key_1024
    other_public, _ = key_1024_b
    signed = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s"))
    with pytest.raises(SignatureInvalid):
        verify_signed(signed, other_public)


def _edit(octets: bytes, offset: int, octet: int) -> ContentInfo:
    edited = bytearray(octets)
    edited[offset] = octet
    return ContentInfo.from_der(bytes(edited))


def test_unsigned_field_edits_are_refused(key_1024, ident):
    # the signature covers neither the versions nor the digestAlgorithms SET
    public, private = key_1024
    signed = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s"))
    octets = signed.to_der()
    version, algs, _encap, signers = signed.content.children
    algs_der = asn1.der_encode(algs)
    algs_at = octets.index(algs_der)
    assert octets[algs_at - 3:algs_at] == asn1.der_encode(version) == b"\x02\x01\x01"
    signer_der = asn1.der_encode(signers.children[0])
    signer_version_at = octets.index(signer_der) + signer_der.index(b"\x02\x01\x01") + 2
    assert signer_der.index(b"\x02\x01\x01") <= 4  # right after the SEQUENCE header
    for offset, octet in ((algs_at - 1, 3),                   # SignedData version 3
                          (signer_version_at, 3),             # SignerInfo version 3
                          (algs_at + len(algs_der) - 1, 3)):  # SHA-512 for SHA-256
        with pytest.raises(SignatureInvalid):
            verify_signed(_edit(octets, offset, octet), public)
    assert verify_signed(ContentInfo.from_der(octets), public)[1]


def test_wrong_content_type_is_declared(key_1024, ident):
    public, private = key_1024
    signed = sign_data(make_data(b"m"), private, ident, (), seeded(b"s"))
    octets = signed.to_der()
    type_der = asn1.der_encode(asn1.oid_value(oids.CT_SIGNED_DATA))
    last = octets.index(type_der) + len(type_der) - 1
    assert octets[last] == 2  # pkcs7-signedData, 1.2.840.113549.1.7.2
    enveloped = _edit(octets, last, 3)
    with pytest.raises(WrongContentType):
        verify_signed(enveloped, public)
    with pytest.raises(WrongContentType):
        data_payload(signed)
    assert issubclass(WrongContentType, ValueError)


def test_sign_refuses_a_content_type_attribute_of_another_type(key_1024, ident):
    public, private = key_1024
    inner = make_data(b"m")
    both = Attribute(oids.AT_CONTENT_TYPE, (asn1.oid_value(oids.CT_DATA),
                                            asn1.oid_value(oids.CT_ENVELOPED_DATA)))
    for given in (attribute_make("contentType", oids.CT_ENVELOPED_DATA), both):
        with pytest.raises(WrongContentType):
            sign_data(inner, private, ident, (given,), seeded(b"s"))
        with pytest.raises(WrongContentType):
            authenticate_data(inner, b"mac key", (given,))
    # the content's own type, given by the caller, is kept as it is
    same = attribute_make("contentType", oids.CT_DATA)
    assert verify_signed(sign_data(inner, private, ident, (same,), seeded(b"s")), public)[1]
    assert check_auth(authenticate_data(inner, b"mac key", (same,)), b"mac key")


def test_sign_refuses_a_message_digest_that_is_not_the_contents(key_1024, ident):
    public, private = key_1024
    inner = make_data(b"m")
    digest = SHA256.digest(inner.to_der())
    twice = Attribute(oids.AT_MESSAGE_DIGEST, (asn1.octet_string(digest),) * 2)
    as_integer = Attribute(oids.AT_MESSAGE_DIGEST, (asn1.integer(int.from_bytes(digest, "big")),))
    for given in (attribute_make("messageDigest", bytes(32)), twice, as_integer):
        with pytest.raises(DigestMismatch):
            sign_data(inner, private, ident, (given,), seeded(b"s"))
        with pytest.raises(DigestMismatch):
            authenticate_data(inner, b"mac key", (given,))
    # the content's own digest, given by the caller, is kept as it is
    same = attribute_make("messageDigest", digest)
    assert verify_signed(sign_data(inner, private, ident, (same,), seeded(b"s")), public)[1]
    assert check_auth(authenticate_data(inner, b"mac key", (same,)), b"mac key")


def test_received_message_digest_must_have_one_value(key_1024, ident, monkeypatch):
    # signed and MACed correctly over two messageDigest values, the first the
    # content's digest (RFC 5652 §11.2 allows exactly one)
    public, private = key_1024
    inner = make_data(b"m")
    digest = asn1.octet_string(SHA256.digest(inner.to_der()))
    attrs = (Attribute(oids.AT_MESSAGE_DIGEST, (digest, asn1.octet_string(bytes(32)))),)
    monkeypatch.setattr(cms, "_is_digest", lambda attribute, digest: True)
    signed = sign_data(inner, private, ident, attrs, seeded(b"s")).to_der()
    maced = authenticate_data(inner, b"mac key", attrs).to_der()
    monkeypatch.undo()
    with pytest.raises(DigestMismatch):
        verify_signed(ContentInfo.from_der(signed), public)
    assert not check_auth(ContentInfo.from_der(maced), b"mac key")


def test_received_content_type_attribute_must_match_the_content(key_1024, ident, monkeypatch):
    # signed and MACed correctly over a contentType that names another type (RFC 5652 §11.1)
    public, private = key_1024
    inner = make_data(b"m")
    attrs = (attribute_make("contentType", oids.CT_ENVELOPED_DATA), SIGNING_TIME)
    monkeypatch.setattr(cms, "_is_content_type", lambda attribute, content_type: True)
    signed = sign_data(inner, private, ident, attrs, seeded(b"s")).to_der()
    maced = authenticate_data(inner, b"mac key", attrs).to_der()
    monkeypatch.undo()
    with pytest.raises(SignatureInvalid):
        verify_signed(ContentInfo.from_der(signed), public)
    assert not check_auth(ContentInfo.from_der(maced), b"mac key")


# a contentType attribute whose one value is not an OBJECT IDENTIFIER
NOT_AN_OID = Attribute(oids.AT_CONTENT_TYPE, (asn1.integer(1),))


def test_content_type_value_that_is_not_an_oid_is_the_wrong_type(key_1024, ident):
    _, private = key_1024
    with pytest.raises(WrongContentType):
        sign_data(make_data(b"m"), private, ident, (NOT_AN_OID,), seeded(b"s"))
    with pytest.raises(WrongContentType):
        authenticate_data(make_data(b"m"), b"k", (NOT_AN_OID,))


def test_received_content_type_value_that_is_not_an_oid_is_refused(key_1024, ident, monkeypatch):
    public, private = key_1024
    inner = make_data(b"m")
    monkeypatch.setattr(cms, "_is_content_type", lambda attribute, content_type: True)
    signed = sign_data(inner, private, ident, (NOT_AN_OID,), seeded(b"s")).to_der()
    maced = authenticate_data(inner, b"mac key", (NOT_AN_OID,)).to_der()
    monkeypatch.undo()
    with pytest.raises(SignatureInvalid):
        verify_signed(ContentInfo.from_der(signed), public)
    assert not check_auth(ContentInfo.from_der(maced), b"mac key")


def _second_instance(kind: str, inner: ContentInfo) -> tuple[Attribute, Attribute]:
    """Two attributes of one type, the first the content's own (RFC 5652 §11.1,
    §11.2 allow one): its digest and ff..ff, or id-data and id-signedData."""
    if kind == "messageDigest":
        return (attribute_make(kind, SHA256.digest(inner.to_der())),
                attribute_make(kind, b"\xff" * 32))
    return attribute_make(kind, oids.CT_DATA), attribute_make(kind, oids.CT_SIGNED_DATA)


@pytest.mark.parametrize("kind", ["messageDigest", "contentType"])
def test_a_second_content_type_or_message_digest_is_not_written(key_1024, ident, kind):
    _, private = key_1024
    inner = make_data(b"m")
    attrs = _second_instance(kind, inner)
    with pytest.raises(ValueError, match="more than one"):
        sign_data(inner, private, ident, attrs, seeded(b"s"))
    with pytest.raises(ValueError, match="more than one"):
        authenticate_data(inner, b"mac key", attrs)


@pytest.mark.parametrize("kind", ["messageDigest", "contentType"])
def test_a_received_second_content_type_or_message_digest_is_refused(key_1024, ident, kind,
                                                                    monkeypatch):
    # signed and MACed correctly over both attributes, the way the first one
    # found used to be the only one looked at
    public, private = key_1024
    inner = make_data(b"m")
    attrs = _second_instance(kind, inner)
    monkeypatch.setattr(cms, "_find_attr", lambda attributes, oid, duplicate: next(
        (a for a in attributes if a.attr_type == oid), None))
    signed = sign_data(inner, private, ident, attrs, seeded(b"s")).to_der()
    maced = authenticate_data(inner, b"mac key", attrs).to_der()
    monkeypatch.undo()
    signer = ContentInfo.from_der(signed).content.children[3].children[0]
    written = [Attribute.from_der_value(c).attr_type for c in signer.children[3].children]
    assert written.count(attrs[0].attr_type) == 2
    with pytest.raises(SignatureInvalid):
        verify_signed(ContentInfo.from_der(signed), public)
    assert not check_auth(ContentInfo.from_der(maced), b"mac key")


def test_signed_der_round_trip_byte_identical(key_1024, ident):
    _, private = key_1024
    signed = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s"))
    encoded = signed.to_der()
    recoded = ContentInfo.from_der(encoded)
    assert recoded == signed and recoded.to_der() == encoded


# -- decode work --------------------------------------------------------------------


def test_decoding_builds_one_value_per_tlv_and_verifying_none(key_1024, ident, monkeypatch):
    public, private = key_1024
    octets = sign_data(make_data(b"m" * 300), private, ident, (SIGNING_TIME,),
                       seeded(b"s")).to_der()
    # values come from the constructor when built and from asn1._new_value when decoded
    built = []
    real_init, real_new = asn1.DerValue.__init__, asn1._new_value
    monkeypatch.setattr(asn1.DerValue, "__init__",
                        lambda value, *fields: built.append(value) or real_init(value, *fields))
    monkeypatch.setattr(asn1, "_new_value", lambda cls: built.append(cls) or real_new(cls))
    signed = ContentInfo.from_der(octets)
    assert len(built) == der_tlv_count(octets) > 30
    assert verify_signed(signed, public)[1]
    assert len(built) == der_tlv_count(octets)


def test_verifying_decoded_signed_data_encodes_at_most_three_times(key_1024, ident,
                                                                     monkeypatch):
    # the read-side partner of test_asn1's test_values_are_encoded_at_most_once:
    # received SETs and attribute sets are checked without encoding anything
    public, private = key_1024
    octets = sign_data(make_data(b"m"), private, ident,
                       (SIGNING_TIME, attribute_make("sequenceNumber", 3)), seeded(b"s")).to_der()
    calls = []
    real_encode = asn1.der_encode
    for module in (asn1, cms, csr, keystore):
        monkeypatch.setattr(module, "der_encode",
                            lambda value: calls.append(value) or real_encode(value))
    assert verify_signed(ContentInfo.from_der(octets), public)[1]
    assert 0 < len(calls) <= 3


def test_decoding_the_same_signed_data_again_parses_no_oid(key_1024, ident):
    public, private = key_1024
    octets = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s")).to_der()
    verify_signed(ContentInfo.from_der(octets), public)
    before = asn1._memo_oid.cache_info()
    tree = asn1.der_decode(octets)
    decoded = asn1._memo_oid.cache_info()
    assert verify_signed(ContentInfo.from_der_value(tree), public)[1]
    after = asn1._memo_oid.cache_info()
    # each OBJECT IDENTIFIER (tag 06) is found in the memo, and so is each as_oid
    assert decoded.hits - before.hits == der_tlv_count(octets, asn1.OBJECT_IDENTIFIER) > 8
    assert after.hits > decoded.hits
    assert after.misses == before.misses


# -- enveloped-data -----------------------------------------------------------------


def test_envelope_round_trip(key_1024):
    public, private = key_1024
    inner = make_data(b"secret letter")
    assert open_envelope(envelope(inner, public, seeded(b"e")), private) == inner


def test_envelope_wrong_key_twenty_trials(key_1024, key_1024_b):
    public, _ = key_1024
    _, wrong_private = key_1024_b
    rng = seeded(b"trials")
    for index in range(20):
        sealed = envelope(make_data(b"m%d" % index), public, rng)
        with pytest.raises(DecryptionError):
            open_envelope(sealed, wrong_private)


def test_envelope_versions_other_than_0_are_refused(key_1024):
    public, private = key_1024
    sealed = envelope(make_data(b"m"), public, seeded(b"e"))
    version, recipient, ecinfo = sealed.content.children
    _rversion, *recipient_rest = recipient.children
    for edited in (asn1.sequence(asn1.integer(7), recipient, ecinfo),
                   asn1.sequence(version, asn1.sequence(asn1.integer(2), *recipient_rest),
                                 ecinfo)):
        received = ContentInfo.from_der(ContentInfo(oids.CT_ENVELOPED_DATA, edited).to_der())
        with pytest.raises(DecryptionError):
            open_envelope(received, private)
    assert open_envelope(sealed, private) == make_data(b"m")


def test_envelope_modulus_too_small():
    import pkcswb.rsa as rsa
    public, _ = rsa.generate_key(256, 2, 65537, seeded(b"tiny"))
    with pytest.raises(ModulusTooSmall):
        envelope(make_data(b"m"), public, seeded(b"e"))


def test_envelope_of_signed_data_nests(key_1024, key_1024_b, ident):
    sign_public, sign_private = key_1024
    enc_public, enc_private = key_1024_b
    signed = sign_data(make_data(b"inner"), sign_private, ident, (SIGNING_TIME,),
                       seeded(b"n"))
    sealed = envelope(signed, enc_public, seeded(b"n2"))
    opened = open_envelope(sealed, enc_private)
    recovered, ok = verify_signed(opened, sign_public)
    assert ok and data_payload(recovered) == b"inner"


def test_triple_nesting_sign_of_envelope(key_1024, key_1024_b, ident):
    sign_public, sign_private = key_1024
    enc_public, enc_private = key_1024_b
    sealed = envelope(make_data(b"core"), enc_public, seeded(b"t"))
    signed = sign_data(sealed, sign_private, ident, (SIGNING_TIME,), seeded(b"t2"))
    recovered, ok = verify_signed(signed, sign_public)
    assert ok
    assert data_payload(open_envelope(recovered, enc_private)) == b"core"


def test_ten_nested_layers_decode_within_the_depth_limit(key_1024, ident):
    # each signed-, digested- or authenticated-data layer adds three levels
    sign_public, sign_private = key_1024

    def depth(value):
        return 1 + max(map(depth, value.children), default=0) if value.constructed else 1

    ci = make_data(b"core")
    for layer in range(10):
        if layer % 3 == 0:
            ci = sign_data(ci, sign_private, ident, (SIGNING_TIME,), seeded(b"deep"))
        elif layer % 3 == 1:
            ci = digest_data(ci)
        else:
            ci = authenticate_data(ci, b"k" * 16, (SIGNING_TIME,))
    decoded = ContentInfo.from_der(ci.to_der())
    assert depth(asn1.der_decode(ci.to_der())) <= asn1.MAX_DEPTH // 2
    for layer in reversed(range(10)):
        if layer % 3 == 0:
            decoded, ok = verify_signed(decoded, sign_public)
        elif layer % 3 == 1:
            ok = check_digest(decoded)
            decoded = digested_content(decoded)
        else:
            ok = check_auth(decoded, b"k" * 16)
            decoded = authenticated_content(decoded)
        assert ok
    assert data_payload(decoded) == b"core"


# -- digested-data --------------------------------------------------------------------


def test_digest_round_trip():
    inner = make_data(b"digest me")
    wrapped = digest_data(inner)
    assert check_digest(wrapped)
    assert digested_content(wrapped) == inner


def test_digest_empty_payload():
    assert check_digest(digest_data(make_data(b"")))


def test_digest_payload_mutation_detected():
    wrapped = digest_data(make_data(b"digest me"))
    version, alg, _encap, digest = wrapped.content.children
    forged = ContentInfo(oids.CT_DIGESTED_DATA, asn1.sequence(
        version, alg, make_data(b"digest mE").to_der_value(), digest))
    assert not check_digest(forged)


def test_digest_version_other_than_0_is_refused():
    wrapped = digest_data(make_data(b"digest me"))
    _version, *rest = wrapped.content.children
    edited = ContentInfo(oids.CT_DIGESTED_DATA, asn1.sequence(asn1.integer(5), *rest))
    assert not check_digest(ContentInfo.from_der(edited.to_der()))


# -- encrypted-data --------------------------------------------------------------------


def test_encrypt_data_round_trip():
    inner = make_data(b"pre-shared secret data")
    wrapped = encrypt_data(inner, b"k" * 16, seeded(b"iv"))
    assert decrypt_data(wrapped, b"k" * 16) == inner


def test_encrypt_data_wrong_key():
    wrapped = encrypt_data(make_data(b"m"), b"k" * 16, seeded(b"iv"))
    with pytest.raises(DecryptionError):
        decrypt_data(wrapped, b"j" * 16)


@pytest.mark.parametrize("key", [b"", b"k", b"k" * 15, b"k" * 17, b"k" * 32])
def test_decrypt_data_key_of_another_length_is_bad_length(key):
    # the key is the caller's, not the wire's: naming its length tells an attacker nothing
    wrapped = encrypt_data(make_data(b"m"), b"k" * 16, seeded(b"iv"))
    with pytest.raises(BadLength):
        decrypt_data(wrapped, key)


def test_encrypted_data_version_other_than_0_is_refused():
    wrapped = encrypt_data(make_data(b"m"), b"k" * 16, seeded(b"iv"))
    _version, ecinfo = wrapped.content.children
    for version in (7, 1):
        edited = ContentInfo(oids.CT_ENCRYPTED_DATA, asn1.sequence(asn1.integer(version), ecinfo))
        with pytest.raises(DecryptionError):
            decrypt_data(ContentInfo.from_der(edited.to_der()), b"k" * 16)
    assert decrypt_data(wrapped, b"k" * 16) == make_data(b"m")


def test_encrypt_data_iv_recorded_in_params():
    wrapped = encrypt_data(make_data(b"m"), b"k" * 16, seeded(b"iv"))
    _version, ecinfo = wrapped.content.children
    algorithm = ecinfo.children[1]
    iv = algorithm.children[1].as_octet_string()
    assert len(iv) == 16
    assert iv == seeded(b"iv").read(16)


# -- authenticated-data -----------------------------------------------------------------


def test_auth_round_trip_with_and_without_attrs():
    inner = make_data(b"authentic")
    for attrs in ((), (SIGNING_TIME,)):
        wrapped = authenticate_data(inner, b"mac key", attrs)
        assert check_auth(wrapped, b"mac key")
        assert authenticated_content(wrapped) == inner


def test_auth_wrong_key():
    wrapped = authenticate_data(make_data(b"m"), b"mac key")
    assert not check_auth(wrapped, b"other key")


def test_auth_attr_tamper_detected():
    wrapped = authenticate_data(make_data(b"m"), b"mac key", (SIGNING_TIME,))
    kids = list(wrapped.content.children)
    replaced = []
    for child in kids[3].children:
        attribute = Attribute.from_der_value(child)
        if attribute.attr_type == oids.AT_SIGNING_TIME:
            attribute = attribute_make("signingTime", "199901010000Z")
        replaced.append(attribute.to_der_value())
    kids[3] = asn1.context(0, tuple(sorted(replaced, key=asn1.der_encode)))
    forged = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(*kids))
    assert not check_auth(forged, b"mac key")


def test_auth_attrs_without_content_type_are_refused():
    # MACed correctly, but RFC 5652 §9.2 makes contentType mandatory, as in signed-data
    inner = make_data(b"m")
    digest = attribute_make("messageDigest", SHA256.digest(inner.to_der()))
    attrs_v = _attributes_to_der((SIGNING_TIME, digest))
    tag = hmac_digest(b"mac key", b"\x31" + asn1.der_encode(attrs_v)[1:])
    body = asn1.sequence(asn1.integer(0),
                         AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value(),
                         inner.to_der_value(), attrs_v, asn1.octet_string(tag))
    assert not check_auth(ContentInfo(oids.CT_AUTHENTICATED_DATA, body), b"mac key")


def test_auth_content_tamper_detected():
    wrapped = authenticate_data(make_data(b"m"), b"mac key", (SIGNING_TIME,))
    kids = list(wrapped.content.children)
    kids[2] = make_data(b"M").to_der_value()
    forged = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(*kids))
    assert not check_auth(forged, b"mac key")


def test_auth_version_other_than_0_is_refused():
    wrapped = authenticate_data(make_data(b"m"), b"mac key")
    _version, *rest = wrapped.content.children
    edited = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(asn1.integer(9), *rest))
    assert not check_auth(ContentInfo.from_der(edited.to_der()), b"mac key")


# -- readers refuse a wrong field count ----------------------------------------------

_SHORT_BODY = asn1.sequence(asn1.integer(0), AlgorithmIdentifier(oids.SHA256).to_der_value())
_CN = asn1.sequence(asn1.oid_value(oids.CN), asn1.utf8_string("Subject"))
_SUBJECT = asn1.sequence(asn1.set_value(_CN))
_SPKI = csr.encode_public_key_info(rsa.RsaPublicKey(2**1023 + 1, 65537))


def _toy_cert(*fields) -> ContentInfo:
    """A signed-data laid out as toy_issue writes it, around a payload of the
    given fields; cert_fields reads it without checking the signature."""
    signer = asn1.sequence(
        asn1.integer(1), SignerIdent(Name((("commonName", "CA"),)), b"ca").to_der_value(),
        AlgorithmIdentifier(oids.SHA256).to_der_value(),
        AlgorithmIdentifier(oids.RSASSA_PSS).to_der_value(), asn1.octet_string(bytes(128)))
    payload = make_data(asn1.der_encode(asn1.sequence(*fields)))
    return ContentInfo(oids.CT_SIGNED_DATA, asn1.sequence(
        asn1.integer(1), asn1.set_value(AlgorithmIdentifier(oids.SHA256).to_der_value()),
        payload.to_der_value(), asn1.set_value(signer)))


def test_toy_cert_reads_with_four_fields():
    subject, public, serial, issuer = cert_fields(_toy_cert(_SUBJECT, _SPKI, asn1.integer(7),
                                                           _SUBJECT))
    assert (subject.get("commonName"), public.e, serial) == ("Subject", 65537, 7)
    assert issuer == subject


@pytest.mark.parametrize("read, error", [
    (lambda: ContentInfo.from_der_value(asn1.sequence(
        asn1.oid_value(oids.CT_DATA), asn1.explicit(0, asn1.octet_string(b"m")), asn1.null())),
     asn1.NonCanonical),
    (lambda: ContentInfo.from_der_value(asn1.sequence(
        asn1.oid_value(oids.CT_DATA), asn1.context(0, (asn1.null(), asn1.null())))),
     asn1.NonCanonical),
    (lambda: check_digest(ContentInfo(oids.CT_DIGESTED_DATA, _SHORT_BODY)), asn1.NonCanonical),
    (lambda: digested_content(ContentInfo(oids.CT_DIGESTED_DATA, _SHORT_BODY)),
     asn1.NonCanonical),
    (lambda: authenticated_content(ContentInfo(oids.CT_AUTHENTICATED_DATA, _SHORT_BODY)),
     asn1.NonCanonical),
    (lambda: Attribute.from_der_value(asn1.sequence(asn1.oid_value(oids.AT_SIGNING_TIME),
                                                    asn1.set_value())), asn1.NonCanonical),
    (lambda: cert_fields(_toy_cert(_SUBJECT, _SPKI, asn1.integer(7))), asn1.NonCanonical),
    (lambda: csr.decode_public_key_info(asn1.sequence(*_SPKI.children, asn1.null())),
     asn1.NonCanonical),
    (lambda: csr.decode_public_key_info(asn1.sequence(_SPKI.children[0], asn1.bit_string(
        asn1.der_encode(asn1.sequence(asn1.integer(2**1023 + 1), asn1.integer(3),
                                      asn1.integer(5)))))), asn1.NonCanonical),
    (lambda: Name.from_der_value(asn1.sequence(asn1.set_value(
        _CN, asn1.sequence(asn1.oid_value(oids.COUNTRY), asn1.printable_string("US"))))),
     asn1.NonCanonical),
    (lambda: Name.from_der_value(asn1.sequence(asn1.set_value(
        asn1.sequence(*_CN.children, asn1.null())))), asn1.NonCanonical),
    (lambda: cert_fields(_toy_cert(asn1.sequence(asn1.set_value(asn1.sequence(
        asn1.oid_value(oids.ORGANIZATION), asn1.utf8_string("Example")))),
        _SPKI, asn1.integer(7), _SUBJECT)), csr.MalformedRequest),
], ids=["content-info-3", "content-info-[0]-2", "check_digest", "digested_content",
        "authenticated_content", "attribute-no-values", "cert-payload-3", "spki-3",
        "spki-key-3", "name-rdn-2", "name-pair-3", "subject-without-common-name"])
def test_wrong_field_count_is_non_canonical(read, error):
    with pytest.raises(error):
        read()


# -- every content type re-encodes byte-identically -----------------------------------


def test_all_six_content_types_der_stable(key_1024, key_1024_b, ident):
    public, private = key_1024
    enc_public, _ = key_1024_b
    inner = make_data(b"payload")
    rng = seeded(b"stable")
    produced = [
        inner,
        sign_data(inner, private, ident, (SIGNING_TIME,), rng),
        envelope(inner, enc_public, rng),
        digest_data(inner),
        encrypt_data(inner, b"k" * 16, rng),
        authenticate_data(inner, b"mac", (SIGNING_TIME,)),
    ]
    assert [ci.content_type for ci in produced] == [
        oids.CT_DATA, oids.CT_SIGNED_DATA, oids.CT_ENVELOPED_DATA,
        oids.CT_DIGESTED_DATA, oids.CT_ENCRYPTED_DATA, oids.CT_AUTHENTICATED_DATA]
    for ci in produced:
        encoded = ci.to_der()
        recoded = ContentInfo.from_der(encoded)
        assert recoded == ci
        assert recoded.to_der() == encoded


# -- toy certification -------------------------------------------------------------------


def test_toy_issue_and_fields(key_1024, key_1024_b):
    subject_public, subject_private = key_1024
    ca_public, ca_private = key_1024_b
    subject = Name((("commonName", "Alice"), ("country", "US")))
    request = build_csr(subject, (subject_public, subject_private),
                        (attribute_make("challengePassword", "pw"),), seeded(b"i"))
    ca_name = Name((("commonName", "Toy CA"),))
    certificate = toy_issue(request, ca_private, ca_name, 42, seeded(b"i2"))
    verify_signed(certificate, ca_public)
    got_subject, got_public, serial, issuer = cert_fields(certificate)
    assert got_subject == subject and got_public == subject_public
    assert serial == 42 and issuer == ca_name


def test_toy_issue_rejects_bad_request(key_1024, key_1024_b):
    subject_public, subject_private = key_1024
    _, ca_private = key_1024_b
    request = build_csr(Name((("commonName", "Mallory"),)),
                        (subject_public, subject_private), (), seeded(b"m"))
    from pkcswb.csr import CertificationRequest
    forged = CertificationRequest(request.info, request.signature_algorithm,
                                  bytes(len(request.signature)))
    with pytest.raises(SignatureInvalid):
        toy_issue(forged, ca_private, Name((("commonName", "CA"),)), 1, seeded(b"m2"))
