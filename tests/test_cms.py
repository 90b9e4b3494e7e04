import pytest

from pkcswb import asn1, cms, csr, keystore, oids, pfx, pkcs1, rsa
from pkcswb.asn1 import AlgorithmIdentifier
from pkcswb.cms import (ContentInfo, DigestMismatch, SignatureInvalid, SignerIdent,
                        WrongContentType,
                        authenticate_data, cert_fields,
                        check_auth, check_digest, data_payload, decrypt_data,
                        digest_data, encrypt_data, envelope,
                        make_data, open_envelope, sign_data, toy_issue,
                        verify_signed)
from pkcswb.csr import CertificationRequest, Name, build_csr
from pkcswb.errors import (DecryptionError, IntegrityFailure, MissingCredential,
                           UnsupportedAlgorithm)
from pkcswb.keystore import Attribute, SyntaxViolation, _attributes_to_der, attribute_make
from pkcswb.pkcs1 import ModulusTooSmall
from pkcswb.primitives import SHA256, BadLength, ExhaustibleSource, HashAlg, hmac_digest
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


def test_signing_time_on_a_day_its_month_lacks_is_not_read(key_1024, ident):
    # 31 February: the signed-data does not decode, so no verifier reads it
    _, private = key_1024
    octets = sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,), seeded(b"s")).to_der()
    edited = octets.replace(b"\x17\x0d200101120000Z", b"\x17\x0d200231120000Z")
    assert edited != octets
    with pytest.raises(asn1.NonCanonical, match="day its month"):
        ContentInfo.from_der(edited)


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
    for offset in (algs_at - 1, signer_version_at):  # SignedData, SignerInfo version 3
        with pytest.raises(SignatureInvalid, match="^SignedData and SignerInfo must be version 1$"):
            verify_signed(_edit(octets, offset, 3), public)
    # SHA-512 for SHA-256: an algorithm pkcswb lacks, not a forgery
    with pytest.raises(UnsupportedAlgorithm,
                       match="^unsupported digest algorithm 2.16.840.1.101.3.4.2.3$"):
        verify_signed(_edit(octets, algs_at + len(algs_der) - 1, 3), public)
    assert verify_signed(ContentInfo.from_der(octets), public)[1]


PSS_OID_DER = asn1.der_encode(asn1.oid_value(oids.RSASSA_PSS))
SHA256_WITH_RSA = "1.2.840.113549.1.1.11"  # PSS_OID_DER's last arc plus one


def _signed_inputs(key_1024, ident):
    """reader -> (its PSS-signed input's DER, how the reader opens such DER)."""
    public, private = key_1024
    name = Name((("commonName", "Source"),))
    return {
        "verify_signed": (
            sign_data(make_data(b"payload"), private, ident, (), seeded(b"s")).to_der(),
            lambda der: verify_signed(ContentInfo.from_der(der), public)),
        "verify_csr": (
            build_csr(name, key_1024, (), seeded(b"r")).to_der(),
            lambda der: csr.verify_csr(CertificationRequest.from_der(der))),
        "pfx_open": (
            pfx.pfx_create((pfx.SafeBag(make_data(b"cert")),), b"pw", (private, name),
                           seeded(b"p")).to_der(),
            lambda der: pfx.pfx_open(pfx.PfxPdu.from_der(der), b"pw", public)),
    }


@pytest.mark.parametrize("reader", ["verify_signed", "verify_csr", "pfx_open"])
def test_an_unsupported_signature_algorithm_is_refused_before_any_public_operation(
        key_1024, ident, monkeypatch, reader):
    # pkcs1 refuses the algorithm by name for each reader: never a forgery verdict
    der, read = _signed_inputs(key_1024, ident)[reader]
    assert der.count(PSS_OID_DER) == 1
    public_ops = []
    monkeypatch.setattr(pkcs1, "rsa_public_op", lambda *args: public_ops.append(args))
    with pytest.raises(UnsupportedAlgorithm) as raised:
        read(der.replace(PSS_OID_DER, PSS_OID_DER[:-1] + b"\x0b"))
    assert (str(raised.value), public_ops) == (
        f"unsupported signature algorithm {SHA256_WITH_RSA}", [])


SHA256_OID_DER = asn1.der_encode(asn1.oid_value(oids.SHA256))
HMAC_SHA256_OID_DER = asn1.der_encode(asn1.oid_value(oids.HMAC_WITH_SHA256))


def _digest_and_mac_inputs(key_1024, ident):
    """reader -> (its input's DER, how the reader opens such DER, the DER of
    the OID edited, the OID that adding one to its last octet makes)."""
    signed = {reader: (der, read, SHA256_OID_DER, "2.16.840.1.101.3.4.2.2")
              for reader, (der, read) in _signed_inputs(key_1024, ident).items()
              if reader != "verify_csr"}
    return {
        **signed,
        "check_digest": (digest_data(make_data(b"payload")).to_der(),
                         lambda der: check_digest(ContentInfo.from_der(der)),
                         SHA256_OID_DER, "2.16.840.1.101.3.4.2.2"),
        "check_auth": (authenticate_data(make_data(b"payload"), b"mac").to_der(),
                       lambda der: check_auth(ContentInfo.from_der(der), b"mac"),
                       HMAC_SHA256_OID_DER, "1.2.840.113549.2.10"),
    }


@pytest.mark.parametrize("reader", ["verify_signed", "pfx_open", "check_digest", "check_auth"])
def test_an_unsupported_digest_or_mac_algorithm_is_refused_by_name(key_1024, ident, reader):
    # SHA-384 for SHA-256, HMAC-SHA-384 for HMAC-SHA-256, wherever each is read
    der, read, oid_der, lacked = _digest_and_mac_inputs(key_1024, ident)[reader]
    role = "MAC" if reader == "check_auth" else "digest"
    ends = [at + len(oid_der) - 1 for at in range(len(der)) if der.startswith(oid_der, at)]
    assert len(ends) == (2 if reader in ("verify_signed", "pfx_open") else 1)
    for end in ends:  # signed-data's digestAlgorithms, then its signer's
        with pytest.raises(UnsupportedAlgorithm, match=f"^unsupported {role} algorithm {lacked}$"):
            read(der[:end] + bytes([der[end] + 1]) + der[end + 1:])


@pytest.mark.parametrize("reader", ["verify_signed", "pfx_open"])
def test_a_flipped_signature_under_pss_is_still_invalid(key_1024, ident, reader):
    # the signature value is the last field of each: the refusal moved no verdict
    der, read = _signed_inputs(key_1024, ident)[reader]
    with pytest.raises(SignatureInvalid, match="^signature does not verify$"):
        read(der[:-1] + bytes([der[-1] ^ 1]))


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


_INNER = make_data(b"m")
_DIGEST = SHA256.digest(_INNER.to_der())

# attributes only the signer adds: either type, matching the content or not,
# once or twice (one of another value type cannot be built)
SIGNER_ADDED = {
    "the content's contentType": (attribute_make("contentType", oids.CT_DATA),),
    "another contentType": (attribute_make("contentType", oids.CT_ENVELOPED_DATA),),
    "contentType with two values": (Attribute(oids.AT_CONTENT_TYPE, (
        asn1.oid_value(oids.CT_DATA), asn1.oid_value(oids.CT_ENVELOPED_DATA))),),
    "two contentType": (attribute_make("contentType", oids.CT_DATA),
                        attribute_make("contentType", oids.CT_SIGNED_DATA)),
    "the content's messageDigest": (attribute_make("messageDigest", _DIGEST),),
    "another messageDigest": (attribute_make("messageDigest", bytes(32)),),
    "two messageDigest": (attribute_make("messageDigest", _DIGEST),
                          attribute_make("messageDigest", b"\xff" * 32)),
    "both, beside another": (SIGNING_TIME, attribute_make("contentType", oids.CT_DATA),
                             attribute_make("messageDigest", _DIGEST)),
}


def _attribute_set(ci: ContentInfo) -> asn1.DerValue:
    """The [0] set sign_data or authenticate_data wrote."""
    if ci.content_type == oids.CT_SIGNED_DATA:
        return ci.content.children[3].children[0].children[3]
    return ci.content.children[3]


@pytest.mark.parametrize("writer", ["sign_data", "authenticate_data"])
def test_signers_alone_add_content_type_and_message_digest(key_1024, ident, monkeypatch, writer):
    _, private = key_1024
    write = {
        "sign_data": lambda attrs: sign_data(_INNER, private, ident, attrs, seeded(b"s")),
        "authenticate_data": lambda attrs: authenticate_data(_INNER, b"mac key", attrs),
    }[writer]
    given = (SIGNING_TIME, attribute_make("friendlyName", "f"))
    members = _attribute_set(write(given)).children
    assert list(members) == sorted(members, key=asn1.der_encode)  # SET OF order
    assert sorted(map(asn1.der_encode, members)) == sorted(map(asn1.der_encode, (
        *(attribute.to_der_value() for attribute in given),
        attribute_make("contentType", oids.CT_DATA).to_der_value(),
        attribute_make("messageDigest", _DIGEST).to_der_value())))
    # a given one is refused before any signing or MAC work
    monkeypatch.setattr(pkcs1, "sign", None)
    monkeypatch.setattr(cms, "hmac_digest", None)
    for name, attrs in SIGNER_ADDED.items():
        with pytest.raises(keystore.SyntaxViolation) as raised:
            write(attrs)
        assert raised.type is keystore.SyntaxViolation, name
        assert str(raised.value) == "contentType and messageDigest are the signer's to add"


# -- received attribute sets, rebuilt by hand -----------------------------------------


def _attribute(type_v: asn1.DerValue, *values: asn1.DerValue) -> asn1.DerValue:
    return asn1.sequence(type_v, asn1.set_value(*values))


def _content_type(*types) -> asn1.DerValue:
    return _attribute(asn1.oid_value(oids.AT_CONTENT_TYPE), *map(asn1.oid_value, types))


def _message_digest(*values: asn1.DerValue) -> asn1.DerValue:
    return _attribute(asn1.oid_value(oids.AT_MESSAGE_DIGEST), *values)


_CT = _content_type(oids.CT_DATA)
_MD = _message_digest(asn1.octet_string(_DIGEST))
_TIME = SIGNING_TIME.to_der_value()
_OTHER_MD = _message_digest(asn1.octet_string(SHA256.digest(b"other content")))
_EMPTY = _attribute(asn1.oid_value(oids.AT_SIGNING_TIME))
_MORE_THAN_ONE = "more than one {} attribute"
_MANDATORY = "contentType/messageDigest attributes are mandatory"
_NOT_THE_TYPE = "contentType attribute is not the encapsulated content's type"
_NOT_THE_DIGEST = "messageDigest attribute does not match the content"

# name: (the [0] set's members, in SET OF order unless the name says otherwise;
# the class and message verify_signed raises, or None where it verifies)
RECEIVED_SETS = {
    "as signed": ([_CT, _MD, _TIME], None),
    "two messageDigest": ([_CT, _MD, _message_digest(asn1.octet_string(b"\xff" * 32))],
                          (SignatureInvalid, _MORE_THAN_ONE.format(oids.AT_MESSAGE_DIGEST))),
    "two contentType": ([_CT, _content_type(oids.CT_SIGNED_DATA), _MD],
                        (SignatureInvalid, _MORE_THAN_ONE.format(oids.AT_CONTENT_TYPE))),
    "no contentType": ([_MD, _TIME], (SignatureInvalid, _MANDATORY)),
    "no messageDigest": ([_CT, _TIME], (SignatureInvalid, _MANDATORY)),
    "contentType of another type": ([_content_type(oids.CT_ENVELOPED_DATA), _MD],
                                    (SignatureInvalid, _NOT_THE_TYPE)),
    "contentType with two values": ([_content_type(oids.CT_DATA, oids.CT_ENVELOPED_DATA), _MD],
                                    (SignatureInvalid, _NOT_THE_TYPE)),
    "contentType value that is not an OID": (
        [_attribute(asn1.oid_value(oids.AT_CONTENT_TYPE), asn1.integer(1)), _MD],
        (SyntaxViolation, "value does not match the contentType syntax")),
    "messageDigest as an INTEGER": (
        [_CT, _message_digest(asn1.integer(int.from_bytes(_DIGEST, "big")))],
        (SyntaxViolation, "value does not match the messageDigest syntax")),
    "a signingTime that is an INTEGER": (
        [_CT, _MD, _attribute(asn1.oid_value(oids.AT_SIGNING_TIME), asn1.integer(5))],
        (SyntaxViolation, "value does not match the signingTime syntax")),
    "a type the registry does not hold": (
        [_CT, _MD, _attribute(asn1.oid_value(asn1.Oid.parse("1.2.3.4")), asn1.null())],
        (SyntaxViolation, "unregistered attribute type 1.2.3.4")),
    "messageDigest of other content": ([_CT, _OTHER_MD], (DigestMismatch, _NOT_THE_DIGEST)),
    "messageDigest with two values": (
        [_CT, _message_digest(asn1.octet_string(_DIGEST), asn1.octet_string(bytes(32)))],
        (DigestMismatch, _NOT_THE_DIGEST)),
    "an empty value SET": ([_CT, _MD, _EMPTY],
                           (asn1.NonCanonical, "attribute needs at least one value")),
    "an Attribute that is not a SEQUENCE of two": (
        [_CT, _MD, asn1.sequence(asn1.oid_value(oids.AT_SIGNING_TIME))],
        (asn1.NonCanonical, "expected 2 fields, got 1")),
    "a type that is not an OID": (
        [_CT, _MD, _attribute(asn1.integer(3), asn1.utc_time("200101120000Z"))],
        (asn1.NonCanonical, "value is not a primitive OBJECT IDENTIFIER")),
    "members out of SET OF order": ([_TIME, _MD, _CT],
                                    (asn1.NonCanonical, "attribute set not in canonical order")),
    # where faults meet: every member's shape and syntax, then a second messageDigest,
    # then a second contentType, then a missing one, then the contentType, and last
    # the digest
    "two of each, and an empty value SET": (
        [_CT, _content_type(oids.CT_SIGNED_DATA), _MD, _OTHER_MD, _EMPTY],
        (asn1.NonCanonical, "attribute needs at least one value")),
    "two of each": ([_CT, _content_type(oids.CT_SIGNED_DATA), _MD, _OTHER_MD],
                    (SignatureInvalid, _MORE_THAN_ONE.format(oids.AT_MESSAGE_DIGEST))),
    "two contentType, no messageDigest": ([_CT, _content_type(oids.CT_SIGNED_DATA)],
                                          (SignatureInvalid,
                                           _MORE_THAN_ONE.format(oids.AT_CONTENT_TYPE))),
    "wrong contentType and wrong messageDigest": (
        [_content_type(oids.CT_ENVELOPED_DATA), _OTHER_MD], (SignatureInvalid, _NOT_THE_TYPE)),
}


def _with_attributes(ci: ContentInfo, members: list) -> ContentInfo:
    """A received signed-data or authenticated-data, decoded again with its [0]
    set holding ``members`` in the order given, every other field as received."""
    attrs_v = asn1.context(0, tuple(members))
    kids = ci.content.children
    if ci.content_type == oids.CT_SIGNED_DATA:
        signer = kids[3].children[0].children
        body = asn1.sequence(*kids[:3], asn1.set_value(
            asn1.sequence(*signer[:3], attrs_v, *signer[4:])))
    else:
        body = asn1.sequence(*kids[:3], attrs_v, *kids[4:])
    return ContentInfo.from_der(ContentInfo(ci.content_type, body).to_der())


@pytest.mark.parametrize("case", RECEIVED_SETS)
def test_every_received_attribute_set_outcome(key_1024, ident, case):
    public, private = key_1024
    members, outcome = RECEIVED_SETS[case]
    if "order" not in case:
        members = sorted(members, key=asn1.der_encode)
    signed = ContentInfo.from_der(
        sign_data(_INNER, private, ident, (SIGNING_TIME,), seeded(b"s")).to_der())
    maced = ContentInfo.from_der(authenticate_data(_INNER, b"mac key", (SIGNING_TIME,)).to_der())
    assert len(signed.content.children[3].children[0].children[3].children) == 3
    signed, maced = _with_attributes(signed, members), _with_attributes(maced, members)
    if outcome is None:
        assert verify_signed(signed, public) == (_INNER, True)
        assert check_auth(maced, b"mac key") == _INNER
        return
    error, message = outcome
    for check in (lambda: verify_signed(signed, public), lambda: check_auth(maced, b"mac key")):
        with pytest.raises(error) as raised:
            check()
        assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("content_type", ["signed-data", "authenticated-data"])
def test_a_covered_attribute_outside_its_syntax_is_refused(key_1024, ident, content_type):
    # a signingTime that is an INTEGER, under a signature or MAC made by hand over
    # the set: sign_data and authenticate_data cannot write it
    public, private = key_1024
    refused = _attribute(asn1.oid_value(oids.AT_SIGNING_TIME), asn1.integer(5))
    attrs_v = asn1.context(0, tuple(sorted((_CT, _MD, refused), key=asn1.der_encode)))
    message = b"\x31" + asn1.der_encode(attrs_v)[1:]
    if content_type == "signed-data":
        kids = sign_data(_INNER, private, ident, (SIGNING_TIME,), seeded(b"s")).content.children
        signer = kids[3].children[0].children
        signature = pkcs1.sign(message, private, seeded(b"p"))
        assert pkcs1.verify(message, signature, public)
        body = asn1.sequence(*kids[:3], asn1.set_value(asn1.sequence(
            *signer[:3], attrs_v, signer[4], asn1.octet_string(signature))))
        type_oid, check, credential = oids.CT_SIGNED_DATA, verify_signed, public
    else:
        body = asn1.sequence(asn1.integer(0),
                             AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value(),
                             _INNER.to_der_value(), attrs_v,
                             asn1.octet_string(hmac_digest(b"mac key", message)))
        type_oid, check, credential = oids.CT_AUTHENTICATED_DATA, check_auth, b"mac key"
    received = ContentInfo.from_der(ContentInfo(type_oid, body).to_der())
    with pytest.raises(SyntaxViolation, match="^value does not match the signingTime syntax$"):
        check(received, credential)


def test_verifying_builds_no_attribute(key_1024, ident, monkeypatch):
    # the received [0] set is read in place, as (type, values) pairs
    public, private = key_1024
    signed = ContentInfo.from_der(
        sign_data(_INNER, private, ident, (SIGNING_TIME,), seeded(b"s")).to_der())
    maced = ContentInfo.from_der(authenticate_data(_INNER, b"mac key", (SIGNING_TIME,)).to_der())
    built = []
    real_init = Attribute.__init__
    monkeypatch.setattr(Attribute, "__init__",
                        lambda attribute, *fields: built.append(attribute) or real_init(
                            attribute, *fields))
    assert verify_signed(signed, public)[1] and check_auth(maced, b"mac key")
    assert built == []


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
    for module in (asn1, cms, keystore):  # csr encodes only through asn1's DerForm.to_der
        monkeypatch.setattr(module, "der_encode",
                            lambda value: calls.append(value) or real_encode(value))
    assert verify_signed(ContentInfo.from_der(octets), public)[1]
    assert 0 < len(calls) <= 3


def test_verifying_received_content_builds_no_value_and_encodes_no_tag(key_1024, ident,
                                                                     monkeypatch):
    # the read path reads what it received: it neither builds a DerValue nor
    # writes a tag, whether it accepts the input or refuses it
    public, private = key_1024
    signed = sign_data(make_data(b"payload"), private, ident, (SIGNING_TIME,),
                       seeded(b"s")).to_der()
    content_flipped = signed.replace(b"payload", b"payloaD")
    signature_flipped = signed[:-1] + bytes([signed[-1] ^ 1])
    request = build_csr(Name((("commonName", "Subject"),)), key_1024,
                        (attribute_make("challengePassword", "pw"),), seeded(b"r")).to_der()
    digested = digest_data(make_data(b"m")).to_der()
    authenticated = authenticate_data(make_data(b"m"), b"mac", (SIGNING_TIME,)).to_der()
    built, tags = [], []
    real_init, real_encode_tag = asn1.DerValue.__init__, asn1._encode_tag
    monkeypatch.setattr(asn1.DerValue, "__init__",
                        lambda self, *args: built.append(args) or real_init(self, *args))
    monkeypatch.setattr(asn1, "_encode_tag", lambda v: tags.append(v) or real_encode_tag(v))
    assert verify_signed(ContentInfo.from_der(signed), public)[1]
    with pytest.raises(DigestMismatch):
        verify_signed(ContentInfo.from_der(content_flipped), public)
    with pytest.raises(SignatureInvalid):
        verify_signed(ContentInfo.from_der(signature_flipped), public)
    assert csr.verify_csr(CertificationRequest.from_der(request))
    assert check_digest(ContentInfo.from_der(digested))
    assert check_auth(ContentInfo.from_der(authenticated), b"mac")
    assert (built, tags) == ([], [])


def test_verifying_hashes_each_input_once(key_1024, ident, monkeypatch):
    # a count, not a time: signed-data hashes its content, its attribute set,
    # M' and the ceil(95/32) = 3 MGF1 blocks of a 1024-bit modulus; a request
    # its info, M' and the same 3 blocks
    signed = ContentInfo.from_der(sign_data(make_data(b"m"), key_1024[1], ident, (SIGNING_TIME,),
                                            seeded(b"s")).to_der())
    request = CertificationRequest.from_der(build_csr(
        Name((("commonName", "Subject"),)), key_1024,
        (attribute_make("challengePassword", "pw"),), seeded(b"r")).to_der())
    hashed = []
    real_digest = HashAlg.digest
    monkeypatch.setattr(HashAlg, "digest",
                        lambda alg, data: hashed.append(data) or real_digest(alg, data))
    assert verify_signed(signed, key_1024[0])[1]
    assert len(hashed) == 6
    hashed.clear()
    assert csr.verify_csr(request)
    assert len(hashed) == 5


def test_verifying_signed_data_builds_no_algorithm_identifier(key_1024, ident, monkeypatch):
    # the three identifiers a signer lists (digestAlgorithms, digestAlgorithm,
    # signatureAlgorithm) are checked by their OID alone
    public, private = key_1024
    signed = ContentInfo.from_der(sign_data(make_data(b"m"), private, ident, (SIGNING_TIME,),
                                            seeded(b"s")).to_der())
    parsed = []
    real_parse = AlgorithmIdentifier._parse.__func__
    monkeypatch.setattr(AlgorithmIdentifier, "_parse", classmethod(
        lambda cls, value: parsed.append(value) or real_parse(cls, value)))
    assert verify_signed(signed, public)[1]
    assert parsed == []


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


def test_an_unsupported_key_transport_is_the_uniform_decryption_error(key_1024):
    # pkcs1 refuses RSAES-OAEP's neighbour 1.2.840.113549.1.1.8 by name, and
    # inside a decryption its refusal is the one DecryptionError
    public, private = key_1024
    der = envelope(make_data(b"m"), public, seeded(b"e")).to_der()
    oaep_der = asn1.der_encode(asn1.oid_value(oids.RSAES_OAEP))
    end = der.index(oaep_der) + len(oaep_der) - 1
    with pytest.raises(UnsupportedAlgorithm,
                       match="^unsupported key transport algorithm 1.2.840.113549.1.1.8$"):
        pkcs1.check_key_transport_algorithm(asn1.Oid.parse("1.2.840.113549.1.1.8"))
    with pytest.raises(DecryptionError):
        open_envelope(ContentInfo.from_der(der[:end] + b"\x08" + der[end + 1:]), private)


def test_envelope_modulus_too_small():
    import pkcswb.rsa as rsa
    public, _ = rsa.generate_key(256, 2, 65537, seeded(b"tiny"))
    with pytest.raises(ModulusTooSmall):
        envelope(make_data(b"m"), public, seeded(b"e"))


def test_envelope_refuses_a_small_recipient_before_it_encrypts_the_content(key_512,
                                                                           monkeypatch):
    monkeypatch.setattr(cms, "cbc_encrypt", lambda *args: pytest.fail("content encrypted"))
    with pytest.raises(ModulusTooSmall):
        envelope(make_data(b"m" * 4096), key_512[0], seeded(b"e"))


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
            decoded, _ = verify_signed(decoded, sign_public)
        elif layer % 3 == 1:
            decoded = check_digest(decoded)
        else:
            decoded = check_auth(decoded, b"k" * 16)
    assert data_payload(decoded) == b"core"


# -- digested-data --------------------------------------------------------------------


def test_digest_round_trip():
    inner = make_data(b"digest me")
    wrapped = digest_data(inner)
    assert check_digest(wrapped) == inner


def test_digest_empty_payload():
    assert check_digest(digest_data(make_data(b""))) == make_data(b"")


def test_digest_payload_mutation_detected():
    wrapped = digest_data(make_data(b"digest me"))
    version, alg, _encap, digest = wrapped.content.children
    forged = ContentInfo(oids.CT_DIGESTED_DATA, asn1.sequence(
        version, alg, make_data(b"digest mE").to_der_value(), digest))
    with pytest.raises(DigestMismatch, match="digest does not match the content"):
        check_digest(forged)


def test_digest_version_other_than_0_is_refused():
    wrapped = digest_data(make_data(b"digest me"))
    _version, *rest = wrapped.content.children
    edited = ContentInfo(oids.CT_DIGESTED_DATA, asn1.sequence(asn1.integer(5), *rest))
    with pytest.raises(IntegrityFailure) as raised:
        check_digest(ContentInfo.from_der(edited.to_der()))
    assert type(raised.value) is IntegrityFailure


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


def test_encrypt_data_refuses_a_key_of_another_length_before_it_draws_the_iv():
    with pytest.raises(BadLength):
        encrypt_data(make_data(b"m"), b"k" * 15, ExhaustibleSource(b""))


def _replaced(ci: ContentInfo, old: bytes, new: bytes) -> ContentInfo:
    """``ci`` as received with its one occurrence of ``old`` replaced by ``new``."""
    octets = ci.to_der()
    assert octets.count(old) == 1
    return ContentInfo.from_der(octets.replace(old, new))


def _sealed(kind: str, key_1024):
    """A sealed id-data content of ``kind``, and the reader that opens it."""
    public, private = key_1024
    if kind == "encrypted-data":
        return (encrypt_data(make_data(b"m"), b"k" * 16, seeded(b"iv")),
                lambda ci: decrypt_data(ci, b"k" * 16))
    return envelope(make_data(b"m"), public, seeded(b"e")), lambda ci: open_envelope(ci, private)


@pytest.mark.parametrize("declared", [oids.CT_SIGNED_DATA, oids.CT_DIGESTED_DATA])
@pytest.mark.parametrize("kind", ["encrypted-data", "enveloped-data"])
def test_a_declared_type_other_than_the_content_type_is_refused(key_1024, kind, declared):
    sealed, read = _sealed(kind, key_1024)
    assert read(sealed) == make_data(b"m")
    edited = _replaced(sealed, asn1.der_encode(asn1.oid_value(oids.CT_DATA)),
                       asn1.der_encode(asn1.oid_value(declared)))
    with pytest.raises(DecryptionError):
        read(edited)


@pytest.mark.parametrize("kind", ["encrypted-data", "enveloped-data"])
def test_an_iv_edit_that_rewrites_the_content_type_is_refused(key_1024, kind):
    # make_data(b"m") encodes as 30 0f 06 09 2a864886f70d0107 01 ...: the first
    # block's octet 12 is the last arc of id-data, which CBC lets the IV rewrite
    sealed, read = _sealed(kind, key_1024)
    ecinfo = sealed.content.children[-1]
    iv = ecinfo.children[1].children[1].as_octet_string()
    rewritten = iv[:12] + bytes([iv[12] ^ 0x01 ^ 0x02]) + iv[13:]  # id-data -> id-signedData
    with pytest.raises(DecryptionError):
        read(_replaced(sealed, iv, rewritten))


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
        assert check_auth(wrapped, b"mac key") == inner


def test_auth_wrong_key():
    wrapped = authenticate_data(make_data(b"m"), b"mac key")
    with pytest.raises(IntegrityFailure, match="^MAC does not verify$"):
        check_auth(wrapped, b"other key")


def test_auth_attr_tamper_detected():
    wrapped = authenticate_data(make_data(b"m"), b"mac key", (SIGNING_TIME,))
    kids = list(wrapped.content.children)
    replaced = []
    for child in kids[3].children:
        attribute = Attribute.from_der_value(child)
        if attribute.attr_type == oids.AT_SIGNING_TIME:
            attribute = attribute_make("signingTime", "990101000000Z")
        replaced.append(attribute.to_der_value())
    kids[3] = asn1.context(0, tuple(sorted(replaced, key=asn1.der_encode)))
    forged = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(*kids))
    with pytest.raises(IntegrityFailure, match="^MAC does not verify$"):
        check_auth(forged, b"mac key")


def test_auth_attrs_without_content_type_are_refused():
    # MACed correctly, but RFC 5652 §9.2 makes contentType mandatory, as in signed-data
    inner = make_data(b"m")
    digest = attribute_make("messageDigest", SHA256.digest(inner.to_der()))
    attrs_v = _attributes_to_der((SIGNING_TIME, digest))
    tag = hmac_digest(b"mac key", b"\x31" + asn1.der_encode(attrs_v)[1:])
    body = asn1.sequence(asn1.integer(0),
                         AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value(),
                         inner.to_der_value(), attrs_v, asn1.octet_string(tag))
    with pytest.raises(SignatureInvalid, match=_MANDATORY):
        check_auth(ContentInfo(oids.CT_AUTHENTICATED_DATA, body), b"mac key")


def test_auth_content_tamper_detected():
    wrapped = authenticate_data(make_data(b"m"), b"mac key", (SIGNING_TIME,))
    kids = list(wrapped.content.children)
    kids[2] = make_data(b"M").to_der_value()
    forged = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(*kids))
    with pytest.raises(DigestMismatch, match=_NOT_THE_DIGEST):
        check_auth(forged, b"mac key")


def test_auth_version_other_than_0_is_refused():
    wrapped = authenticate_data(make_data(b"m"), b"mac key")
    _version, *rest = wrapped.content.children
    edited = ContentInfo(oids.CT_AUTHENTICATED_DATA, asn1.sequence(asn1.integer(9), *rest))
    with pytest.raises(IntegrityFailure, match="^AuthenticatedData must be version 0$"):
        check_auth(ContentInfo.from_der(edited.to_der()), b"mac key")


def test_an_empty_mac_key_is_refused_before_any_work(monkeypatch):
    # anyone can make a tag under the empty key: refused making and checking,
    # before the content is read or a MAC computed
    monkeypatch.setattr(cms, "hmac_digest", lambda *args: pytest.fail("MAC computed"))
    with pytest.raises(MissingCredential, match="^MAC key must be non-empty$"):
        authenticate_data(make_data(b"m"), b"")
    with pytest.raises(MissingCredential, match="^MAC key must be non-empty$"):
        check_auth(make_data(b"not authenticated-data"), b"")


# -- readers refuse a wrong field count ----------------------------------------------

_SHORT_BODY = asn1.sequence(asn1.integer(0), AlgorithmIdentifier(oids.SHA256).to_der_value())
_CN = asn1.sequence(asn1.oid_value(oids.CN), asn1.utf8_string("Subject"))
_SUBJECT = asn1.sequence(asn1.set_value(_CN))
_SPKI = pkcs1.encode_public_key_info(rsa.RsaPublicKey(2**1023 + 1, 65537))


def _toy_cert(*fields) -> ContentInfo:
    """The content verify_signed returns for a toy certificate of the given
    fields: the data that cert_fields reads."""
    return make_data(asn1.der_encode(asn1.sequence(*fields)))


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
    (lambda: check_auth(ContentInfo(oids.CT_AUTHENTICATED_DATA, _SHORT_BODY), b"k"),
     asn1.NonCanonical),
    (lambda: Attribute.from_der_value(asn1.sequence(asn1.oid_value(oids.AT_SIGNING_TIME),
                                                    asn1.set_value())), asn1.NonCanonical),
    (lambda: cert_fields(_toy_cert(_SUBJECT, _SPKI, asn1.integer(7))), asn1.NonCanonical),
    (lambda: pkcs1.decode_public_key_info(asn1.sequence(*_SPKI.children, asn1.null())),
     asn1.NonCanonical),
    (lambda: pkcs1.decode_public_key_info(asn1.sequence(_SPKI.children[0], asn1.bit_string(
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
], ids=["content-info-3", "content-info-[0]-2", "check_digest", "check_auth",
        "attribute-no-values", "cert-payload-3", "spki-3",
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
    got_subject, got_public, serial, issuer = cert_fields(verify_signed(certificate, ca_public)[0])
    assert got_subject == subject and got_public == subject_public
    assert serial == 42 and issuer == ca_name
    with pytest.raises(WrongContentType):  # the fields of an unchecked certificate
        cert_fields(certificate)


def test_toy_issue_carries_a_received_subject_as_received(key_1024, key_1024_b):
    # a commonName as a PrintableString, where Name writes text as a UTF8String
    subject_public, subject_private = key_1024
    ca_public, ca_private = key_1024_b
    subject_v = asn1.sequence(asn1.set_value(asn1.sequence(
        asn1.oid_value(oids.CN), asn1.printable_string("Alice"))))
    info_v = asn1.sequence(asn1.integer(0), subject_v,
                           pkcs1.encode_public_key_info(subject_public), _attributes_to_der(()))
    signature = pkcs1.sign(asn1.der_encode(info_v), subject_private, seeded(b"p"))
    request = CertificationRequest.from_der(asn1.der_encode(asn1.sequence(
        info_v, pkcs1.PSS_ALGORITHM.to_der_value(), asn1.bit_string(signature))))
    assert request.info.subject == Name((("commonName", asn1.printable_string("Alice")),))
    assert request.info.subject != Name((("commonName", "Alice"),))

    certificate = toy_issue(request, ca_private, Name((("commonName", "CA"),)), 7, seeded(b"q"))
    inner, _ = verify_signed(certificate, ca_public)
    issued_subject_v = asn1._fields(asn1.der_decode(data_payload(inner)), 4)[0]
    assert asn1.der_encode(issued_subject_v) == asn1.der_encode(subject_v)


def test_toy_issue_carries_a_received_key_info_as_received(key_1024, key_1024_b):
    # rsaEncryption without parameters: the writer puts NULL parameters there
    subject_public, subject_private = key_1024
    ca_public, ca_private = key_1024_b
    written = pkcs1.encode_public_key_info(subject_public)
    spki_v = asn1.sequence(asn1.sequence(asn1.oid_value(oids.RSA_ENCRYPTION)),
                           written.children[1])
    info_v = asn1.sequence(asn1.integer(0), Name((("commonName", "Alice"),)).to_der_value(),
                           spki_v, _attributes_to_der(()))
    signature = pkcs1.sign(asn1.der_encode(info_v), subject_private, seeded(b"p"))
    request = CertificationRequest.from_der(asn1.der_encode(asn1.sequence(
        info_v, pkcs1.PSS_ALGORITHM.to_der_value(), asn1.bit_string(signature))))
    assert request.info.public_key == subject_public

    certificate = toy_issue(request, ca_private, Name((("commonName", "CA"),)), 7, seeded(b"q"))
    inner, _ = verify_signed(certificate, ca_public)
    issued_spki_v = asn1._fields(asn1.der_decode(data_payload(inner)), 4)[1]
    assert asn1.der_encode(issued_spki_v) == asn1.der_encode(spki_v)
    assert cert_fields(inner)[1] == subject_public


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
