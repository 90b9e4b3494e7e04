"""Cryptographic message syntax: one protection envelope, six content types.

Everything is a ContentInfo (content type OID plus type-specific content) and
any producer accepts any ContentInfo as its payload, so envelopes nest
arbitrarily: data inside signed-data inside enveloped-data and so on.

verify_signed, check_digest and check_auth are the only readers of the content
they protect: each returns the encapsulated content it verified or raises a
declared error, an IntegrityFailure when it does not verify, reported
distinctly (DigestMismatch vs SignatureInvalid) because a verifier is not a
decryption oracle; the decryption-side operations collapse every failure into
the shared uniform DecryptionError.  Wherever a digest or signature is checked,
the octets hashed are the ones received on the wire, read where they lie, never
a re-normalized encoding.  ``keystore`` writes and reads the attribute sets,
and ``pkcs1`` and ``pkcs5`` the algorithm identifiers but SHA-256's.  sign_data
and authenticate_data alone add the contentType and messageDigest attributes,
computed from the content, and refuse a caller-given one (SyntaxViolation); a
received set must hold each once, as one value.  Verification reads a
received attribute set in place, through keystore's one reader, as (type,
values) pairs that keystore checks against its registry as the Attribute
constructor does (SyntaxViolation); it builds no Attribute.  An algorithm pkcswb
lacks is no integrity failure: its owner's one check
(``check_digest_algorithm`` here) refuses it as UnsupportedAlgorithm, which
inside a decryption is the uniform DecryptionError.
"""

from __future__ import annotations

from . import asn1, oids, pkcs1, pkcs5
from .asn1 import AlgorithmIdentifier, DerForm, DerValue, Oid, der_decode, der_encode
from .csr import CertificationRequest, Name, verify_csr
from .errors import (DecryptionError, Frozen, IntegrityFailure, MissingCredential, PkcsError,
                     UnsupportedAlgorithm, uniform_decryption)
from .keystore import (Attribute, SyntaxViolation, _attribute_pair, _attributes_from_der,
                       _attributes_to_der, attribute_make)
from .primitives import (BLOCK_LEN, SHA256, BadLength, RandomSource, cbc_decrypt, cbc_encrypt,
                         ct_equal, hmac_digest)
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = [
    "DigestMismatch",
    "SignatureInvalid",
    "WrongContentType",
    "ContentInfo",
    "SignerIdent",
    "make_data",
    "data_payload",
    "sign_data",
    "verify_signed",
    "envelope",
    "open_envelope",
    "digest_data",
    "check_digest",
    "encrypt_data",
    "decrypt_data",
    "authenticate_data",
    "check_auth",
    "toy_issue",
    "cert_fields",
]

SHA256_ALGORITHM = AlgorithmIdentifier(oids.SHA256)  # written without parameters


def check_digest_algorithm(oid: Oid) -> None:
    """The one refusal of a received digest algorithm: any OID but SHA-256."""
    if oid != oids.SHA256:
        raise UnsupportedAlgorithm(f"unsupported digest algorithm {oid}")


class DigestMismatch(IntegrityFailure):
    """The messageDigest attribute does not match the encapsulated content."""


class SignatureInvalid(IntegrityFailure):
    """The signature (or the signed attribute set) does not verify."""


class WrongContentType(PkcsError, ValueError):
    """A ContentInfo does not carry the content type the caller expects."""


class ContentInfo(DerForm, Frozen):
    """contentType plus content; the type OID fixes the content's shape.  Its
    kept value makes its octets the ones received (the PFX MAC covers them)."""

    _fields = ("content_type", "content")

    def __init__(self, content_type: Oid, content: DerValue):
        self.__dict__.update(content_type=content_type, content=content)

    def _build(self) -> DerValue:
        return asn1.sequence(asn1.oid_value(self.content_type), asn1.explicit(0, self.content))

    @classmethod
    def _parse(cls, value: DerValue) -> "ContentInfo":
        type_v, wrapper = asn1._fields(value, 2)
        (content,) = asn1._fields(wrapper, 1, tag_number=0, tag_class=asn1.TagClass.CONTEXT)
        return cls(type_v.as_oid(), content)


class SignerIdent(DerForm, Frozen):
    """Who signed: a distinguished name plus an opaque key identifier."""

    _fields = ("name", "key_id")

    def __init__(self, name: Name, key_id: bytes):
        self.__dict__.update(name=name, key_id=key_id)

    def _build(self) -> DerValue:
        return asn1.sequence(self.name.to_der_value(), asn1.octet_string(self.key_id))

    @classmethod
    def _parse(cls, value: DerValue) -> "SignerIdent":
        name_v, key_id_v = asn1._fields(value, 2)
        return cls(Name.from_der_value(name_v), key_id_v.as_octet_string())


def _expect_type(ci: ContentInfo, content_type: Oid, what: str) -> None:
    if ci.content_type != content_type:
        raise WrongContentType(f"not a {what} content (got {ci.content_type})")


# ---------------------------------------------------------------------------
# data


def make_data(payload: bytes) -> ContentInfo:
    return ContentInfo(oids.CT_DATA, asn1.octet_string(payload))


def data_payload(ci: ContentInfo) -> bytes:
    _expect_type(ci, oids.CT_DATA, "data")
    return ci.content.as_octet_string()


# ---------------------------------------------------------------------------
# signed-data


def _attr_message(attrs_v: DerValue) -> bytes:
    """What a signature or MAC over attributes covers: the [0] set, tagged SET (RFC 5652 §5.4)."""
    return bytes([0x20 | asn1.SET]) + der_encode(attrs_v)[1:]


def _find_attr(pairs: tuple[tuple[Oid, tuple[DerValue, ...]], ...],
               oid: Oid) -> tuple[DerValue, ...] | None:
    """The values of the (type, values) pair of type ``oid``, or None;
    SignatureInvalid for a second one (RFC 5652 §11.1, §11.2 allow one)."""
    found = [values for attr_type, values in pairs if attr_type == oid]
    if len(found) > 1:
        raise SignatureInvalid(f"more than one {oid} attribute")
    return found[0] if found else None


def _covered(encap: ContentInfo,
             attrs: tuple[Attribute, ...]) -> tuple[DerValue, tuple[DerValue, ...], bytes]:
    """(encapsulated content, a tuple of none or one [0] attribute set, octets a
    signature or MAC covers).  A non-empty attribute set gains the content's
    contentType and messageDigest, which the signer alone adds (RFC 5652 §5.3,
    §11.1, §11.2): SyntaxViolation for a given one."""
    encap_v = encap.to_der_value()
    content_der = der_encode(encap_v)
    attrs = tuple(attrs)
    if not attrs:
        return encap_v, (), content_der
    if any(attribute.attr_type in (oids.AT_CONTENT_TYPE, oids.AT_MESSAGE_DIGEST)
           for attribute in attrs):
        raise SyntaxViolation("contentType and messageDigest are the signer's to add")
    attrs_v = _attributes_to_der(attrs + (
        attribute_make("contentType", encap.content_type),
        attribute_make("messageDigest", SHA256.digest(content_der))))
    return encap_v, (attrs_v,), _attr_message(attrs_v)


def _covered_as_received(encap: ContentInfo,
                         attrs_v: DerValue | None) -> bytes | memoryview:
    """The octets a received signature or MAC covers: the encapsulated content
    as received, or the received [0] attribute set, which must hold the
    content's type as its one contentType and a digest of that content as its
    one messageDigest (RFC 5652 §5.3, §9.2, §11.1, §11.2).  The set is read in
    place, as keystore's reader gives it: (type, values) pairs, no Attribute,
    each checked against the registry.  Raises NonCanonical, SyntaxViolation,
    SignatureInvalid or DigestMismatch."""
    content_der = asn1._encoding(encap.to_der_value())  # as kept: no copy
    if attrs_v is None:
        return content_der
    pairs = _attributes_from_der(attrs_v, _attribute_pair)
    md = _find_attr(pairs, oids.AT_MESSAGE_DIGEST)
    content_type = _find_attr(pairs, oids.AT_CONTENT_TYPE)
    if md is None or content_type is None:
        raise SignatureInvalid("contentType/messageDigest attributes are mandatory")
    if not (len(content_type) == 1 and content_type[0].as_oid() == encap.content_type):
        raise SignatureInvalid("contentType attribute is not the encapsulated content's type")
    if not (len(md) == 1 and ct_equal(md[0].octets, SHA256.digest(content_der))):
        raise DigestMismatch("messageDigest attribute does not match the content")
    return _attr_message(attrs_v)


def sign_data(inner: ContentInfo, signer_key: RsaPrivateKey, signer_ident: SignerIdent,
              signed_attrs: tuple[Attribute, ...], rng: RandomSource) -> ContentInfo:
    """Wrap ``inner`` in signed-data.  A non-empty attribute set gains
    contentType and messageDigest (SyntaxViolation if it holds either) and the
    signature covers the attribute set; with no attributes the signature
    covers the encapsulated DER."""
    encap_v, attrs_set, message = _covered(inner, signed_attrs)
    signature = pkcs1.sign(message, signer_key, rng)
    signer_info = asn1.sequence(
        asn1.integer(1),
        signer_ident.to_der_value(),
        SHA256_ALGORITHM.to_der_value(),
        *attrs_set,
        pkcs1.PSS_ALGORITHM.to_der_value(),
        asn1.octet_string(signature),
    )
    signed = asn1.sequence(
        asn1.integer(1),
        asn1.set_value(SHA256_ALGORITHM.to_der_value()),
        encap_v,
        asn1.set_value(signer_info),
    )
    return ContentInfo(oids.CT_SIGNED_DATA, signed)


def verify_signed(ci: ContentInfo,
                  trusted_pub: RsaPublicKey) -> tuple[ContentInfo, bool]:
    """Check the fields the signature does not cover, then the digest binding,
    then the signature; returns the encapsulated content.

    Raises SignatureInvalid unless SignedData and SignerInfo are version 1
    (RFC 5652 §5.1, §5.3), NonCanonical unless digestAlgorithms holds one,
    and UnsupportedAlgorithm for a digest other than SHA-256 or a signature
    other than RSASSA-PSS; then SyntaxViolation for a signed attribute the
    registry refuses, DigestMismatch when the messageDigest attribute
    disagrees with the received content, and SignatureInvalid when the
    signature itself fails.
    """
    _expect_type(ci, oids.CT_SIGNED_DATA, "signed-data")
    version_v, algs_v, encap_v, signers_v = asn1._fields(ci.content, 4)
    (signer_v,) = asn1._fields(signers_v, 1, tag_number=asn1.SET)
    signer_version_v, _sid, digest_alg_v, *attrs, sig_alg_v, sig_v = asn1._fields(signer_v, 5, 6)
    if version_v.as_integer() != 1 or signer_version_v.as_integer() != 1:
        raise SignatureInvalid("SignedData and SignerInfo must be version 1")
    for alg_v in (*asn1._fields(algs_v, 1, tag_number=asn1.SET), digest_alg_v):
        check_digest_algorithm(asn1.algorithm_oid(alg_v))
    pkcs1.check_signature_algorithm(asn1.algorithm_oid(sig_alg_v))
    inner = ContentInfo.from_der_value(encap_v)
    message = _covered_as_received(inner, attrs[0] if attrs else None)
    if not pkcs1.verify(message, sig_v.as_octet_string(), trusted_pub):
        raise SignatureInvalid("signature does not verify")
    return inner, True


# ---------------------------------------------------------------------------
# enveloped-data


def _encrypted_content_value(content_type: Oid, algorithm: AlgorithmIdentifier,
                             ciphertext: bytes) -> DerValue:
    """EncryptedContentInfo: content type, content-encryption algorithm, [0] ciphertext.
    Encrypted-data, enveloped-data and PFX password privacy all carry it."""
    return asn1.sequence(
        asn1.oid_value(content_type),
        algorithm.to_der_value(),
        asn1.context(0, ciphertext),
    )


def _parse_encrypted_content(value: DerValue) -> tuple[Oid, AlgorithmIdentifier, bytes]:
    """(declared content type, content-encryption algorithm, ciphertext) of an
    EncryptedContentInfo."""
    type_v, alg_v, ct_v = asn1._fields(value, 3)
    asn1.require(ct_v, 0, tag_class=asn1.TagClass.CONTEXT, constructed=False)
    return type_v.as_oid(), AlgorithmIdentifier.from_der_value(alg_v), ct_v.content


def _decrypt_content(key: bytes, iv: bytes, declared: Oid, ciphertext: bytes) -> ContentInfo:
    """The ContentInfo an EncryptedContentInfo carries, which must be of the
    type it declares: DecryptionError otherwise.  Callers run it inside
    uniform_decryption."""
    inner = cbc_decrypt(key, iv, ciphertext, ContentInfo.from_der)
    if inner.content_type != declared:
        raise DecryptionError()
    return inner


def envelope(inner: ContentInfo, recipient_pub: RsaPublicKey,
             rng: RandomSource) -> ContentInfo:
    """Key transport: fresh CEK, CEK wrapped with OAEP, AES-128-CBC payload.
    The CEK is wrapped first, so a recipient key too small to carry it is
    refused before the payload is encrypted; the draws are CEK, IV, OAEP seed."""
    cek = rng.read(pkcs5.AES128_KEY_LEN)
    iv = rng.read(BLOCK_LEN)
    try:
        encrypted_key = pkcs1.encrypt(cek, recipient_pub, pkcs1.SCHEME_OAEP, rng)
    except pkcs1.MessageTooLong:
        raise pkcs1.ModulusTooSmall(
            "recipient modulus cannot carry an OAEP-wrapped content key") from None
    ciphertext = cbc_encrypt(cek, iv, inner.to_der())
    recipient = asn1.sequence(asn1.integer(0), pkcs1.OAEP_ALGORITHM.to_der_value(),
                              asn1.octet_string(encrypted_key))
    enveloped = asn1.sequence(asn1.integer(0), recipient, _encrypted_content_value(
        inner.content_type, pkcs5.aes128_cbc_algorithm(iv), ciphertext))
    return ContentInfo(oids.CT_ENVELOPED_DATA, enveloped)


def open_envelope(ci: ContentInfo, recipient_priv: RsaPrivateKey) -> ContentInfo:
    _expect_type(ci, oids.CT_ENVELOPED_DATA, "enveloped-data")
    with uniform_decryption():
        version_v, recipient_v, econtent_v = asn1._fields(ci.content, 3)
        rversion_v, kea_v, ek_v = asn1._fields(recipient_v, 3)
        if version_v.as_integer() != 0 or rversion_v.as_integer() != 0:
            raise DecryptionError()
        pkcs1.check_key_transport_algorithm(asn1.algorithm_oid(kea_v))
        declared, algorithm, ciphertext = _parse_encrypted_content(econtent_v)
        iv = pkcs5.aes128_cbc_iv(algorithm)
        cek = pkcs1.decrypt(ek_v.as_octet_string(), recipient_priv, pkcs1.SCHEME_OAEP)
        return _decrypt_content(cek, iv, declared, ciphertext)


# ---------------------------------------------------------------------------
# digested-data


def digest_data(inner: ContentInfo) -> ContentInfo:
    body = asn1.sequence(
        asn1.integer(0),
        SHA256_ALGORITHM.to_der_value(),
        inner.to_der_value(),
        asn1.octet_string(SHA256.digest(inner.to_der())),
    )
    return ContentInfo(oids.CT_DIGESTED_DATA, body)


def check_digest(ci: ContentInfo) -> ContentInfo:
    """The encapsulated content, once its digest is checked.  Raises
    IntegrityFailure for a version other than 0, UnsupportedAlgorithm for a
    digest algorithm other than SHA-256, and DigestMismatch for a digest that
    is not the content's."""
    _expect_type(ci, oids.CT_DIGESTED_DATA, "digested-data")
    version_v, alg_v, encap_v, digest_v = asn1._fields(ci.content, 4)
    if version_v.as_integer() != 0:
        raise IntegrityFailure("DigestedData must be version 0")
    check_digest_algorithm(asn1.algorithm_oid(alg_v))
    inner = ContentInfo.from_der_value(encap_v)
    if not ct_equal(SHA256.digest(inner.to_der()), digest_v.as_octet_string()):
        raise DigestMismatch("digest does not match the content")
    return inner


# ---------------------------------------------------------------------------
# encrypted-data (pre-shared key, no key transport)


def _encrypted_data(content_type: Oid, algorithm: AlgorithmIdentifier,
                    ciphertext: bytes) -> ContentInfo:
    """EncryptedData: version 0 and an EncryptedContentInfo.  Encrypted-data
    and PFX password privacy both carry it."""
    return ContentInfo(oids.CT_ENCRYPTED_DATA, asn1.sequence(
        asn1.integer(0), _encrypted_content_value(content_type, algorithm, ciphertext)))


def _parse_encrypted_data(ci: ContentInfo) -> tuple[Oid, AlgorithmIdentifier, bytes]:
    """(declared content type, content-encryption algorithm, ciphertext) of an
    EncryptedData, which must be version 0.  Callers run it inside
    uniform_decryption."""
    version_v, econtent_v = asn1._fields(ci.content, 2)
    if version_v.as_integer() != 0:
        raise DecryptionError()
    return _parse_encrypted_content(econtent_v)


def _check_key(key: bytes) -> None:
    if len(key) != pkcs5.AES128_KEY_LEN:  # the caller's key, not the wire's: no oracle
        raise BadLength("AES-128 key must be 16 octets")


def encrypt_data(inner: ContentInfo, key: bytes, rng: RandomSource) -> ContentInfo:
    _check_key(key)
    iv = rng.read(BLOCK_LEN)
    return _encrypted_data(inner.content_type, pkcs5.aes128_cbc_algorithm(iv),
                           cbc_encrypt(key, iv, inner.to_der()))


def decrypt_data(ci: ContentInfo, key: bytes) -> ContentInfo:
    _expect_type(ci, oids.CT_ENCRYPTED_DATA, "encrypted-data")
    _check_key(key)
    with uniform_decryption():
        declared, algorithm, ciphertext = _parse_encrypted_data(ci)
        return _decrypt_content(key, pkcs5.aes128_cbc_iv(algorithm), declared, ciphertext)


# ---------------------------------------------------------------------------
# authenticated-data


def authenticate_data(inner: ContentInfo, key: bytes,
                      auth_attrs: tuple[Attribute, ...] = ()) -> ContentInfo:
    """HMAC tag over the content, or over the attribute set when present
    (gaining contentType and messageDigest, like signed-data); MissingCredential
    for an empty key, under which anyone can make the tag."""
    if not key:
        raise MissingCredential("MAC key must be non-empty")
    encap_v, attrs_set, message = _covered(inner, auth_attrs)
    body = asn1.sequence(
        asn1.integer(0),
        pkcs5.HMAC_SHA256_ALGORITHM.to_der_value(),
        encap_v,
        *attrs_set,
        asn1.octet_string(hmac_digest(key, message)),
    )
    return ContentInfo(oids.CT_AUTHENTICATED_DATA, body)


def check_auth(ci: ContentInfo, key: bytes) -> ContentInfo:
    """The encapsulated content, once its MAC is checked.  Raises
    MissingCredential for an empty key, IntegrityFailure for a version other
    than 0 or a MAC that does not verify, UnsupportedAlgorithm for a MAC but
    HMAC-SHA-256, and for a received attribute set what verify_signed does."""
    if not key:
        raise MissingCredential("MAC key must be non-empty")
    _expect_type(ci, oids.CT_AUTHENTICATED_DATA, "authenticated-data")
    version_v, alg_v, encap_v, *attrs, mac_v = asn1._fields(ci.content, 4, 5)
    if version_v.as_integer() != 0:
        raise IntegrityFailure("AuthenticatedData must be version 0")
    pkcs5.check_mac_algorithm(asn1.algorithm_oid(alg_v))
    inner = ContentInfo.from_der_value(encap_v)
    message = _covered_as_received(inner, attrs[0] if attrs else None)
    if not ct_equal(hmac_digest(key, message), mac_v.as_octet_string()):
        raise IntegrityFailure("MAC does not verify")
    return inner


# ---------------------------------------------------------------------------
# toy certification (the return format a certification authority uses here)


def toy_issue(request: CertificationRequest, ca_key: RsaPrivateKey, ca_name: Name,
              serial: int, rng: RandomSource) -> ContentInfo:
    """Turn a verified request into a stand-in certificate: a signed-data
    envelope over (subject, public key, serial, issuer).  The subject and its
    key info are carried as the request holds them, which is as received."""
    if not verify_csr(request):
        raise SignatureInvalid("request self-signature does not verify")
    payload = der_encode(asn1.sequence(
        request.info.subject.to_der_value(),
        request.info.key_info_value(),
        asn1.integer(serial),
        ca_name.to_der_value(),
    ))
    attrs = (attribute_make("sequenceNumber", serial),)
    return sign_data(make_data(payload), ca_key, SignerIdent(ca_name, b"ca"), attrs, rng)


def cert_fields(content: ContentInfo) -> tuple[Name, RsaPublicKey, int, Name]:
    """Subject, subject key, serial, issuer of a toy certificate, read from the
    content verify_signed returned for it: no field is read unchecked."""
    subject_v, spki_v, serial_v, issuer_v = asn1._fields(der_decode(data_payload(content)), 4)
    return (Name.from_der_value(subject_v), pkcs1.decode_public_key_info(spki_v),
            serial_v.as_integer(), Name.from_der_value(issuer_v))
