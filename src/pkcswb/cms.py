"""Cryptographic message syntax: one protection envelope, six content types.

Everything is a ContentInfo (content type OID plus type-specific content) and
any producer accepts any ContentInfo as its payload, so envelopes nest
arbitrarily: data inside signed-data inside enveloped-data and so on.

Integrity-side failures are reported distinctly (DigestMismatch vs
SignatureInvalid) because a verifier is not a decryption oracle; the
decryption-side operations collapse every failure into the shared uniform
DecryptionError.  Wherever a digest or signature is checked, the octets
hashed are the ones received on the wire, never a re-normalized encoding.
``keystore`` writes and reads the attribute sets; a contentType or
messageDigest attribute holds one value, of the registry's syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import asn1, oids, pkcs1
from .asn1 import AlgorithmIdentifier, DerValue, Oid, der_decode, der_encode
from .csr import (CertificationRequest, Name, decode_public_key_info,
                  encode_public_key_info, verify_csr)
from .errors import DecryptionError, IntegrityFailure, PkcsError, uniform_decryption
from .keystore import (Attribute, SyntaxViolation, _attributes_from_der, _attributes_to_der,
                       attribute_check, attribute_make)
from .pkcs1 import ModulusTooSmall
from .primitives import (SHA256, BadLength, RandomSource, cbc_decrypt, cbc_encrypt, ct_equal,
                         hmac_digest)
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

_CEK_LEN = 16
_IV_LEN = 16


class DigestMismatch(IntegrityFailure):
    """The messageDigest attribute does not match the encapsulated content."""


class SignatureInvalid(IntegrityFailure):
    """The signature (or the signed attribute set) does not verify."""


class WrongContentType(PkcsError, ValueError):
    """A ContentInfo does not carry the content type the caller expects."""


@dataclass(frozen=True)
class ContentInfo:
    """contentType plus content; the type OID fixes the content's shape.

    A decoded ContentInfo keeps the value it was decoded from, and a built one
    the value of its first ``to_der_value``, so its octets are the ones
    received (the PFX MAC covers them) and are encoded at most once.
    """

    content_type: Oid
    content: DerValue
    _value: DerValue | None = field(default=None, init=False, repr=False, compare=False)

    def to_der_value(self) -> DerValue:
        if self._value is None:
            object.__setattr__(self, "_value", asn1.sequence(
                asn1.oid_value(self.content_type), asn1.explicit(0, self.content)))
        return self._value

    def to_der(self) -> bytes:
        return der_encode(self.to_der_value())

    @classmethod
    def from_der_value(cls, value: DerValue) -> "ContentInfo":
        type_v, wrapper = asn1._fields(value, 2)
        (content,) = asn1._fields(wrapper, 1, tag_number=0, tag_class=asn1.TagClass.CONTEXT)
        ci = cls(type_v.as_oid(), content)
        object.__setattr__(ci, "_value", value)
        return ci

    @classmethod
    def from_der(cls, octets: bytes) -> "ContentInfo":
        return cls.from_der_value(der_decode(octets))


@dataclass(frozen=True)
class SignerIdent:
    """Who signed: a distinguished name plus an opaque key identifier."""

    name: Name
    key_id: bytes

    def to_der_value(self) -> DerValue:
        return asn1.sequence(self.name.to_der_value(), asn1.octet_string(self.key_id))


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


def _find_attr(attributes: tuple[Attribute, ...], oid: Oid,
               duplicate: type[PkcsError]) -> Attribute | None:
    """The attribute of type ``oid``, or None; ``duplicate`` is raised for a
    second one (contentType and messageDigest appear once, RFC 5652 §11.1, §11.2)."""
    found = [attribute for attribute in attributes if attribute.attr_type == oid]
    if len(found) > 1:
        raise duplicate(f"more than one {oid} attribute")
    return found[0] if found else None


def _covered(encap: ContentInfo,
             attrs: tuple[Attribute, ...]) -> tuple[DerValue, tuple[DerValue, ...], bytes]:
    """(encapsulated content, a tuple of none or one [0] attribute set, octets a
    signature or MAC covers); attributes gain contentType and messageDigest if
    absent, and given ones must be the content's (WrongContentType, DigestMismatch)
    and appear once (SyntaxViolation)."""
    encap_v = encap.to_der_value()
    content_der = der_encode(encap_v)
    attrs = tuple(attrs)
    if not attrs:
        return encap_v, (), content_der
    content_type = _find_attr(attrs, oids.AT_CONTENT_TYPE, SyntaxViolation)
    if content_type is None:
        attrs += (attribute_make("contentType", encap.content_type),)
    elif not _is_content_type(content_type, encap.content_type):
        raise WrongContentType("contentType attribute is not the encapsulated content's type")
    digest = SHA256.digest(content_der)
    message_digest = _find_attr(attrs, oids.AT_MESSAGE_DIGEST, SyntaxViolation)
    if message_digest is None:
        attrs += (attribute_make("messageDigest", digest),)
    elif not _is_digest(message_digest, digest):
        raise DigestMismatch("messageDigest attribute is not the content's digest")
    attrs_v = _attributes_to_der(attrs)
    return encap_v, (attrs_v,), _attr_message(attrs_v)


def _is_content_type(attribute: Attribute, content_type: Oid) -> bool:
    """Whether a contentType attribute holds exactly ``content_type``, as its
    one value, of the registry's syntax (RFC 5652 §11.1)."""
    return (len(attribute.values) == 1 and attribute_check(attribute)
            and attribute.values[0].as_oid() == content_type)


def _is_digest(attribute: Attribute, digest: bytes) -> bool:
    """Whether a messageDigest attribute holds exactly ``digest``, as its one
    value, of the registry's syntax (RFC 5652 §11.2)."""
    return (len(attribute.values) == 1 and attribute_check(attribute)
            and ct_equal(attribute.values[0].octets, digest))


def _covered_as_received(encap: ContentInfo, attrs_v: DerValue | None) -> bytes:
    """The octets a received signature or MAC covers: the encapsulated content
    as received, or the received [0] attribute set, which must hold the
    content's type as its one contentType and a digest of that content as its
    one messageDigest (RFC 5652 §5.3, §9.2, §11.1, §11.2).  Raises
    SignatureInvalid or DigestMismatch."""
    content_der = encap.to_der()
    if attrs_v is None:
        return content_der
    attributes = _attributes_from_der(attrs_v)
    md = _find_attr(attributes, oids.AT_MESSAGE_DIGEST, SignatureInvalid)
    content_type = _find_attr(attributes, oids.AT_CONTENT_TYPE, SignatureInvalid)
    if md is None or content_type is None:
        raise SignatureInvalid("contentType/messageDigest attributes are mandatory")
    if not _is_content_type(content_type, encap.content_type):
        raise SignatureInvalid("contentType attribute is not the encapsulated content's type")
    if not _is_digest(md, SHA256.digest(content_der)):
        raise DigestMismatch("messageDigest attribute does not match the content")
    return _attr_message(attrs_v)


def sign_data(inner: ContentInfo, signer_key: RsaPrivateKey, signer_ident: SignerIdent,
              signed_attrs: tuple[Attribute, ...], rng: RandomSource) -> ContentInfo:
    """Wrap ``inner`` in signed-data.  A non-empty attribute set is augmented
    with contentType and messageDigest and the signature covers the attribute
    set; with no attributes the signature covers the encapsulated DER."""
    encap_v, attrs_set, message = _covered(inner, signed_attrs)
    signature = pkcs1.sign(message, signer_key, rng)
    signer_info = asn1.sequence(
        asn1.integer(1),
        signer_ident.to_der_value(),
        AlgorithmIdentifier(oids.SHA256).to_der_value(),
        *attrs_set,
        AlgorithmIdentifier(oids.RSASSA_PSS).to_der_value(),
        asn1.octet_string(signature),
    )
    signed = asn1.sequence(
        asn1.integer(1),
        asn1.set_value(AlgorithmIdentifier(oids.SHA256).to_der_value()),
        encap_v,
        asn1.set_value(signer_info),
    )
    return ContentInfo(oids.CT_SIGNED_DATA, signed)


def _parse_signed(ci: ContentInfo):
    """Fields of a signed-data as sign_data writes it.  The signature does not
    cover the versions or the digestAlgorithms SET, so they are checked here:
    version 1 for SignedData and SignerInfo (RFC 5652 §5.1, §5.3) and exactly
    SHA-256, or SignatureInvalid."""
    _expect_type(ci, oids.CT_SIGNED_DATA, "signed-data")
    version_v, algs_v, encap_v, signers_v = asn1._fields(ci.content, 4)
    (signer_v,) = asn1._fields(signers_v, 1, tag_number=asn1.SET)
    kids = asn1._fields(signer_v, 5, 6)
    signer_version_v, sid_v, digest_alg_v = kids[:3]
    attrs_v = kids[3] if len(kids) == 6 else None
    sig_alg_v, sig_v = kids[-2:]
    if version_v.as_integer() != 1 or signer_version_v.as_integer() != 1:
        raise SignatureInvalid("SignedData and SignerInfo must be version 1")
    if [AlgorithmIdentifier.from_der_value(v).oid
            for v in asn1.require(algs_v, asn1.SET).children] != [oids.SHA256]:
        raise SignatureInvalid("digestAlgorithms must be exactly SHA-256")
    return encap_v, sid_v, digest_alg_v, attrs_v, sig_alg_v, sig_v


def verify_signed(ci: ContentInfo,
                  trusted_pub: RsaPublicKey) -> tuple[ContentInfo, bool]:
    """Check digest binding then signature; returns the encapsulated content.

    Raises DigestMismatch when the messageDigest attribute disagrees with the
    received content (checked before any signature work) and SignatureInvalid
    when the signature itself fails.
    """
    encap_v, _sid, digest_alg_v, attrs_v, sig_alg_v, sig_v = _parse_signed(ci)
    if AlgorithmIdentifier.from_der_value(digest_alg_v).oid != oids.SHA256:
        raise SignatureInvalid("unsupported digest algorithm")
    if AlgorithmIdentifier.from_der_value(sig_alg_v).oid != oids.RSASSA_PSS:
        raise SignatureInvalid("unsupported signature algorithm")
    inner = ContentInfo.from_der_value(encap_v)
    message = _covered_as_received(inner, attrs_v)
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
        asn1.context(0, ciphertext, constructed=False),
    )


def _parse_encrypted_content(value: DerValue) -> tuple[AlgorithmIdentifier, bytes]:
    """(content-encryption algorithm, ciphertext) of an EncryptedContentInfo."""
    type_v, alg_v, ct_v = asn1._fields(value, 3)
    asn1.require(type_v, asn1.OBJECT_IDENTIFIER, constructed=False)
    asn1.require(ct_v, 0, tag_class=asn1.TagClass.CONTEXT, constructed=False)
    return AlgorithmIdentifier.from_der_value(alg_v), ct_v.content


def _aes_iv(algorithm: AlgorithmIdentifier) -> bytes:
    """The IV of an AES-128-CBC identifier; any other identifier fails decryption."""
    if algorithm.oid != oids.AES128_CBC or algorithm.params is None:
        raise DecryptionError()
    return algorithm.params.as_octet_string()


def envelope(inner: ContentInfo, recipient_pub: RsaPublicKey,
             rng: RandomSource) -> ContentInfo:
    """Key transport: fresh CEK, AES-128-CBC payload, CEK wrapped with OAEP."""
    cek = rng.read(_CEK_LEN)
    iv = rng.read(_IV_LEN)
    ciphertext = cbc_encrypt(cek, iv, inner.to_der())
    try:
        encrypted_key = pkcs1.encrypt(cek, recipient_pub, pkcs1.SCHEME_OAEP, rng)
    except pkcs1.MessageTooLong:
        raise ModulusTooSmall(
            "recipient modulus cannot carry an OAEP-wrapped content key") from None
    recipient = asn1.sequence(
        asn1.integer(0),
        AlgorithmIdentifier(oids.RSAES_OAEP).to_der_value(),
        asn1.octet_string(encrypted_key),
    )
    enveloped = asn1.sequence(
        asn1.integer(0),
        recipient,
        _encrypted_content_value(inner.content_type,
                                 AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(iv)),
                                 ciphertext),
    )
    return ContentInfo(oids.CT_ENVELOPED_DATA, enveloped)


def open_envelope(ci: ContentInfo, recipient_priv: RsaPrivateKey) -> ContentInfo:
    _expect_type(ci, oids.CT_ENVELOPED_DATA, "enveloped-data")
    with uniform_decryption():
        version_v, recipient_v, econtent_v = asn1._fields(ci.content, 3)
        rversion_v, kea_v, ek_v = asn1._fields(recipient_v, 3)
        if (version_v.as_integer() != 0 or rversion_v.as_integer() != 0
                or AlgorithmIdentifier.from_der_value(kea_v).oid != oids.RSAES_OAEP):
            raise DecryptionError()
        algorithm, ciphertext = _parse_encrypted_content(econtent_v)
        iv = _aes_iv(algorithm)
        cek = pkcs1.decrypt(ek_v.as_octet_string(), recipient_priv, pkcs1.SCHEME_OAEP)
        return cbc_decrypt(cek, iv, ciphertext, ContentInfo.from_der)


# ---------------------------------------------------------------------------
# digested-data


def digest_data(inner: ContentInfo) -> ContentInfo:
    body = asn1.sequence(
        asn1.integer(0),
        AlgorithmIdentifier(oids.SHA256).to_der_value(),
        inner.to_der_value(),
        asn1.octet_string(SHA256.digest(inner.to_der())),
    )
    return ContentInfo(oids.CT_DIGESTED_DATA, body)


def check_digest(ci: ContentInfo) -> bool:
    _expect_type(ci, oids.CT_DIGESTED_DATA, "digested-data")
    version_v, alg_v, encap_v, digest_v = asn1._fields(ci.content, 4)
    if version_v.as_integer() != 0 or AlgorithmIdentifier.from_der_value(alg_v).oid != oids.SHA256:
        return False
    return ct_equal(SHA256.digest(der_encode(encap_v)), digest_v.as_octet_string())


def digested_content(ci: ContentInfo) -> ContentInfo:
    _expect_type(ci, oids.CT_DIGESTED_DATA, "digested-data")
    return ContentInfo.from_der_value(asn1._fields(ci.content, 4)[2])


# ---------------------------------------------------------------------------
# encrypted-data (pre-shared key, no key transport)


def _encrypted_data(content_type: Oid, algorithm: AlgorithmIdentifier,
                    ciphertext: bytes) -> ContentInfo:
    """EncryptedData: version 0 and an EncryptedContentInfo.  Encrypted-data
    and PFX password privacy both carry it."""
    return ContentInfo(oids.CT_ENCRYPTED_DATA, asn1.sequence(
        asn1.integer(0), _encrypted_content_value(content_type, algorithm, ciphertext)))


def _parse_encrypted_data(ci: ContentInfo) -> tuple[AlgorithmIdentifier, bytes]:
    """(content-encryption algorithm, ciphertext) of an EncryptedData, which
    must be version 0.  Callers run it inside uniform_decryption."""
    version_v, econtent_v = asn1._fields(ci.content, 2)
    if version_v.as_integer() != 0:
        raise DecryptionError()
    return _parse_encrypted_content(econtent_v)


def encrypt_data(inner: ContentInfo, key: bytes, rng: RandomSource) -> ContentInfo:
    iv = rng.read(_IV_LEN)
    return _encrypted_data(inner.content_type,
                           AlgorithmIdentifier(oids.AES128_CBC, asn1.octet_string(iv)),
                           cbc_encrypt(key, iv, inner.to_der()))


def decrypt_data(ci: ContentInfo, key: bytes) -> ContentInfo:
    _expect_type(ci, oids.CT_ENCRYPTED_DATA, "encrypted-data")
    if len(key) != _CEK_LEN:  # the caller's key, not the wire's: no oracle
        raise BadLength("AES-128 key must be 16 octets")
    with uniform_decryption():
        algorithm, ciphertext = _parse_encrypted_data(ci)
        return cbc_decrypt(key, _aes_iv(algorithm), ciphertext, ContentInfo.from_der)


# ---------------------------------------------------------------------------
# authenticated-data


def authenticate_data(inner: ContentInfo, key: bytes,
                      auth_attrs: tuple[Attribute, ...] = ()) -> ContentInfo:
    """HMAC tag over the content, or over the attribute set when present
    (augmented with contentType and messageDigest, like signed-data)."""
    encap_v, attrs_set, message = _covered(inner, auth_attrs)
    body = asn1.sequence(
        asn1.integer(0),
        AlgorithmIdentifier(oids.HMAC_WITH_SHA256).to_der_value(),
        encap_v,
        *attrs_set,
        asn1.octet_string(hmac_digest(key, message)),
    )
    return ContentInfo(oids.CT_AUTHENTICATED_DATA, body)


def _parse_auth(ci: ContentInfo) -> tuple[DerValue, DerValue, DerValue, DerValue | None,
                                          DerValue]:
    """(version, MAC algorithm, encapsulated content, [0] attributes or None,
    MAC) of an authenticated-data as authenticate_data writes it."""
    _expect_type(ci, oids.CT_AUTHENTICATED_DATA, "authenticated-data")
    kids = asn1._fields(ci.content, 4, 5)
    return kids[0], kids[1], kids[2], kids[3] if len(kids) == 5 else None, kids[-1]


def check_auth(ci: ContentInfo, key: bytes) -> bool:
    version_v, alg_v, encap_v, attrs_v, mac_v = _parse_auth(ci)
    if (version_v.as_integer() != 0
            or AlgorithmIdentifier.from_der_value(alg_v).oid != oids.HMAC_WITH_SHA256):
        return False
    try:
        message = _covered_as_received(ContentInfo.from_der_value(encap_v), attrs_v)
    except (asn1.DerError, IntegrityFailure):
        return False
    return ct_equal(hmac_digest(key, message), mac_v.as_octet_string())


def authenticated_content(ci: ContentInfo) -> ContentInfo:
    return ContentInfo.from_der_value(_parse_auth(ci)[2])


# ---------------------------------------------------------------------------
# toy certification (the return format a certification authority uses here)


def toy_issue(request: CertificationRequest, ca_key: RsaPrivateKey, ca_name: Name,
              serial: int, rng: RandomSource) -> ContentInfo:
    """Turn a verified request into a stand-in certificate: a signed-data
    envelope over (subject, public key, serial, issuer)."""
    if not verify_csr(request):
        raise SignatureInvalid("request self-signature does not verify")
    payload = der_encode(asn1.sequence(
        request.info.subject.to_der_value(),
        encode_public_key_info(request.info.public_key),
        asn1.integer(serial),
        ca_name.to_der_value(),
    ))
    attrs = (attribute_make("sequenceNumber", serial),)
    return sign_data(make_data(payload), ca_key, SignerIdent(ca_name, b"ca"), attrs, rng)


def cert_fields(cert: ContentInfo) -> tuple[Name, RsaPublicKey, int, Name]:
    """Subject, subject key, serial, issuer of a toy certificate.  Callers
    must check the certificate with verify_signed before trusting these."""
    encap_v, *_ = _parse_signed(cert)
    inner = der_decode(data_payload(ContentInfo.from_der_value(encap_v)))
    subject_v, spki_v, serial_v, issuer_v = asn1._fields(inner, 4)
    return (Name.from_der_value(subject_v), decode_public_key_info(spki_v),
            serial_v.as_integer(), Name.from_der_value(issuer_v))
