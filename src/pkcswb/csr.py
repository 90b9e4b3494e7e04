"""Certification requests: build the info object, self-sign it, verify it.

A request is the DER of CertificationRequestInfo (version, subject name,
subject public key info, attributes) signed with the subject's own private
key under RSASSA-PSS, so verification needs nothing but the request itself.
``build_csr`` signs and ``verify_csr`` checks the DER of the value the info
object keeps, so a received request is verified over the octets received.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import asn1, oids, pkcs1
from .asn1 import AlgorithmIdentifier, DerValue, der_decode, der_encode
from .errors import PkcsError
from .keystore import (Attribute, SyntaxViolation, attribute_check, _RSA_ALG,
                       _attributes_from_der, _attributes_to_der)
from .pkcs1 import pss_salt_len_for  # re-exported: the rule itself lives in pkcs1
from .primitives import RandomSource
from .rsa import InvalidKey, RsaPrivateKey, RsaPublicKey, check_key_caps

__all__ = [
    "MalformedRequest",
    "Name",
    "CertificationRequestInfo",
    "CertificationRequest",
    "build_csr",
    "verify_csr",
    "encode_public_key_info",
    "decode_public_key_info",
    "pss_salt_len_for",
]

_NAME_FIELDS = {
    "commonName": oids.CN,
    "organization": oids.ORGANIZATION,
    "country": oids.COUNTRY,
    "emailAddress": oids.AT_EMAIL_ADDRESS,
}
_NAME_FIELDS_BY_OID = {oid: name for name, oid in _NAME_FIELDS.items()}


class MalformedRequest(PkcsError, ValueError):
    pass


@dataclass(frozen=True)
class Name:
    """Ordered distinguished-name pairs; commonName is mandatory."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((k, v) for k, v in self.pairs))
        fields = [k for k, _ in self.pairs]
        unknown = set(fields) - set(_NAME_FIELDS)
        if unknown:
            raise ValueError(f"unsupported name fields: {sorted(unknown)}")
        if "commonName" not in fields:
            raise MalformedRequest("commonName is required")
        for key, value in self.pairs:
            if key == "country" and not (len(value) == 2 and value.isascii() and value.isalpha()):
                raise MalformedRequest("country must be a two-letter code")
            if key == "emailAddress" and not value.isascii():
                raise MalformedRequest("emailAddress must be ASCII")
            if not value:
                raise MalformedRequest(f"{key} must be non-empty")

    def get(self, field: str) -> str | None:
        for key, value in self.pairs:
            if key == field:
                return value
        return None

    def to_der_value(self) -> DerValue:
        rdns = []
        for key, value in self.pairs:
            if key == "country":
                encoded = asn1.printable_string(value)
            elif key == "emailAddress":
                encoded = asn1.ia5_string(value)
            else:
                encoded = asn1.utf8_string(value)
            pair = asn1.sequence(asn1.oid_value(_NAME_FIELDS[key]), encoded)
            rdns.append(asn1.set_value(pair))
        return asn1.sequence(*rdns)

    @classmethod
    def from_der_value(cls, value: DerValue) -> "Name":
        pairs = []
        for rdn in asn1.require(value, asn1.SEQUENCE).children:
            (pair,) = asn1._fields(rdn, 1, tag_number=asn1.SET)
            oid_v, text_v = asn1._fields(pair, 2)
            field = _NAME_FIELDS_BY_OID.get(oid_v.as_oid())
            if field is None:
                raise MalformedRequest(f"unsupported name component {oid_v.as_oid()}")
            pairs.append((field, text_v.as_text()))
        return cls(tuple(pairs))


# ---------------------------------------------------------------------------
# SubjectPublicKeyInfo


def encode_public_key_info(pk: RsaPublicKey) -> DerValue:
    key_der = der_encode(asn1.sequence(asn1.integer(pk.n), asn1.integer(pk.e)))
    return asn1.sequence(_RSA_ALG.to_der_value(), asn1.bit_string(key_der))


def decode_public_key_info(value: DerValue) -> RsaPublicKey:
    alg_v, key_v = asn1._fields(value, 2)
    algorithm = AlgorithmIdentifier.from_der_value(alg_v)
    if algorithm.oid != oids.RSA_ENCRYPTION:
        raise MalformedRequest(f"unsupported key algorithm {algorithm.oid}")
    if algorithm.params not in (None, _RSA_ALG.params):  # RFC 3279 §2.3.1
        raise MalformedRequest("rsaEncryption parameters must be NULL")
    n_v, e_v = asn1._fields(der_decode(key_v.as_bit_string()), 2)
    n, e = n_v.as_integer(), e_v.as_integer()
    try:
        check_key_caps(n, e)
        return RsaPublicKey(n, e)
    except InvalidKey as exc:  # KeyTooLarge, or n or e out of range
        raise MalformedRequest(str(exc)) from None


# ---------------------------------------------------------------------------
# request objects


@dataclass(frozen=True)
class CertificationRequestInfo:
    """What a request signs; like a ContentInfo, it keeps its decoded or first built value."""

    subject: Name
    public_key: RsaPublicKey
    attributes: tuple[Attribute, ...] = ()
    _value: DerValue | None = field(default=None, init=False, repr=False, compare=False)
    version = 0  # the one version written and read (RFC 2986 §4.1)

    def __post_init__(self):
        object.__setattr__(self, "attributes",
                           asn1.set_order(self.attributes, Attribute.to_der_value))

    def to_der_value(self) -> DerValue:
        if self._value is None:
            object.__setattr__(self, "_value", asn1.sequence(
                asn1.integer(self.version),
                self.subject.to_der_value(),
                encode_public_key_info(self.public_key),
                _attributes_to_der(self.attributes),
            ))
        return self._value

    @classmethod
    def from_der_value(cls, value: DerValue) -> "CertificationRequestInfo":
        version_v, subject_v, spki_v, attrs_v = asn1._fields(value, 4)
        if version_v.as_integer() != cls.version:
            raise MalformedRequest(f"unsupported request version, not {cls.version}")
        info = cls(Name.from_der_value(subject_v), decode_public_key_info(spki_v),
                   _attributes_from_der(attrs_v))
        object.__setattr__(info, "_value", value)
        return info


@dataclass(frozen=True)
class CertificationRequest:
    """Signed request: the signature covers the DER of ``info``'s kept value."""

    info: CertificationRequestInfo
    signature_algorithm: AlgorithmIdentifier
    signature: bytes

    def to_der(self) -> bytes:
        return der_encode(asn1.sequence(self.info.to_der_value(),
                                        self.signature_algorithm.to_der_value(),
                                        asn1.bit_string(self.signature)))

    @classmethod
    def from_der(cls, octets: bytes) -> "CertificationRequest":
        try:
            info_v, alg_v, sig_v = asn1._fields(der_decode(octets), 3)
            return cls(CertificationRequestInfo.from_der_value(info_v),
                       AlgorithmIdentifier.from_der_value(alg_v),
                       sig_v.as_bit_string())
        except asn1.DerError as exc:
            raise MalformedRequest(str(exc)) from None


def build_csr(subject: Name, keypair: tuple[RsaPublicKey, RsaPrivateKey],
              attributes: tuple[Attribute, ...], rng: RandomSource) -> CertificationRequest:
    """Construct the info object, then self-sign its DER with the subject key."""
    public, private = keypair
    if public != private.public_key:
        raise ValueError("public key does not match the private key")
    for attribute in attributes:
        if not attribute_check(attribute):
            raise SyntaxViolation(f"attribute {attribute.attr_type} fails its syntax check")
    info = CertificationRequestInfo(subject, public, tuple(attributes))
    signature = pkcs1.sign(der_encode(info.to_der_value()), private, rng)
    return CertificationRequest(info, AlgorithmIdentifier(oids.RSASSA_PSS), signature)


def verify_csr(csr: CertificationRequest) -> bool:
    """Self-signature check under the public key embedded in the request."""
    if csr.signature_algorithm.oid != oids.RSASSA_PSS:
        return False
    return pkcs1.verify(der_encode(csr.info.to_der_value()), csr.signature, csr.info.public_key)
