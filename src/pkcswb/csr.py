"""Certification requests: build the info object, self-sign it, verify it.

A request is the DER of CertificationRequestInfo (version, subject name,
subject public key info, attributes) signed with the subject's own private
key under RSASSA-PSS, so verification needs nothing but the request itself.
``build_csr`` signs and ``verify_csr`` checks the DER of the value the info
object keeps, so a received request is verified over the octets received,
read where they lie.  ``pkcs1`` writes and reads the subject key info and the
signature identifier, and ``keystore``'s attribute registry the subject
name's components.  A request's ``fault`` is MalformedRequest: any fault read
but an unsupported algorithm.
"""

from __future__ import annotations

from . import asn1, pkcs1
from .asn1 import AlgorithmIdentifier, DerForm, DerValue
from .errors import Frozen, PkcsError
from .keystore import (ATTRIBUTE_REGISTRY, Attribute, UnknownAttributeType, _attribute_value,
                       _attributes_from_der, _attributes_to_der)
from .pkcs1 import pss_salt_len_for  # re-exported: the rule itself lives in pkcs1
from .primitives import RandomSource
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = [
    "MalformedRequest",
    "Name",
    "CertificationRequestInfo",
    "CertificationRequest",
    "build_csr",
    "verify_csr",
    "pss_salt_len_for",
]

# the registry names a subject may hold
_NAME_FIELDS = ("commonName", "organization", "country", "emailAddress")
_NAME_FIELDS_BY_OID = {ATTRIBUTE_REGISTRY[name][0]: name for name in _NAME_FIELDS}


class MalformedRequest(PkcsError, ValueError):
    pass


class Name(DerForm, Frozen):
    """Ordered distinguished-name pairs; commonName is mandatory.  Each value,
    text or the received DerValue ``_parse`` passes, is checked once, as it
    lies, by the constructor of keystore's Attribute; ``_build`` builds the
    kept text again and checks nothing."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[str, str | DerValue], ...]):
        checked = []
        for key, value in pairs:
            if key not in _NAME_FIELDS:
                raise UnknownAttributeType(key)
            oid, der_value = _attribute_value(key, value)
            Attribute(oid, (der_value,))  # the one check, as of any attribute
            checked.append((key, der_value.as_text()))
        if "commonName" not in (key for key, _ in checked):
            raise MalformedRequest("commonName is required")
        self.__dict__["pairs"] = tuple(checked)

    def get(self, field: str) -> str | None:
        return next((value for key, value in self.pairs if key == field), None)

    def _build(self) -> DerValue:
        return asn1.sequence(*(asn1.set_value(asn1.sequence(asn1.oid_value(oid), value))
                               for oid, value in (_attribute_value(*pair) for pair in self.pairs)))

    @classmethod
    def _parse(cls, value: DerValue) -> "Name":
        pairs = []
        for rdn in asn1.require(value, asn1.SEQUENCE).children:
            (pair,) = asn1._fields(rdn, 1, tag_number=asn1.SET)
            oid_v, text_v = asn1._fields(pair, 2)
            field = _NAME_FIELDS_BY_OID.get(oid_v.as_oid())
            if field is None:
                raise MalformedRequest(f"unsupported name component {oid_v.as_oid()}")
            pairs.append((field, text_v))
        return cls(tuple(pairs))


# ---------------------------------------------------------------------------
# request objects


class CertificationRequestInfo(DerForm, Frozen):
    """What a request signs: the DER of its kept value, as received or built."""

    _fields = ("subject", "public_key", "attributes")
    version = 0  # the one version written and read (RFC 2986 §4.1)

    def __init__(self, subject: Name, public_key: RsaPublicKey,
                 attributes: tuple[Attribute, ...] = ()):
        self.__dict__.update(subject=subject, public_key=public_key,
                             attributes=asn1.set_order(attributes, Attribute.to_der_value))

    def _build(self) -> DerValue:
        return asn1.sequence(
            asn1.integer(self.version),
            self.subject.to_der_value(),
            pkcs1.encode_public_key_info(self.public_key),
            _attributes_to_der(self.attributes),
        )

    def key_info_value(self) -> DerValue:
        """The subjectPKInfo field of the kept value: as received, or as built."""
        return asn1._fields(self.to_der_value(), 4)[2]

    @classmethod
    def _parse(cls, value: DerValue) -> "CertificationRequestInfo":
        version_v, subject_v, spki_v, attrs_v = asn1._fields(value, 4)
        if version_v.as_integer() != cls.version:
            raise MalformedRequest(f"unsupported request version, not {cls.version}")
        return cls(Name.from_der_value(subject_v), pkcs1.decode_public_key_info(spki_v),
                   _attributes_from_der(attrs_v))


class CertificationRequest(DerForm, Frozen):
    """Signed request: the signature covers the DER of ``info``."""

    _fields = ("info", "signature_algorithm", "signature")
    fault = MalformedRequest

    def __init__(self, info: CertificationRequestInfo, signature_algorithm: AlgorithmIdentifier,
                 signature: bytes):
        self.__dict__.update(info=info, signature_algorithm=signature_algorithm,
                             signature=signature)

    def _build(self) -> DerValue:
        return asn1.sequence(self.info.to_der_value(), self.signature_algorithm.to_der_value(),
                             asn1.bit_string(self.signature))

    @classmethod
    def _parse(cls, value: DerValue) -> "CertificationRequest":
        info_v, alg_v, sig_v = asn1._fields(value, 3)
        return cls(CertificationRequestInfo.from_der_value(info_v),
                   AlgorithmIdentifier.from_der_value(alg_v), sig_v.as_bit_string())


def build_csr(subject: Name, keypair: tuple[RsaPublicKey, RsaPrivateKey],
              attributes: tuple[Attribute, ...], rng: RandomSource) -> CertificationRequest:
    """Construct the info object, then self-sign its DER with the subject key."""
    public, private = keypair
    if public != private.public_key:
        raise ValueError("public key does not match the private key")
    info = CertificationRequestInfo(subject, public, tuple(attributes))
    signature = pkcs1.sign(info.to_der(), private, rng)
    return CertificationRequest(info, pkcs1.PSS_ALGORITHM, signature)


def verify_csr(csr: CertificationRequest) -> bool:
    """Self-signature check under the public key embedded in the request;
    pkcs1 refuses a signature algorithm other than RSASSA-PSS."""
    pkcs1.check_signature_algorithm(csr.signature_algorithm.oid)
    return pkcs1.verify(asn1._encoding(csr.info.to_der_value()), csr.signature,
                        csr.info.public_key)
