"""Personal information exchange: the PFX PDU and its four protection modes.

A PFX is (version, authSafe, optional macData) where authSafe is a
ContentInfo.  Bags are serialized into a SafeContents sequence, wrapped in an
AuthenticatedSafe (a sequence of per-mode ContentInfo elements), and guarded
by one privacy mode (password -> PBES2, public key -> enveloped-data to the
destination platform) and one integrity mode (password -> PBMAC1 over the
authSafe DER, public key -> signed-data by the source platform).

Opening a PFX always verifies integrity before attempting any privacy
decryption.

The MAC derivation here is PBKDF2/PBMAC1, not the key-derivation scheme
deployed PKCS#12 files use, so these files are written with a distinct
``.pfxw`` extension and make no interoperability claim.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from . import asn1, cms, oids
from .asn1 import DerValue, der_decode, der_encode
from .cms import ContentInfo, SignerIdent
from .csr import Name
from .errors import IntegrityFailure, MissingCredential, UnsupportedAlgorithm, uniform_decryption
from .keystore import Attribute, EncryptedPrivateKeyInfo, PrivateKeyInfo
from .pkcs5 import pbes2_decrypt, pbes2_encrypt, pbkdf2_fields, pbmac1_tag, pbmac1_verify
from .primitives import RandomSource
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = [
    "PfxSecurityWarning",
    "SafeBag",
    "MacData",
    "PfxPdu",
    "PfxCredentials",
    "pfx_create",
    "pfx_open",
    "PRIVACY_PASSWORD",
    "PRIVACY_PUBLIC_KEY",
    "INTEGRITY_PASSWORD",
    "INTEGRITY_PUBLIC_KEY",
]

PRIVACY_PASSWORD = "password"
PRIVACY_PUBLIC_KEY = "public_key"
INTEGRITY_PASSWORD = "password"
INTEGRITY_PUBLIC_KEY = "public_key"

_MAC_ITERATIONS = 2048
_PRIVACY_ITERATIONS = 2048
_SALT_LEN = 8

_BAG_OIDS = {
    "key": oids.KEY_BAG,
    "shroudedKey": oids.SHROUDED_KEY_BAG,
    "cert": oids.CERT_BAG,
}
_BAG_TYPES = {oid: name for name, oid in _BAG_OIDS.items()}
_BAG_CLASSES = {"key": PrivateKeyInfo, "shroudedKey": EncryptedPrivateKeyInfo,
                "cert": ContentInfo}


class PfxSecurityWarning(UserWarning):
    """Raised for permitted-but-unwise mode combinations."""


@dataclass(frozen=True)
class SafeBag:
    """One item of personal identity information plus its attributes."""

    bag_type: str
    value: PrivateKeyInfo | EncryptedPrivateKeyInfo | ContentInfo
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self):
        if self.bag_type not in _BAG_OIDS:
            raise ValueError(f"unknown bag type {self.bag_type!r}")
        expected = _BAG_CLASSES[self.bag_type]
        if not isinstance(self.value, expected):
            raise ValueError(f"{self.bag_type} bag must hold {expected.__name__}")
        object.__setattr__(self, "attributes",
                           asn1.set_order(self.attributes, Attribute.to_der_value))

    def to_der_value(self) -> DerValue:
        children = [asn1.oid_value(_BAG_OIDS[self.bag_type]),
                    asn1.explicit(0, self.value.to_der_value())]
        if self.attributes:
            children.append(asn1.set_value(*(a.to_der_value() for a in self.attributes)))
        return asn1.sequence(*children)

    @classmethod
    def from_der_value(cls, value: DerValue) -> "SafeBag":
        kids = asn1._fields(value, 2, 3)
        bag_type = _BAG_TYPES.get(kids[0].as_oid())
        if bag_type is None:  # crlBag, secretBag and safeContentsBag are not modelled
            raise UnsupportedAlgorithm(f"unsupported bag type {kids[0].as_oid()}")
        (inner,) = asn1._fields(kids[1], 1, tag_number=0, tag_class=asn1.TagClass.CONTEXT)
        bag_value = _BAG_CLASSES[bag_type].from_der_value(inner)
        attributes = ()
        if len(kids) == 3:
            attrs_v = asn1.require(kids[2], asn1.SET)
            attributes = tuple(Attribute.from_der_value(c) for c in attrs_v.children)
        return cls(bag_type, bag_value, attributes)


@dataclass(frozen=True)
class MacData:
    tag: bytes
    salt: bytes
    iterations: int

    def to_der_value(self) -> DerValue:
        return asn1.sequence(asn1.octet_string(self.tag), asn1.octet_string(self.salt),
                             asn1.integer(self.iterations))

    @classmethod
    def from_der_value(cls, value: DerValue) -> "MacData":
        tag_v, salt_v, iter_v = asn1._fields(value, 3)
        return cls(tag_v.as_octet_string(), *pbkdf2_fields(salt_v, iter_v))


@dataclass(frozen=True)
class PfxPdu:
    auth_safe: ContentInfo
    mac_data: MacData | None = None
    version = 3  # the one version written and read (RFC 7292 §4)

    def to_der(self) -> bytes:
        children = [asn1.integer(self.version), self.auth_safe.to_der_value()]
        if self.mac_data is not None:
            children.append(self.mac_data.to_der_value())
        return der_encode(asn1.sequence(*children))

    @classmethod
    def from_der(cls, octets: bytes) -> "PfxPdu":
        kids = asn1._fields(der_decode(octets), 2, 3)
        if kids[0].as_integer() != cls.version:
            raise UnsupportedAlgorithm(f"unsupported PFX version, not {cls.version}")
        mac = MacData.from_der_value(kids[2]) if len(kids) == 3 else None
        return cls(ContentInfo.from_der_value(kids[1]), mac)


@dataclass(frozen=True)
class PfxCredentials:
    """Whatever the chosen modes require; unused fields stay None.  The
    passwords and private keys are left out of the repr."""

    privacy_password: bytes | None = field(default=None, repr=False)
    integrity_password: bytes | None = field(default=None, repr=False)
    destination_pub: RsaPublicKey | None = None
    destination_priv: RsaPrivateKey | None = field(default=None, repr=False)
    source_sign_key: RsaPrivateKey | None = field(default=None, repr=False)
    source_verify_key: RsaPublicKey | None = None
    source_name: Name | None = None


def _safe_contents_der(bags: tuple[SafeBag, ...]) -> bytes:
    return der_encode(asn1.sequence(*(bag.to_der_value() for bag in bags)))


def _safe_contents(octets: bytes) -> DerValue:
    return asn1.require(der_decode(octets), asn1.SEQUENCE)


def _privacy_wrap(contents: bytes, privacy: str, credentials: PfxCredentials,
                  rng: RandomSource) -> ContentInfo:
    if privacy == PRIVACY_PASSWORD:
        if credentials.privacy_password is None:
            raise MissingCredential("password privacy needs a privacy password")
        salt = rng.read(_SALT_LEN)
        return cms._encrypted_data(oids.CT_DATA, *pbes2_encrypt(
            contents, credentials.privacy_password, salt, _PRIVACY_ITERATIONS, rng))
    if privacy == PRIVACY_PUBLIC_KEY:
        if credentials.destination_pub is None:
            raise MissingCredential("public-key privacy needs the destination public key")
        return cms.envelope(cms.make_data(contents), credentials.destination_pub, rng)
    raise ValueError(f"unknown privacy mode {privacy!r}")


def _privacy_unwrap(element: ContentInfo, credentials: PfxCredentials) -> DerValue:
    if element.content_type == oids.CT_ENCRYPTED_DATA:
        if credentials.privacy_password is None:
            raise MissingCredential("password privacy needs a privacy password")
    elif element.content_type == oids.CT_ENVELOPED_DATA:
        if credentials.destination_priv is None:
            raise MissingCredential("public-key privacy needs the destination private key")
    else:
        raise UnsupportedAlgorithm(f"unsupported authenticated-safe element {element.content_type}")
    with uniform_decryption():
        if element.content_type == oids.CT_ENCRYPTED_DATA:
            return pbes2_decrypt(*cms._parse_encrypted_data(element),
                                 credentials.privacy_password, _safe_contents)
        return _safe_contents(cms.data_payload(
            cms.open_envelope(element, credentials.destination_priv)))


def pfx_create(bags, privacy: str, integrity: str, credentials: PfxCredentials,
               rng: RandomSource, *, allow_plain_keys: bool = False) -> PfxPdu:
    """Pack bags under one of the four privacy x integrity combinations."""
    bags = tuple(bags)
    if (privacy == PRIVACY_PASSWORD and not allow_plain_keys
            and any(bag.bag_type == "key" for bag in bags)):
        warnings.warn(
            "transporting an unshrouded private key under password privacy; "
            "prefer a shroudedKeyBag or public-key privacy",
            PfxSecurityWarning, stacklevel=2)
    element = _privacy_wrap(_safe_contents_der(bags), privacy, credentials, rng)
    authenticated_safe = der_encode(asn1.sequence(element.to_der_value()))
    auth_safe = cms.make_data(authenticated_safe)
    if integrity == INTEGRITY_PASSWORD:
        if credentials.integrity_password is None:
            raise MissingCredential("password integrity needs an integrity password")
        salt = rng.read(_SALT_LEN)
        tag = pbmac1_tag(auth_safe.to_der(), credentials.integrity_password,
                         salt, _MAC_ITERATIONS)
        return PfxPdu(auth_safe, MacData(tag, salt, _MAC_ITERATIONS))
    if integrity == INTEGRITY_PUBLIC_KEY:
        if credentials.source_sign_key is None or credentials.source_name is None:
            raise MissingCredential("public-key integrity needs the source signing key and name")
        signed = cms.sign_data(auth_safe, credentials.source_sign_key,
                               SignerIdent(credentials.source_name, b"pfx-source"),
                               (), rng)
        return PfxPdu(signed, None)
    raise ValueError(f"unknown integrity mode {integrity!r}")


def pfx_open(pfx: PfxPdu, credentials: PfxCredentials) -> tuple[SafeBag, ...]:
    """Reverse of pfx_create: verify integrity, then undo privacy protection."""
    if pfx.mac_data is not None:
        if credentials.integrity_password is None:
            raise MissingCredential("password integrity needs an integrity password")
        # a decoded ContentInfo keeps its value: these are the octets received
        if not pbmac1_verify(pfx.auth_safe.to_der(), pfx.mac_data.tag,
                             credentials.integrity_password, pfx.mac_data.salt,
                             pfx.mac_data.iterations):
            raise IntegrityFailure("PFX MAC does not verify")
        content = pfx.auth_safe
    elif pfx.auth_safe.content_type == oids.CT_SIGNED_DATA:
        if credentials.source_verify_key is None:
            raise MissingCredential("public-key integrity needs the source public key")
        # DigestMismatch and SignatureInvalid are IntegrityFailures
        content, _ = cms.verify_signed(pfx.auth_safe, credentials.source_verify_key)
    else:
        raise IntegrityFailure("PFX carries no integrity protection")
    elements = asn1.require(der_decode(cms.data_payload(content)), asn1.SEQUENCE).children
    bags = ()
    for element_v in elements:  # each element carries its own SafeContents
        element = ContentInfo.from_der_value(element_v)
        bags += tuple(SafeBag.from_der_value(child)
                      for child in _privacy_unwrap(element, credentials).children)
    return bags
