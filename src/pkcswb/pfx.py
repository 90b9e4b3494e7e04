"""Personal information exchange: the PFX PDU and its four protection modes.

A PFX is (version, authSafe, optional macData) where authSafe is a
ContentInfo.  Bags are serialized into a SafeContents sequence, wrapped in an
AuthenticatedSafe (a sequence of per-mode ContentInfo elements), and guarded
by one privacy mode (password -> PBES2, public key -> enveloped-data to the
destination platform) and one integrity mode (password -> PBMAC1 over the
authSafe DER, public key -> signed-data by the source platform).  Opening a
PFX always verifies integrity before attempting any privacy decryption.  A
bag's attributes are keystore Attributes, checked against its registry as
they are built or received.

The MAC derivation here is PBKDF2/PBMAC1, not the key-derivation scheme
deployed PKCS#12 files use, so these files are written with a distinct
``.pfxw`` extension and make no interoperability claim.
"""

from __future__ import annotations

import warnings

from . import asn1, cms, oids
from .asn1 import DerForm, DerValue, der_decode, der_encode
from .cms import ContentInfo, SignerIdent
from .errors import (DecryptionError, Frozen, IntegrityFailure, MissingCredential,
                     UnsupportedAlgorithm, uniform_decryption)
from .keystore import Attribute, EncryptedPrivateKeyInfo, PrivateKeyInfo
from .pkcs5 import (DEFAULT_SALT_LEN, pbes2_decrypt, pbes2_encrypt, pbkdf2_fields, pbmac1_tag,
                    pbmac1_verify)
from .primitives import RandomSource
from .rsa import RsaPrivateKey, RsaPublicKey

__all__ = [
    "PfxSecurityWarning",
    "SafeBag",
    "MacData",
    "PfxPdu",
    "pfx_create",
    "pfx_open",
]

_MAC_ITERATIONS = 2048
_PRIVACY_ITERATIONS = 2048

# the class of a bag's value -> (its bag type, the bag's OID)
_BAGS = {
    PrivateKeyInfo: ("key", oids.KEY_BAG),
    EncryptedPrivateKeyInfo: ("shroudedKey", oids.SHROUDED_KEY_BAG),
    ContentInfo: ("cert", oids.CERT_BAG),
}
_BAG_CLASSES = {oid: cls for cls, (_, oid) in _BAGS.items()}


class PfxSecurityWarning(UserWarning):
    """Issued for permitted-but-unwise mode combinations."""


class SafeBag(DerForm, Frozen):
    """One item of personal identity information plus its attributes; the
    class of the value names the bag's type."""

    _fields = ("bag_type", "value", "attributes")

    def __init__(self, value: PrivateKeyInfo | EncryptedPrivateKeyInfo | ContentInfo,
                 attributes: tuple[Attribute, ...] = ()):
        if type(value) not in _BAGS:
            raise ValueError(f"no bag holds a {type(value).__name__}")
        self.__dict__.update(value=value,
                             attributes=asn1.set_order(attributes, Attribute.to_der_value))

    @property
    def bag_type(self) -> str:
        return _BAGS[type(self.value)][0]

    def _build(self) -> DerValue:
        children = [asn1.oid_value(_BAGS[type(self.value)][1]),
                    asn1.explicit(0, self.value.to_der_value())]
        if self.attributes:
            children.append(asn1.set_value(*(a.to_der_value() for a in self.attributes)))
        return asn1.sequence(*children)

    @classmethod
    def _parse(cls, value: DerValue) -> "SafeBag":
        kids = asn1._fields(value, 2, 3)
        bag_class = _BAG_CLASSES.get(kids[0].as_oid())
        if bag_class is None:  # crlBag, secretBag and safeContentsBag are not modelled
            raise UnsupportedAlgorithm(f"unsupported bag type {kids[0].as_oid()}")
        (inner,) = asn1._fields(kids[1], 1, tag_number=0, tag_class=asn1.TagClass.CONTEXT)
        bag_value = bag_class.from_der_value(inner)
        attributes = ()
        if len(kids) == 3:
            attrs_v = asn1.require(kids[2], asn1.SET)
            attributes = tuple(Attribute.from_der_value(c) for c in attrs_v.children)
        return cls(bag_value, attributes)


class MacData(DerForm, Frozen):
    _fields = ("tag", "salt", "iterations")

    def __init__(self, tag: bytes, salt: bytes, iterations: int):
        self.__dict__.update(tag=tag, salt=salt, iterations=iterations)

    def _build(self) -> DerValue:
        return asn1.sequence(asn1.octet_string(self.tag), asn1.octet_string(self.salt),
                             asn1.integer(self.iterations))

    @classmethod
    def _parse(cls, value: DerValue) -> "MacData":
        tag_v, salt_v, iter_v = asn1._fields(value, 3)
        return cls(tag_v.as_octet_string(), *pbkdf2_fields(salt_v, iter_v))


class PfxPdu(DerForm, Frozen):
    _fields = ("auth_safe", "mac_data")
    version = 3  # the one version written and read (RFC 7292 §4)

    def __init__(self, auth_safe: ContentInfo, mac_data: MacData | None = None):
        self.__dict__.update(auth_safe=auth_safe, mac_data=mac_data)

    def _build(self) -> DerValue:
        children = [asn1.integer(self.version), self.auth_safe.to_der_value()]
        if self.mac_data is not None:
            children.append(self.mac_data.to_der_value())
        return asn1.sequence(*children)

    @classmethod
    def _parse(cls, value: DerValue) -> "PfxPdu":
        kids = asn1._fields(value, 2, 3)
        if kids[0].as_integer() != cls.version:
            raise UnsupportedAlgorithm(f"unsupported PFX version, not {cls.version}")
        mac = MacData.from_der_value(kids[2]) if len(kids) == 3 else None
        return cls(ContentInfo.from_der_value(kids[1]), mac)


def _safe_contents_der(bags: tuple[SafeBag, ...]) -> bytes:
    return der_encode(asn1.sequence(*(bag.to_der_value() for bag in bags)))


def _safe_contents(octets: bytes) -> DerValue:
    return asn1.require(der_decode(octets), asn1.SEQUENCE)


def _privacy_wrap(contents: bytes, privacy, rng: RandomSource) -> ContentInfo:
    """The element guarding ``contents`` under a password or to the destination's public key."""
    if isinstance(privacy, RsaPublicKey):
        return cms.envelope(cms.make_data(contents), privacy, rng)
    salt = rng.read(DEFAULT_SALT_LEN)
    return cms._encrypted_data(oids.CT_DATA, *pbes2_encrypt(
        contents, privacy, salt, _PRIVACY_ITERATIONS, rng))


def _privacy_unwrap(element: ContentInfo, privacy) -> DerValue:
    if element.content_type == oids.CT_ENCRYPTED_DATA:
        if privacy is None or isinstance(privacy, RsaPrivateKey):
            raise MissingCredential("password privacy needs a privacy password")
        with uniform_decryption():
            declared, algorithm, ciphertext = cms._parse_encrypted_data(element)
            if declared != oids.CT_DATA:  # the SafeContents octets are id-data's
                raise DecryptionError()
            return pbes2_decrypt(algorithm, ciphertext, privacy, _safe_contents)
    if element.content_type == oids.CT_ENVELOPED_DATA:
        if not isinstance(privacy, RsaPrivateKey):
            raise MissingCredential("public-key privacy needs the destination private key")
        with uniform_decryption():
            return _safe_contents(cms.data_payload(cms.open_envelope(element, privacy)))
    raise UnsupportedAlgorithm(f"unsupported authenticated-safe element {element.content_type}")


def pfx_create(bags, privacy, integrity, rng: RandomSource) -> PfxPdu:
    """Pack bags under the modes the credentials name: privacy is a password or
    the destination's RsaPublicKey, integrity a password or the source's
    (RsaPrivateKey, Name); refusals come before any work."""
    if privacy is None:
        raise MissingCredential("privacy needs a privacy password or the destination public key")
    if integrity is None or (isinstance(integrity, tuple) and None in integrity):
        raise MissingCredential(
            "integrity needs an integrity password or the source signing key and source name")
    bags = tuple(bags)
    if not isinstance(privacy, RsaPublicKey) and any(bag.bag_type == "key" for bag in bags):
        warnings.warn(
            "transporting an unshrouded private key under password privacy; "
            "prefer a shroudedKeyBag or public-key privacy",
            PfxSecurityWarning, stacklevel=2)
    element = _privacy_wrap(_safe_contents_der(bags), privacy, rng)
    auth_safe = cms.make_data(der_encode(asn1.sequence(element.to_der_value())))
    if isinstance(integrity, tuple):
        sign_key, source_name = integrity
        ident = SignerIdent(source_name, b"pfx-source")
        return PfxPdu(cms.sign_data(auth_safe, sign_key, ident, (), rng), None)
    salt = rng.read(DEFAULT_SALT_LEN)
    tag = pbmac1_tag(auth_safe.to_der(), integrity, salt, _MAC_ITERATIONS)
    return PfxPdu(auth_safe, MacData(tag, salt, _MAC_ITERATIONS))


def pfx_open(pfx: PfxPdu, privacy, integrity) -> tuple[SafeBag, ...]:
    """Reverse of pfx_create, given a password or the destination's
    RsaPrivateKey and a password or the source's RsaPublicKey: verify
    integrity, then undo privacy protection, in the modes the file names."""
    if pfx.mac_data is not None:
        if integrity is None or isinstance(integrity, RsaPublicKey):
            raise MissingCredential("password integrity needs an integrity password")
        # every decoded container keeps its value: these are the octets received
        if not pbmac1_verify(pfx.auth_safe.to_der(), pfx.mac_data.tag, integrity,
                             pfx.mac_data.salt, pfx.mac_data.iterations):
            raise IntegrityFailure("PFX MAC does not verify")
        content = pfx.auth_safe
    elif pfx.auth_safe.content_type == oids.CT_SIGNED_DATA:
        if not isinstance(integrity, RsaPublicKey):
            raise MissingCredential("public-key integrity needs the source public key")
        # DigestMismatch and SignatureInvalid are IntegrityFailures
        content, _ = cms.verify_signed(pfx.auth_safe, integrity)
    else:
        raise IntegrityFailure("PFX carries no integrity protection")
    elements = asn1.require(der_decode(cms.data_payload(content)), asn1.SEQUENCE).children
    bags = ()
    for element_v in elements:  # each element carries its own SafeContents
        element = ContentInfo.from_der_value(element_v)
        bags += tuple(SafeBag.from_der_value(child)
                      for child in _privacy_unwrap(element, privacy).children)
    return bags
