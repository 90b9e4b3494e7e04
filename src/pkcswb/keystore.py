"""Private-key containers and the attribute machinery shared by the other
container modules.

Two DER objects are produced here: PrivateKeyInfo (version, key algorithm,
key octets, optional attribute set) and EncryptedPrivateKeyInfo (PBES2
header from ``pkcs5``, ciphertext).  ``pkcs1`` writes and reads the key
algorithm and the RSA key body inside PrivateKeyInfo.

The attribute registry holds exactly the ten types the other standards pull
in: contentType, messageDigest, signingTime, sequenceNumber, randomNonce,
counterSignature, challengePassword, extensionRequest, friendlyName, and
localKeyId.  naturalPerson/pkcsEntity groupings are plain attribute bundles
with no directory-schema machinery behind them.

The [0] IMPLICIT SET OF Attribute that PKCS #8, #10 and CMS carry is written,
read and checked here alone: the writer re-tags a built SET's children, the
reader checks the tag, then the order, then each Attribute.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from contextlib import contextmanager

from . import asn1, oids, pkcs1
from .asn1 import AlgorithmIdentifier, DerValue, Oid, der_decode, der_encode
from .errors import Frozen, MalformedKey, MissingCredential, PkcsError
from .pkcs5 import pbes2_decrypt, pbes2_encrypt
from .primitives import RandomSource
from .rsa import InvalidKey, RsaPrivateKey

__all__ = [
    "UnknownAttributeType",
    "SyntaxViolation",
    "Attribute",
    "attribute_make",
    "attribute_check",
    "ATTRIBUTE_REGISTRY",
    "PrivateKeyInfo",
    "EncryptedPrivateKeyInfo",
    "encode_private_key",
    "decode_private_key",
    "encrypt_private_key",
    "decrypt_private_key",
    "natural_person_bundle",
    "pkcs_entity_bundle",
]


class UnknownAttributeType(PkcsError, KeyError):
    pass


class SyntaxViolation(PkcsError, ValueError):
    pass


@contextmanager
def _as_malformed_key():
    """Report a DER failure or a refused key inside the block as MalformedKey."""
    try:
        yield
    except (asn1.DerError, InvalidKey) as exc:
        raise MalformedKey(str(exc)) from None


# ---------------------------------------------------------------------------
# attributes


class Attribute(Frozen):
    """attrType plus a set of values, held in canonical (encoded) order.

    Like a ContentInfo, a decoded Attribute keeps the value it was decoded
    from and a built one the value of its first ``to_der_value``, so sorting
    attributes by their DER builds and encodes nothing again.
    """

    _fields = ("attr_type", "values")
    _value: DerValue | None = None

    def __init__(self, attr_type: Oid, values: tuple[DerValue, ...]):
        ordered = asn1.set_order(values)
        if not ordered:
            raise asn1.NonCanonical("attribute needs at least one value")
        self.__dict__.update(attr_type=attr_type, values=ordered)

    def to_der_value(self) -> DerValue:
        if self._value is None:
            object.__setattr__(self, "_value", asn1.sequence(
                asn1.oid_value(self.attr_type), asn1.set_value(*self.values)))
        return self._value

    @classmethod
    def from_der_value(cls, value: DerValue) -> "Attribute":
        type_v, set_v = asn1._fields(value, 2)
        attribute = cls(type_v.as_oid(), asn1.require(set_v, asn1.SET).children)
        object.__setattr__(attribute, "_value", value)
        return attribute


def _is_primitive(value: DerValue, tag: int) -> bool:
    return not value.constructed and value.is_universal(tag)


def _check_time(value: DerValue) -> bool:
    if _is_primitive(value, asn1.UTC_TIME):
        return re.fullmatch(rb"\d{12}Z", value.octets) is not None
    if _is_primitive(value, asn1.GENERALIZED_TIME):
        return re.fullmatch(rb"\d{14}Z", value.octets) is not None
    return False


def _check_directory_string(value: DerValue) -> bool:
    return (_is_primitive(value, asn1.PRINTABLE_STRING)
            or _is_primitive(value, asn1.UTF8_STRING)) and len(value.octets) > 0


class AttributeSpec(Frozen):
    """A registered attribute type; equality leaves its two functions out."""

    _fields = ("name", "oid")
    _repr_fields = ("name", "oid", "syntax", "make")

    def __init__(self, name: str, oid: Oid, syntax: Callable[[DerValue], bool],
                 make: Callable[[object], DerValue] | None):
        # make builds the value from a Python-native one; None: only a built DerValue
        self.__dict__.update(name=name, oid=oid, syntax=syntax, make=make)


def _make_time(value) -> DerValue:
    text = str(value)
    if re.fullmatch(r"[0-9]{12}Z", text):
        return asn1.utc_time(text)
    if re.fullmatch(r"[0-9]{14}Z", text):
        return asn1.generalized_time(text)
    raise SyntaxViolation("time must look like YYMMDDHHMMSSZ or YYYYMMDDHHMMSSZ")


def _make_directory_string(value) -> DerValue:
    if asn1._PRINTABLE_RE.match(value):
        return asn1.printable_string(value)
    return asn1.utf8_string(value)


_SPECS = [
    AttributeSpec("contentType", oids.AT_CONTENT_TYPE,
                  lambda v: _is_primitive(v, asn1.OBJECT_IDENTIFIER), asn1.oid_value),
    AttributeSpec("messageDigest", oids.AT_MESSAGE_DIGEST,
                  lambda v: _is_primitive(v, asn1.OCTET_STRING), asn1.octet_string),
    AttributeSpec("signingTime", oids.AT_SIGNING_TIME, _check_time, _make_time),
    AttributeSpec("sequenceNumber", oids.AT_SEQUENCE_NUMBER,
                  lambda v: _is_primitive(v, asn1.INTEGER) and v.as_integer() >= 1,
                  lambda v: asn1.integer(int(v))),
    AttributeSpec("randomNonce", oids.AT_RANDOM_NONCE,
                  lambda v: _is_primitive(v, asn1.OCTET_STRING) and len(v.octets) >= 4,
                  asn1.octet_string),
    AttributeSpec("counterSignature", oids.AT_COUNTER_SIGNATURE,
                  lambda v: v.constructed and v.is_universal(asn1.SEQUENCE), None),
    AttributeSpec("challengePassword", oids.AT_CHALLENGE_PASSWORD,
                  _check_directory_string, _make_directory_string),
    AttributeSpec("extensionRequest", oids.AT_EXTENSION_REQUEST,
                  lambda v: v.constructed and v.is_universal(asn1.SEQUENCE), None),
    AttributeSpec("friendlyName", oids.AT_FRIENDLY_NAME,
                  lambda v: _is_primitive(v, asn1.UTF8_STRING) and len(v.octets) > 0,
                  asn1.utf8_string),
    AttributeSpec("localKeyId", oids.AT_LOCAL_KEY_ID,
                  lambda v: _is_primitive(v, asn1.OCTET_STRING), asn1.octet_string),
]

ATTRIBUTE_REGISTRY: dict[str, AttributeSpec] = {s.name: s for s in _SPECS}
_REGISTRY_BY_OID: dict[Oid, AttributeSpec] = {s.oid: s for s in _SPECS}


def attribute_make(type_name: str, value) -> Attribute:
    """Build a registered attribute from a Python-native or DerValue payload."""
    spec = ATTRIBUTE_REGISTRY.get(type_name)
    if spec is None:
        raise UnknownAttributeType(type_name)
    if isinstance(value, DerValue):
        der_value = value
    elif spec.make is None:
        raise SyntaxViolation("expected an already-built value")
    else:
        der_value = spec.make(value)
    if not spec.syntax(der_value):
        raise SyntaxViolation(f"value does not match the {type_name} syntax")
    return Attribute(spec.oid, (der_value,))


def attribute_check(attribute: Attribute) -> bool:
    """Total check: True iff the type is registered and every value conforms."""
    spec = _REGISTRY_BY_OID.get(attribute.attr_type)
    if spec is None:
        return False
    return all(spec.syntax(v) for v in attribute.values)


def _attributes_to_der(attributes: tuple[Attribute, ...]) -> DerValue:
    """[0] IMPLICIT SET OF Attribute: the SET constructor's order, re-tagged."""
    return asn1.context(0, asn1.set_value(*(a.to_der_value() for a in attributes)).children)


def _attributes_from_der(value: DerValue) -> tuple[Attribute, ...]:
    """The attributes of a received [0] IMPLICIT SET OF Attribute: its tag,
    then its order, then each Attribute (NonCanonical if one is wrong)."""
    children = asn1.require(value, 0, tag_class=asn1.TagClass.CONTEXT).children
    asn1._check_set_order(children, "attribute set")
    return tuple(Attribute.from_der_value(child) for child in children)


# ---------------------------------------------------------------------------
# attribute bundles (directory object classes, flattened)

_NATURAL_PERSON_FIELDS: dict[str, tuple[Oid, Callable[[str], DerValue]]] = {
    "email_address": (oids.AT_EMAIL_ADDRESS, asn1.ia5_string),
    "country_of_citizenship": (oids.AT_COUNTRY_OF_CITIZENSHIP, asn1.printable_string),
    "country_of_residence": (oids.AT_COUNTRY_OF_RESIDENCE, asn1.printable_string),
    "pseudonym": (oids.AT_PSEUDONYM, asn1.utf8_string),
    "place_of_birth": (oids.AT_PLACE_OF_BIRTH, asn1.utf8_string),
    "serial_number": (oids.AT_SERIAL_NUMBER, asn1.printable_string),
    "unstructured_address": (oids.AT_UNSTRUCTURED_ADDRESS, asn1.utf8_string),
    "unstructured_name": (oids.AT_UNSTRUCTURED_NAME, asn1.utf8_string),
    "gender": (oids.AT_GENDER, asn1.printable_string),
    "date_of_birth": (oids.AT_DATE_OF_BIRTH, asn1.generalized_time),
}

_PKCS_ENTITY_FIELDS: dict[str, Oid] = {
    "pkcs7_pdu": oids.AT_PKCS7_PDU,
    "user_pkcs12": oids.AT_USER_PKCS12,
    "pkcs15_token": oids.AT_PKCS15_TOKEN,
    "encrypted_private_key_info": oids.AT_ENCRYPTED_PRIVATE_KEY_INFO,
}


def natural_person_bundle(**fields: str) -> tuple[Attribute, ...]:
    """Personal attributes as a flat bundle, one attribute per supplied field."""
    out = []
    for name, value in fields.items():
        if name not in _NATURAL_PERSON_FIELDS:
            raise UnknownAttributeType(name)
        oid, make = _NATURAL_PERSON_FIELDS[name]
        out.append(Attribute(oid, (make(value),)))
    return tuple(out)


def pkcs_entity_bundle(**fields: DerValue) -> tuple[Attribute, ...]:
    """PKCS-document attributes (CMS PDU, PFX, wrapped key) as a flat bundle."""
    out = []
    for name, value in fields.items():
        if name not in _PKCS_ENTITY_FIELDS:
            raise UnknownAttributeType(name)
        out.append(Attribute(_PKCS_ENTITY_FIELDS[name], (value,)))
    return tuple(out)


# ---------------------------------------------------------------------------
# PrivateKeyInfo


class PrivateKeyInfo(Frozen):
    _fields = ("key", "attributes", "algorithm")

    def __init__(self, key: RsaPrivateKey, attributes: tuple[Attribute, ...] = (),
                 algorithm: AlgorithmIdentifier = pkcs1.RSA_KEY_ALGORITHM):
        self.__dict__.update(key=key,
                             attributes=asn1.set_order(attributes, Attribute.to_der_value),
                             algorithm=algorithm)

    def to_der_value(self) -> DerValue:
        children = [
            asn1.integer(0),
            self.algorithm.to_der_value(),
            asn1.octet_string(der_encode(pkcs1.key_body(self.key))),
        ]
        if self.attributes:
            children.append(_attributes_to_der(self.attributes))
        return asn1.sequence(*children)

    def to_der(self) -> bytes:
        return der_encode(self.to_der_value())

    @classmethod
    def from_der_value(cls, value: DerValue) -> "PrivateKeyInfo":
        with _as_malformed_key():
            kids = asn1.require(value, asn1.SEQUENCE).children
            if len(kids) not in (3, 4) or kids[0].as_integer() != 0:
                raise MalformedKey("unrecognized PrivateKeyInfo shape")
            algorithm = pkcs1.rsa_key_algorithm(kids[1])
            key = pkcs1.key_from_body(der_decode(kids[2].as_octet_string()))
            attributes = _attributes_from_der(kids[3]) if len(kids) == 4 else ()
            return cls(key, attributes, algorithm)

    @classmethod
    def from_der(cls, octets: bytes) -> "PrivateKeyInfo":
        with _as_malformed_key():
            return cls.from_der_value(der_decode(octets))


def encode_private_key(key: RsaPrivateKey) -> bytes:
    return PrivateKeyInfo(key).to_der()


def decode_private_key(octets: bytes) -> RsaPrivateKey:
    return PrivateKeyInfo.from_der(octets).key


# ---------------------------------------------------------------------------
# EncryptedPrivateKeyInfo


class EncryptedPrivateKeyInfo(Frozen):
    _fields = ("algorithm", "encrypted_data")

    def __init__(self, algorithm: AlgorithmIdentifier, encrypted_data: bytes):
        self.__dict__.update(algorithm=algorithm, encrypted_data=encrypted_data)

    def to_der_value(self) -> DerValue:
        return asn1.sequence(self.algorithm.to_der_value(), asn1.octet_string(self.encrypted_data))

    def to_der(self) -> bytes:
        return der_encode(self.to_der_value())

    @classmethod
    def from_der_value(cls, value: DerValue) -> "EncryptedPrivateKeyInfo":
        with _as_malformed_key():
            alg_v, data_v = asn1._fields(value, 2)
            return cls(AlgorithmIdentifier.from_der_value(alg_v), data_v.as_octet_string())

    @classmethod
    def from_der(cls, octets: bytes) -> "EncryptedPrivateKeyInfo":
        with _as_malformed_key():
            return cls.from_der_value(der_decode(octets))


def encrypt_private_key(info: PrivateKeyInfo, password: bytes, salt: bytes,
                        iterations: int, rng: RandomSource) -> EncryptedPrivateKeyInfo:
    if not password:
        raise MissingCredential("password must be non-empty")
    return EncryptedPrivateKeyInfo(*pbes2_encrypt(info.to_der(), password, salt,
                                                  iterations, rng))


def decrypt_private_key(epki: EncryptedPrivateKeyInfo, password: bytes) -> PrivateKeyInfo:
    # a wrong password that slips past the padding check must look the same
    with _as_malformed_key():  # a DER fault in the PBES2 header
        return pbes2_decrypt(epki.algorithm, epki.encrypted_data, password,
                             PrivateKeyInfo.from_der)
