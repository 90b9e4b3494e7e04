"""Private-key containers and the attribute machinery shared by the other
container modules.

Two DER objects are produced here: PrivateKeyInfo (version, key algorithm,
key octets, optional attribute set) and EncryptedPrivateKeyInfo (PBES2
header from ``pkcs5``, ciphertext).  ``pkcs1`` writes and reads the key
algorithm and the RSA key body inside PrivateKeyInfo.  The algorithm is
always rsaEncryption, so a PrivateKeyInfo holds only its key and attributes,
and a received one with absent parameters equals its built twin.  Both are
DerForms whose ``fault`` is MalformedKey: any fault read but an unsupported algorithm.

The attribute registry is the one table of attribute types, a plain row of
OID, native Python type, builder and syntax for each in ``oids``.  Its syntax
is read by ``_values_check`` alone, which the Attribute constructor runs, so
an attribute the registry refuses is neither built nor received;
``_attribute_value`` builds a value for ``attribute_make``, the
naturalPerson/pkcsEntity bundles and ``csr.Name``, and leaves its check to
them.  A text row reads text
through ``as_text`` alone, as asn1's rules decide what a string or time holds.
Each bundle is flat: its object class is a tuple of registry names.

The [0] IMPLICIT SET OF Attribute that PKCS #8, #10 and CMS carry is written
and read here alone: the writer re-tags a built SET's children, the reader
checks the tag, then the order, then each Attribute, and gives each as an
Attribute or, to verification, in place as a (type, values) pair.
"""

from __future__ import annotations

import re

from . import asn1, oids, pkcs1
from .asn1 import AlgorithmIdentifier, DerForm, DerValue, Oid, der_decode, der_encode
from .errors import BadParameter, Frozen, MalformedKey, MissingCredential, PkcsError
from .pkcs5 import pbes2_decrypt, pbes2_encrypt
from .primitives import RandomSource
from .rsa import RsaPrivateKey

__all__ = [
    "UnknownAttributeType",
    "SyntaxViolation",
    "Attribute",
    "attribute_make",
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


# ---------------------------------------------------------------------------
# attributes


class Attribute(DerForm, Frozen):
    """attrType plus a set of values in canonical (encoded) order, built or
    received only through ``_values_check``.  Its kept value makes sorting
    attributes by their DER build and encode nothing again."""

    _fields = ("attr_type", "values")

    def __init__(self, attr_type: Oid, values: tuple[DerValue, ...]):
        self.__dict__.update(attr_type=attr_type, values=asn1.set_order(values))
        _values_check(attr_type, self.values)

    def _build(self) -> DerValue:
        return asn1.sequence(asn1.oid_value(self.attr_type), asn1.set_value(*self.values))

    @classmethod
    def _parse(cls, value: DerValue) -> "Attribute":
        type_v, set_v = asn1._fields(value, 2)
        return cls(type_v.as_oid(), asn1.require(set_v, asn1.SET).children)


def _attribute_pair(value: DerValue) -> tuple[Oid, tuple[DerValue, ...]]:
    """(type, values) of a received Attribute, read in place and checked as the
    constructor checks one: NonCanonical unless a SEQUENCE of an OID and a SET."""
    type_v, set_v = asn1._fields(value, 2)
    attr_type, values = type_v.as_oid(), asn1.require(set_v, asn1.SET).children
    _values_check(attr_type, values)
    return attr_type, values


def _is_primitive(value: DerValue, tag: int) -> bool:
    return not value.constructed and value.is_universal(tag)


def _check_time(text: str) -> bool:
    """signingTime's text: RFC 5652 §11.3 writes 1950-2049 as a UTCTime."""
    return len(text) == 13 or not 1950 <= int(text[:4]) <= 2049


def _text(check, *tags: int):
    """The syntax of a text row: a primitive of one of ``tags`` whose text passes ``check``."""
    def syntax(value: DerValue) -> bool:
        return (value.tag_number in tags and not value.constructed
                and value.tag_class == asn1.TagClass.UNIVERSAL and check(value.as_text()))
    return syntax


def _sized(upper: int, *tags: int):
    """The syntax of a text row of SIZE (1..upper): 1 to ``upper`` characters."""
    return _text(lambda text: 0 < len(text) <= upper, *tags)


def _make_time(text: str) -> DerValue:
    """A UTCTime for YYMMDDHHMMSSZ's 13 characters, else a GeneralizedTime."""
    return asn1.utc_time(text) if len(text) == 13 else asn1.generalized_time(text)


def _make_directory_string(value: str) -> DerValue:
    try:
        return asn1.printable_string(value)
    except asn1.NonCanonical:
        return asn1.utf8_string(value)


def _is_sequence(value: DerValue) -> bool:
    return value.constructed and value.is_universal(asn1.SEQUENCE)


# Text is SIZE (1..ub) (RFC 2985 Appendix A, RFC 5280 Appendix A): 64 for a
# common or organization name and a serialNumber, 255 for an emailAddress and
# each pkcs9String row; a country is two letters, gender M, F, m or f (RFC 3739 §3.2).
_PRINTABLE, _UTF8, _IA5 = asn1.PRINTABLE_STRING, asn1.UTF8_STRING, asn1.IA5_STRING
_DIRECTORY_STRING = _text(bool, _PRINTABLE, _UTF8)
_COUNTRY = _text(re.compile("[A-Za-z]{2}").fullmatch, _PRINTABLE)
_OCTETS = (bytes, bytearray, memoryview)
# name: (type, the Python type a native value must have or None when only a
# built DerValue fits, the builder of a native value, the syntax every value
# must match): the types the other standards pull in, RFC 2985 §5.2's
# naturalPerson and pkcsEntity types, and the components of a subject name.
ATTRIBUTE_REGISTRY: dict[str, tuple] = {
    "contentType": (oids.AT_CONTENT_TYPE, (Oid, str), asn1.oid_value,
                    lambda v: _is_primitive(v, asn1.OBJECT_IDENTIFIER)),
    "messageDigest": (oids.AT_MESSAGE_DIGEST, _OCTETS, asn1.octet_string,
                      lambda v: _is_primitive(v, asn1.OCTET_STRING)),
    "signingTime": (oids.AT_SIGNING_TIME, str, _make_time,
                    _text(_check_time, asn1.UTC_TIME, asn1.GENERALIZED_TIME)),
    "sequenceNumber": (oids.AT_SEQUENCE_NUMBER, int, asn1.integer,
                       lambda v: _is_primitive(v, asn1.INTEGER) and v.as_integer() >= 1),
    "randomNonce": (oids.AT_RANDOM_NONCE, _OCTETS, asn1.octet_string,
                    lambda v: _is_primitive(v, asn1.OCTET_STRING) and len(v.octets) >= 4),
    "counterSignature": (oids.AT_COUNTER_SIGNATURE, None, None, _is_sequence),
    "challengePassword": (oids.AT_CHALLENGE_PASSWORD, str, _make_directory_string,
                          _sized(255, _PRINTABLE, _UTF8)),
    "extensionRequest": (oids.AT_EXTENSION_REQUEST, None, None, _is_sequence),
    "friendlyName": (oids.AT_FRIENDLY_NAME, str, asn1.utf8_string, _sized(255, _UTF8)),
    "localKeyId": (oids.AT_LOCAL_KEY_ID, _OCTETS, asn1.octet_string,
                   lambda v: _is_primitive(v, asn1.OCTET_STRING)),
    "emailAddress": (oids.AT_EMAIL_ADDRESS, str, asn1.ia5_string, _sized(255, _IA5)),
    "unstructuredName": (oids.AT_UNSTRUCTURED_NAME, str, asn1.utf8_string,
                         _sized(255, _PRINTABLE, _UTF8, _IA5)),
    "unstructuredAddress": (oids.AT_UNSTRUCTURED_ADDRESS, str, asn1.utf8_string,
                            _sized(255, _PRINTABLE, _UTF8)),
    "dateOfBirth": (oids.AT_DATE_OF_BIRTH, str, asn1.generalized_time,
                    _text(bool, asn1.GENERALIZED_TIME)),
    "placeOfBirth": (oids.AT_PLACE_OF_BIRTH, str, asn1.utf8_string, _DIRECTORY_STRING),
    "gender": (oids.AT_GENDER, str, asn1.printable_string,
               _text(re.compile("[MFmf]").fullmatch, _PRINTABLE)),
    "countryOfCitizenship": (oids.AT_COUNTRY_OF_CITIZENSHIP, str, asn1.printable_string,
                             _COUNTRY),
    "countryOfResidence": (oids.AT_COUNTRY_OF_RESIDENCE, str, asn1.printable_string, _COUNTRY),
    "pseudonym": (oids.AT_PSEUDONYM, str, asn1.utf8_string, _DIRECTORY_STRING),
    "serialNumber": (oids.AT_SERIAL_NUMBER, str, asn1.printable_string,
                     _sized(64, _PRINTABLE)),
    "pkcs7PDU": (oids.AT_PKCS7_PDU, None, None, _is_sequence),
    "userPKCS12": (oids.AT_USER_PKCS12, None, None, _is_sequence),
    "pkcs15Token": (oids.AT_PKCS15_TOKEN, None, None, _is_sequence),
    "encryptedPrivateKeyInfo": (oids.AT_ENCRYPTED_PRIVATE_KEY_INFO, None, None, _is_sequence),
    "commonName": (oids.CN, str, asn1.utf8_string, _sized(64, _PRINTABLE, _UTF8)),
    "organization": (oids.ORGANIZATION, str, asn1.utf8_string, _sized(64, _PRINTABLE, _UTF8)),
    "country": (oids.COUNTRY, str, asn1.printable_string, _COUNTRY),
}
_SYNTAX_BY_OID = {oid: (name, syntax) for name, (oid, _, _, syntax) in ATTRIBUTE_REGISTRY.items()}


def _values_check(attr_type: Oid, values: tuple[DerValue, ...]) -> None:
    """The one check of an attribute, built or received: NonCanonical for no value,
    SyntaxViolation for a type the registry lacks or a value outside its syntax."""
    if not values:
        raise asn1.NonCanonical("attribute needs at least one value")
    name, syntax = _SYNTAX_BY_OID.get(attr_type, (None, None))
    if syntax is None:
        raise SyntaxViolation(f"unregistered attribute type {attr_type}")
    if not all(map(syntax, values)):
        raise SyntaxViolation(f"value does not match the {name} syntax")


def _attribute_value(type_name: str, value) -> tuple[Oid, DerValue]:
    """The OID of a registered type and its value: a built DerValue as it
    lies, or a native value of the type's own Python type (no bool) built.
    SyntaxViolation for any other value, and for one its builder refuses;
    the caller checks the value against the type's syntax."""
    row = ATTRIBUTE_REGISTRY.get(type_name)
    if row is None:
        raise UnknownAttributeType(type_name)
    oid, kind, make, _ = row
    if isinstance(value, DerValue):
        der_value = value
    elif kind is None:
        raise SyntaxViolation(f"{type_name} expects an already-built value")
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise SyntaxViolation(f"a {type(value).__name__} value does not fit {type_name}")
    else:
        try:
            der_value = make(value)
        except (BadParameter, asn1.NonCanonical):
            der_value = None
    if der_value is None:
        raise SyntaxViolation(f"value does not match the {type_name} syntax")
    return oid, der_value


def attribute_make(type_name: str, value) -> Attribute:
    """A registered attribute of one value, built by ``_attribute_value`` and
    checked once, by the Attribute constructor."""
    oid, der_value = _attribute_value(type_name, value)
    return Attribute(oid, (der_value,))


def _attributes_to_der(attributes: tuple[Attribute, ...]) -> DerValue:
    """[0] IMPLICIT SET OF Attribute: the SET constructor's order, re-tagged.
    The one writer of such a set; each Attribute was checked as it was constructed."""
    return asn1.context(0, asn1.set_value(*(a.to_der_value() for a in attributes)).children)


def _attributes_from_der(value: DerValue, read=Attribute.from_der_value) -> tuple:
    """The attributes of a received [0] IMPLICIT SET OF Attribute: its tag,
    then its order, then each Attribute (NonCanonical if one is wrong), each
    given by ``read``.  The one reader of such a set: verification reads it in
    place, as ``_attribute_pair``'s (type, values) pairs."""
    children = asn1.require(value, 0, tag_class=asn1.TagClass.CONTEXT).children
    asn1._check_set_order(children, "attribute set")
    return tuple(map(read, children))


# ---------------------------------------------------------------------------
# attribute bundles (directory object classes, flattened)

# Each bundle's object class, RFC 2985 §5.2's naturalPerson and pkcsEntity:
# the registry names its fields may take.
_NATURAL_PERSON = ("emailAddress", "unstructuredName", "unstructuredAddress", "dateOfBirth",
                   "placeOfBirth", "gender", "countryOfCitizenship", "countryOfResidence",
                   "pseudonym", "serialNumber")
_PKCS_ENTITY = ("pkcs7PDU", "userPKCS12", "pkcs15Token", "encryptedPrivateKeyInfo")


def _bundle(object_class: tuple[str, ...], fields: dict) -> tuple[Attribute, ...]:
    """One attribute per field, each built by ``attribute_make``;
    UnknownAttributeType for a field outside ``object_class``."""
    unknown = sorted(fields.keys() - set(object_class))
    if unknown:
        raise UnknownAttributeType(unknown[0])
    return tuple(attribute_make(name, value) for name, value in fields.items())


def natural_person_bundle(**fields: str) -> tuple[Attribute, ...]:
    """Personal attributes as a flat bundle, one attribute per supplied field,
    each keyword a registry name (``emailAddress=``, ``dateOfBirth=``, ...)."""
    return _bundle(_NATURAL_PERSON, fields)


def pkcs_entity_bundle(**fields: DerValue) -> tuple[Attribute, ...]:
    """PKCS-document attributes (CMS PDU, PFX, token, wrapped key) as a flat
    bundle, each a built SEQUENCE under its registry name (``pkcs7PDU=``, ...)."""
    return _bundle(_PKCS_ENTITY, fields)


# ---------------------------------------------------------------------------
# PrivateKeyInfo


class PrivateKeyInfo(DerForm, Frozen):
    _fields = ("key", "attributes")
    fault = MalformedKey

    def __init__(self, key: RsaPrivateKey, attributes: tuple[Attribute, ...] = ()):
        self.__dict__.update(key=key,
                             attributes=asn1.set_order(attributes, Attribute.to_der_value))

    def _build(self) -> DerValue:
        children = [
            asn1.integer(0),
            pkcs1.RSA_KEY_ALGORITHM.to_der_value(),
            asn1.octet_string(der_encode(pkcs1.key_body(self.key))),
        ]
        if self.attributes:
            children.append(_attributes_to_der(self.attributes))
        return asn1.sequence(*children)

    @classmethod
    def _parse(cls, value: DerValue) -> "PrivateKeyInfo":
        kids = asn1.require(value, asn1.SEQUENCE).children
        if len(kids) not in (3, 4) or kids[0].as_integer() != 0:
            raise MalformedKey("unrecognized PrivateKeyInfo shape")
        pkcs1.rsa_key_algorithm(kids[1])
        key = pkcs1.key_from_body(der_decode(kids[2].as_octet_string()))
        attributes = _attributes_from_der(kids[3]) if len(kids) == 4 else ()
        return cls(key, attributes)


def encode_private_key(key: RsaPrivateKey) -> bytes:
    return PrivateKeyInfo(key).to_der()


def decode_private_key(octets: bytes) -> RsaPrivateKey:
    return PrivateKeyInfo.from_der(octets).key


# ---------------------------------------------------------------------------
# EncryptedPrivateKeyInfo


class EncryptedPrivateKeyInfo(DerForm, Frozen):
    _fields = ("algorithm", "encrypted_data")
    fault = MalformedKey

    def __init__(self, algorithm: AlgorithmIdentifier, encrypted_data: bytes):
        self.__dict__.update(algorithm=algorithm, encrypted_data=encrypted_data)

    def _build(self) -> DerValue:
        return asn1.sequence(self.algorithm.to_der_value(), asn1.octet_string(self.encrypted_data))

    @classmethod
    def _parse(cls, value: DerValue) -> "EncryptedPrivateKeyInfo":
        alg_v, data_v = asn1._fields(value, 2)
        return cls(AlgorithmIdentifier.from_der_value(alg_v), data_v.as_octet_string())


def encrypt_private_key(info: PrivateKeyInfo, password: bytes, salt: bytes,
                        iterations: int, rng: RandomSource) -> EncryptedPrivateKeyInfo:
    if not password:
        raise MissingCredential("password must be non-empty")
    return EncryptedPrivateKeyInfo(*pbes2_encrypt(info.to_der(), password, salt,
                                                  iterations, rng))


def decrypt_private_key(epki: EncryptedPrivateKeyInfo, password: bytes) -> PrivateKeyInfo:
    # a wrong password that slips past the padding check must look the same
    return pbes2_decrypt(epki.algorithm, epki.encrypted_data, password, PrivateKeyInfo.from_der)
