"""Private-key containers and the attribute machinery shared by the other
container modules.

Two DER objects are produced here: PrivateKeyInfo (version, key algorithm,
key octets, optional attribute set) and EncryptedPrivateKeyInfo (PBES2
header from ``pkcs5``, ciphertext).  ``pkcs1`` writes and reads the key
algorithm and the RSA key body inside PrivateKeyInfo.  The algorithm is
always rsaEncryption, so a PrivateKeyInfo holds only its key and attributes,
and a received one with absent parameters equals its built twin.  Both are
DerForms, like Attribute, and report every fault they read as MalformedKey.

The attribute registry holds exactly the ten types the other standards pull
in: contentType, messageDigest, signingTime, sequenceNumber, randomNonce,
counterSignature, challengePassword, extensionRequest, friendlyName, and
localKeyId, each a plain row of its OID, native Python type, builder and
syntax.  naturalPerson/pkcsEntity groupings are plain attribute bundles
with no directory-schema machinery behind them.

The [0] IMPLICIT SET OF Attribute that PKCS #8, #10 and CMS carry is written,
read and checked here alone: the writer re-tags a built SET's children, the
reader checks the tag, then the order, then each Attribute, and gives each as
an Attribute or, to verification, in place as a (type, values) pair.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from . import asn1, oids, pkcs1
from .asn1 import AlgorithmIdentifier, DerForm, DerValue, Oid, der_decode, der_encode
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


class Attribute(DerForm, Frozen):
    """attrType plus a set of values, held in canonical (encoded) order.  Its
    kept value makes sorting attributes by their DER build and encode nothing
    again."""

    _fields = ("attr_type", "values")

    def __init__(self, attr_type: Oid, values: tuple[DerValue, ...]):
        ordered = asn1.set_order(values)
        if not ordered:
            raise asn1.NonCanonical("attribute needs at least one value")
        self.__dict__.update(attr_type=attr_type, values=ordered)

    def _build(self) -> DerValue:
        return asn1.sequence(asn1.oid_value(self.attr_type), asn1.set_value(*self.values))

    @classmethod
    def _parse(cls, value: DerValue) -> "Attribute":
        return cls(*_attribute_pair(value))


def _attribute_pair(value: DerValue) -> tuple[Oid, tuple[DerValue, ...]]:
    """(type, values) of a received Attribute, read in place: NonCanonical
    unless a SEQUENCE of an OID and a SET of at least one value."""
    type_v, set_v = asn1._fields(value, 2)
    attr_type, values = type_v.as_oid(), asn1.require(set_v, asn1.SET).children
    if not values:
        raise asn1.NonCanonical("attribute needs at least one value")
    return attr_type, values


def _is_primitive(value: DerValue, tag: int) -> bool:
    return not value.constructed and value.is_universal(tag)


# The calendar after the year, shared by both time syntaxes and dateOfBirth:
# month 01-12, day 01-31, hour 00-23, minutes and seconds 00-59, then Z.
_TIME_TAIL = "(0[1-9]|1[0-2])(0[1-9]|[12][0-9]|3[01])([01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]Z"
_UTC_TIME = re.compile(f"([0-9]{{2}}){_TIME_TAIL}")
_GENERALIZED_TIME = re.compile(f"([0-9]{{4}}){_TIME_TAIL}")
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_time(syntax: re.Pattern, text: str) -> bool:
    """Whether ``text`` is a time of ``syntax`` on a day its month has, leap
    years counted: signingTime, built and received, and dateOfBirth are all
    checked here.  A UTCTime year 50-99 is 19xx and 00-49 20xx (RFC 5280
    §4.1.2.5.1); that span's one century year, 2000, is a leap year, so its
    two digits alone give the same leap years."""
    match = syntax.fullmatch(text)
    if match is None:
        return False
    year, month, day = map(int, match.group(1, 2, 3))
    leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return day <= _MONTH_DAYS[month - 1] + leap


def _check_time(value: DerValue) -> bool:
    if _is_primitive(value, asn1.UTC_TIME):
        return _is_time(_UTC_TIME, value.octets.decode("latin-1"))
    if _is_primitive(value, asn1.GENERALIZED_TIME):
        return _is_time(_GENERALIZED_TIME, value.octets.decode("latin-1"))
    return False


def _check_directory_string(value: DerValue) -> bool:
    return (_is_primitive(value, asn1.PRINTABLE_STRING)
            or _is_primitive(value, asn1.UTF8_STRING)) and len(value.octets) > 0


def _make_time(text: str) -> DerValue:
    if re.fullmatch(r"[0-9]{12}Z", text):
        return asn1.utc_time(text)
    if re.fullmatch(r"[0-9]{14}Z", text):
        return asn1.generalized_time(text)
    raise SyntaxViolation("time must look like YYMMDDHHMMSSZ or YYYYMMDDHHMMSSZ")


def _make_directory_string(value: str) -> DerValue:
    if asn1._PRINTABLE_RE.match(value):
        return asn1.printable_string(value)
    return asn1.utf8_string(value)


_OCTETS = (bytes, bytearray, memoryview)
# name: (type, the Python type a native value must have or None when only a
# built DerValue fits, the builder of a native value, the syntax every value
# must match)
ATTRIBUTE_REGISTRY: dict[str, tuple] = {
    "contentType": (oids.AT_CONTENT_TYPE, (Oid, str), asn1.oid_value,
                    lambda v: _is_primitive(v, asn1.OBJECT_IDENTIFIER)),
    "messageDigest": (oids.AT_MESSAGE_DIGEST, _OCTETS, asn1.octet_string,
                      lambda v: _is_primitive(v, asn1.OCTET_STRING)),
    "signingTime": (oids.AT_SIGNING_TIME, str, _make_time, _check_time),
    "sequenceNumber": (oids.AT_SEQUENCE_NUMBER, int, asn1.integer,
                       lambda v: _is_primitive(v, asn1.INTEGER) and v.as_integer() >= 1),
    "randomNonce": (oids.AT_RANDOM_NONCE, _OCTETS, asn1.octet_string,
                    lambda v: _is_primitive(v, asn1.OCTET_STRING) and len(v.octets) >= 4),
    "counterSignature": (oids.AT_COUNTER_SIGNATURE, None, None,
                         lambda v: v.constructed and v.is_universal(asn1.SEQUENCE)),
    "challengePassword": (oids.AT_CHALLENGE_PASSWORD, str, _make_directory_string,
                          _check_directory_string),
    "extensionRequest": (oids.AT_EXTENSION_REQUEST, None, None,
                         lambda v: v.constructed and v.is_universal(asn1.SEQUENCE)),
    "friendlyName": (oids.AT_FRIENDLY_NAME, str, asn1.utf8_string,
                     lambda v: _is_primitive(v, asn1.UTF8_STRING) and len(v.octets) > 0),
    "localKeyId": (oids.AT_LOCAL_KEY_ID, _OCTETS, asn1.octet_string,
                   lambda v: _is_primitive(v, asn1.OCTET_STRING)),
}
_SYNTAX_BY_OID = {oid: syntax for oid, _, _, syntax in ATTRIBUTE_REGISTRY.values()}


def attribute_make(type_name: str, value) -> Attribute:
    """Build a registered attribute from a built DerValue, or from a native
    value of the type's own Python type (no bool)."""
    row = ATTRIBUTE_REGISTRY.get(type_name)
    if row is None:
        raise UnknownAttributeType(type_name)
    oid, kind, make, syntax = row
    if isinstance(value, DerValue):
        der_value = value
    elif kind is None:
        raise SyntaxViolation("expected an already-built value")
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise SyntaxViolation(f"a {type(value).__name__} value does not fit this attribute")
    else:
        der_value = make(value)
    if not syntax(der_value):
        raise SyntaxViolation(f"value does not match the {type_name} syntax")
    return Attribute(oid, (der_value,))


def attribute_check(attribute: Attribute) -> bool:
    """Total check: True iff the type is registered and every value conforms."""
    return _values_check(attribute.attr_type, attribute.values)


def _values_check(attr_type: Oid, values: tuple[DerValue, ...]) -> bool:
    """attribute_check over a (type, values) pair, as a received set is read."""
    syntax = _SYNTAX_BY_OID.get(attr_type)
    return syntax is not None and all(map(syntax, values))


def _attributes_to_der(attributes: tuple[Attribute, ...]) -> DerValue:
    """[0] IMPLICIT SET OF Attribute: the SET constructor's order, re-tagged."""
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

# name: (type, value builder, the check a value must pass or None).  The
# checks are the syntaxes of RFC 2985 §5.2 and RFC 3739 §3.2: a two-letter
# country code, gender M, F, m or f, dateOfBirth as a GeneralizedTime
# YYYYMMDDHHMMSSZ, and any other text non-empty, as its SIZE (1..ub) bound
# asks.  A pkcsEntity value is a built DerValue, carried as it is.
_is_country = re.compile("[A-Za-z]{2}").fullmatch
_NATURAL_PERSON_FIELDS: dict[str, tuple] = {
    "email_address": (oids.AT_EMAIL_ADDRESS, asn1.ia5_string, bool),
    "country_of_citizenship": (oids.AT_COUNTRY_OF_CITIZENSHIP, asn1.printable_string, _is_country),
    "country_of_residence": (oids.AT_COUNTRY_OF_RESIDENCE, asn1.printable_string, _is_country),
    "pseudonym": (oids.AT_PSEUDONYM, asn1.utf8_string, bool),
    "place_of_birth": (oids.AT_PLACE_OF_BIRTH, asn1.utf8_string, bool),
    "serial_number": (oids.AT_SERIAL_NUMBER, asn1.printable_string, bool),
    "unstructured_address": (oids.AT_UNSTRUCTURED_ADDRESS, asn1.utf8_string, bool),
    "unstructured_name": (oids.AT_UNSTRUCTURED_NAME, asn1.utf8_string, bool),
    "gender": (oids.AT_GENDER, asn1.printable_string, re.compile("[MFmf]").fullmatch),
    "date_of_birth": (oids.AT_DATE_OF_BIRTH, asn1.generalized_time,
                      lambda text: _is_time(_GENERALIZED_TIME, text)),
}

_PKCS_ENTITY_FIELDS = {name: (oid, lambda value: value, None) for name, oid in {
    "pkcs7_pdu": oids.AT_PKCS7_PDU,
    "user_pkcs12": oids.AT_USER_PKCS12,
    "pkcs15_token": oids.AT_PKCS15_TOKEN,
    "encrypted_private_key_info": oids.AT_ENCRYPTED_PRIVATE_KEY_INFO,
}.items()}


def _bundle(table: dict[str, tuple], kind: type, fields: dict) -> tuple[Attribute, ...]:
    """One attribute per field of ``table``; SyntaxViolation for a value not
    of ``kind`` or that fails its field's check."""
    out = []
    for name, value in fields.items():
        if name not in table:
            raise UnknownAttributeType(name)
        oid, make, check = table[name]
        if not isinstance(value, kind) or check and not check(value):
            raise SyntaxViolation(f"{name} does not match its syntax")
        out.append(Attribute(oid, (make(value),)))
    return tuple(out)


def natural_person_bundle(**fields: str) -> tuple[Attribute, ...]:
    """Personal attributes as a flat bundle, one attribute per supplied field;
    SyntaxViolation for a value that is not text or is outside its field's syntax."""
    return _bundle(_NATURAL_PERSON_FIELDS, str, fields)


def pkcs_entity_bundle(**fields: DerValue) -> tuple[Attribute, ...]:
    """PKCS-document attributes (CMS PDU, PFX, wrapped key) as a flat bundle;
    SyntaxViolation for a value that is not a built DerValue."""
    return _bundle(_PKCS_ENTITY_FIELDS, DerValue, fields)


# ---------------------------------------------------------------------------
# PrivateKeyInfo


class PrivateKeyInfo(DerForm, Frozen):
    _fields = ("key", "attributes")

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
        with _as_malformed_key():
            kids = asn1.require(value, asn1.SEQUENCE).children
            if len(kids) not in (3, 4) or kids[0].as_integer() != 0:
                raise MalformedKey("unrecognized PrivateKeyInfo shape")
            pkcs1.rsa_key_algorithm(kids[1])
            key = pkcs1.key_from_body(der_decode(kids[2].as_octet_string()))
            attributes = _attributes_from_der(kids[3]) if len(kids) == 4 else ()
            return cls(key, attributes)

    @classmethod
    def from_der(cls, octets: bytes) -> "PrivateKeyInfo":
        with _as_malformed_key():
            return super().from_der(octets)


def encode_private_key(key: RsaPrivateKey) -> bytes:
    return PrivateKeyInfo(key).to_der()


def decode_private_key(octets: bytes) -> RsaPrivateKey:
    return PrivateKeyInfo.from_der(octets).key


# ---------------------------------------------------------------------------
# EncryptedPrivateKeyInfo


class EncryptedPrivateKeyInfo(DerForm, Frozen):
    _fields = ("algorithm", "encrypted_data")

    def __init__(self, algorithm: AlgorithmIdentifier, encrypted_data: bytes):
        self.__dict__.update(algorithm=algorithm, encrypted_data=encrypted_data)

    def _build(self) -> DerValue:
        return asn1.sequence(self.algorithm.to_der_value(), asn1.octet_string(self.encrypted_data))

    @classmethod
    def _parse(cls, value: DerValue) -> "EncryptedPrivateKeyInfo":
        with _as_malformed_key():
            alg_v, data_v = asn1._fields(value, 2)
            return cls(AlgorithmIdentifier.from_der_value(alg_v), data_v.as_octet_string())

    @classmethod
    def from_der(cls, octets: bytes) -> "EncryptedPrivateKeyInfo":
        with _as_malformed_key():
            return super().from_der(octets)


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
