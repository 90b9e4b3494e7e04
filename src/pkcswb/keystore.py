"""Private-key containers and the attribute machinery shared by the other
container modules.

Two DER objects are produced here: PrivateKeyInfo (version, key algorithm,
key octets, optional attribute set) and EncryptedPrivateKeyInfo (PBES2
header from ``pkcs5``, ciphertext).  The RSA key body inside PrivateKeyInfo is
a SEQUENCE of version, n, e, d, followed by one (r_i, d_i, t_i) triple per
prime; the first prime carries the trivial coefficient t_1 = 1 so that all
primes share one shape, the one ``rsa.RsaPrivateKey`` derives, and the
triples map one to one.  Multiprime keys use body version 1, two-prime keys
version 0.  The reader builds the key from the body's e, d and primes, refuses
a body whose n, version or triples differ from those they derive, and keeps d
as received (OpenSSL may write it modulo phi(n)).

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

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from . import asn1, oids
from .asn1 import AlgorithmIdentifier, DerValue, Oid, der_decode, der_encode
from .errors import MalformedKey, MissingCredential, PkcsError, UnsupportedAlgorithm
from .pkcs5 import pbes2_decrypt, pbes2_encrypt
from .primitives import RandomSource
from .rsa import InvalidKey, RsaPrivateKey, check_key_caps

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


@dataclass(frozen=True)
class Attribute:
    """attrType plus a set of values, held in canonical (encoded) order.

    Like a ContentInfo, a decoded Attribute keeps the value it was decoded
    from and a built one the value of its first ``to_der_value``, so sorting
    attributes by their DER builds and encodes nothing again.
    """

    attr_type: Oid
    values: tuple[DerValue, ...]
    _value: DerValue | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = asn1.set_order(self.values)
        if not ordered:
            raise asn1.NonCanonical("attribute needs at least one value")
        object.__setattr__(self, "values", ordered)

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


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    oid: Oid
    syntax: Callable[[DerValue], bool] = field(compare=False)
    # builds the value from a Python-native one; None: only a built DerValue
    make: Callable[[object], DerValue] | None = field(compare=False)


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

_RSA_ALG = AlgorithmIdentifier(oids.RSA_ENCRYPTION, asn1.null())


def _key_body(key: RsaPrivateKey) -> DerValue:
    triples = [
        asn1.sequence(asn1.integer(r), asn1.integer(d_i), asn1.integer(t_i))
        for r, d_i, t_i in zip(key.primes, key.crt_exponents, key.crt_coefficients)
    ]
    return asn1.sequence(
        asn1.integer(key.version),
        asn1.integer(key.n),
        asn1.integer(key.e),
        asn1.integer(key.d),
        asn1.sequence(*triples),
    )


def _key_from_body(body: DerValue) -> RsaPrivateKey:
    version_v, n_v, e_v, d_v, triples_v = asn1._fields(body, 5)
    asn1.require(triples_v, asn1.SEQUENCE)
    n, e = n_v.as_integer(), e_v.as_integer()
    check_key_caps(n, e, len(triples_v.children))
    triples = [tuple(v.as_integer() for v in asn1._fields(triple, 3))
               for triple in triples_v.children]
    primes = [r for r, _, _ in triples]
    # a prime longer than n cannot divide it: refused before the product,
    # whose cost grows faster than the file, so the caps bound the work
    if any(r.bit_length() > n.bit_length() for r in primes) or math.prod(primes) != n:
        raise MalformedKey("modulus is not the product of the primes")
    key = RsaPrivateKey(e, d_v.as_integer(), primes)
    if version_v.as_integer() != key.version:
        raise MalformedKey("version must be 0 for two primes, 1 otherwise")
    if triples != list(zip(key.primes, key.crt_exponents, key.crt_coefficients)):
        raise MalformedKey("a CRT exponent or coefficient is not the one the primes give")
    return key


@dataclass(frozen=True)
class PrivateKeyInfo:
    key: RsaPrivateKey
    attributes: tuple[Attribute, ...] = ()
    algorithm: AlgorithmIdentifier = _RSA_ALG

    def __post_init__(self):
        object.__setattr__(self, "attributes",
                           asn1.set_order(self.attributes, Attribute.to_der_value))

    def to_der_value(self) -> DerValue:
        children = [
            asn1.integer(0),
            self.algorithm.to_der_value(),
            asn1.octet_string(der_encode(_key_body(self.key))),
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
            algorithm = AlgorithmIdentifier.from_der_value(kids[1])
            if algorithm.oid != oids.RSA_ENCRYPTION:
                raise UnsupportedAlgorithm(f"unsupported key algorithm {algorithm.oid}")
            if algorithm.params not in (None, _RSA_ALG.params):  # RFC 3279 §2.3.1
                raise MalformedKey("rsaEncryption parameters must be NULL")
            key = _key_from_body(der_decode(kids[2].as_octet_string()))
            attributes = _attributes_from_der(kids[3]) if len(kids) == 4 else ()
            return cls(key, attributes, algorithm)

    @classmethod
    def from_der(cls, octets: bytes) -> "PrivateKeyInfo":
        with _as_malformed_key():
            return cls.from_der_value(der_decode(octets))


def encode_private_key(key: RsaPrivateKey, attributes: tuple[Attribute, ...] = ()) -> bytes:
    return PrivateKeyInfo(key, attributes).to_der()


def decode_private_key(octets: bytes) -> RsaPrivateKey:
    return PrivateKeyInfo.from_der(octets).key


# ---------------------------------------------------------------------------
# EncryptedPrivateKeyInfo


@dataclass(frozen=True)
class EncryptedPrivateKeyInfo:
    algorithm: AlgorithmIdentifier
    encrypted_data: bytes

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
