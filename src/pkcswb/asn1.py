"""DER encoder/decoder for the tag/length/value subset the container modules need.

Only definite lengths are produced or accepted (DER, the canonical subset of
BER).  Values are modeled as ``DerValue`` trees: primitive values carry raw
content octets, constructed values carry an ordered tuple of child values.
A value keeps its DER octets: a view of those it was decoded from, or its
first encoding.  Decoding nests at most ``MAX_DEPTH`` values deep.

DER's rules for single values live in one table, ``_RULES``, keyed by the
identifier octet of a universal tag: a form DER forbids (a constructed
INTEGER, a primitive SET, ...), or a check of a primitive's content octets
(INTEGER, BOOLEAN, NULL, BIT STRING, OBJECT IDENTIFIER).  The constructor
looks a built value's identifier up there, and so does the decoder, which
creates each value directly and runs only the rule its identifier has.
SET OF order (X.690 §11.6) on the wire is set only where a SET is built: the
constructor sorts its children (``set_order``), and an implicitly tagged SET
OF is written as the re-tagged children of a built SET.  It is checked where
a SET is received: ``_check_set_order`` compares the received encodings of
neighbouring children in one pass, for every decoded SET and for the
attribute sets that ``keystore`` reads.

Decoding does each piece of work once.  An OID encoding is parsed once: the
parse behind ``octets_to_oid`` has a bounded memo (512 encodings of at most
``_OID_MEMO_OCTETS`` octets), so the content rule, every ``as_oid`` and the
container parsers share one immutable ``Oid`` per encoding; a bad encoding
is not kept and raises on every call.  The decoder reads the common header,
a one-octet tag and a short-form length, inline; ``_decode_tag`` and
``_decode_length`` read, and check, every other form.

``AlgorithmIdentifier``, RFC 5280's (OID, optional parameters) pair, lives
here, below every layer that names an algorithm.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field

from .errors import BadParameter, PkcsError

__all__ = [
    "TagClass",
    "DerValue",
    "Oid",
    "AlgorithmIdentifier",
    "DerError",
    "OversizeTag",
    "NonCanonical",
    "Truncated",
    "TrailingOctets",
    "IndefiniteLength",
    "NonMinimalLength",
    "ArcOverflow",
    "TooDeep",
    "MAX_DEPTH",
    "der_encode",
    "der_decode",
    "oid_to_octets",
    "octets_to_oid",
    "text_octets",
]

# Universal tag numbers handled with typed constructors/accessors.  Anything
# else still round-trips as an opaque value.
BOOLEAN = 0x01
INTEGER = 0x02
BIT_STRING = 0x03
OCTET_STRING = 0x04
NULL = 0x05
OBJECT_IDENTIFIER = 0x06
UTF8_STRING = 0x0C
SEQUENCE = 0x10
SET = 0x11
PRINTABLE_STRING = 0x13
IA5_STRING = 0x16
UTC_TIME = 0x17
GENERALIZED_TIME = 0x18

# Largest tag number we encode/decode: three base-128 octets in high-tag form.
_MAX_TAG_NUMBER = 2**21 - 1

# Longest OID encoding the parse memo keeps; with its 512 entries this bounds
# the memo to under 1 MiB whatever the input.  Real OIDs take under 30 octets.
_OID_MEMO_OCTETS = 64

# Most values on one root-to-leaf path that the decoder accepts.  Each signed-,
# digested- or authenticated-data layer adds three levels, and the structures
# built here reach 13; 128 allows some 40 nested CMS layers and stays far
# below the interpreter's recursion limit (1000 by default).
MAX_DEPTH = 128

_STRING_TAGS = {UTF8_STRING, PRINTABLE_STRING, IA5_STRING, UTC_TIME, GENERALIZED_TIME}

# Universal tags that DER forbids in constructed form (and vice versa).
_ALWAYS_PRIMITIVE = {BOOLEAN, INTEGER, NULL, OBJECT_IDENTIFIER, OCTET_STRING,
                     BIT_STRING} | _STRING_TAGS
_ALWAYS_CONSTRUCTED = {SEQUENCE, SET}

_PRINTABLE_RE = re.compile(r"[A-Za-z0-9 '()+,\-./:=?]*\Z")


class DerError(PkcsError, ValueError):
    """Base class for DER encoding/decoding failures."""


class OversizeTag(DerError):
    """Tag number beyond the supported single/low-multi-octet range."""


class NonCanonical(DerError):
    """Value violates a DER canonical-form rule."""


class Truncated(DerError):
    """Input ended before the announced length was satisfied."""


class TrailingOctets(DerError):
    """Extra octets follow a complete top-level value."""


class IndefiniteLength(DerError):
    """BER indefinite length form; rejected, DER only."""


class NonMinimalLength(DerError):
    """Length uses more octets than necessary."""


class ArcOverflow(DerError):
    """OID arc not terminated (or absurdly large) in the encoded form."""


class TooDeep(DerError):
    """Values nested deeper than MAX_DEPTH."""


class TagClass(enum.IntEnum):
    UNIVERSAL = 0
    APPLICATION = 1
    CONTEXT = 2
    PRIVATE = 3


# The classes by number, and the two the checks test for: plain module lookups,
# cheaper per value than calling the enum or reading its attributes.
_TAG_CLASSES = tuple(TagClass)
_UNIVERSAL = TagClass.UNIVERSAL
_CONTEXT = TagClass.CONTEXT


@dataclass(frozen=True)
class Oid:
    """Object identifier as a tuple of non-negative integer arcs."""

    arcs: tuple[int, ...]

    def __post_init__(self):
        arcs = tuple(self.arcs)
        object.__setattr__(self, "arcs", arcs)
        if len(arcs) < 2:
            raise ValueError("OID needs at least two arcs")
        if any(a < 0 for a in arcs):
            raise ValueError("OID arcs must be non-negative")
        if arcs[0] > 2:
            raise ValueError("first OID arc must be 0, 1 or 2")
        if arcs[0] < 2 and arcs[1] > 39:
            raise ValueError("second OID arc must be <= 39 when first arc < 2")

    @classmethod
    def parse(cls, dotted: str) -> "Oid":
        return cls(tuple(int(part) for part in dotted.split(".")))

    def dotted(self) -> str:
        return ".".join(str(a) for a in self.arcs)

    def __str__(self) -> str:
        return self.dotted()


@dataclass(frozen=True, init=False)
class DerValue:
    """One ASN.1 value: primitive (octets) or constructed (children)."""

    tag_class: TagClass
    constructed: bool
    tag_number: int
    content: bytes | tuple["DerValue", ...]
    _der: bytes | memoryview | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, tag_class: TagClass, constructed: bool, tag_number: int,
                 content: bytes | tuple["DerValue", ...]):
        """A built value: its fields' types, the rule ``_RULES`` has for its
        identifier (the decoder's rules too), and SET children put in
        canonical order.  The fields are written to the instance dict once: the
        generated frozen ``__init__`` writes each through ``object.__setattr__``."""
        universal = tag_class == _UNIVERSAL
        if tag_number < 0:
            raise ValueError("negative tag number")
        if constructed:
            if isinstance(content, (bytes, bytearray)):
                raise ValueError("constructed value must carry child values")
        elif isinstance(content, (bytes, bytearray)):
            content = bytes(content)
        else:
            raise ValueError("primitive value must carry octets")
        if universal and tag_number < 0x1F:
            rule = _RULES.get(tag_number | 0x20 if constructed else tag_number)
            if rule is not None:
                rule(content)
        if constructed:
            content = tuple(content)
            if universal and tag_number == SET:
                # SETs are canonical by construction, so every round trip is
                # structure- and octet-exact
                content = set_order(content)
        fields = self.__dict__
        fields["tag_class"] = tag_class
        fields["constructed"] = constructed
        fields["tag_number"] = tag_number
        fields["content"] = content

    # -- shape helpers -------------------------------------------------

    def is_universal(self, tag_number: int) -> bool:
        return self.tag_number == tag_number and self.tag_class == _UNIVERSAL

    def is_context(self, tag_number: int) -> bool:
        return self.tag_number == tag_number and self.tag_class == _CONTEXT

    @property
    def children(self) -> tuple["DerValue", ...]:
        if not self.constructed:
            raise NonCanonical("primitive value has no children")
        return self.content

    @property
    def octets(self) -> bytes:
        if self.constructed:
            raise NonCanonical("constructed value has no content octets")
        return self.content

    # -- typed accessors -----------------------------------------------

    def as_integer(self) -> int:
        self._expect_primitive(INTEGER, "INTEGER")
        return int.from_bytes(self.octets, "big", signed=True)

    def as_boolean(self) -> bool:
        self._expect_primitive(BOOLEAN, "BOOLEAN")
        return self.octets != b"\x00"

    def as_octet_string(self) -> bytes:
        self._expect_primitive(OCTET_STRING, "OCTET STRING")
        return self.octets

    def as_oid(self) -> Oid:
        self._expect_primitive(OBJECT_IDENTIFIER, "OBJECT IDENTIFIER")
        return _parse_oid(self.content)

    def as_text(self) -> str:
        if self.constructed or self.tag_class != _UNIVERSAL \
                or self.tag_number not in _STRING_TAGS:
            raise NonCanonical("value is not a supported string type")
        try:
            return self.octets.decode("utf-8" if self.tag_number == UTF8_STRING else "ascii")
        except UnicodeDecodeError:
            raise NonCanonical("string octets are not valid for their type") from None

    def as_bit_string(self) -> bytes:
        """Content of a BIT STRING with no unused bits."""
        self._expect_primitive(BIT_STRING, "BIT STRING")
        if not self.octets or self.octets[0] != 0:
            raise NonCanonical("only BIT STRING values with zero unused bits are used here")
        return self.octets[1:]

    def _expect_primitive(self, tag_number: int, what: str) -> None:
        if self.constructed or self.tag_number != tag_number or self.tag_class != _UNIVERSAL:
            raise NonCanonical(f"value is not a primitive {what}")


# ---------------------------------------------------------------------------
# constructors


def integer(value: int) -> DerValue:
    magnitude = value if value >= 0 else value + 1
    length = magnitude.bit_length() // 8 + 1
    return DerValue(_UNIVERSAL, False, INTEGER,
                    value.to_bytes(length, "big", signed=True))


def boolean(value: bool) -> DerValue:
    return DerValue(_UNIVERSAL, False, BOOLEAN, b"\xff" if value else b"\x00")


def octet_string(data: bytes) -> DerValue:
    return DerValue(_UNIVERSAL, False, OCTET_STRING, bytes(data))


def null() -> DerValue:
    return DerValue(_UNIVERSAL, False, NULL, b"")


def oid_value(oid: Oid | str) -> DerValue:
    if isinstance(oid, str):
        oid = Oid.parse(oid)
    return DerValue(_UNIVERSAL, False, OBJECT_IDENTIFIER, oid_to_octets(oid))


def bit_string(data: bytes, unused_bits: int = 0) -> DerValue:
    if not 0 <= unused_bits <= 7:
        raise ValueError("unused bit count must be 0..7")
    return DerValue(_UNIVERSAL, False, BIT_STRING, bytes([unused_bits]) + bytes(data))


def text_octets(text: str, encoding: str = "utf-8") -> bytes:
    """``text`` in ``encoding``; text it cannot hold (a lone surrogate, say) is BadParameter."""
    try:
        return text.encode(encoding)
    except UnicodeEncodeError:
        raise BadParameter(f"text cannot be encoded as {encoding}") from None


def utf8_string(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, False, UTF8_STRING, text_octets(text))


def printable_string(text: str) -> DerValue:
    if not _PRINTABLE_RE.match(text):
        raise ValueError("text outside the PrintableString repertoire")
    return DerValue(_UNIVERSAL, False, PRINTABLE_STRING, text.encode("ascii"))


def ia5_string(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, False, IA5_STRING, text_octets(text, "ascii"))


def utc_time(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, False, UTC_TIME, text.encode("ascii"))


def generalized_time(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, False, GENERALIZED_TIME, text.encode("ascii"))


def sequence(*children: DerValue) -> DerValue:
    return DerValue(_UNIVERSAL, True, SEQUENCE, tuple(children))


def set_value(*children: DerValue) -> DerValue:
    """SET (OF); the constructor puts children into DER canonical order."""
    return DerValue(_UNIVERSAL, True, SET, tuple(children))


def context(tag_number: int, children_or_octets, constructed: bool = True) -> DerValue:
    return DerValue(_CONTEXT, constructed, tag_number, children_or_octets)


def explicit(tag_number: int, inner: DerValue) -> DerValue:
    """[tag] EXPLICIT wrapper: constructed context value with one child."""
    return DerValue(_CONTEXT, True, tag_number, (inner,))


# ---------------------------------------------------------------------------
# OID content encoding


def _encode_base128(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def oid_to_octets(oid: Oid) -> bytes:
    first = 40 * oid.arcs[0] + oid.arcs[1]
    body = _encode_base128(first)
    for arc in oid.arcs[2:]:
        body += _encode_base128(arc)
    return body


def octets_to_oid(octets: bytes) -> Oid:
    """The Oid of OID content octets (bytes-like); a bad encoding raises a DerError."""
    return _parse_oid(bytes(octets))


def _parse_oid(octets: bytes) -> Oid:
    """``octets_to_oid`` of bytes.  Encodings of up to ``_OID_MEMO_OCTETS``
    octets are parsed once and share one immutable Oid; errors are not kept."""
    if len(octets) <= _OID_MEMO_OCTETS:
        return _memo_oid(octets)
    return _memo_oid.__wrapped__(octets)


@functools.lru_cache(maxsize=512)
def _memo_oid(octets: bytes) -> Oid:
    if not octets:
        raise ArcOverflow("empty OID content")
    arcs: list[int] = []
    value = 0
    started = False
    for b in octets:
        if not started and b == 0x80:
            raise NonCanonical("OID arc with redundant leading octet")
        started = True
        value = (value << 7) | (b & 0x7F)
        if value > 2**63:
            raise ArcOverflow("OID arc too large")
        if not b & 0x80:
            arcs.append(value)
            value = 0
            started = False
    if started:
        raise ArcOverflow("unterminated OID arc")
    first = arcs[0]
    if first < 40:
        lead = (0, first)
    elif first < 80:
        lead = (1, first - 40)
    else:
        lead = (2, first - 80)
    return Oid(lead + tuple(arcs[1:]))


# ---------------------------------------------------------------------------
# encoding


def _encode_tag(value: DerValue) -> bytes:
    flags = (int(value.tag_class) << 6) | (0x20 if value.constructed else 0)
    if value.tag_number < 0x1F:
        return bytes([flags | value.tag_number])
    if value.tag_number > _MAX_TAG_NUMBER:
        raise OversizeTag(f"tag number {value.tag_number} not supported")
    return bytes([flags | 0x1F]) + _encode_base128(value.tag_number)


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _check_integer(content: bytes) -> None:
    if not content:
        raise NonCanonical("INTEGER with empty content")
    if len(content) > 1 and (
        (content[0] == 0x00 and content[1] < 0x80)
        or (content[0] == 0xFF and content[1] >= 0x80)
    ):
        raise NonCanonical("INTEGER with redundant leading octet")


def _check_boolean(content: bytes) -> None:
    if content not in (b"\x00", b"\xff"):
        raise NonCanonical("BOOLEAN content must be 0x00 or 0xff")


def _check_null(content: bytes) -> None:
    if content:
        raise NonCanonical("NULL must have empty content")


def _check_bit_string(content: bytes) -> None:
    if not content:
        raise NonCanonical("BIT STRING needs an unused-bit-count octet")
    if content[0] > 7 or (len(content) == 1 and content[0] != 0):
        raise NonCanonical("invalid BIT STRING unused-bit count")


def _wrong_form(message: str):
    def rule(content) -> None:
        raise NonCanonical(message)
    return rule


# DER's rule for a universal tag that has one, by identifier octet (0x20 marks
# the constructed form): the form DER forbids, or a check of primitive content.
# _parse_oid validates the arc structure and memoizes the Oid.
_RULES = {INTEGER: _check_integer, BOOLEAN: _check_boolean, NULL: _check_null,
          BIT_STRING: _check_bit_string, OBJECT_IDENTIFIER: _parse_oid}
_RULES.update({0x20 | tag: _wrong_form(f"universal tag {tag} must be primitive")
               for tag in _ALWAYS_PRIMITIVE})
_RULES.update({tag: _wrong_form(f"universal tag {tag} must be constructed")
               for tag in _ALWAYS_CONSTRUCTED})


def set_order(items, to_value=lambda value: value) -> tuple:
    """``items`` in canonical SET OF order (X.690 §11.6), by DER of ``to_value(item)``."""
    items = tuple(items)
    if len(items) < 2:
        return items
    return tuple(sorted(items, key=lambda item: bytes(_encoding(to_value(item)))))


def _check_set_order(values: tuple[DerValue, ...], what: str) -> None:
    """NonCanonical unless received ``values`` are in SET OF order: in one pass,
    each one's encoding, as received, is no less than its neighbour's before it."""
    if len(values) < 2:
        return
    previous = bytes(_encoding(values[0]))
    for value in values[1:]:
        encoding = bytes(_encoding(value))
        if encoding < previous:
            raise NonCanonical(f"{what} not in canonical order")
        previous = encoding


def _encoding(value: DerValue) -> bytes | memoryview:
    """The DER octets a value keeps: those it was decoded from, or its first encoding."""
    der = value._der
    if der is None:
        if value.constructed:
            body = b"".join([_encoding(child) for child in value.content])
        else:
            body = value.content
        der = value.__dict__["_der"] = _encode_tag(value) + _encode_length(len(body)) + body
    return der


def der_encode(value: DerValue) -> bytes:
    """DER octets of a value tree, kept from decoding or from the first call."""
    return bytes(_encoding(value))


# ---------------------------------------------------------------------------
# decoding


def _decode_tag(data: memoryview, pos: int, end: int) -> tuple[TagClass, bool, int, int]:
    """A tag in the high-number form, whose first octet ends in 0x1F."""
    if pos >= end:
        raise Truncated("input ended inside a tag")
    first = data[pos]
    pos += 1
    number = 0
    while True:
        if pos >= end:
            raise Truncated("input ended inside a high tag number")
        b = data[pos]
        pos += 1
        if number == 0 and b == 0x80:
            raise NonCanonical("high tag number with redundant leading octet")
        number = (number << 7) | (b & 0x7F)
        if number > _MAX_TAG_NUMBER:
            raise OversizeTag("tag number beyond supported range")
        if not b & 0x80:
            break
    if number < 0x1F:
        raise NonCanonical("high tag form used for a low tag number")
    return _TAG_CLASSES[first >> 6], bool(first & 0x20), number, pos


def _decode_length(data: memoryview, pos: int, end: int) -> tuple[int, int]:
    """A length in the long form, whose first octet is 0x80 or above."""
    if pos >= end:
        raise Truncated("input ended before length")
    first = data[pos]
    pos += 1
    if first == 0x80:
        raise IndefiniteLength("indefinite length form is BER, not DER")
    count = first & 0x7F
    if pos + count > end:
        raise Truncated("input ended inside length octets")
    body = data[pos:pos + count]
    pos += count
    if body[0] == 0:
        raise NonMinimalLength("length has a leading zero octet")
    length = int.from_bytes(body, "big")
    if length < 0x80:
        raise NonMinimalLength("long length form used for a short length")
    return length, pos


# What the decoder creates values with: it applies DER's rules itself, so a
# decoded value skips the constructor and its fields are written as they are.
_new_value = object.__new__


def _decode_value(data: memoryview, pos: int, end: int, depth: int) -> tuple[DerValue, int]:
    if depth > MAX_DEPTH:
        raise TooDeep(f"values nested more than {MAX_DEPTH} deep")
    start = pos
    # a one-octet tag and a short-form length are read here; _decode_tag and
    # _decode_length take, and check, every other form
    if pos < end and (first := data[pos]) & 0x1F != 0x1F:
        tag_class, number = _TAG_CLASSES[first >> 6], first & 0x1F
        pos += 1
    else:
        tag_class, _, number, pos = _decode_tag(data, pos, end)
        first = data[start]  # high tag form: no entry in _RULES
    if pos < end and (length := data[pos]) < 0x80:
        pos += 1
    else:
        length, pos = _decode_length(data, pos, end)
    stop = pos + length
    if stop > end:
        raise Truncated("content shorter than announced length")
    constructed = first & 0x20 != 0
    if constructed:
        children = []
        while pos < stop:
            child, pos = _decode_value(data, pos, stop, depth + 1)
            children.append(child)
        content = tuple(children)
        if first == 0x20 | SET:
            _check_set_order(content, "SET children")
    else:
        content = bytes(data[pos:stop])
    rule = _RULES.get(first)
    if rule is not None:
        rule(content)
    value = _new_value(DerValue)
    fields = value.__dict__
    fields["tag_class"] = tag_class
    fields["constructed"] = constructed
    fields["tag_number"] = number
    fields["content"] = content
    fields["_der"] = data[start:stop]  # a view of the octets received
    return value, stop


def der_decode(data: bytes) -> DerValue:
    """Decode exactly one DER value spanning the whole input."""
    value, pos = _decode_value(memoryview(bytes(data)), 0, len(data), 1)
    if pos != len(data):
        raise TrailingOctets(f"{len(data) - pos} octets after the value")
    return value


def require(value: DerValue, tag_number: int, *, constructed: bool = True,
            tag_class: TagClass = TagClass.UNIVERSAL) -> DerValue:
    """Shape assertion for container parsers; returns the value unchanged."""
    if (value.tag_class != tag_class or value.constructed != constructed
            or value.tag_number != tag_number):
        raise NonCanonical(
            f"expected {'constructed' if constructed else 'primitive'} "
            f"{tag_class.name} tag {tag_number}, got "
            f"{'constructed' if value.constructed else 'primitive'} "
            f"{value.tag_class.name} tag {value.tag_number}")
    return value


def _fields(value: DerValue, *counts: int, tag_number: int = SEQUENCE,
            tag_class: TagClass = TagClass.UNIVERSAL) -> tuple[DerValue, ...]:
    """The children of a constructed value of the given tag, which must number
    one of ``counts``: a container parser's shape check, NonCanonical if not."""
    kids = require(value, tag_number, tag_class=tag_class).children
    if len(kids) not in counts:
        raise NonCanonical(f"expected {' or '.join(map(str, counts))} fields, got {len(kids)}")
    return kids


# ---------------------------------------------------------------------------
# AlgorithmIdentifier


@dataclass(frozen=True)
class AlgorithmIdentifier:
    oid: Oid
    params: DerValue | None = None

    def to_der_value(self) -> DerValue:
        children = [oid_value(self.oid)]
        if self.params is not None:
            children.append(self.params)
        return sequence(*children)

    @classmethod
    def from_der_value(cls, value: DerValue) -> "AlgorithmIdentifier":
        kids = _fields(value, 1, 2)
        return cls(kids[0].as_oid(), kids[1] if len(kids) == 2 else None)
