"""DER encoder/decoder for the tag/length/value subset the container modules need.

Only definite lengths are produced or accepted (DER, the canonical subset of
BER).  Values are modeled as ``DerValue`` trees: primitive values carry raw
content octets, constructed values carry an ordered tuple of child values.
A value keeps its DER octets: a view of those it was decoded from, or its
first encoding.  Decoding nests at most ``MAX_DEPTH`` values deep.

DER's rules for single values live in one table, ``_RULES``, keyed by the
identifier octet of a universal tag: a form DER forbids (a constructed
INTEGER, a primitive SET, ...), or a check of a primitive's content octets
(INTEGER, BOOLEAN, NULL, BIT STRING, OBJECT IDENTIFIER, and each string and
time type: its repertoire, or RFC 5280's DER profile on a real calendar day).
The constructor looks a built value's identifier up there, and so does the
decoder, through ``_IDENTIFIERS``, built from it; it creates each value
directly and runs only the rule its identifier has.  So no value outside its
type is built or decoded, and ``as_text`` alone reads string octets.
SET OF order (X.690 §11.6) on the wire is set only where a SET is built: the
constructor sorts its children (``set_order``), and an implicitly tagged SET
OF is written as the re-tagged children of a built SET.  It is checked where
a SET is received: ``_check_set_order`` compares the received encodings of
neighbouring children in one pass, for every decoded SET and for the
attribute sets that ``keystore`` reads.

An OID is parsed once and encoded once, both behind bounded memos.  The
parse behind ``octets_to_oid`` keeps 512 encodings of at most
``_OID_MEMO_OCTETS`` octets, so the content rule, every ``as_oid`` and the
container parsers share one immutable ``Oid`` per encoding; a bad encoding
is not kept and raises on every call.  Its twin behind ``oid_value`` keeps
512 OIDs of at most ``_OID_MEMO_ARCS`` arcs, so every writer shares one
immutable value per OID, and that value keeps its DER octets once encoded.

Decoding does each piece of work once.  The decoder reads its input as
``bytes``, copied only from another bytes-like type, so each primitive's
content is one slice of it; a ``memoryview`` of it serves only as each
value's kept octets.  It reads the common header inline: one lookup in
``_IDENTIFIERS`` gives a one-octet tag's class, form, number and content
check; a length is read inline when it is minimal as it stands: the short
form, ``0x81 xx`` with xx >= 0x80, or ``0x82 xx yy`` with xx nonzero, inside
the content.  ``_decode_tag`` and ``_decode_length`` read, and check, every
other form and every case those conditions refuse.  One loop reads the
values side by side in a content and recurses only into constructed ones.
The readers built on it test a value's shape once: ``_fields`` and the typed
accessors reach the message of a refusal only for a value they refuse.

Every container class keeps its value through one mixin, ``DerForm``, so
its octets are the ones received, or are built and encoded once.
``AlgorithmIdentifier``, RFC 5280's (OID, optional parameters) pair, is one,
and lives here, below every layer that names an algorithm; ``algorithm_oid``
reads a received one's OID, with the same checks, and builds no object.
"""

from __future__ import annotations

import enum
import functools
import re

from .errors import BadParameter, Frozen, PkcsError, UnsupportedAlgorithm

__all__ = [
    "TagClass",
    "DerValue",
    "Oid",
    "DerForm",
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

# Longest OID encoding the parse memo keeps, and most arcs of an OID the encode
# memo keeps; with 512 entries each, this bounds each memo to under 1 MiB
# whatever the input.  Real OIDs take under 30 octets and at most 10 arcs.
_OID_MEMO_OCTETS = 64
_OID_MEMO_ARCS = 16

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

_DOTTED_OID = re.compile(r"(?:0|[1-9][0-9]*)(?:\.(?:0|[1-9][0-9]*))+")  # RFC 4512's numericoid


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


class Oid(Frozen):
    """Object identifier as a tuple of non-negative integer arcs."""

    _fields = ("arcs",)

    def __init__(self, arcs: tuple[int, ...]):
        arcs = tuple(arcs)
        if len(arcs) < 2:
            raise BadParameter("OID needs at least two arcs")
        if any(a < 0 for a in arcs):
            raise BadParameter("OID arcs must be non-negative")
        if arcs[0] > 2:
            raise BadParameter("first OID arc must be 0, 1 or 2")
        if arcs[0] < 2 and arcs[1] > 39:
            raise BadParameter("second OID arc must be <= 39 when first arc < 2")
        self.__dict__["arcs"] = arcs

    # OIDs key the registries and are compared on every parse, so they compare
    # their one field directly instead of through the base's field getter
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arcs == other.arcs

    def __hash__(self):
        return hash(self.arcs)

    @classmethod
    def parse(cls, dotted: str) -> "Oid":
        """The Oid of dotted text: two or more arcs of ASCII digits, or BadParameter."""
        if _DOTTED_OID.fullmatch(dotted) is None:
            raise BadParameter("OID text must be two or more dot-separated decimal arcs")
        try:
            arcs = tuple(map(int, dotted.split(".")))
        except ValueError:  # an arc of more digits than int() reads from text
            raise BadParameter("OID arc has too many digits") from None
        return cls(arcs)

    def dotted(self) -> str:
        return ".".join(str(a) for a in self.arcs)

    def __str__(self) -> str:
        return self.dotted()


class DerValue(Frozen):
    """One ASN.1 value: primitive (octets) or constructed (children)."""

    _fields = ("tag_class", "constructed", "tag_number", "content")
    _der: bytes | memoryview | None = None  # its DER octets, once known

    def __init__(self, tag_class: TagClass, tag_number: int,
                 content: bytes | tuple["DerValue", ...]):
        """A built value, primitive for octets and constructed for a tuple or
        list of child values: the rule ``_RULES`` has for its identifier (the
        decoder's rules too), and SET children put in canonical order.  The
        fields are written to the instance dict once."""
        if tag_number < 0:
            raise ValueError("negative tag number")
        if tag_number > _MAX_TAG_NUMBER:
            raise OversizeTag(f"tag number {tag_number} not supported")
        if isinstance(content, (bytes, bytearray)):
            content, constructed = bytes(content), False
        elif isinstance(content, (tuple, list)):
            content, constructed = tuple(content), True
        else:
            raise ValueError("content must be octets or a tuple of values")
        universal = tag_class == _UNIVERSAL
        if universal and tag_number < 0x1F:
            rule = _RULES.get(tag_number | 0x20 if constructed else tag_number)
            if rule is not None:
                rule(content)
            if tag_number == SET and constructed:
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
        if self.constructed or self.tag_number != INTEGER or self.tag_class != _UNIVERSAL:
            _not_primitive("INTEGER")
        return int.from_bytes(self.content, "big", signed=True)

    def as_boolean(self) -> bool:
        if self.constructed or self.tag_number != BOOLEAN or self.tag_class != _UNIVERSAL:
            _not_primitive("BOOLEAN")
        return self.content != b"\x00"

    def as_octet_string(self) -> bytes:
        if self.constructed or self.tag_number != OCTET_STRING or self.tag_class != _UNIVERSAL:
            _not_primitive("OCTET STRING")
        return self.content

    def as_oid(self) -> Oid:
        """The Oid of the content: one the decoder's content rule put in the
        parse memo, if it has at most ``_OID_MEMO_OCTETS`` octets."""
        content = self.content
        if self.constructed or self.tag_number != OBJECT_IDENTIFIER \
                or self.tag_class != _UNIVERSAL:
            _not_primitive("OBJECT IDENTIFIER")
        if len(content) <= _OID_MEMO_OCTETS:
            return _memo_oid(content)
        return _parse_oid(content)

    def as_text(self) -> str:
        if self.constructed or self.tag_class != _UNIVERSAL \
                or self.tag_number not in _STRING_TAGS:
            raise NonCanonical("value is not a supported string type")
        return self.content.decode()  # every string rule admits only UTF-8

    def as_bit_string(self) -> bytes:
        """Content of a BIT STRING with no unused bits."""
        content = self.content
        if self.constructed or self.tag_number != BIT_STRING or self.tag_class != _UNIVERSAL:
            _not_primitive("BIT STRING")
        if not content or content[0] != 0:
            raise NonCanonical("only BIT STRING values with zero unused bits are used here")
        return content[1:]


def _not_primitive(what: str) -> None:
    """Refuse a value that a typed accessor does not read."""
    raise NonCanonical(f"value is not a primitive {what}")


# ---------------------------------------------------------------------------
# constructors


def integer(value: int) -> DerValue:
    magnitude = value if value >= 0 else value + 1
    length = magnitude.bit_length() // 8 + 1
    return DerValue(_UNIVERSAL, INTEGER, value.to_bytes(length, "big", signed=True))


def boolean(value: bool) -> DerValue:
    return DerValue(_UNIVERSAL, BOOLEAN, b"\xff" if value else b"\x00")


def octet_string(data: bytes) -> DerValue:
    return DerValue(_UNIVERSAL, OCTET_STRING, bytes(data))


def null() -> DerValue:
    return DerValue(_UNIVERSAL, NULL, b"")


def oid_value(oid: Oid | str) -> DerValue:
    """The OBJECT IDENTIFIER value of ``oid``.  An OID of at most
    ``_OID_MEMO_ARCS`` arcs is encoded once and shares one immutable value; a
    longer one is encoded on every call, and an arc above 2**63 raises."""
    if isinstance(oid, str):
        oid = Oid.parse(oid)
    if len(oid.arcs) <= _OID_MEMO_ARCS:
        return _memo_oid_value(oid)
    return _memo_oid_value.__wrapped__(oid)


@functools.lru_cache(maxsize=512)
def _memo_oid_value(oid: Oid) -> DerValue:
    return DerValue(_UNIVERSAL, OBJECT_IDENTIFIER, oid_to_octets(oid))


def bit_string(data: bytes) -> DerValue:
    return DerValue(_UNIVERSAL, BIT_STRING, b"\x00" + bytes(data))


def text_octets(text: str) -> bytes:
    """``text`` in UTF-8; text it cannot hold (a lone surrogate, say) is BadParameter."""
    try:
        return text.encode()
    except UnicodeEncodeError:
        raise BadParameter("text cannot be encoded as utf-8") from None


def utf8_string(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, UTF8_STRING, text_octets(text))


def printable_string(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, PRINTABLE_STRING, text_octets(text))


def ia5_string(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, IA5_STRING, text_octets(text))


def utc_time(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, UTC_TIME, text_octets(text))


def generalized_time(text: str) -> DerValue:
    return DerValue(_UNIVERSAL, GENERALIZED_TIME, text_octets(text))


def sequence(*children: DerValue) -> DerValue:
    return DerValue(_UNIVERSAL, SEQUENCE, children)


def set_value(*children: DerValue) -> DerValue:
    """SET (OF); the constructor puts children into DER canonical order."""
    return DerValue(_UNIVERSAL, SET, children)


def context(tag_number: int, children_or_octets) -> DerValue:
    return DerValue(_CONTEXT, tag_number, children_or_octets)


def explicit(tag_number: int, inner: DerValue) -> DerValue:
    """[tag] EXPLICIT wrapper: constructed context value with one child."""
    return DerValue(_CONTEXT, tag_number, (inner,))


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


def _check_utf8(content: bytes) -> None:
    try:
        content.decode()
    except UnicodeDecodeError:
        raise NonCanonical("UTF8String octets are not UTF-8") from None


# The octets of the other string and time types: ASCII, X.680's PrintableString
# repertoire, and RFC 5280 §4.1.2.5's DER profile of a time: a YY or YYYY year,
# month 01-12, day 01-31, hour 00-23, minutes and seconds 00-59, then Z.
_TIME_TAIL = rb"(0[1-9]|1[0-2])(0[1-9]|[12][0-9]|3[01])([01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]Z"
_TEXT_SYNTAX = {IA5_STRING: ("IA5String", re.compile(rb"[\x00-\x7f]*")),
                PRINTABLE_STRING: ("PrintableString", re.compile(rb"[A-Za-z0-9 '()+,\-./:=?]*")),
                UTC_TIME: ("UTCTime", re.compile(rb"([0-9]{2})" + _TIME_TAIL)),
                GENERALIZED_TIME: ("GeneralizedTime", re.compile(rb"([0-9]{4})" + _TIME_TAIL))}
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _check_text(name: str, syntax: re.Pattern, content: bytes) -> None:
    """The rule of a ``_TEXT_SYNTAX`` type; a time also names a day its month has.  A
    UTCTime's span, 1950-2049, has one leap century year, 2000, so YY gives its leap years."""
    match = syntax.fullmatch(content)
    if match is None:
        raise NonCanonical(f"{name} octets outside its type")
    if syntax.groups and int(match[3]) > 28:  # a time on a day some month lacks
        year, month, day = map(int, match.group(1, 2, 3))
        leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        if day > _MONTH_DAYS[month - 1] + leap:
            raise NonCanonical(f"{name} names a day its month does not have")


def _wrong_form(message: str):
    def rule(content) -> None:
        raise NonCanonical(message)
    return rule


# DER's rule for a universal tag that has one, by identifier octet (0x20 marks
# the constructed form): the form DER forbids, or a check of primitive content.
# _parse_oid validates the arc structure and memoizes the Oid.
_RULES = {INTEGER: _check_integer, BOOLEAN: _check_boolean, NULL: _check_null,
          BIT_STRING: _check_bit_string, OBJECT_IDENTIFIER: _parse_oid, UTF8_STRING: _check_utf8}
_RULES.update({tag: functools.partial(_check_text, *text) for tag, text in _TEXT_SYNTAX.items()})
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


def _decode_tag(data: bytes, pos: int, end: int) -> tuple[TagClass, bool, int, int]:
    """A tag in the high-number form, whose first octet, at ``pos``, ends in 0x1F."""
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


def _decode_length(data: bytes, pos: int, end: int) -> tuple[int, int]:
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
    if data[pos] == 0:
        raise NonMinimalLength("length has a leading zero octet")
    length = int.from_bytes(data[pos:pos + count], "big")
    if length < 0x80:
        raise NonMinimalLength("long length form used for a short length")
    return length, pos + count


# What the decoder reads from a one-octet identifier, a low tag number: the
# class, the form, the number, and the check the content needs, if any (the
# rule _RULES has, or the order of a universal SET's children).  None marks
# the high tag form, which _decode_tag reads; no rule has such an identifier.
_IDENTIFIERS = tuple(
    None if first & 0x1F == 0x1F else
    (_TAG_CLASSES[first >> 6], first & 0x20 != 0, first & 0x1F,
     functools.partial(_check_set_order, what="SET children") if first == 0x20 | SET
     else _RULES.get(first))
    for first in range(256))

# What the decoder creates values with: it applies DER's rules itself, so a
# decoded value skips the constructor and its fields are written as they are.
_new_value = object.__new__


def _decode_values(data: bytes, view: memoryview, pos: int, stop: int,
                   depth: int) -> tuple[DerValue, ...]:
    """The values encoded in ``data[pos:stop]``, each nested ``depth`` deep;
    at depth 1, the top, only the first one, as what follows it is trailing.
    Each value keeps a view of its octets in ``view``, the view of ``data``."""
    if depth > MAX_DEPTH and pos < stop:
        raise TooDeep(f"values nested more than {MAX_DEPTH} deep")
    values = []
    while pos < stop:
        start = pos
        # a one-octet tag, and a length that is short, 0x81 xx with xx >= 0x80 or 0x82 xx yy
        # with xx != 0, are read here; _decode_tag and _decode_length take every other form
        if (identifier := _IDENTIFIERS[data[pos]]) is not None:
            tag_class, constructed, number, check = identifier
            pos += 1
        else:
            tag_class, constructed, number, pos = _decode_tag(data, pos, stop)
            check = None
        if pos < stop and (length := data[pos]) < 0x80:
            pos += 1
        elif pos + 1 < stop and length == 0x81 and data[pos + 1] >= 0x80:
            length, pos = data[pos + 1], pos + 2
        elif pos + 2 < stop and length == 0x82 and data[pos + 1]:
            length, pos = data[pos + 1] << 8 | data[pos + 2], pos + 3
        else:
            length, pos = _decode_length(data, pos, stop)
        end = pos + length
        if end > stop:
            raise Truncated("content shorter than announced length")
        if constructed:
            content = _decode_values(data, view, pos, end, depth + 1)
        else:
            content = data[pos:end]
        if check is not None:
            check(content)
        value = _new_value(DerValue)
        fields = value.__dict__
        fields["tag_class"] = tag_class
        fields["constructed"] = constructed
        fields["tag_number"] = number
        fields["content"] = content
        fields["_der"] = view[start:end]  # a view of the octets received
        values.append(value)
        if depth == 1:
            break
        pos = end
    return tuple(values)


def der_decode(data: bytes) -> DerValue:
    """Decode exactly one DER value spanning the whole input (bytes-like; a
    copy is read unless it is ``bytes``, so the caller may reuse its buffer)."""
    data = bytes(data)
    if not data:
        raise Truncated("input ended inside a tag")
    (value,) = _decode_values(data, memoryview(data), 0, len(data), 1)
    trailing = len(data) - len(value._der)
    if trailing:
        raise TrailingOctets(f"{trailing} octets after the value")
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
    kids = value.content
    if (not value.constructed or value.tag_number != tag_number or value.tag_class != tag_class
            or len(kids) not in counts):
        require(value, tag_number, tag_class=tag_class)  # a wrong shape raises here
        raise NonCanonical(f"expected {' or '.join(map(str, counts))} fields, got {len(kids)}")
    return kids


# ---------------------------------------------------------------------------
# containers


class DerForm:
    """The codec of a container class, which defines ``_build`` (its value from
    its fields) and the classmethod ``_parse`` (an instance from a value).  An
    instance keeps the value it was decoded from, or its first build; equality,
    over the fields alone, ignores it.  Its two readers alone give a container's
    faults their class: each declared fault read becomes the class's ``fault``,
    but UnsupportedAlgorithm; the default, PkcsError, lets each through as itself."""

    _value: DerValue | None = None
    fault: type[PkcsError] = PkcsError

    def to_der_value(self) -> DerValue:
        value = self._value
        if value is None:
            value = self.__dict__["_value"] = self._build()
        return value

    def to_der(self) -> bytes:
        return der_encode(self.to_der_value())

    @classmethod
    def from_der_value(cls, value: DerValue):
        try:
            form = cls._parse(value)
        except (UnsupportedAlgorithm, cls.fault):
            raise
        except PkcsError as exc:
            raise cls.fault(str(exc)) from None
        form.__dict__["_value"] = value
        return form

    @classmethod
    def from_der(cls, octets: bytes):
        try:
            return cls.from_der_value(der_decode(octets))
        except cls.fault:
            raise
        except DerError as exc:
            raise cls.fault(str(exc)) from None


class AlgorithmIdentifier(DerForm, Frozen):
    """RFC 5280's (OID, optional parameters) pair.  The module constants that
    name the algorithms pkcswb writes are built and encoded once per process."""

    _fields = ("oid", "params")

    def __init__(self, oid: Oid, params: DerValue | None = None):
        self.__dict__.update(oid=oid, params=params)

    def _build(self) -> DerValue:
        if self.params is None:
            return sequence(oid_value(self.oid))
        return sequence(oid_value(self.oid), self.params)

    @classmethod
    def _parse(cls, value: DerValue) -> "AlgorithmIdentifier":
        oid = algorithm_oid(value)
        return cls(oid, value.content[1] if len(value.content) == 2 else None)


def algorithm_oid(value: DerValue) -> Oid:
    """The OID of a received AlgorithmIdentifier, checked as ``_parse`` checks it."""
    return _fields(value, 1, 2)[0].as_oid()
