"""Output checks that do not trust pkcswb.

Everything here is written from the standards with the stdlib alone: a
minimal DER TLV reader, RSASSA-PSS verification (RFC 8017 section 9.1.2,
MGF1 with SHA-256) and naive RSA exponentiation.  The only pkcswb values
read are plain integers (n, e, d) and the salt length from
``pss_salt_len_for``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

OID_DATA = bytes.fromhex("2a864886f70d010701")            # 1.2.840.113549.1.7.1
OID_SIGNED_DATA = bytes.fromhex("2a864886f70d010702")     # 1.2.840.113549.1.7.2
OID_MESSAGE_DIGEST = bytes.fromhex("2a864886f70d010904")  # 1.2.840.113549.1.9.4
OID_CONTENT_TYPE = bytes.fromhex("2a864886f70d010903")    # 1.2.840.113549.1.9.3

SCENARIO_STEPS = (
    "keypair-generation",
    "natural-person-attributes",
    "certification-request",
    "enveloped-transport",
    "certificate-issuance",
    "private-key-wrapping",
    "pfx-transfer",
    "token-provisioning",
    "challenge-response",
)

# Where each injected fault must stop the scenario: the step that first
# consumes the corrupted artifact.
FAULT_STEPS = {
    "transport": "enveloped-transport",
    "pfx": "token-provisioning",
    "challenge": "challenge-response",
}


class CheckFailed(AssertionError):
    """An output of pkcswb is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# DER


@dataclass(frozen=True)
class Tlv:
    tag: int
    start: int   # offset of the tag octet in the whole input
    value: int   # offset of the first content octet
    end: int     # offset just past the content

    def octets(self, data: bytes) -> bytes:
        return data[self.start:self.end]

    def content(self, data: bytes) -> bytes:
        return data[self.value:self.end]


def read_tlv(data: bytes, pos: int, limit: int | None = None) -> Tlv:
    """One low-tag-number TLV with a definite length, starting at ``pos``."""
    limit = len(data) if limit is None else limit
    require(pos + 2 <= limit, "DER truncated")
    tag = data[pos]
    require(tag & 0x1F != 0x1F, "high tag numbers are not expected here")
    first = data[pos + 1]
    if first < 0x80:
        length, value = first, pos + 2
    else:
        count = first & 0x7F
        require(0 < count <= 4 and pos + 2 + count <= limit, "bad DER length")
        length = int.from_bytes(data[pos + 2:pos + 2 + count], "big")
        value = pos + 2 + count
    require(value + length <= limit, "DER content runs past its container")
    return Tlv(tag, pos, value, value + length)


def children(data: bytes, tlv: Tlv) -> list[Tlv]:
    require(bool(tlv.tag & 0x20), "expected a constructed value")
    out, pos = [], tlv.value
    while pos < tlv.end:
        child = read_tlv(data, pos, tlv.end)
        out.append(child)
        pos = child.end
    return out


def expect(tlv: Tlv, tag: int, what: str) -> Tlv:
    require(tlv.tag == tag, f"{what}: tag {tlv.tag:#04x}, expected {tag:#04x}")
    return tlv


@dataclass(frozen=True)
class SignedParts:
    """The pieces of a signed-data ContentInfo that a verifier needs."""

    encap: Tlv           # the encapsulated ContentInfo, as received
    payload: Tlv         # the OCTET STRING value inside it
    signed_attrs: bytes  # DER of the SET OF Attribute the signature covers
    message_digest: bytes
    content_type: bytes
    signature: Tlv       # the signature OCTET STRING


def parse_signed(der: bytes) -> SignedParts:
    ci = expect(read_tlv(der, 0), 0x30, "ContentInfo")
    require(ci.end == len(der), "octets after the ContentInfo")
    ct_oid, wrapper = children(der, ci)
    require(expect(ct_oid, 0x06, "contentType").content(der) == OID_SIGNED_DATA,
            "not signed-data")
    (signed,) = children(der, expect(wrapper, 0xA0, "[0] content"))
    _version, _algs, encap, signers = children(der, expect(signed, 0x30, "SignedData"))
    encap_type, encap_wrapper = children(der, expect(encap, 0x30, "encapContentInfo"))
    require(encap_type.content(der) == OID_DATA, "encapsulated content is not data")
    (payload,) = children(der, expect(encap_wrapper, 0xA0, "[0] eContent"))
    expect(payload, 0x04, "data payload")
    (signer,) = children(der, expect(signers, 0x31, "signerInfos"))
    fields = children(der, expect(signer, 0x30, "SignerInfo"))
    require(len(fields) == 6, "SignerInfo has no signed attributes")
    attrs, signature = fields[3], expect(fields[5], 0x04, "signature")
    expect(attrs, 0xA0, "[0] signedAttrs")
    found: dict[bytes, bytes] = {}
    for attr in children(der, attrs):
        oid, values = children(der, expect(attr, 0x30, "Attribute"))
        (value,) = children(der, expect(values, 0x31, "attrValues"))
        found[oid.content(der)] = value.content(der)
    require(OID_MESSAGE_DIGEST in found, "messageDigest attribute missing")
    require(OID_CONTENT_TYPE in found, "contentType attribute missing")
    # the signature covers the attributes re-tagged as a universal SET OF
    signed_attrs = b"\x31" + der[attrs.start + 1:attrs.end]
    return SignedParts(encap, payload, signed_attrs, found[OID_MESSAGE_DIGEST],
                       found[OID_CONTENT_TYPE], signature)


@dataclass(frozen=True)
class CsrParts:
    info: Tlv
    signature: Tlv  # BIT STRING; its first content octet counts unused bits


def parse_csr(der: bytes) -> CsrParts:
    outer = expect(read_tlv(der, 0), 0x30, "CertificationRequest")
    require(outer.end == len(der), "octets after the request")
    info, _alg, sig = children(der, outer)
    expect(info, 0x30, "CertificationRequestInfo")
    expect(sig, 0x03, "signature BIT STRING")
    require(der[sig.value] == 0, "signature BIT STRING has unused bits")
    return CsrParts(info, sig)


# ---------------------------------------------------------------------------
# RSA


def _mgf1(seed: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def pss_verify(n: int, e: int, message: bytes, signature: bytes, salt_len: int) -> bool:
    """RSASSA-PSS-VERIFY with SHA-256 and MGF1-SHA-256 (RFC 8017, 8.1.2 and 9.1.2)."""
    k = (n.bit_length() + 7) // 8
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= n:
        return False
    em_bits = n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    m = pow(s, e, n)
    if m >= 1 << (8 * em_len):
        return False
    em = m.to_bytes(em_len, "big")
    h_len = 32
    if em_len < h_len + salt_len + 2 or em[-1] != 0xBC:
        return False
    masked_db, h = em[:em_len - h_len - 1], em[em_len - h_len - 1:-1]
    zero_bits = 8 * em_len - em_bits
    if zero_bits and masked_db[0] >> (8 - zero_bits):
        return False
    db = bytearray(a ^ b for a, b in zip(masked_db, _mgf1(h, len(masked_db))))
    db[0] &= 0xFF >> zero_bits
    pad = em_len - h_len - salt_len - 2
    if any(db[:pad]) or db[pad] != 0x01:
        return False
    salt = bytes(db[len(db) - salt_len:]) if salt_len else b""
    m_hash = hashlib.sha256(message).digest()
    return hashlib.sha256(b"\x00" * 8 + m_hash + salt).digest() == h


def check_signed(der: bytes, payload: bytes, n: int, e: int, salt_len: int) -> SignedParts:
    """A signed-data output is right: payload carried, digest bound, PSS valid."""
    parts = parse_signed(der)
    require(parts.payload.content(der) == payload, "encapsulated payload differs from the input")
    require(parts.content_type == OID_DATA, "contentType attribute is not id-data")
    require(parts.message_digest == hashlib.sha256(parts.encap.octets(der)).digest(),
            "messageDigest is not SHA-256 of the encapsulated content")
    require(pss_verify(n, e, parts.signed_attrs, parts.signature.content(der), salt_len),
            "signature does not verify under RSASSA-PSS")
    return parts


def check_crt(c: int, got: int, n: int, d: int) -> None:
    require(got == pow(c, d, n), "CRT private operation differs from naive c^d mod n")


# ---------------------------------------------------------------------------
# scenario reports


def check_scenario(report: str, ok: bool, seed: bytes, fault: str | None = None) -> None:
    """The report passes every step, or stops at exactly the fault's step."""
    lines = report.splitlines()
    require(f"seed={seed.hex()}" in lines, "report does not name its seed")
    steps = [line for line in lines if line.startswith("step ")]
    stop = SCENARIO_STEPS.index(FAULT_STEPS[fault]) if fault else len(SCENARIO_STEPS)
    expected = len(SCENARIO_STEPS) if fault is None else stop + 1
    require(len(steps) == expected, f"{len(steps)} step lines, expected {expected}")
    for index, line in enumerate(steps):
        words = line.split()
        require(words[1] == f"{index + 1}/9" and words[2] == SCENARIO_STEPS[index],
                f"step line {index + 1} is out of order: {line!r}")
        verdict = "FAIL" if index == stop else "PASS"
        require(words[3] == verdict, f"step {SCENARIO_STEPS[index]} is not {verdict}")
    if fault is None:
        require(ok and "result: 9/9 steps passed" in lines, "scenario did not pass")
    else:
        require(not ok and f"result: {stop}/9 steps passed, failed at {FAULT_STEPS[fault]}"
                in lines, f"fault {fault} did not stop the scenario at its own step")
