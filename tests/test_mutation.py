"""Every container reader is total: edited octets open or raise a declared error.

Each target is built once, then opened as 500 one-edit mutants drawn under a
fixed seed: a bit flip, a truncation, one octet inserted or deleted, or one
octet replaced by another.  Only declared errors (``PkcsError``) may escape; a bare
ValueError, IndexError, AttributeError or ZeroDivisionError fails the test.
PBKDF2 counts are set to 2 or 3 when the targets are built, so that a mutant
costs microseconds, not the milliseconds of a real count.  Each mutant's end
is recorded, and the lines are pinned in ``ledger.MUTANT_OUTCOMES``.  The
targets and the mutant stream live in ``conftest``, for every net to open.
"""

import random

import pytest

from pkcswb import asn1
from pkcswb.errors import PkcsError
from pkcswb.keystore import MalformedKey, PrivateKeyInfo
from conftest import _mutants
from ledger import MUTANT_OUTCOMES, ledger

DECLARED = PkcsError


@pytest.mark.parametrize("name", [
    "PrivateKeyInfo", "EncryptedPrivateKeyInfo", "CertificationRequest",
    "data", "signed-data", "enveloped-data", "digested-data", "encrypted-data",
    "authenticated-data", "pfx-password-password", "pfx-password-public_key",
    "pfx-public_key-password", "pfx-public_key-public_key"])
def test_one_edit_mutants_raise_only_declared_errors(targets, name):
    octets, opener = targets[name]
    opener(octets)  # the target itself opens
    rng = random.Random(f"mutation/{name}")
    lines = []
    for mutant in _mutants(octets, rng):
        assert mutant != octets
        try:
            result = opener(mutant)
        except DECLARED as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__} escaped from {name} mutant "
                        f"{mutant.hex()}: {exc}")
        else:
            lines.append(f"value {result}" if isinstance(result, bool) else "value")
    assert ledger(lines) == MUTANT_OUTCOMES[name]


def test_every_bit_flip_of_a_digested_or_authenticated_data_raises(targets):
    """Each of the 8 bits of every octet, flipped alone, makes check_digest or
    check_auth raise a declared error: no flip returns content."""
    returned = []
    for name in ("digested-data", "authenticated-data"):
        octets, opener = targets[name]
        for at in range(len(octets)):
            for bit in range(8):
                try:
                    opener(octets[:at] + bytes([octets[at] ^ 1 << bit]) + octets[at + 1:])
                except DECLARED:
                    continue
                returned.append(f"{name} octet {at} bit {bit}")
    assert returned == []


def _triples_edited(edit):
    """A key body edit that replaces the first triple's fields by ``edit(fields)``."""
    def body_edit(fields):
        first, *rest = fields[4].children
        return fields[:4] + [asn1.sequence(asn1.sequence(*edit(list(first.children))), *rest)]
    return body_edit


# a .p8 whose key body (version, n, e, d, triples) or first (r, d, t) triple
# has one field too few or too many
WRONG_FIELD_COUNTS = {
    "body with 4 fields": lambda fields: fields[:4],
    "body with 6 fields": lambda fields: fields + [asn1.integer(0)],
    "triple with 2 fields": _triples_edited(lambda fields: fields[:2]),
    "triple with 4 fields": _triples_edited(lambda fields: fields + [asn1.integer(1)]),
}


@pytest.mark.parametrize("case", list(WRONG_FIELD_COUNTS))
def test_key_body_or_triple_with_a_wrong_field_count_is_malformed_key(toy_keys, case):
    root = asn1.der_decode(PrivateKeyInfo(toy_keys[3][1]).to_der())
    version_v, algorithm_v, body_v = root.children
    fields = list(asn1.der_decode(body_v.as_octet_string()).children)
    body = asn1.sequence(*WRONG_FIELD_COUNTS[case](fields))
    octets = asn1.der_encode(asn1.sequence(version_v, algorithm_v,
                                           asn1.octet_string(asn1.der_encode(body))))
    with pytest.raises(PkcsError) as raised:
        PrivateKeyInfo.from_der(octets)
    assert raised.type is MalformedKey
