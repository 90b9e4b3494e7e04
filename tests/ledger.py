"""The outcome ledger: how each reader ends on the one-edit mutants of the
totality nets, pinned.

``tests/test_mutation.py`` and ``test_reading_subcommands_are_total`` in
``tests/test_cli.py`` record one line per mutant, ``<class>: <detail>``:

* a raised declared error: its class name, and its message;
* a returned value: ``value``, with the bool of the check the opener makes
  (``value True``, ``value False``), and no detail;
* a subcommand: ``exit <code>``, and its ``error:`` line, with the temporary
  directories written as ``{dir}`` and ``{tmp}``.

``MUTANT_OUTCOMES`` and ``CLI_OUTCOMES`` hold, per target, the SHA-256 of its
lines and the count of each class.  Like ``GOLDEN``, the table pins behaviour,
not correctness: a change that moves an outcome on purpose (an error class, a
message, a check) updates the entry, and the counts show which classes moved.
"""

import hashlib
from collections import Counter


def ledger(lines: list[str]) -> tuple[str, dict[str, int]]:
    """The SHA-256 of ``lines`` and the count of each line's class."""
    counts = Counter(line.split(":", 1)[0] for line in lines)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), dict(sorted(counts.items()))


MUTANT_OUTCOMES = {
    "PrivateKeyInfo": (
        "bb22116a970ad51eec81275b119df399210edad03fd6fc2f57c185c88aa25e2b",
        {"MalformedKey": 467, "UnsupportedAlgorithm": 11, "value": 22}),
    "EncryptedPrivateKeyInfo": (
        "d8c71d491491c204713249c37405a0558c525f9d38c146279fc5c84e33ee5948",
        {"DecryptionError": 128, "MalformedKey": 343, "UnsupportedAlgorithm": 29}),
    "CertificationRequest": (
        "0180169c9bbcb4fad30b291f60c2a513210c69675b4476df442a5cd77a8a9961",
        {"MalformedRequest": 330, "UnsupportedAlgorithm": 10, "value False": 160}),
    "data": (
        "bd1d611273d39e55d1f65aece782bf7787439df594a71a5bc16ba62505913084",
        {"ArcOverflow": 3, "NonCanonical": 26, "TrailingOctets": 48, "Truncated": 276,
         "WrongContentType": 46, "value": 101}),
    "signed-data": (
        "0b8b006f258c651b4afec0a5ef61f02577ac821740c7287db5255fe7bbb5d06e",
        {"ArcOverflow": 4, "DigestMismatch": 29, "IndefiniteLength": 1, "NonCanonical": 11,
         "OversizeTag": 11, "SignatureInvalid": 127, "TrailingOctets": 32, "Truncated": 269,
         "WrongContentType": 4, "value": 12}),
    "enveloped-data": (
        "c6f8f46b69b5d0180da4d93e8a3eb9db3f7f4b9e772b57f4d560882a16a92d8f",
        {"ArcOverflow": 2, "DecryptionError": 187, "IndefiniteLength": 8, "NonCanonical": 10,
         "NonMinimalLength": 1, "TrailingOctets": 13, "Truncated": 272, "WrongContentType": 5,
         "value": 2}),
    "digested-data": (
        "af74d28d8fa11fbd2c85d11f7d803c245f1c5771309ed2d737bed3a11decebcb",
        {"ArcOverflow": 4, "DigestMismatch": 93, "IndefiniteLength": 1, "IntegrityFailure": 25,
         "NonCanonical": 39, "TrailingOctets": 35, "Truncated": 283, "WrongContentType": 20}),
    "encrypted-data": (
        "9abadca3a9e99d47abc81f2e870a09a62f13b02385bafc1f473bb53e75b84d0d",
        {"ArcOverflow": 4, "DecryptionError": 153, "IndefiniteLength": 19, "NonCanonical": 16,
         "TrailingOctets": 37, "Truncated": 253, "WrongContentType": 16, "value": 2}),
    "authenticated-data": (
        "267d6b3f17e19a191fee6ef79faaaaad04498cde0cc9dac69f4dd398ce494153",
        {"ArcOverflow": 6, "DigestMismatch": 39, "IndefiniteLength": 2, "IntegrityFailure": 51,
         "NonCanonical": 28, "NonMinimalLength": 1, "SignatureInvalid": 41,
         "TrailingOctets": 15, "Truncated": 308, "WrongContentType": 9}),
    "pfx-password-password": (
        "a1c81886b070d757a1878aae92bc8b548ef778abc8fd4096fabc3007c9d1d4f9",
        {"IntegrityFailure": 184, "NonCanonical": 6, "TrailingOctets": 1, "Truncated": 309}),
    "pfx-password-public_key": (
        "172bf212c53036b54e6a8fe43a4d9bedc354a12ec6e05b4402e68f503395d7d6",
        {"IntegrityFailure": 2, "NonCanonical": 8, "NonMinimalLength": 2,
         "SignatureInvalid": 189, "TrailingOctets": 16, "Truncated": 279, "value": 4}),
    "pfx-public_key-password": (
        "a8d6d5d565d6202d860f5177d8c3107e1c14fba2029a388d47826b2970ad00bb",
        {"IntegrityFailure": 187, "MalformedKey": 1, "Truncated": 312}),
    "pfx-public_key-public_key": (
        "718c83464047bff7285e227beb762cb78148d82a3f4622b68dcfc57b20f14d8b",
        {"IntegrityFailure": 1, "NonCanonical": 92, "NonMinimalLength": 2,
         "SignatureInvalid": 181, "TrailingOctets": 16, "Truncated": 205, "value": 3}),
}

CLI_OUTCOMES = {
    "verify": (
        "02a15dad30a77cc38d0b662bbb23e027eba93853acc3f9ed250326c70eb1b6ad",
        {"exit 1": 72, "exit 2": 128}),
    "sign": (
        "89e3b4b3ed1d258f1c27aaa0bce038bb3cb3dd780e1a00f510657b5a143b4aac",
        {"exit 2": 200}),
    "p8-unwrap": (
        "e3e1899ce8dfb1e5bb49d2a5bb889089383e345708f77d473e65a74a0575b099",
        {"exit 1": 77, "exit 2": 123}),
    "csr-verify": (
        "7cd6f31a3ea87856e8476f930e07bcb8176bcca3e0a8af4629b595fa37f7ff4f",
        {"exit 1": 69, "exit 2": 131}),
    "cms-verify": (
        "0231f85a9a4ba927753fe022f78916fd7827ab3bcc07ca1f45bbfa28c2a566e1",
        {"exit 0": 2, "exit 1": 55, "exit 2": 143}),
    "cms-open": (
        "3c9fd25949c772f8309834ba95af1f8ea841825bbf1d2969650fdba4ef285bb2",
        {"exit 1": 76, "exit 2": 124}),
    "cms-digest --check": (
        "18c317746667e1be083090579675ea288c0aa9892c0d9a49e5bcdf0100d7bae1",
        {"exit 1": 53, "exit 2": 147}),
    "cms-encrypt --decrypt": (
        "23c11d89b8cfd5b2313caab779a3a4da709d2c3525391de1cc8edfbb65efd88e",
        {"exit 1": 67, "exit 2": 133}),
    "cms-auth --check": (
        "e9bca32088dece83f0151fd38263842ec94e86d5f58a9c3210dbb416a4430bf4",
        {"exit 1": 43, "exit 2": 157}),
    "pfx-unpack": (
        "1c551eea315476c891283e5af4632294fc6af1b23c0419eb104f3295f863601f",
        {"exit 1": 75, "exit 2": 125}),
}
