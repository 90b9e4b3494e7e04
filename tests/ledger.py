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
        "bf9352cfb138881d7df2e97cbc19ca3d76c4505a7fb5c14279b0ff1272329aea",
        {"MalformedKey": 487, "UnsupportedAlgorithm": 11, "value": 2}),
    "EncryptedPrivateKeyInfo": (
        "d3100e3d6af9a701424c0b78b31134a9be7d9d614a27a51920fe43344c26942f",
        {"DecryptionError": 128, "MalformedKey": 343, "UnsupportedAlgorithm": 29}),
    "CertificationRequest": (
        "475249cec135b6eb570e77f5a7d5d165950bf02d060e3f6db8df1b253979b9b4",
        {"MalformedRequest": 335, "UnsupportedAlgorithm": 15, "value False": 150}),
    "data": (
        "c6fc715960da2b6e7b68542a9390f797424810a22c7ebc78e105b6849440cdbe",
        {"ArcOverflow": 3, "NonCanonical": 26, "TrailingOctets": 48, "Truncated": 276,
         "WrongContentType": 46, "value": 101}),
    "signed-data": (
        "64324acd5c6abfc021fa41d41bcc069dc9142adb5498ef42e369491720df1eca",
        {"ArcOverflow": 4, "DigestMismatch": 29, "IndefiniteLength": 1,
         "NonCanonical": 26, "OversizeTag": 11, "SignatureInvalid": 93, "SyntaxViolation": 12,
         "TrailingOctets": 32, "Truncated": 264, "UnsupportedAlgorithm": 14,
         "WrongContentType": 4, "value": 10}),
    "enveloped-data": (
        "c6f8f46b69b5d0180da4d93e8a3eb9db3f7f4b9e772b57f4d560882a16a92d8f",
        {"ArcOverflow": 2, "DecryptionError": 187, "IndefiniteLength": 8, "NonCanonical": 10,
         "NonMinimalLength": 1, "TrailingOctets": 13, "Truncated": 272, "WrongContentType": 5,
         "value": 2}),
    "digested-data": (
        "87c3706895a56231b440e72cf35e28d57229f844dda666f149484ac2648f8891",
        {"ArcOverflow": 4, "DigestMismatch": 93, "IndefiniteLength": 1, "IntegrityFailure": 5,
         "NonCanonical": 39, "TrailingOctets": 35, "Truncated": 283, "UnsupportedAlgorithm": 20,
         "WrongContentType": 20}),
    "encrypted-data": (
        "9abadca3a9e99d47abc81f2e870a09a62f13b02385bafc1f473bb53e75b84d0d",
        {"ArcOverflow": 4, "DecryptionError": 153, "IndefiniteLength": 19, "NonCanonical": 16,
         "TrailingOctets": 37, "Truncated": 253, "WrongContentType": 16, "value": 2}),
    "authenticated-data": (
        "ee017975d67ce2db07e904918c6939ee7c2825e4e409a54556e7f8d98723f673",
        {"ArcOverflow": 6, "DigestMismatch": 38, "IndefiniteLength": 2,
         "IntegrityFailure": 33, "NonCanonical": 41, "NonMinimalLength": 1,
         "SignatureInvalid": 22, "SyntaxViolation": 29, "TrailingOctets": 15, "Truncated": 302,
         "UnsupportedAlgorithm": 2, "WrongContentType": 9}),
    "pfx-password-password": (
        "a1c81886b070d757a1878aae92bc8b548ef778abc8fd4096fabc3007c9d1d4f9",
        {"IntegrityFailure": 184, "NonCanonical": 6, "TrailingOctets": 1, "Truncated": 309}),
    "pfx-password-public_key": (
        "d546db9520c7227ae0b01420bf0ca94c64bed69d3df04796a161ce6012beed55",
        {"IntegrityFailure": 2, "NonCanonical": 8, "NonMinimalLength": 2,
         "SignatureInvalid": 184, "TrailingOctets": 16, "Truncated": 279,
         "UnsupportedAlgorithm": 5, "value": 4}),
    "pfx-public_key-password": (
        "a8d6d5d565d6202d860f5177d8c3107e1c14fba2029a388d47826b2970ad00bb",
        {"IntegrityFailure": 187, "MalformedKey": 1, "Truncated": 312}),
    "pfx-public_key-public_key": (
        "083670ba753f783587f3bb88d3a6e559810f64142490405d62d5cfe70019b7a3",
        {"IntegrityFailure": 1, "NonCanonical": 92, "NonMinimalLength": 2,
         "SignatureInvalid": 176, "TrailingOctets": 16, "Truncated": 205,
         "UnsupportedAlgorithm": 5, "value": 3}),
}

CLI_OUTCOMES = {
    "verify": (
        "02a15dad30a77cc38d0b662bbb23e027eba93853acc3f9ed250326c70eb1b6ad",
        {"exit 1": 72, "exit 2": 128}),
    "sign": (
        "89e3b4b3ed1d258f1c27aaa0bce038bb3cb3dd780e1a00f510657b5a143b4aac",
        {"exit 2": 200}),
    "p8-unwrap": (
        "d09fa1cd17b8e52069b24f0d34105105e92d657c239e4b3546301ab3f06cdf5f",
        {"exit 1": 77, "exit 2": 123}),
    "csr-verify": (
        "6ebb91f230638ac509691f388a57814b17c45841c4229a93d5119247f0280c7e",
        {"exit 1": 68, "exit 2": 132}),
    "cms-verify": (
        "6525a3dfcce7f34ee01734a63eb95f33da0faefa120cead6b1f013c4f6ff5e57",
        {"exit 0": 2, "exit 1": 43, "exit 2": 155}),
    "cms-open": (
        "3c9fd25949c772f8309834ba95af1f8ea841825bbf1d2969650fdba4ef285bb2",
        {"exit 1": 76, "exit 2": 124}),
    "cms-digest --check": (
        "0e5b61cfa0d1b04e8383d8c5b18e90df38e0c50bd95d522fb0448f279247ca49",
        {"exit 1": 46, "exit 2": 154}),
    "cms-encrypt --decrypt": (
        "23c11d89b8cfd5b2313caab779a3a4da709d2c3525391de1cc8edfbb65efd88e",
        {"exit 1": 67, "exit 2": 133}),
    "cms-auth --check": (
        "21bb609c7461125a1c2693a89cce97fb501531ee7a3f0a668c41d4ab08537a4e",
        {"exit 1": 40, "exit 2": 160}),
    "pfx-unpack": (
        "1c551eea315476c891283e5af4632294fc6af1b23c0419eb104f3295f863601f",
        {"exit 1": 75, "exit 2": 125}),
}
