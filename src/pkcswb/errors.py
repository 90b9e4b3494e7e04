"""Failure types shared across the scheme and container layers."""

from contextlib import contextmanager

__all__ = [
    "DecryptionError",
    "uniform_decryption",
    "UnsupportedAlgorithm",
    "IntegrityFailure",
    "MissingCredential",
]


class DecryptionError(Exception):
    """Single uniform failure for every decryption error shape.

    The constructor takes no arguments so that all raise sites produce the
    identical error value: an attacker distinguishing padding failures from
    other failures gets a format oracle for free.
    """

    def __init__(self):
        super().__init__("decryption failed")


@contextmanager
def uniform_decryption():
    """Let DecryptionError through and turn any other failure inside the
    block into DecryptionError(), with no cause attached."""
    try:
        yield
    except DecryptionError:
        raise
    except Exception:
        raise DecryptionError() from None


class UnsupportedAlgorithm(ValueError):
    """An algorithm identifier this toolkit refuses to process (e.g. legacy PBES1)."""


class IntegrityFailure(Exception):
    """A MAC or signature protecting a container did not verify."""


class MissingCredential(ValueError):
    """The selected protection mode needs a password or key that was not supplied."""
