import hashlib

import pytest

from pkcswb import rsa
from pkcswb.primitives import HashAlg, SeededSource


def seeded(tag: bytes) -> SeededSource:
    return SeededSource(tag)


def tiny_hash(out_len: int) -> HashAlg:
    """Truncated SHA-256, for exercising padding layouts at small moduli."""
    return HashAlg(f"sha256/{out_len}", out_len,
                   raw=lambda data: hashlib.sha256(data).digest()[:out_len])


@pytest.fixture(scope="session")
def key_1024():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024"))


@pytest.fixture(scope="session")
def key_1024_b():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024b"))


@pytest.fixture(scope="session")
def key_1024_c():
    return rsa.generate_key(1024, 2, 65537, seeded(b"fixture/1024c"))


@pytest.fixture(scope="session")
def key_512():
    return rsa.generate_key(512, 2, 65537, seeded(b"fixture/512"))


@pytest.fixture(scope="session")
def toy_keys():
    """u in {2, 3, 4} with primes of at most 24 bits."""
    return {
        u: rsa.generate_key(24 * u, u, 65537, seeded(b"fixture/toy%d" % u))
        for u in (2, 3, 4)
    }
