"""Every output check of the benchmark passes on good output and fails on corrupted output."""

import pytest

import pkcswb
import pkcswb.cli
from bench import oracles, workloads
from bench.oracles import CheckFailed

SMALL_SHAPES = ((512, 2), (768, 3))


def flip(data: bytes, index: int, bit: int = 0) -> bytes:
    out = bytearray(data)
    out[index] ^= 1 << bit
    return bytes(out)


@pytest.fixture
def small_keys(monkeypatch):
    monkeypatch.setattr(workloads, "SHAPES", SMALL_SHAPES)


@pytest.fixture
def sign(small_keys):
    w = workloads.Sign()
    w.build(pkcswb, seed=7)
    return w


@pytest.fixture
def verify(small_keys):
    w = workloads.Verify()
    w.build(pkcswb, seed=7)
    return w


# -- sign -----------------------------------------------------------------------


def test_sign_outputs_pass_every_check(sign):
    outputs = [sign.run(i) for i in range(len(sign.items))]
    assert all(sign.check(i, out, True) for i, out in enumerate(outputs))
    assert all(sign.check(i, sign.run(i), False) for i in range(len(sign.items)))
    sign.final_checks()


def test_sign_check_rejects_a_flipped_signature_bit(sign):
    der = sign.run(0)
    with pytest.raises(CheckFailed, match="RSASSA-PSS"):
        sign.check(0, flip(der, len(der) - 5), True)


def test_sign_check_rejects_a_changed_payload(sign):
    der = sign.run(1)
    payload = sign.items[1][1]
    with pytest.raises(CheckFailed, match="payload"):
        sign.check(1, flip(der, der.index(payload) + 3), True)


def test_signed_check_rejects_a_message_digest_that_does_not_match(sign):
    shape, payload = sign.items[2][:2]
    der = sign.run(2)
    changed = flip(der, der.index(payload) + 3)
    pub = sign.keys[shape][0]
    with pytest.raises(CheckFailed, match="messageDigest"):
        oracles.check_signed(changed, changed[der.index(payload):][:len(payload)],
                             pub.n, pub.e, sign.salt[shape])


def test_sign_check_rejects_output_that_differs_between_passes(sign):
    der = sign.run(3)
    assert sign.check(3, der, True)
    with pytest.raises(CheckFailed, match="reproducible"):
        sign.check(3, flip(der, len(der) - 1), False)


def test_crt_check_rejects_a_wrong_private_operation(sign):
    sk = sign.keys[SMALL_SHAPES[1]][1]
    c = 123456789
    oracles.check_crt(c, pkcswb.rsa.rsa_private_op(c, sk), sk.n, sk.d)
    with pytest.raises(CheckFailed, match="CRT"):
        oracles.check_crt(c, pkcswb.rsa.rsa_private_op(c, sk) + 1, sk.n, sk.d)


def test_pss_verifier_agrees_with_the_cryptography_package():
    rsa_mod = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding
    key = rsa_mod.generate_private_key(public_exponent=65537, key_size=1024)
    numbers = key.public_key().public_numbers()
    message = b"message under test"
    sig = key.sign(message, padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32),
                   hashes.SHA256())
    assert oracles.pss_verify(numbers.n, numbers.e, message, sig, 32)
    assert not oracles.pss_verify(numbers.n, numbers.e, message + b"!", sig, 32)
    assert not oracles.pss_verify(numbers.n, numbers.e, message, flip(sig, 40), 32)
    assert not oracles.pss_verify(numbers.n, numbers.e, message, sig, 20)


# -- verify ---------------------------------------------------------------------


def test_verify_corpus_passes_every_check(verify):
    verify.prepare()
    verdicts = [verify.run(i) for i in range(len(verify.items))]
    assert all(verify.check(i, out, True) for i, out in enumerate(verdicts))
    kinds = [item[3] for item in verify.items]
    assert kinds.count("digest") == 6 and kinds.count("signature") == 6
    assert kinds.count("rejected") == 4 and len(kinds) == 64


def test_verify_counts_a_wrong_verdict_as_a_failed_operation(verify):
    tampered = next(i for i, item in enumerate(verify.items) if item[3] == "digest")
    assert verify.check(tampered, ("accepted", None), True) is False
    assert verify.check(tampered, ("signature", None), True) is False
    genuine_csr = next(i for i, item in enumerate(verify.items)
                       if item[0] == "csr" and item[3] == "accepted")
    assert verify.check(genuine_csr, ("rejected", None), True) is False


def test_verify_check_rejects_an_accepted_item_with_another_payload(verify):
    genuine = next(i for i, item in enumerate(verify.items)
                   if item[0] == "cms" and item[3] == "accepted")
    other = pkcswb.cms.make_data(b"not the signed payload")
    with pytest.raises(CheckFailed, match="payload"):
        verify.check(genuine, ("accepted", other), True)


def test_verify_setup_check_rejects_a_corpus_item_built_wrongly(verify):
    kind, shape, der, expected, payload = verify.items[0]
    verify.items[0] = (kind, shape, flip(der, len(der) - 2), expected, payload)
    with pytest.raises(CheckFailed):
        verify.prepare()


# -- enroll ---------------------------------------------------------------------

SEED = bytes(range(16))


@pytest.fixture(scope="module")
def report():
    text, ok = pkcswb.cli.run_scenario(SEED)
    assert ok
    return text


def test_scenario_check_passes_a_full_report(report):
    oracles.check_scenario(report, True, SEED)


@pytest.mark.parametrize("corrupt", [
    lambda r: r.replace("PASS", "FAIL", 1),
    lambda r: "\n".join(line for line in r.splitlines() if "certificate-issuance" not in line),
    lambda r: r.replace("9/9 steps passed", "8/9 steps passed"),
    lambda r: r.replace(f"seed={SEED.hex()}", "seed=00"),
    lambda r: r.replace("step 2/9", "step 3/9"),
])
def test_scenario_check_rejects_a_corrupted_report(report, corrupt):
    with pytest.raises(CheckFailed):
        oracles.check_scenario(corrupt(report), True, SEED)


def test_scenario_check_rejects_a_report_that_claims_failure(report):
    with pytest.raises(CheckFailed):
        oracles.check_scenario(report, False, SEED)


@pytest.mark.parametrize("fault", sorted(oracles.FAULT_STEPS))
def test_fault_stops_at_its_own_step_and_nowhere_else(fault):
    text, ok = pkcswb.cli.run_scenario(SEED, fault)
    oracles.check_scenario(text, ok, SEED, fault)
    for other in oracles.FAULT_STEPS:
        if other != fault:
            with pytest.raises(CheckFailed):
                oracles.check_scenario(text, ok, SEED, other)
    with pytest.raises(CheckFailed):
        oracles.check_scenario(text, ok, SEED)


def test_enroll_check_rejects_a_report_that_changes_between_passes(report):
    w = workloads.Enroll()
    w.build(pkcswb, seed=1)
    w.items[0] = SEED
    assert w.check(0, (report, True), True)
    assert w.check(0, (report, True), False)
    with pytest.raises(CheckFailed, match="reproducible"):
        w.check(0, (report.replace("e=65537", "e=3"), True), False)
    assert w.check(0, (report, False), False) is False


def test_enroll_seeds_come_from_the_workload_seed():
    a, b, c = workloads.Enroll(), workloads.Enroll(), workloads.Enroll()
    a.build(pkcswb, 1)
    b.build(pkcswb, 1)
    c.build(pkcswb, 2)
    assert a.items == b.items != c.items
    assert len(set(a.items)) == workloads.Enroll.SEEDS


def test_key_seed_is_fixed_and_not_the_workload_seed(small_keys):
    a, b = workloads.Sign(), workloads.Sign()
    a.build(pkcswb, 1)
    b.build(pkcswb, 2)
    assert a.keys == b.keys
    assert [item[1] for item in a.items] != [item[1] for item in b.items]
