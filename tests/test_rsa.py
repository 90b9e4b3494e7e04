import builtins
import hashlib
import inspect
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from oracles import is_prime_by_trial_division
from pkcswb import rsa
from pkcswb.errors import BadParameter
from pkcswb.primitives import ConstantSource, ExhaustibleSource, RngExhausted, SeededSource
from conftest import seeded


# -- hand-computed key material ----------------------------------------------


def test_two_prime_toy_key():
    public, private = rsa.key_from_primes((5, 11), 3)
    # chi = lcm(4, 10) = 20 and 3 * 7 = 21 = 1 mod 20
    assert private.d == 7
    assert public.n == 55 and private.version == 0


def test_three_prime_toy_key():
    public, private = rsa.key_from_primes((3, 5, 7), 5)
    assert private.d == 5
    assert private.crt_exponents == (1, 1, 5)
    assert private.crt_coefficients == (1, 2, 1)   # t_1 = 1, 3*2 = 1 mod 5, 15 = 1 mod 7
    assert private.version == 1


def test_u_below_two_rejected():
    with pytest.raises(ValueError):
        rsa.key_from_primes((5,), 3)
    with pytest.raises(ValueError):
        rsa.generate_key(64, 1, 3, seeded(b"x"))


def test_bad_exponent_rejected():
    with pytest.raises(rsa.BadExponent):
        rsa.key_from_primes((5, 11), 5)  # gcd(5, 4) = 1 but gcd(5, 10) = 5


# -- raw operations -----------------------------------------------------------


def test_public_op_examples():
    public, _ = rsa.key_from_primes((5, 11), 3)
    assert rsa.rsa_public_op(2, public) == 8
    assert rsa.rsa_public_op(0, public) == 0
    assert rsa.rsa_public_op(1, public) == 1
    assert rsa.rsa_public_op(54, public) == 54  # (-1)^odd = -1


def test_private_op_examples():
    _, private = rsa.key_from_primes((5, 11), 3)
    assert rsa.rsa_private_op(8, private) == 2
    assert rsa.rsa_private_op(0, private) == 0


def test_range_errors():
    public, private = rsa.key_from_primes((5, 11), 3)
    with pytest.raises(rsa.MessageRepresentativeOutOfRange):
        rsa.rsa_public_op(55, public)
    with pytest.raises(rsa.MessageRepresentativeOutOfRange):
        rsa.rsa_public_op(-1, public)
    with pytest.raises(rsa.CiphertextRepresentativeOutOfRange):
        rsa.rsa_private_op(55, private)


def test_exhaustive_multiprime_identity():
    public, private = rsa.key_from_primes((3, 5, 7), 5)
    for m in range(105):
        assert rsa.rsa_private_op(rsa.rsa_public_op(m, public), private) == m


def test_crt_equals_naive_exponentiation():
    _, private = rsa.key_from_primes((3, 5, 7), 5)
    for c in range(105):
        assert rsa.rsa_private_op(c, private) == pow(c, private.d, private.n)


def test_round_trip_identities_generated_key(key_512):
    public, private = key_512
    rng = seeded(b"ids")
    for _ in range(100):
        m = int.from_bytes(rng.read(64), "big") % public.n
        assert rsa.rsa_private_op(rsa.rsa_public_op(m, public), private) == m
        assert rsa.rsa_public_op(rsa.rsa_private_op(m, private), public) == m


# -- the fault check ------------------------------------------------------------


def test_private_op_raises_exactly_where_crt_over_a_composite_prime_is_wrong():
    # 15 is not prime: CRT gives 42 of the 105 results wrong, and the check
    # (s^5 = c is one-to-one modulo 105) refuses exactly those
    private = rsa.RsaPrivateKey(5, 17, (15, 7))
    refused = 0
    for c in range(105):
        try:
            assert rsa.rsa_private_op(c, private) == pow(c, 17, 105)
        except rsa.FaultDetected:
            refused += 1
    assert refused == 42


@pytest.fixture
def two_cpus(monkeypatch):
    """A process that may run on two CPUs, with no worker before or after the test."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rsa._stop_worker()
    yield
    rsa._stop_worker()


@pytest.fixture(scope="module")
def key_u4():
    """Four primes of 192 bits, above _LEG_BITS: legs 1 and 2 in-process, 3 and 4 in the worker."""
    return rsa.generate_key(768, 4, 65537, seeded(b"fault/u4"))


@pytest.mark.parametrize("in_worker", [False, True], ids=["in-process", "worker"])
@pytest.mark.parametrize("position", [1, 2, 3, 4])
def test_a_wrong_leg_at_any_position_is_refused_before_release(key_u4, position, in_worker,
                                                                two_cpus, monkeypatch):
    _, private = key_u4
    if not in_worker:
        monkeypatch.setattr(rsa, "_LEG_BITS", private.n.bit_length())
    m = 0x1234567890ABCDEF
    right = rsa.rsa_private_op(m, private)  # starts the worker, before any patch
    assert (rsa._worker is not None) == in_worker
    kept = 2
    released = []

    def faulty_pow(base, exponent, modulus=None):
        if (modulus, exponent) == (private.n, private.e):
            released.append(base)  # the check's input: what would be released
        value = builtins.pow(base, exponent, modulus)
        return value + 1 if modulus == private.primes[position - 1] else value

    monkeypatch.setattr(rsa, "pow", faulty_pow, raising=False)
    if in_worker and position > kept:
        receive = rsa._receive
        monkeypatch.setattr(rsa, "_receive", lambda fd: [
            value + (k == position - kept - 1) for k, value in enumerate(receive(fd))])
    with pytest.raises(rsa.FaultDetected):
        rsa.rsa_private_op(m, private)
    # unchecked, the result would have given away n / r_i (Bellcore, in Lenstra's form)
    (s,) = released
    assert s != right
    assert math.gcd(pow(s, private.e, private.n) - m, private.n) == (
        private.n // private.primes[position - 1])


# -- the exponentiation worker ----------------------------------------------------


def test_worker_results_equal_naive_exponentiation_for_2_to_16_primes(two_cpus):
    rng = seeded(b"worker/u")
    for u in range(2, rsa.MAX_PRIMES + 1):
        _, private = rsa.generate_key(u * (rsa._LEG_BITS + 16), u, 65537, rng)
        for c in (0, 1, 2, private.n - 1, int.from_bytes(rng.read(64), "big") % private.n):
            assert rsa.rsa_private_op(c, private) == pow(c, private.d, private.n), u
        assert rsa._worker is not None


_REAPED_BY_EXIT = """
import atexit, os
pids = []

def last():  # registered before pkcswb is imported, so it runs last
    try:
        os.waitpid(pids[0], os.WNOHANG)
    except ChildProcessError:
        print("reaped")
    else:
        print("not reaped")

atexit.register(last)
os.sched_getaffinity = lambda pid: {0, 1}
from pkcswb import pkcs1, rsa
from pkcswb.primitives import SeededSource
_, private = rsa.generate_key(512, 2, 65537, SeededSource(b"exit"))
pkcs1.sign(b"m", private, SeededSource(b"salt"))
pids.append(rsa._worker.pid)
"""


def _run_python(code: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a fresh interpreter running ``code``
    with this checkout's pkcswb."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(rsa.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_process_that_signs_has_reaped_its_worker_by_its_last_exit_handler(two_cpus):
    assert _run_python(_REAPED_BY_EXIT) == (0, "reaped\n", "")


_FRESH_IMPORTS = """
import gc, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
pids = []
for _ in range(3):  # as the benchmark's set-up does before each build
    for name in [m for m in sys.modules if m == "pkcswb" or m.startswith("pkcswb.")]:
        del sys.modules[name]
    from pkcswb import pkcs1, rsa
    from pkcswb.primitives import SeededSource
    _, private = rsa.generate_key(512, 2, 65537, SeededSource(b"fresh"))
    pkcs1.sign(b"m", private, SeededSource(b"salt"))
    pids.append(rsa._worker.pid)
del pkcs1, rsa, SeededSource, private
gc.collect()
live = []
for pid in pids:
    try:
        live.append(os.waitpid(pid, os.WNOHANG) == (0, 0))
    except ChildProcessError:  # reaped
        live.append(False)
dicts = [o for o in gc.get_objects()
         if isinstance(o, dict) and o.get("__name__") == "pkcswb.primitives"]
print(live, len(dicts))
"""


def test_a_discarded_import_is_collected_and_its_worker_reaped(two_cpus):
    # the exit and fork hooks hold no module: of three imports, each with its
    # own worker, only the last is alive once the others are collected
    assert _run_python(_FRESH_IMPORTS) == (0, "[False, False, True] 1\n", "")


class _Interrupted(Exception):
    pass


@pytest.fixture(params=["private op", "key generation"])
def exchange(request, key_1024, monkeypatch):
    """A call that exchanges with the worker, and what it returns in-process."""
    if request.param == "private op":
        _, private = key_1024
        return (lambda: rsa.rsa_private_op(3, private)), pow(3, private.d, private.n)

    def generate():
        return rsa.generate_key(1024, 2, 65537, seeded(b"exchange"))

    with monkeypatch.context() as patch:
        patch.setattr(rsa, "_LEG_BITS", 1 << 20)
        return generate, generate()


def test_an_exception_after_send_discards_the_worker(exchange, two_cpus, monkeypatch):
    run, expected = exchange
    assert run() == expected
    first = rsa._worker

    def interrupted(fd):
        raise _Interrupted()

    receive = rsa._receive
    monkeypatch.setattr(rsa, "_receive", interrupted)
    with pytest.raises(_Interrupted):
        run()  # the worker's reply is left unread
    monkeypatch.setattr(rsa, "_receive", receive)
    assert rsa._worker is None
    with pytest.raises(ChildProcessError):
        os.waitpid(first.pid, os.WNOHANG)  # reaped
    assert run() == expected
    assert rsa._worker is not first


def test_threads_signing_at_once_all_get_correct_results(two_cpus, key_1024):
    # more threads than CPUs, switching often: each finds the worker free or
    # busy, and a reply read by the wrong thread would give a wrong result
    _, private = key_1024
    rsa.rsa_private_op(2, private)  # the worker starts while the process has one thread
    rng = random.Random(7)
    inputs = [[rng.randrange(private.n) for _ in range(30)] for _ in range(4)]
    results = {}

    def sign(k):
        results[k] = [rsa.rsa_private_op(c, private) for c in inputs[k]]

    threads = [threading.Thread(target=sign, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(4):
        assert results[k] == [pow(c, private.d, private.n) for c in inputs[k]]
    assert rsa._worker is not None


def test_private_ops_survive_a_timer_signal_every_half_millisecond(two_cpus, key_1024):
    # the benchmark's speed meter interrupts every 25 ms: a read or write on a
    # worker pipe that a signal interrupts is resumed (PEP 475)
    _, private = key_1024
    rng = random.Random(11)
    inputs = [rng.randrange(private.n) for _ in range(40)]
    signals = []
    previous = signal.signal(signal.SIGALRM, lambda *args: signals.append(1))
    signal.setitimer(signal.ITIMER_REAL, 0.0005, 0.0005)
    try:
        results = [rsa.rsa_private_op(c, private) for c in inputs]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert results == [pow(c, private.d, private.n) for c in inputs]
    assert signals and rsa._worker is not None


def test_a_forked_child_does_not_use_its_parents_worker(exchange, two_cpus):
    run, expected = exchange
    assert run() == expected
    parent = rsa._worker
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            closed = []
            for fd in (parent.requests, parent.replies):
                try:
                    os.fstat(fd)
                except OSError:
                    closed.append(fd)
            forgotten = rsa._worker is None and len(closed) == 2
            right = run() == expected
            own = rsa._worker is not None and rsa._worker.pid != parent.pid
            rsa._stop_worker()
            code = 0 if (forgotten, right, own) == (True, True, True) else 1
        finally:
            os._exit(code)
    for _ in range(6000):  # a minute at most
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not exit")
    assert os.waitstatus_to_exitcode(status) == 0
    assert rsa._worker is parent
    assert run() == expected


@pytest.mark.parametrize("condition", ["one CPU", "small primes", "a second thread"])
def test_no_worker_is_forked_unless_every_condition_holds(condition, two_cpus, key_1024,
                                                          monkeypatch):
    private = key_1024[1]
    if condition == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif condition == "small primes":
        _, private = rsa.generate_key(2 * (rsa._LEG_BITS - 8), 2, 65537, seeded(b"small"))
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no fork in this test")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if condition == "a second thread":
        thread.start()
    try:
        for c in (2, 3, 5):
            assert rsa.rsa_private_op(c, private) == pow(c, private.d, private.n)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == [] and rsa._worker is None


# -- key generation through the worker ------------------------------------------------


def _keygen(seed: bytes) -> tuple[tuple[int, ...], list[int]]:
    """The primes of a seeded 1024-bit two-prime key, and the sizes of the
    reads it made, in order."""
    rng = _CountingSource(seed)
    return rsa.generate_key(1024, 2, 65537, rng)[1].primes, rng.reads


def test_key_generation_reads_the_same_octets_with_or_without_the_worker(two_cpus,
                                                                         monkeypatch):
    with_worker = _keygen(b"host")
    assert rsa._worker is not None
    rsa._stop_worker()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = _keygen(b"host")
    assert rsa._worker is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        second_thread = _keygen(b"host")
    finally:
        release.set()
        thread.join(timeout=60)
    assert rsa._worker is None
    assert with_worker == one_cpu == second_thread
    # a candidate's 72 octets, then the kept prime's 40 witnesses of 64
    assert with_worker[1][-1 - rsa.MILLER_RABIN_ROUNDS:] == [72] + [64] * rsa.MILLER_RABIN_ROUNDS


def _kill(worker) -> None:
    os.kill(worker.pid, signal.SIGKILL)


def _end_replies(worker) -> None:
    """Put /dev/null where the worker's reply pipe was: the next read ends."""
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, worker.replies)
    os.close(null)


@pytest.mark.parametrize("failure", [_kill, _end_replies], ids=["killed", "replies end"])
def test_a_worker_that_fails_during_key_generation_is_discarded(failure, two_cpus, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(rsa, "_LEG_BITS", 1 << 20)
        expected = rsa.generate_key(1024, 3, 65537, seeded(b"keygen/fails"))
    exchanges = []
    send = rsa._send

    def failing_on_the_second_exchange(fd, values):
        worker = rsa._worker
        if worker is not None and fd == worker.requests:  # not the worker's replies
            exchanges.append(worker.pid)
            if len(exchanges) == 2:
                failure(worker)
        send(fd, values)

    monkeypatch.setattr(rsa, "_send", failing_on_the_second_exchange)
    assert rsa.generate_key(1024, 3, 65537, seeded(b"keygen/fails")) == expected
    # one exchange per kept prime: the second fails, and a new worker takes the third
    first, failed, third = exchanges
    assert first == failed != third == rsa._worker.pid
    with pytest.raises(ChildProcessError):
        os.waitpid(failed, os.WNOHANG)  # reaped


def test_private_key_invariants_checked():
    _, private = rsa.key_from_primes((5, 11), 3)
    with pytest.raises(rsa.InvalidKey):
        rsa.RsaPrivateKey(private.e, private.d + 1, private.primes)
    # d taken modulo phi(n) = 40 instead of lcm(4, 10) = 20 is the same key
    same = rsa.RsaPrivateKey(3, 27, (5, 11))
    assert (same.n, same.crt_exponents, same.crt_coefficients) == (
        private.n, private.crt_exponents, private.crt_coefficients)


@pytest.mark.parametrize("u", [2, 3])
def test_private_key_d_outside_one_to_n_is_invalid(toy_keys, u):
    # e*d = 1 mod lcm(r_i - 1) holds for both: only the range refuses them
    private = toy_keys[u][1]
    lam = math.lcm(*(r - 1 for r in private.primes))
    for d in (private.d - 3 * lam, private.d + (private.n // lam + 1) * lam):
        with pytest.raises(rsa.InvalidKey, match=r"\[1, n\)"):
            rsa.RsaPrivateKey(private.e, d, private.primes)


@pytest.mark.parametrize("primes,e", [((3, 5, 15), 3), ((9, 15), 3), ((5, 11), 5)])
def test_private_key_primes_must_be_coprime_to_each_other_and_e(primes, e):
    with pytest.raises(rsa.InvalidKey):
        rsa.RsaPrivateKey(e, 1, primes)
    with pytest.raises(rsa.InvalidKey):
        rsa.key_from_primes(primes, e)


def test_private_key_is_e_d_and_its_primes():
    # n, the version and the CRT triples are derived, never passed in
    assert list(inspect.signature(rsa.RsaPrivateKey).parameters) == ["e", "d", "primes"]


# -- prime generation ----------------------------------------------------------


def test_generate_prime_small_is_really_prime():
    for tag in (b"a", b"b", b"c", b"d"):
        p = rsa.generate_prime(8, seeded(b"prime8/" + tag))
        assert p >= 2**7
        assert all(p == q or p % q for q in range(2, 256) if q <= p)
        assert is_prime_by_trial_division(p)


@pytest.mark.parametrize("bits", [12, 16, 20])
def test_generate_prime_confirmed_by_trial_division(bits):
    for tag in (b"x", b"y", b"z"):
        p = rsa.generate_prime(bits, seeded(b"prime/%d/" % bits + tag))
        assert p.bit_length() == bits
        assert is_prime_by_trial_division(p)


def test_generate_prime_deterministic():
    assert rsa.generate_prime(16, seeded(b"det")) == rsa.generate_prime(16, seeded(b"det"))


def test_generate_prime_minimum_bits():
    with pytest.raises(ValueError):
        rsa.generate_prime(7, seeded(b"q"))


def test_generate_prime_exhausted_source():
    with pytest.raises(RngExhausted):
        rsa.generate_prime(16, ExhaustibleSource(b"\x00\x01"))


def _forced_candidate(octet: int, bits: int) -> int:
    # the one candidate generate_prime(bits, ConstantSource(octet)) proposes
    low = math.isqrt(2 ** (2 * bits - 1)) + 1  # ⌈√2·2^(bits−1)⌉
    x = int.from_bytes(bytes([octet]) * ((bits + 7) // 8 + 8), "big")
    return (low + x % (2**bits - low)) | 1


def test_duplicate_prime_detected():
    # constant 0x06 forces candidate 53381, which is prime, so the source
    # keeps proposing the same prime over and over
    assert _forced_candidate(0x06, 16) == 53381
    assert is_prime_by_trial_division(53381)
    with pytest.raises(rsa.DuplicatePrime):
        rsa.generate_key(32, 2, 65537, ConstantSource(0x06))


def test_bad_exponent_after_200_attempts():
    # constant 0x07 forces candidate 48157, a prime ≡ 1 mod 3, so with e = 3
    # every one of the 200 attempts has gcd(e, r - 1) = 3
    assert _forced_candidate(0x07, 16) == 48157 and 48157 % 3 == 1
    assert is_prime_by_trial_division(48157)
    with pytest.raises(rsa.BadExponent):
        rsa.generate_key(32, 2, 3, ConstantSource(0x07))


def test_non_prime_constant_source_trips_candidate_budget():
    assert _forced_candidate(0xC5, 16) == 53547 == 3 * 17849
    with pytest.raises(RngExhausted):
        rsa.generate_prime(16, ConstantSource(0xC5))


# -- the three refusal steps --------------------------------------------------------


class _CountingSource(SeededSource):
    def __init__(self, seed: bytes):
        super().__init__(seed)
        self.reads = []

    def read(self, n: int) -> bytes:
        self.reads.append(n)
        return super().read(n)


def _count_exponentiations(monkeypatch) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(base, exponent) of the modular exponentiations rsa runs from now on,
    bar squarings, in-process or in the worker; and of those it sends to
    the worker, which are in the first list too, in the order sent."""
    calls, sent = [], []

    def counting(base, exponent, modulus=None):
        if exponent != 2:
            calls.append((base, exponent))
        return pow(base, exponent, modulus)

    def sending(fd, values, send=rsa._send):
        # only the parent sends requests: a worker forked from now on
        # appends its replies to its own copy of these lists
        triples = list(zip(values[::3], values[1::3]))
        calls.extend(triples)
        sent.extend(triples)
        send(fd, values)

    monkeypatch.setattr(rsa, "pow", counting, raising=False)
    monkeypatch.setattr(rsa, "_send", sending)
    return calls, sent


def _odd_part(n: int) -> int:
    """d with n - 1 = d * 2^s and d odd: the exponent of a Miller-Rabin round."""
    d = n - 1
    return d >> ((d & -d).bit_length() - 1)


def test_stage_products_hold_the_primes_of_their_ranges():
    assert rsa._SMALL_PRIMES == {p for p in range(1000) if is_prime_by_trial_division(p)}
    assert rsa._SMALL_PRODUCT == math.prod(rsa._SMALL_PRIMES)
    second = [p for p in range(1000, 2**14) if is_prime_by_trial_division(p)]
    assert len(second) == 1732
    assert rsa._PRODUCT == math.prod(second)
    assert rsa._PRODUCT.bit_length() == 22072


def test_is_probable_prime_agrees_with_trial_division_below_2_16():
    # below 997^2 the answer is exact and no random octet is read
    empty = ExhaustibleSource(b"")
    for n in range(2**16):
        assert rsa._is_probable_prime(n, empty) == is_prime_by_trial_division(n), n


def test_is_probable_prime_agrees_with_trial_division_across_997_squared():
    # either side of where Miller-Rabin starts, and past 1009^2 and 1009 * 1013,
    # the least composites that the first stage passes
    rng = seeded(b"across 997^2")
    for n in range(997**2 - 2**10, 1009 * 1013 + 2**10):
        assert rsa._is_probable_prime(n, rng) == is_prime_by_trial_division(n), n


def test_factor_below_2_14_rejected_with_one_witness_and_no_exponentiation(monkeypatch):
    second = [p for p in rsa._primes_below(2**14) if p >= 1000]
    factors = [second[0], second[-1]] + random.Random(14).sample(second, 30)
    assert factors[:2] == [1009, 16381]
    cofactors = [rsa.generate_prime(bits, seeded(b"cofactor/%d" % bits)) for bits in (21, 64, 512)]
    assert all(r > 2**20 for r in cofactors)
    calls, _ = _count_exponentiations(monkeypatch)
    for q in factors:
        for r in cofactors:
            rng = _CountingSource(b"%d*%d" % (q, r))
            assert not rsa._is_probable_prime(q * r, rng)
            # the first witness is drawn, as Miller-Rabin alone would, and not used
            assert rng.reads == [((q * r).bit_length() + 7) // 8]
    assert calls == []


# Generated before the second stage existed: a change to how the random
# stream is read would show here as other primes.
_STREAM_GUARD_PRIMES = (
    int("d788ba55a487d078be5fa970b90852ef477e6067294ee43f53001a4b0fb9e886"
        "7c147667c5597353b434b393ff297dbbc5684f8036c5bcddc1f581aa4d6d9b5b", 16),
    int("da4e20b46c4ed888c9fa446d0d8bc49d9eb83e261db79d5bbf82103f218c2982"
        "5bec3284181d7ce6060384ed9e4ccd697642fbcd45228417ceb3cb3dc2f4212b", 16),
)


def test_seeded_key_primes_are_pinned():
    _, private = rsa.generate_key(1024, 2, 65537, seeded(b"stream guard"))
    assert private.primes == _STREAM_GUARD_PRIMES


@pytest.fixture(params=[False, True], ids=["in-process", "worker"])
def rounds_in_worker(request, two_cpus, monkeypatch):
    """Whether the Miller-Rabin rounds' last half may go to the worker: any
    candidate size may, or none may."""
    monkeypatch.setattr(rsa, "_LEG_BITS", 0 if request.param else 1 << 20)
    return request.param


def test_seeded_prime_spends_a_pinned_count_of_exponentiations(rounds_in_worker, monkeypatch):
    calls, sent = _count_exponentiations(monkeypatch)
    p = rsa.generate_prime(512, seeded(b"stream guard/512"))
    assert p == int("c6b141cb3aebefd31ac67a8db0053de0b17f531ed81df22a696177bf5b6c39cf"
                    "3a2ae58e441969ecb09163caa4e10383d5ca6f5489032a0b86b38a008b5eab67", 16)
    # 9 composites reach an exponentiation and base 2 refuses each with one;
    # Miller-Rabin alone spent 49 random-witness ones, 9 of them on composites
    composites, prime = calls[:9], calls[9:]
    assert [base for base, _ in composites] == [2] * 9
    assert len({exponent for _, exponent in composites}) == 9
    assert prime[0] == (2, _odd_part(p))
    assert [exponent for _, exponent in prime] == [_odd_part(p)] * (1 + rsa.MILLER_RABIN_ROUNDS)
    assert all(base != 2 for base, _ in prime[1:])
    assert len(calls) == 1 + rsa.MILLER_RABIN_ROUNDS + 9 == 50
    # the worker takes the last half of the kept prime's random-witness rounds
    assert len(sent) == (rsa.MILLER_RABIN_ROUNDS // 2 if rounds_in_worker else 0)
    assert (rsa._worker is not None) == rounds_in_worker


def test_strong_base_2_pseudoprime_is_refused_by_the_random_witnesses(rounds_in_worker,
                                                                       monkeypatch):
    # the least kind of composite the three steps pass: no factor below 2^14
    # and a strong liar for base 2
    n = 579956653
    assert n == 17029 * 34057 and 2**14 < 17029
    assert is_prime_by_trial_division(17029) and is_prime_by_trial_division(34057)
    d = _odd_part(n)
    assert rsa._is_strong_probable_prime(2, n, d, 2)
    calls, sent = _count_exponentiations(monkeypatch)
    rng = _CountingSource(b"spsp2/10")
    assert not rsa._is_probable_prime(n, rng)
    # having passed the three steps, n draws all its witnesses before any
    # round runs, and the first two lie too, but the third refuses n: base 2
    # only ever refuses a candidate, never accepts one
    assert rng.reads == [4] * rsa.MILLER_RABIN_ROUNDS
    assert calls[0] == (2, d)
    assert [exponent for _, exponent in calls] == [d] * (1 + rsa.MILLER_RABIN_ROUNDS)
    assert all(base != 2 for base, _ in calls[1:])
    assert len(sent) == (rsa.MILLER_RABIN_ROUNDS // 2 if rounds_in_worker else 0)
    source = seeded(b"spsp2/10")
    witnesses = [2 + int.from_bytes(source.read(4), "big") % (n - 3) for _ in range(3)]
    assert [rsa._is_strong_probable_prime(a, n, d, 2) for a in witnesses] == [True, True, False]


def test_composite_refused_by_base_2_reads_one_witness_and_no_random_exponentiation(monkeypatch):
    primes = [rsa.generate_prime(bits, seeded(b"base 2/%d" % bits)) for bits in (15, 21, 64, 512)]
    assert all(r > 2**14 for r in primes)
    calls, _ = _count_exponentiations(monkeypatch)
    for i, q in enumerate(primes):
        for r in primes[i:]:
            rng = _CountingSource(b"%d*%d" % (q, r))
            calls.clear()
            assert not rsa._is_probable_prime(q * r, rng)
            # the first witness is drawn, as Miller-Rabin alone would, and not used
            assert rng.reads == [((q * r).bit_length() + 7) // 8]
            assert calls == [(2, _odd_part(q * r))]


# SHA-256 of the primes of the three benchmark key shapes, generated before
# base 2 refused composites: the 341- and 778-bit searches of the multiprime
# shapes are guarded as well as the 512-bit one above.
_BENCH_SHAPES_DIGEST = "b066f74969ef414f72cbb013df2c3b2024561d971bebc363a838319985f329ea"


def test_seeded_bench_shape_primes_are_pinned():
    primes = []
    for bits, u in ((1024, 2), (1024, 3), (2335, 3)):
        rng = SeededSource(hashlib.sha256(b"pkcswb benchmark keys" + b"%d-u%d" % (bits, u)).digest())
        primes += rsa.generate_key(bits, u, 65537, rng)[1].primes
    text = " ".join(format(r, "x") for r in primes)
    assert hashlib.sha256(text.encode()).hexdigest() == _BENCH_SHAPES_DIGEST


# -- key generation -------------------------------------------------------------


@pytest.mark.parametrize("bits,u", [(64, 2), (96, 3), (128, 4), (512, 2)])
def test_generate_key_shapes(bits, u):
    public, private = rsa.generate_key(bits, u, 65537, seeded(b"shape%d" % u))
    assert public.n.bit_length() == bits
    assert private.u == u
    assert private.version == (0 if u == 2 else 1)
    chi = math.lcm(*[r - 1 for r in private.primes])
    assert (private.e * private.d) % chi == 1


@pytest.mark.parametrize("u", range(2, 17))
def test_no_prime_is_thrown_away(u, monkeypatch):
    drawn = []
    real = rsa.generate_prime

    def counting(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(rsa, "generate_prime", counting)
    for modulus_bits in (16 * u + 7, 20 * u + u // 2, 24 * u):  # odd and even sizes
        drawn.clear()
        public, private = rsa.generate_key(modulus_bits, u, 65537,
                                           seeded(b"exact/%d/%d" % (u, modulus_bits)))
        assert public.n.bit_length() == modulus_bits
        base, extra = divmod(modulus_bits, u)
        assert [r.bit_length() for r in private.primes] == \
            [base + 1] * extra + [base] * (u - extra)
        # u primes drawn and kept; only a repeat or gcd(e, r - 1) != 1 is redrawn
        kept = [r for i, r in enumerate(drawn)
                if r not in drawn[:i] and math.gcd(65537, r - 1) == 1]
        assert tuple(kept) == private.primes


@pytest.mark.parametrize("bits", [8, 9, 16, 17, 512, 513])
@pytest.mark.parametrize("u", [2, 3, 5, 16])
def test_prime_floor_is_the_ceiling_of_the_u_th_root(bits, u):
    low = rsa._prime_floor(bits, u)
    target = 2 ** (u * bits - 1)
    assert (low - 1) ** u < target <= low ** u
    if u == 2:
        assert low == math.isqrt(target) + 1  # the FIPS 186-4 §B.3.1 √2 bound
    for tag in (b"a", b"b"):
        assert low <= rsa.generate_prime(bits, seeded(b"floor/%d/" % u + tag), u) < 2**bits


@pytest.mark.parametrize("bits,u,e", [
    (1024, rsa.MAX_PRIMES + 1, 65537),
    (rsa.MAX_MODULUS_BITS + 1, 2, 65537),
    (512, 2, (1 << rsa.MAX_EXPONENT_BITS) + 1),
])
def test_generate_key_refuses_a_key_over_the_reader_caps(bits, u, e):
    # refused before any random octet is read: the empty source is never touched
    with pytest.raises(BadParameter):
        rsa.generate_key(bits, u, e, ExhaustibleSource(b""))


def test_generate_key_determinism():
    a = rsa.generate_key(64, 2, 65537, seeded(b"same"))
    b = rsa.generate_key(64, 2, 65537, seeded(b"same"))
    assert a == b


# -- strength table --------------------------------------------------------------


_TABLE_ROWS = [
    (80, 1024, 2), (73, 1024, 3),
    (112, 2335, 3), (100, 2335, 4), (88, 2335, 5),
    (128, 3072, 3), (117, 3072, 4), (103, 3072, 5), (93, 3072, 6),
    (192, 7680, 4), (175, 7680, 5), (158, 7680, 6), (144, 7680, 7), (125, 7680, 9),
    (256, 15360, 5), (235, 15360, 6), (215, 15360, 7), (199, 15360, 8),
]


def test_strength_table_all_rows():
    assert len(rsa.STRENGTH_TABLE) == 18
    for strength, bits, u in _TABLE_ROWS:
        assert rsa.strength_lookup(bits, u) == strength


def test_strength_lookup_absent():
    assert rsa.strength_lookup(2048, 2) is None
    assert rsa.strength_lookup(1024, 4) is None


def test_nfs_estimate_monotone():
    assert rsa.nfs_advisory_estimate(2048) > rsa.nfs_advisory_estimate(1024)


def test_nfs_estimate_near_table_anchor():
    assert abs(rsa.nfs_advisory_estimate(1024) - 80) <= 10


def test_nfs_estimate_finite_positive():
    for bits in range(256, 16385, 512):
        value = rsa.nfs_advisory_estimate(bits)
        assert 0 < value < float("inf")
    with pytest.raises(ValueError):
        rsa.nfs_advisory_estimate(255)


def test_key_caps_hold_at_their_limits():
    rsa.check_key_caps(2**rsa.MAX_MODULUS_BITS - 1, 2**rsa.MAX_EXPONENT_BITS - 1,
                       rsa.MAX_PRIMES)
    for n, e, u in ((2**rsa.MAX_MODULUS_BITS, 3, 2),
                    (15, 2**rsa.MAX_EXPONENT_BITS, 2),
                    (15, 3, rsa.MAX_PRIMES + 1)):
        with pytest.raises(rsa.KeyTooLarge):
            rsa.check_key_caps(n, e, u)
    assert rsa.MAX_MODULUS_BITS > max(bits for bits, _ in rsa.STRENGTH_TABLE)
    assert rsa.MAX_PRIMES > max(u for _, u in rsa.STRENGTH_TABLE)


@pytest.mark.parametrize("e", [4, 65536])
def test_generate_key_refuses_an_even_exponent(e):
    with pytest.raises(BadParameter, match="odd"):
        rsa.generate_key(64, 2, e, ExhaustibleSource(b""))


def test_public_key_repr_names_e_and_the_modulus_size():
    # n in decimal would have 4933 digits, more than CPython prints (4300)
    public = rsa.RsaPublicKey(2**16383 + 1, 65537)
    assert repr(public) == "RsaPublicKey(e=65537, n=<16384 bits>)"
