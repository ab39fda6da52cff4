import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorsim.primes import (
    _PAGE_ODDS,
    PI_LOWER_BOUND_FROM,
    PrimeEngine,
    PrimeRangeError,
    PrimeTable,
    is_prime,
    pi_lower_bound,
    prime_pi_lucy,
)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def naive_flags(limit: int) -> bytearray:
    """Plain Eratosthenes: flags[n] is 1 exactly when n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return flags


def naive_sieve_pi(limit: int) -> list:
    """Counting oracle: plain Eratosthenes, cumulative pi."""
    flags = naive_flags(limit)
    out = [0] * (limit + 1)
    c = 0
    for i in range(limit + 1):
        c += flags[i]
        out[i] = c
    return out


ORACLE_LIMIT = 50_000
ORACLE_PI = naive_sieve_pi(ORACLE_LIMIT)


def plain_sieve_packed(limit: int) -> np.ndarray:
    """PrimeTable(limit)._packed from a plain Eratosthenes over 0..limit: the
    flag of each odd 2i + 1, high bit first, padded to whole 64-bit words."""
    odd = np.frombuffer(bytes(naive_flags(limit)), dtype=np.uint8)[1::2]
    return np.packbits(np.concatenate([odd, np.zeros(-odd.size % 64, dtype=np.uint8)]))


def n_pages(table: PrimeTable) -> int:
    """How many sieve pages the table was built in."""
    return -(-table._packed.size * 8 // _PAGE_ODDS)


def ref_pi(table: PrimeTable, x: int) -> int:
    """PrimeTable.pi counted from the packed bits alone: the popcount of the
    64-bit words before the word of the last odd <= x, then of that word's
    bytes up to it."""
    if x < 2:
        return 0
    idx = (x - 1) // 2 if x % 2 else (x - 2) // 2  # last odd <= x
    nbyte, nbit = divmod(idx, 8)
    word = nbyte >> 3
    count = 1 + int(np.bitwise_count(table._packed[: 8 * word]).sum())
    head = table._packed[8 * word : nbyte + 1].tobytes()
    count += bin(int.from_bytes(head, "big") >> (7 - nbit)).count("1")
    return count


def ref_primes_between(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """PrimeTable.primes_between before it became a one-element call of
    `primes_between_many`: the packed bytes of each sieve page in turn."""
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    out = []
    if lo <= 2 <= hi:
        out.append(np.array([2], dtype=np.int64))
    i_lo = max(lo, 0) // 2
    i_hi = (hi - 1) // 2
    for k in range(i_lo // _PAGE_ODDS, i_hi // _PAGE_ODDS + 1):
        base = k * _PAGE_ODDS
        page = table._packed[base >> 3 : (base + _PAGE_ODDS) >> 3]
        off_lo = max(i_lo - base, 0)
        off_hi = min(i_hi - base, _PAGE_ODDS - 1)
        b_lo = off_lo >> 3
        bits = np.unpackbits(page[b_lo : (off_hi >> 3) + 1])
        bits = bits[off_lo - 8 * b_lo : off_hi - 8 * b_lo + 1]
        offs = np.nonzero(bits)[0].astype(np.int64)
        out.append(2 * (base + off_lo + offs) + 1)
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(10969262131)  # 47297 * 231923
    assert is_prime(47297) and is_prime(231923)


def test_is_prime_range_guard():
    with pytest.raises(PrimeRangeError):
        is_prime(-1)
    with pytest.raises(PrimeRangeError):
        is_prime(1 << 64)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division(n)


def test_pi_reference_examples(engine):
    assert engine.pi(3) == 2
    assert engine.pi(101) == 26


def test_pi_against_naive_sieve(engine):
    rng = random.Random(7)
    for _ in range(60):
        x = rng.randint(2, ORACLE_LIMIT)
        assert engine.pi(x) == ORACLE_PI[x]
    assert engine.pi(10**6) == 78498  # frozen from the naive oracle


def test_pi_nondecreasing(engine):
    vals = [engine.pi(x) for x in range(990, 1030)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_nth_prime_examples(engine):
    assert engine.nth_prime(1) == 2
    assert engine.nth_prime(6) == 13
    # 10000th prime frozen from enumerating the naive oracle
    assert engine.nth_prime(10000) == 104729


def test_pi_nth_roundtrip(engine):
    for n in [1, 2, 3, 10, 100, 1234, 9999]:
        p = engine.nth_prime(n)
        assert is_prime(p)
        assert engine.pi(p) == n
    for p in [2, 3, 5, 101, 7919]:
        assert engine.nth_prime(engine.pi(p)) == p


def test_nearest_prime_examples(engine):
    assert engine.nearest_prime(13.2) == 13
    assert engine.nearest_prime(9.0) == 11  # tie 7/11, larger wins
    # gauge-bound argument for the marked semiprime, brute-force scanned
    t = 0.375 * 10969262131 ** (1.0 / 3.0)
    lo = hi = round(t)
    while not trial_division(lo):
        lo -= 1
    while not trial_division(hi):
        hi += 1
    expect = hi if (hi - t) <= (t - lo) else lo
    assert engine.nearest_prime(t) == expect == 829


def test_nearest_prime_brute_force_scan(engine):
    rng = random.Random(3)
    for _ in range(40):
        t = rng.uniform(3.0, 40000.0)
        got = engine.nearest_prime(t)
        best = min(
            (p for p in range(2, int(t) + 200) if ORACLE_PI[p] - ORACLE_PI[p - 1]),
            key=lambda p: (abs(p - t), -p),
        )
        assert got == best


def test_sieve_vs_combinatorial(engine):
    rng = random.Random(11)
    table = PrimeTable(2_000_000)
    for _ in range(25):
        x = rng.randint(10**5, 2_000_000)
        assert table.pi(x) == prime_pi_lucy(x)
    assert prime_pi_lucy(10**9) == 50847534  # classical reference count
    assert engine.pi(54321) == prime_pi_lucy(54321)


def test_packed_equals_plain_sieve():
    """The wheel-started pages equal a plain sieve bit for bit: every limit
    in 3..200, limits around 15015 = 3*5*7*11*13 and around 30030, where the
    wheel's period of 15015 odds ends, and limits at the first odd of the
    second and third pages and at the odd before each."""
    limits = list(range(3, 201))
    limits += [15015 * k + d for k in (1, 2) for d in range(-2, 3)]
    limits += [2 * k * _PAGE_ODDS + d for k in (1, 2) for d in (-1, 1)]
    for limit in limits:
        assert np.array_equal(PrimeTable(limit)._packed, plain_sieve_packed(limit)), limit


def test_grown_table_equals_fresh_sieve():
    """A table grown from a table of no larger limit equals a fresh sieve bit
    for bit, word counts included: limits around a 64-odd word (127, 128,
    129), the engine's least table and one past it, the first odd of the
    second page (2^21 + 1), the desk fig2 table and one of 31 pages."""
    limits = [3, 127, 128, 129, 2_000_000, 2_000_003, 2**21 + 1, 4_234_309, 32_000_000]
    fresh = {limit: PrimeTable(limit) for limit in limits}
    for i, small in enumerate(limits):
        for limit in limits[i:]:
            grown = PrimeTable(limit, fresh[small])
            assert np.array_equal(grown._packed, fresh[limit]._packed), (small, limit)
            assert np.array_equal(grown._counts, fresh[limit]._counts), (small, limit)


def test_fig2_sieves_each_odd_once(monkeypatch, tmp_path):
    """A desk fig2 run grows its 2*10^6 table to the y bound of the classical
    map, so the pages it sieves hold each odd of the final table once, plus
    at most the part word that the grown table does not keep."""
    from factorsim import cli, primes

    pages, limits = [], []
    sieve_page, post_init = primes._sieve_odd_page, PrimeTable.__post_init__

    def page(lo_odd, n_odds, base_primes):
        pages.append(n_odds)
        return sieve_page(lo_odd, n_odds, base_primes)

    def built(self, grown_from):
        post_init(self, grown_from)
        limits.append(self.limit)

    monkeypatch.setattr(primes, "_sieve_odd_page", page)
    monkeypatch.setattr(PrimeTable, "__post_init__", built)
    assert cli.run(["fig2", "--j", "10000", "--T", "100", "--seed", "42", "--samples", "8",
                    "--out-prefix", str(tmp_path / "fig2")]) == 0
    assert limits == [2_000_000, 4_234_309]
    assert sum(pages) <= (limits[-1] - 1) // 2 + 1 + 64


def test_pi_word_counts_against_lucy():
    """pi from the per-word counts plus the popcount of the bytes left, at
    the page edge, at word (64 odds) and byte (8 odds) edges, and at seeded x."""
    table = PrimeTable(3_000_000)  # two sieve pages
    page_edge = 2 * _PAGE_ODDS + 1  # first odd of the second page
    xs = [page_edge + d for d in range(-5, 6)] + [table.limit - 1, table.limit]
    for first_odd in (1, 129, 1025, 2 * 64 * 1000 + 1, page_edge + 128, page_edge + 16 * 777):
        xs += [first_odd + d for d in (-17, -16, -2, -1, 0, 1, 2, 15, 16, 17)]
    rng = random.Random(9)
    xs += [rng.randint(2, table.limit) for _ in range(50)]
    lucy = [prime_pi_lucy(x) for x in xs]
    for x, want in zip(xs, lucy):
        assert table.pi(x) == ref_pi(table, x) == want, x
    # the array pi, as one call over every x (both pages, any order)
    got = table.pi_many(np.array(xs[::-1] + [-3, 0, 1, 2, 3]))
    assert got.dtype == np.int64
    assert got.tolist() == lucy[::-1] + [0, 0, 0, 1, 2]
    assert table.pi_many(np.empty(0, dtype=np.int64)).size == 0
    with pytest.raises(PrimeRangeError, match=rf"pi\({table.limit + 1}\) beyond"):
        table.pi_many(np.array([5, table.limit + 1]))


def test_nth_prime_across_pages():
    """nth_prime and pi across the page edge, at the first and last prime of
    64-bit words (64 odds) and of bytes (8 odds), and in the table's last
    word, whose bits past the limit are padding."""
    table = PrimeTable(3_000_000)  # two sieve pages
    assert n_pages(table) == 2
    assert table._packed.size * 8 - (table.limit + 1) // 2 == 32  # padded odds
    primes = table.primes_between(0, table.limit)
    assert len(primes) == ref_pi(table, table.limit)
    first = ref_pi(table, 2 * _PAGE_ODDS - 1)  # primes of the first page, and 2
    ns = [1, 2, 3, 4, 5, 8, 9, 10, 1000, first - 1, first, first + 1, first + 2,
          len(primes) - 1, len(primes)]
    odd = (primes[1:] - 1) // 2  # odd index of each odd prime
    for shift in (6, 3):  # words, then bytes
        # n of the first odd prime of a word (byte), and of the last one before it
        edge = np.flatnonzero(np.diff(odd >> shift)) + 3
        ns += edge[:4].tolist() + edge[-4:].tolist()
        ns += (edge[:4] - 1).tolist() + (edge[-4:] - 1).tolist()
    last_word = odd[-1] >> 6
    assert last_word == ((table.limit - 1) // 2) >> 6
    ns += (np.flatnonzero(odd >> 6 == last_word) + 2).tolist()
    for n in ns:
        assert table.nth_prime(n) == primes[n - 1], n
    rng = np.random.default_rng(5)
    for n in rng.integers(1, len(primes) + 1, size=50):
        assert table.nth_prime(int(n)) == primes[n - 1]
    with pytest.raises(PrimeRangeError, match="beyond table limit"):
        table.nth_prime(len(primes) + 1)
    # pi beside each of those primes, and at every x of the last two words
    xs = np.concatenate([(primes[np.array(ns) - 1, None] + np.arange(-1, 2)).ravel(),
                         np.arange(128 * last_word - 127, table.limit + 1)])
    assert table.pi_many(xs).tolist() == np.searchsorted(primes, xs, side="right").tolist()


def test_pi_lower_bound_against_sieve():
    """pi_lower_bound(y) <= pi(y) for every y from PI_LOWER_BOUND_FROM to
    3*10^7: pi is constant between primes and the bound increases, so
    checking y = p - 1 for every prime p of the range covers each y. The
    range is tight: the bound exceeds pi one below it."""
    table = PrimeTable(30_000_000)
    ps = table.primes_between(PI_LOWER_BOUND_FROM + 1, table.limit)
    pi_before = table.pi(PI_LOWER_BOUND_FROM) + np.arange(ps.size)  # pi(p - 1)
    assert (pi_lower_bound((ps - 1).astype(float)) <= pi_before).all()
    below = PI_LOWER_BOUND_FROM - 1
    assert pi_lower_bound(np.array([float(below)]))[0] > table.pi(below)


def test_primes_between(engine):
    got = list(engine.table.primes_between(90, 120))
    assert got == [97, 101, 103, 107, 109, 113]


def test_primes_between_matches_is_prime_oracle():
    page_edge = 2 * _PAGE_ODDS + 1  # first odd of the second sieve page
    table = PrimeTable(page_edge + 100_000)
    rng = random.Random(5)
    ranges = [(lo, lo + w) for lo in (0, 1, 2, 3) for w in (-1, 0, 1, 2, 9, 1000)]
    ranges += [(page_edge - a, page_edge + b)
               for a, b in ((0, 0), (2, 0), (1, 1), (17, 0), (0, 17), (4999, 5001))]
    ranges += [(lo, lo + rng.randint(0, 3000))
               for lo in (rng.randint(0, table.limit - 3000) for _ in range(40))]
    ranges.append((table.limit - 500, table.limit))
    for lo, hi in ranges:
        got = table.primes_between(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)
    # a range spanning both pages, checked by count
    whole = table.primes_between(10, table.limit)
    assert whole.size == table.pi(table.limit) - table.pi(9)
    assert bool(np.all(np.diff(whole) > 0))
    with pytest.raises(PrimeRangeError):
        table.primes_between(0, table.limit + 1)


def test_primes_between_many_matches_reference():
    """One read over many windows equals the old per-window read, window by
    window: windows holding 2, empty and reversed windows, windows that
    straddle the page edge, and overlapping windows in any order."""
    page_edge = 2 * _PAGE_ODDS + 1
    table = PrimeTable(page_edge + 100_000)
    rng = random.Random(12)
    windows = [(lo, lo + w) for lo in (-4, 0, 1, 2, 3) for w in (-1, 0, 1, 2, 9, 64)]
    windows += [(page_edge - a, page_edge + b)
                for a, b in ((0, 0), (2, 0), (1, 1), (17, 0), (0, 17), (4999, 5001))]
    windows += [(lo, lo + rng.randint(-20, 3000))
                for lo in (rng.randint(0, table.limit - 3000) for _ in range(60))]
    windows += [(table.limit - 500, table.limit), (10, 9), (7, 7), (8, 8)]
    rng.shuffle(windows)
    lo, hi = (np.array(c, dtype=np.int64) for c in zip(*windows))
    primes, counts = table.primes_between_many(lo, hi)
    assert primes.dtype == np.int64 and counts.tolist().count(0) >= 8
    ends = np.cumsum(counts)
    for (a, b), start, end in zip(windows, ends - counts, ends):
        assert primes[start:end].tolist() == ref_primes_between(table, a, b).tolist(), (a, b)
    assert counts.size == len(windows) and ends[-1] == primes.size
    none, counts = table.primes_between_many(np.empty(0, np.int64), np.empty(0, np.int64))
    assert none.size == 0 and counts.size == 0


def test_engine_table_built_on_first_count():
    engine = PrimeEngine()
    assert engine._table is None
    assert engine.nearest_prime(1_000_000.5) == 1_000_003  # Miller-Rabin, no table
    assert engine._table is None
    assert engine.pi(101) == 26
    table = engine._table
    assert table.limit == 2_000_000 and n_pages(table) == 1
    engine.ensure_limit(1_000_000)
    assert engine.table is table
    assert engine.pi(2_000_003) == 148_934  # pi(2_000_003) = pi(2*10^6) + 1
    assert engine.table.limit == 2_000_003 and engine.table is not table
    assert PrimeEngine().table.limit == 2_000_000  # the first access sieves it
