"""Exact prime arithmetic: primality, counting, ordering, nearest prime.

Everything here is deterministic. Primality uses a fixed Miller-Rabin
witness set that is exact for all 64-bit inputs; counting uses either a
segmented bit sieve (up to a configured limit) or the Lucy_Hedgehog
recurrence (combinatorial, no table, valid far beyond the sieve range).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

# Witnesses proving 64-bit primality (Sinclair/Jaeschke style set).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Odd-number segment size for the sieve, in odds per page (~0.5 MB packed).
_PAGE_ODDS = 1 << 22

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_MAX_INPUT = 1 << 64
_COMBINATORIAL_LIMIT = 10**12
_ENGINE_SIEVE_LIMIT = 2_000_000  # first table of a PrimeEngine; it grows on demand


class PrimeRangeError(ValueError):
    """Raised when a query lies outside the supported range."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0 or n >= _MAX_INPUT:
        raise PrimeRangeError(f"is_prime requires 0 <= n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sieve_odd_page(lo_odd: int, n_odds: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean array over odds lo_odd, lo_odd+2, ... marking primes."""
    page = np.ones(n_odds, dtype=bool)
    hi = lo_odd + 2 * n_odds
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((lo_odd + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        page[(start - lo_odd) // 2 :: p] = False
    if lo_odd == 1:
        page[0] = False  # 1 is not prime
    return page


@dataclass
class PrimeTable:
    """Segmented sieve over odd numbers with checkpointed prime counts.

    `cached_counts[k]` = pi(upper edge of segment k). `pi` fills a small
    per-segment cache of counts per 64-bit word, so queries are not
    thread-safe.
    """

    limit: int
    segments: list = field(default_factory=list, repr=False)
    cached_counts: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.limit < 3:
            self.limit = 3
        root = math.isqrt(self.limit) + 1
        base = np.ones(root // 2 + 1, dtype=bool)
        base[0] = False
        for i in range(1, (math.isqrt(root) - 1) // 2 + 1):
            if base[i]:
                p = 2 * i + 1
                base[(p * p - 1) // 2 :: p] = False
        self._base_primes = 2 * np.nonzero(base)[0] + 1
        n_total_odds = (self.limit - 1) // 2 + 1  # odds 1,3,...,<=limit
        count = 1  # the prime 2
        lo_odd = 1
        done = 0
        while done < n_total_odds:
            n_odds = min(_PAGE_ODDS, n_total_odds - done)
            page = _sieve_odd_page(lo_odd, n_odds, self._base_primes)
            count += int(page.sum())
            self.segments.append(np.packbits(page))
            self.cached_counts.append(count)
            lo_odd += 2 * n_odds
            done += n_odds

    def _word_cumsum(self, k: int) -> np.ndarray:
        """Cumulative prime count per 64-bit word (8 packed bytes) of segment k.

        One uint32 per word is half the size of the page it indexes; the
        16 most recently built are kept.
        """
        cache = self.__dict__.setdefault("_cum_cache", {})
        if k not in cache:
            if len(cache) >= 16:
                cache.pop(next(iter(cache)))
            bits = _POPCOUNT8[self.segments[k]]
            per_word = np.add.reduceat(bits, np.arange(0, bits.size, 8), dtype=np.uint32)
            cache[k] = np.cumsum(per_word, dtype=np.uint32)
        return cache[k]

    def contains(self, n: int) -> bool:
        if n > self.limit:
            raise PrimeRangeError(f"{n} beyond table limit {self.limit}")
        if n == 2:
            return True
        if n < 2 or n % 2 == 0:
            return False
        idx = (n - 1) // 2
        k, off = divmod(idx, _PAGE_ODDS)
        byte = self.segments[k][off >> 3]
        return bool((byte >> (7 - (off & 7))) & 1)

    def pi(self, x: int) -> int:
        """Exact count of primes <= x."""
        if x < 2:
            return 0
        if x > self.limit:
            raise PrimeRangeError(f"pi({x}) beyond table limit {self.limit}")
        idx = (x - 1) // 2 if x % 2 else (x - 2) // 2  # last odd <= x
        k, off = divmod(idx, _PAGE_ODDS)
        nbyte, nbit = divmod(off, 8)
        word = nbyte >> 3
        count = 1 + (int(self._word_cumsum(k)[word - 1]) if word > 0 else 0)
        # the word's bytes up to nbyte as one big-endian int, bits past nbit dropped
        head = self.segments[k][8 * word : nbyte + 1].tobytes()
        count += bin(int.from_bytes(head, "big") >> (7 - nbit)).count("1")
        if k > 0:
            count += self.cached_counts[k - 1] - 1
        return count

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-based); nth_prime(1) = 2."""
        if n < 1:
            raise PrimeRangeError("n must be >= 1")
        if n == 1:
            return 2
        if n > self.cached_counts[-1]:
            raise PrimeRangeError(f"nth_prime({n}) beyond table limit {self.limit}")
        k = bisect_right(self.cached_counts, n - 1)
        prev = self.cached_counts[k - 1] if k > 0 else 1
        # the byte holding the (n - prev)-th set bit of page k, then the bit;
        # counted afresh, not through the `pi` cache: callers ask for few
        # primes per table, and a cached page holds 2 MB for the table's life
        cum = np.cumsum(_POPCOUNT8[self.segments[k]], dtype=np.uint32)
        rank = n - prev
        b = int(np.searchsorted(cum, rank))
        if b > 0:
            rank -= int(cum[b - 1])
        bit = int(np.flatnonzero(np.unpackbits(self.segments[k][b : b + 1]))[rank - 1])
        return 2 * (k * _PAGE_ODDS + 8 * b + bit) + 1

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """All primes p with lo <= p <= hi, ascending, as int64.

        Only the packed bytes covering [lo, hi] are unpacked, so the cost
        is O(hi - lo) whatever the segment size.
        """
        if hi > self.limit:
            raise PrimeRangeError(f"{hi} beyond table limit {self.limit}")
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        out = []
        if lo <= 2 <= hi:
            out.append(np.array([2], dtype=np.int64))
        i_lo = max(lo, 0) // 2  # odd index of the first odd >= lo
        i_hi = (hi - 1) // 2  # odd index of the last odd <= hi
        for k in range(i_lo // _PAGE_ODDS, i_hi // _PAGE_ODDS + 1):
            base = k * _PAGE_ODDS
            off_lo = max(i_lo - base, 0)
            off_hi = min(i_hi - base, _PAGE_ODDS - 1)
            b_lo = off_lo >> 3
            bits = np.unpackbits(self.segments[k][b_lo : (off_hi >> 3) + 1])
            bits = bits[off_lo - 8 * b_lo : off_hi - 8 * b_lo + 1]
            offs = np.nonzero(bits)[0].astype(np.int64)
            out.append(2 * (base + off_lo + offs) + 1)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def prime_pi_lucy(n: int) -> int:
    """pi(n) by the Lucy_Hedgehog recurrence, vectorized over key points.

    O(n^(3/4)) time, O(sqrt(n)) memory, no prime table required.
    """
    if n < 2:
        return 0
    if n > _COMBINATORIAL_LIMIT:
        raise PrimeRangeError(f"combinatorial pi supports n <= 1e12, got {n}")
    r = math.isqrt(n)
    # s_small[i] tracks S(i); s_big[k-1] tracks S(n//k)
    s_small = np.arange(r + 1, dtype=np.int64) - 1
    s_big = n // np.arange(1, r + 1, dtype=np.int64) - 1
    for p in range(2, r + 1):
        if s_small[p] == s_small[p - 1]:
            continue  # p composite
        sp = int(s_small[p - 1])
        p2 = p * p
        # big keys: S(n//k) -= S(n//(k*p)) - sp, for n//k >= p^2
        kmax = min(r, n // p2)
        if kmax >= 1:
            kp = np.arange(1, kmax + 1, dtype=np.int64) * p
            in_big = kp <= r
            contrib = np.empty(kmax, dtype=np.int64)
            contrib[in_big] = s_big[kp[in_big] - 1]
            contrib[~in_big] = s_small[n // kp[~in_big]]
            s_big[:kmax] -= contrib - sp
        # small keys v in [p^2, r]; gather happens before the scatter,
        # so pre-pass values are used as the recurrence requires
        v = np.arange(p2, r + 1, dtype=np.int64)
        if v.size:
            s_small[v] -= s_small[v // p] - sp
    return int(s_big[0])


class PrimeEngine:
    """Front door for prime queries, owning one lazily grown PrimeTable."""

    def __init__(self):
        self._table = PrimeTable(_ENGINE_SIEVE_LIMIT)

    @property
    def table(self) -> PrimeTable:
        return self._table

    def ensure_limit(self, limit: int) -> None:
        if limit > self._table.limit:
            self._table = PrimeTable(limit)

    def pi(self, x: int) -> int:
        """Exact pi(x): the sieve table up to max(its limit, 1e8), Lucy beyond."""
        if x < 0:
            raise PrimeRangeError("pi requires x >= 0")
        if x > max(self._table.limit, 10**8):
            return prime_pi_lucy(x)
        self.ensure_limit(x)
        return self._table.pi(x)

    def nth_prime(self, n: int) -> int:
        # grow the table using the usual overshoot bound p_n < n(ln n + ln ln n)
        if n >= 6:
            bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
        else:
            bound = 15
        self.ensure_limit(bound)
        return self._table.nth_prime(n)

    def nearest_prime(self, t: float) -> int:
        """Closest prime to t; exact ties resolve to the larger prime."""
        if not math.isfinite(t):
            raise PrimeRangeError("nearest_prime requires finite t")
        if t <= 2:
            return 2
        c = round(t)
        lo = hi = None
        for k in range(0, 2000):
            if hi is None and is_prime(c + k):
                hi = c + k
            if lo is None and c - k >= 2 and is_prime(c - k):
                lo = c - k
            if hi is not None and lo is not None:
                break
        if lo is None:
            return hi
        if hi is None:
            return lo
        d_lo, d_hi = abs(t - lo), abs(hi - t)
        if d_hi < d_lo or math.isclose(d_lo, d_hi, rel_tol=0.0, abs_tol=1e-12):
            return hi
        return lo
