"""Exact prime arithmetic: primality, counting, ordering, nearest prime.

Everything here is deterministic. Primality uses a fixed Miller-Rabin
witness set that is exact for all 64-bit inputs; counting uses either a
bit sieve over the odd numbers (up to a configured limit) or the Lucy_Hedgehog
recurrence (combinatorial, no table, valid far beyond the sieve range).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Witnesses proving 64-bit primality (Sinclair/Jaeschke style set).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Odds sieved per page: a 1 MB boolean page, which stays in cache while
# every base prime strikes it (Bays & Hudson, BIT 17 (1977) 121).
_PAGE_ODDS = 1 << 20

# Wheel pre-sieve (Pritchard, CACM 24 (1981) 18): _WHEEL[i] is whether the
# odd 2i + 1 is prime to every wheel prime, and the pattern repeats with
# period _WHEEL_ODDS odds, so a page starts from it and strikes only the
# base primes above the wheel.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_ODDS = 3 * 5 * 7 * 11 * 13


def _wheel() -> np.ndarray:
    wheel = np.ones(_WHEEL_ODDS, dtype=bool)
    for p in _WHEEL_PRIMES:
        wheel[(p - 1) // 2 :: p] = False  # the odds 2i + 1 divisible by p
    return wheel


_WHEEL = _wheel()

# [b, r]: byte b with its bits before (after) bit r cleared, bit 0 being the high bit
_SHIFTS = 7 - np.arange(8)
_KEEP_FROM = (np.arange(256)[:, None] % (2 << _SHIFTS)).astype(np.uint8)
_KEEP_UPTO = ((np.arange(256)[:, None] >> _SHIFTS) << _SHIFTS).astype(np.uint8)

_MAX_INPUT = 1 << 64
_COMBINATORIAL_LIMIT = 10**12
_ENGINE_SIEVE_LIMIT = 2_000_000  # least table a PrimeEngine sieves
PI_LOWER_BOUND_FROM = 88_789  # least y for which `pi_lower_bound` holds


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


def pi_lower_bound(y: np.ndarray) -> np.ndarray:
    """y/ln y (1 + 1/ln y + 2/ln^2 y) <= pi(y) for y >= PI_LOWER_BOUND_FROM
    (P. Dusart, arXiv:1002.0442), for a float array y."""
    L = np.log(y)
    return y / L * (1.0 + 1.0 / L + 2.0 / (L * L))


def _sieve_odd_page(lo_odd: int, n_odds: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean array over odds lo_odd, lo_odd+2, ... marking primes."""
    first = (lo_odd // 2) % _WHEEL_ODDS  # the page's first odd in the wheel
    page = np.tile(_WHEEL, (first + n_odds - 1) // _WHEEL_ODDS + 1)[first : first + n_odds]
    hi = lo_odd + 2 * n_odds
    for p in base_primes[len(_WHEEL_PRIMES) :]:  # the base primes above the wheel
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
        page[0] = False  # 1 is not prime; the wheel primes are
        page[[(p - 1) // 2 for p in _WHEEL_PRIMES if p < hi]] = True
    return page


def _clip_at_zero(a: np.ndarray) -> np.ndarray:
    """max(a, 0) for an int64 array, from a sign shift and a product.

    The array arithmetic of `PrimeTable` keeps to shifts, sums, products,
    divmod and gathers: the int64 comparisons, np.maximum and // each
    fault in another 64-128 kB of NumPy's code, which peak RSS counts.
    """
    return a * (1 + (a >> 63))


@dataclass
class PrimeTable:
    """Sieve over odd numbers, packed one bit per odd into one flat table.

    `_packed` holds bit i (high bit first) for the odd 2i + 1, padded to
    whole 64-bit words; `_counts[w]` is the number of odd primes in the
    words before word w, built on the first count. Both answer every query:
    pi from a word's count plus the popcount of its bits up to x, the
    n-th prime by a search over the counts.
    """

    limit: int

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
        base_primes = 2 * np.nonzero(base)[0] + 1
        n_total_odds = (self.limit - 1) // 2 + 1  # odds 1,3,...,<=limit
        self._packed = np.zeros(((n_total_odds + 63) >> 6) << 3, dtype=np.uint8)
        # page by page, to bound the boolean temporary of the sieve
        for done in range(0, n_total_odds, _PAGE_ODDS):
            page = _sieve_odd_page(2 * done + 1, min(_PAGE_ODDS, n_total_odds - done), base_primes)
            bits = np.packbits(page)
            self._packed[done >> 3 : (done >> 3) + bits.size] = bits

    @functools.cached_property
    def _counts(self) -> np.ndarray:
        """uint32 count of odd primes before each 64-bit word, and the total
        of all words last.

        Built on the first count, not with the sieve: an array allocated
        after the sieve pages are freed keeps them resident.
        """
        counts = np.zeros(self._packed.size // 8 + 1, dtype=np.uint32)
        np.cumsum(np.bitwise_count(self._packed.view(np.uint64)), dtype=np.uint32, out=counts[1:])
        return counts

    def pi(self, x: int) -> int:
        """Exact count of primes <= x; a one-element call of `pi_many`."""
        return int(self.pi_many(np.array([x], dtype=np.int64))[0])

    def pi_many(self, xs: np.ndarray) -> np.ndarray:
        """Exact count of primes <= x for every x of a 1-D int array, as int64.

        Per x: the prime 2, the count of the words before the word of its
        last odd, and the popcount of that word's bits up to that odd.
        """
        xs = np.asarray(xs, dtype=np.int64)
        top = max(xs.tolist(), default=0)
        if top > self.limit:
            raise PrimeRangeError(f"pi({top}) beyond table limit {self.limit}")
        idx = _clip_at_zero(xs - 1) >> 1  # odd index of the last odd <= x
        word = idx >> 6  # its 64-bit word in the packed table
        # big-endian words, so that bit i of a word is its (63 - i)-th bit
        head = self._packed.view(">u8")[word] >> (63 - idx + (word << 6)).astype(np.uint64)
        count = self._counts[word] + np.bitwise_count(head) + 1
        return count * (1 + ((xs - 2) >> 63))  # no prime below 2

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-based); nth_prime(1) = 2."""
        if n < 1:
            raise PrimeRangeError("n must be >= 1")
        if n == 1:
            return 2
        counts = self._counts
        if n - 1 > counts[-1]:
            raise PrimeRangeError(f"nth_prime({n}) beyond table limit {self.limit}")
        # the word holding the (n - 1)-th odd prime, then its bit in that word
        word = int(np.searchsorted(counts, n - 1)) - 1
        rank = n - 1 - int(counts[word])
        bit = int(np.flatnonzero(np.unpackbits(self._packed[8 * word : 8 * word + 8]))[rank - 1])
        return 2 * (64 * word + bit) + 1

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """All primes p with lo <= p <= hi, ascending, as int64; a
        one-element call of `primes_between_many`."""
        return self.primes_between_many(np.array([lo]), np.array([hi]))[0]

    def primes_between_many(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The primes of every window [lo[w], hi[w]] in one pass: (primes, counts).

        `primes` holds each window's primes in ascending order, window after
        window, and counts[w] how many belong to window w (0 when hi < lo).
        The packed bytes of every window are gathered at once, the bits of
        each window's end bytes that lie outside it are cleared, and the set
        bits are unpacked, so the cost is O(sum of hi - lo).
        """
        lo = _clip_at_zero(np.asarray(lo, dtype=np.int64))
        hi = np.asarray(hi, dtype=np.int64)
        top = max(hi.tolist(), default=0)
        if top > self.limit:
            raise PrimeRangeError(f"{top} beyond table limit {self.limit}")
        # odd indices of the first odd >= lo and the last odd <= hi
        idx, window = self._window_odds(lo >> 1, (hi - 1) >> 1)
        primes = 2 * idx + 1
        counts = np.bincount(window, minlength=lo.size)
        # the even prime 2, where lo <= 2 <= hi: both shifts give -1 there
        two = np.flatnonzero(((lo - 3) >> 63) * ((1 - hi) >> 63))
        if two.size:
            primes = np.insert(primes, (np.cumsum(counts) - counts)[two], 2)
            counts[two] += 1
        return primes, counts

    def _window_odds(self, i_lo: np.ndarray, i_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Odd indices i with i_lo[w] <= i <= i_hi[w] whose odd 2i+1 is prime,
        with their window w; ascending within each window, windows in order.
        The gathered bytes and bits die with this call.
        """
        b_lo = i_lo >> 3
        # a window with i_hi < i_lo inside one byte reads that byte and keeps none of it
        n_bytes = _clip_at_zero((i_hi >> 3) - b_lo + 1)
        ends = np.cumsum(n_bytes)
        shift = b_lo - (ends - n_bytes)  # table byte = gathered byte + shift[w]
        byte = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
        byte += np.repeat(shift, n_bytes)
        packed = self._packed[byte]
        del byte
        read = np.flatnonzero(n_bytes)
        first, last = (ends - n_bytes)[read], ends[read] - 1
        a = (i_lo - (b_lo << 3))[read]  # bit of the window's first odd in its byte
        c = (i_hi - ((i_hi >> 3) << 3))[read]  # bit of its last odd
        packed[first] = _KEEP_FROM[packed[first], a]
        packed[last] = _KEEP_UPTO[packed[last], c]
        pos = np.flatnonzero(np.unpackbits(packed))  # bit of the gather
        del packed
        window = np.searchsorted(ends, pos >> 3, side="right")
        pos += shift[window] << 3
        return pos, window


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
    """Front door for prime queries, owning one PrimeTable.

    No table is sieved until a query needs one; `ensure_limit` then sieves
    one to max(its limit, 2*10^6), and again whenever a query reaches
    beyond the current table.
    """

    def __init__(self):
        self._table: PrimeTable | None = None

    @property
    def table(self) -> PrimeTable:
        """The current table; the first access sieves it to 2*10^6."""
        self.ensure_limit(0)
        return self._table

    def ensure_limit(self, limit: int) -> None:
        if self._table is None or limit > self._table.limit:
            self._table = PrimeTable(max(limit, _ENGINE_SIEVE_LIMIT))

    def pi(self, x: int) -> int:
        """Exact pi(x): the sieve table up to max(its limit, 1e8), Lucy beyond."""
        if x < 0:
            raise PrimeRangeError("pi requires x >= 0")
        if x > 10**8 and (self._table is None or x > self._table.limit):
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
