"""Factorization ensembles: semiprimes N = x*y grouped by j = pi(isqrt(N)).

Entries store integers; E, q and p are exact rationals built when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .primes import PrimeEngine, PrimeRangeError, is_prime


@dataclass(frozen=True)
class EnsembleEntry:
    """A pair x <= y of the j-ensemble. Below 2^53, pix*piy, pix+piy, j*j and
    2j are exact doubles: one division of two is float(E), float(q) or float(p).

    The slots are declared here rather than by `slots=True`, whose rebuilt
    class makes the frozen `__setattr__` raise TypeError for a name that is
    not a field (E, q, p); here every assignment raises FrozenInstanceError.
    """

    __slots__ = ("x", "y", "N", "j", "pix", "piy")
    x: int
    y: int
    N: int
    j: int
    pix: int
    piy: int

    def __reduce__(self):  # pickle and copy; the default sets each slot, which frozen refuses
        return EnsembleEntry, (self.x, self.y, self.N, self.j, self.pix, self.piy)

    @property
    def E(self) -> Fraction:
        return Fraction(self.pix * self.piy, self.j * self.j)

    @property
    def q(self) -> Fraction:
        return Fraction(self.pix + self.piy, 2 * self.j)

    @property
    def p(self) -> Fraction:
        return Fraction(self.piy - self.pix, 2 * self.j)


@dataclass(frozen=True)
class EnsembleQuery:
    """Desk-scale restriction of the full ensemble: `x_min`/`x_max`
    restrict the factor window."""

    j: int
    x_min: Optional[int] = None
    x_max: Optional[int] = None


def sqrt_index(N: int, engine: PrimeEngine) -> int:
    """j = pi(isqrt(N)); the integer square root is exact."""
    if N < 4:
        raise ValueError("sqrt_index requires N >= 4")
    return engine.pi(math.isqrt(N))


def energy(x: int, y: int, j: int, engine: PrimeEngine) -> Fraction:
    """E = pi(x)*pi(y)/j^2, exact."""
    if not (is_prime(x) and is_prime(y)):
        raise ValueError(f"energy requires prime factors, got ({x}, {y})")
    if j < 1:
        raise ValueError("j must be >= 1")
    return Fraction(engine.pi(x) * engine.pi(y), j * j)


def ensemble_bounds(j: int, engine: PrimeEngine) -> tuple[int, int]:
    """N-range [p_j^2, p_{j+1}^2) equivalent to pi(isqrt(N)) = j."""
    pj = engine.nth_prime(j)
    pj1 = engine.nth_prime(j + 1)
    return pj * pj, pj1 * pj1


def ensemble_columns(j: int, x_lo: Optional[int], x_hi: Optional[int],
                     engine: PrimeEngine) -> tuple[np.ndarray, ...]:
    """int64 columns (x, pi(x), y_lo, y_hi, first pi(y), count), one per
    prime x in [x_lo, x_hi] (None: 2 or p_j), x ascending: the `count`
    primes y of [ceil(N_lo/x), (N_hi - 1)//x] have consecutive pi(y), read
    by a `pi_many` call at each edge off one table to (N_hi - 1) // x_lo."""
    if j < 1:
        raise ValueError("j must be >= 1")
    n_lo, n_hi = ensemble_bounds(j, engine)
    pj = math.isqrt(n_lo)
    x_lo = max(2, x_lo or 2)
    x_hi = min(pj, x_hi if x_hi is not None else pj)
    if x_lo > x_hi:
        return (np.empty(0, dtype=np.int64),) * 6
    if n_hi > 2**63:
        raise PrimeRangeError(f"N up to p_(j+1)^2 - 1 = {n_hi - 1} is beyond int64 (2^63)")
    y_max = (n_hi - 1) // x_lo
    try:
        engine.ensure_limit(y_max)
    except (MemoryError, OverflowError) as exc:
        raise PrimeRangeError(f"y-side bound {y_max} too large to sieve") from exc
    table = engine.table
    xs = table.primes_between(x_lo, x_hi)
    # y runs from ceil(N_lo/x), already >= p_j >= x, to (N_hi - 1)//x;
    # np.divmod, not //, for the reason in primes._clip_at_zero
    y_lo = np.divmod(n_lo - 1, xs)[0] + 1
    y_hi = np.divmod(n_hi - 1, xs)[0]
    below = table.pi_many(y_lo - 1)
    pix = table.pi(x_lo - 1) + 1 + np.arange(xs.size, dtype=np.int64)
    return xs, pix, y_lo, y_hi, below + 1, table.pi_many(y_hi) - below


def ensemble_arrays(j: int, x_lo: Optional[int], x_hi: Optional[int],
                    engine: PrimeEngine) -> tuple[np.ndarray, ...]:
    """Columns (x, y, pix, piy) of the j-ensemble with x in [x_lo, x_hi].

    int64 arrays, x ascending, then y ascending for each x: each column of
    `ensemble_columns` with its y read in one pass over every window
    (`PrimeTable.primes_between_many`) and pi(y) counted up from its first.
    """
    xs, pix, y_lo, y_hi, piy, count = ensemble_columns(j, x_lo, x_hi, engine)
    ys = engine.table.primes_between_many(y_lo, y_hi)[0]
    first = np.cumsum(count) - count  # index in ys of each window's first y
    piy = np.repeat(piy - first, count)
    piy += np.arange(ys.size, dtype=np.int64)
    return np.repeat(xs, count), ys, np.repeat(pix, count), piy


def ensemble_sorted(j: int, x_lo: Optional[int], x_hi: Optional[int],
                    engine: PrimeEngine) -> tuple[np.ndarray, ...]:
    """The `ensemble_arrays` columns (x, y, pix, piy) sorted by N = x*y, then x."""
    x, y, pix, piy = ensemble_arrays(j, x_lo, x_hi, engine)
    order = np.lexsort((x, x * y))
    return x[order], y[order], pix[order], piy[order]


def enumerate_ensemble(query: EnsembleQuery, engine: PrimeEngine) -> list[EnsembleEntry]:
    """All pairs x <= y, both prime, with pi(isqrt(x*y)) = j, x in the
    window, sorted by N then x: the `ensemble_sorted` columns as entries."""
    x, y, pix, piy = ensemble_sorted(query.j, query.x_min, query.x_max, engine)
    return [EnsembleEntry(x=xv, y=yv, N=xv * yv, j=query.j, pix=a, piy=b)
            for xv, yv, a, b in zip(x.tolist(), y.tolist(), pix.tolist(), piy.tolist())]
