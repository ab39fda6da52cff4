"""Factorization ensembles: semiprimes N = x*y grouped by j = pi(isqrt(N)).

The energy E = pi(x)*pi(y)/j^2 and the phase coordinates
q = (pi(x)+pi(y))/2j, p = (pi(y)-pi(x))/2j are kept as exact rationals;
floats appear only when rows are rendered for CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .primes import PrimeEngine, PrimeRangeError, PrimeTable, is_prime


@dataclass(frozen=True, slots=True)
class EnsembleEntry:
    x: int
    y: int
    N: int
    j: int
    pix: int
    piy: int
    E: Fraction
    q: Fraction
    p: Fraction


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


def ensemble_arrays(j: int, x_lo: Optional[int], x_hi: Optional[int],
                    engine: PrimeEngine) -> tuple[np.ndarray, ...]:
    """Columns (x, y, pix, piy) of the j-ensemble with x in [x_lo, x_hi].

    int64 arrays sorted by (N, x); None leaves a side of the window at
    its natural bound (2 or p_j). No y exceeds (N_hi - 1) // x_lo,
    so one sieve table covers the y-side, and every prime x's y-window
    [ceil(N_lo/x), (N_hi - 1)//x] is read from it in one pass
    (`PrimeTable.primes_between_many`). pi(y) is one array `pi_many` at
    each window's lower edge plus the rank of y within its window.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    n_lo, n_hi = ensemble_bounds(j, engine)
    pj = math.isqrt(n_lo)
    x_lo = max(2, x_lo or 2)
    x_hi = min(pj, x_hi if x_hi is not None else pj)
    if x_lo > x_hi:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    y_max = (n_hi - 1) // x_lo
    try:
        engine.ensure_limit(y_max)
    except (MemoryError, OverflowError) as exc:
        raise PrimeRangeError(f"y-side bound {y_max} too large to sieve") from exc
    x, y, pix, piy = _pair_columns(engine.table, x_lo, x_hi, n_lo, n_hi)
    order = np.lexsort((x, x * y))
    return x[order], y[order], pix[order], piy[order]


def _pair_columns(table: PrimeTable, x_lo: int, x_hi: int, n_lo: int, n_hi: int):
    """Unsorted (x, y, pix, piy) of every prime x in [x_lo, x_hi] and prime
    y in its window; the read's temporaries die with this call."""
    xs = table.primes_between(x_lo, x_hi)
    # y runs from ceil(N_lo/x), already >= p_j >= x, to (N_hi - 1)//x;
    # np.divmod, not //, for the reason in primes._clip_at_zero
    y_lo = np.divmod(n_lo - 1, xs)[0] + 1
    ys, counts = table.primes_between_many(y_lo, np.divmod(n_hi - 1, xs)[0])
    first = np.cumsum(counts) - counts  # index in ys of each window's first y
    pix = table.pi(x_lo - 1) + 1 + np.arange(xs.size, dtype=np.int64)
    piy = np.repeat(table.pi_many(y_lo - 1) + 1 - first, counts)
    piy += np.arange(ys.size, dtype=np.int64)
    return np.repeat(xs, counts), ys, np.repeat(pix, counts), piy


def enumerate_ensemble(query: EnsembleQuery, engine: PrimeEngine) -> list[EnsembleEntry]:
    """All pairs x <= y, both prime, with pi(isqrt(x*y)) = j, x in the window.

    Sorted by N then x. The pairs and their pi values come from
    `ensemble_arrays`, which reads both factors off one sieve table; this
    wrapper adds the exact rationals.
    """
    x, y, pix, piy = ensemble_arrays(query.j, query.x_min, query.x_max, engine)
    j = query.j
    return [
        EnsembleEntry(
            x=xv, y=yv, N=xv * yv, j=j, pix=a, piy=b,
            E=Fraction(a * b, j * j),
            q=Fraction(a + b, 2 * j),
            p=Fraction(b - a, 2 * j),
        )
        for xv, yv, a, b in zip(x.tolist(), y.tolist(), pix.tolist(), piy.tolist())
    ]


def spectrum_points(query: EnsembleQuery, engine: PrimeEngine) -> list[tuple[Fraction, int]]:
    """(E, N) projection of the ensemble, for the band-spectrum plot."""
    return [(e.E, e.N) for e in enumerate_ensemble(query, engine)]
