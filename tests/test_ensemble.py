import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_primes import ref_pi, ref_primes_between

from factorsim.ensemble import (
    EnsembleEntry,
    EnsembleQuery,
    energy,
    ensemble_arrays,
    ensemble_bounds,
    enumerate_ensemble,
    spectrum_points,
    sqrt_index,
)
from factorsim.primes import _PAGE_ODDS, PrimeEngine, is_prime


def brute_force_ensemble(j: int, engine) -> list:
    """Oracle: factor every N in [p_j^2, p_{j+1}^2) exhaustively."""
    lo, hi = ensemble_bounds(j, engine)
    out = []
    for N in range(lo, hi):
        for x in range(2, math.isqrt(N) + 1):
            if N % x == 0 and is_prime(x) and is_prime(N // x):
                out.append((x, N // x, N))
    return sorted(out, key=lambda t: (t[2], t[0]))


def reference_ensemble(query: EnsembleQuery, engine) -> list:
    """Oracle: every y of each prime x's window tested with is_prime."""
    j = query.j
    n_lo, n_hi = ensemble_bounds(j, engine)
    pj = engine.nth_prime(j)
    x_lo = max(2, query.x_min or 2)
    x_hi = min(pj, query.x_max if query.x_max is not None else pj)
    out = []
    for x in range(x_lo, x_hi + 1):
        if not is_prime(x):
            continue
        for y in range(max(x, -(-n_lo // x)), (n_hi - 1) // x + 1):
            if is_prime(y):
                pix, piy = engine.pi(x), engine.pi(y)
                out.append(EnsembleEntry(
                    x=x, y=y, N=x * y, j=j, pix=pix, piy=piy,
                    E=Fraction(pix * piy, j * j),
                    q=Fraction(pix + piy, 2 * j), p=Fraction(piy - pix, 2 * j)))
    return sorted(out, key=lambda e: (e.N, e.x))


def test_sqrt_index_examples(engine):
    assert sqrt_index(26, engine) == 3
    assert sqrt_index(25, engine) == 3
    assert sqrt_index(10969262131, engine) == 10000


def test_energy_examples(engine):
    assert energy(2, 13, 3, engine) == Fraction(2, 3)
    assert energy(5, 5, 3, engine) == Fraction(1)
    e = energy(47297, 231923, 10000, engine)
    assert e == Fraction(4877 * 20595, 10**8)
    assert abs(float(e) - 1.00441815) < 5e-9


def test_energy_rejects_composite(engine):
    with pytest.raises(ValueError):
        energy(4, 13, 3, engine)


def ref_ensemble_arrays(j, x_lo, x_hi, engine):
    """ensemble_arrays before its one-pass read: one window read and one pi
    per prime x, through the old per-window bodies. Also returns how many
    windows were empty and how many straddled a sieve page edge."""
    n_lo, n_hi = ensemble_bounds(j, engine)
    pj = math.isqrt(n_lo)
    x_lo = max(2, x_lo or 2)
    x_hi = min(pj, x_hi if x_hi is not None else pj)
    empty = np.empty(0, dtype=np.int64)
    if x_lo > x_hi:
        return (empty, empty, empty, empty), 0, 0
    engine.ensure_limit((n_hi - 1) // x_lo)
    table = engine.table
    xs = ref_primes_between(table, x_lo, x_hi)
    pix0 = ref_pi(table, x_lo - 1)
    cols = ([empty], [empty], [empty], [empty])
    n_empty = n_straddle = 0
    for i, x in enumerate(xs.tolist()):
        y_start, y_end = max(x, -(-n_lo // x)), (n_hi - 1) // x
        n_straddle += (y_start // 2) // _PAGE_ODDS < ((y_end - 1) // 2) // _PAGE_ODDS
        ys = ref_primes_between(table, y_start, y_end)
        if ys.size == 0:
            n_empty += 1
            continue
        cols[0].append(np.full(ys.size, x, dtype=np.int64))
        cols[1].append(ys)
        cols[2].append(np.full(ys.size, pix0 + 1 + i, dtype=np.int64))
        cols[3].append(ref_pi(table, y_start - 1) + 1 + np.arange(ys.size, dtype=np.int64))
    x, y, pix, piy = (np.concatenate(c) for c in cols)
    order = np.lexsort((x, x * y))
    return (x[order], y[order], pix[order], piy[order]), n_empty, n_straddle


def test_ensemble_arrays_match_per_x_loop():
    """The one-pass read equals the per-x loop array for array: j = 1 (where
    y = 2 occurs), small j, j = 1000 on a 4-page table, j = 971 whose y-window
    of x = 7 crosses the first page edge, x_min/x_max windows, and windows
    with no y."""
    engine = PrimeEngine()
    cases = [(1, None, None), (2, None, None), (3, None, None), (12, None, None),
             (50, None, None), (12, 5, None), (12, None, 20), (50, 40, 200), (50, 200, 40),
             (50, 230, None), (200, 7, 7), (1000, None, None), (1000, 3000, 3100),
             (971, None, None), (971, 5, 11)]
    n_empty = n_straddle = 0
    for j, x_lo, x_hi in cases:
        got = ensemble_arrays(j, x_lo, x_hi, engine)
        want, empty, straddle = ref_ensemble_arrays(j, x_lo, x_hi, engine)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b), (j, x_lo, x_hi)
        n_empty += empty
        n_straddle += straddle
        if j == 1:
            assert got[1].min() == 2
    assert len(engine.table.segments) == 4
    assert n_empty > 0 and n_straddle > 0


def test_enumerate_j3(engine):
    entries = enumerate_ensemble(EnsembleQuery(j=3), engine)
    assert [e.N for e in entries] == [25, 26, 33, 34, 35, 38, 39, 46]
    assert [(e.x, e.y, e.N) for e in entries] == brute_force_ensemble(3, engine)


def test_phase_coords_examples(engine):
    entries = enumerate_ensemble(EnsembleQuery(j=3), engine)
    phase = {(e.x, e.y): (e.q, e.p) for e in entries}
    assert phase[5, 5] == (Fraction(1), Fraction(0))
    q, p = phase[2, 13]
    assert (q, p) == (Fraction(7, 6), Fraction(5, 6))
    assert q * q - p * p == Fraction(2, 3)


def test_enumerate_j3_window(engine):
    entries = enumerate_ensemble(EnsembleQuery(j=3, x_min=5), engine)
    assert [e.N for e in entries] == [25, 35]


def test_enumerate_j1(engine):
    entries = enumerate_ensemble(EnsembleQuery(j=1), engine)
    assert [e.N for e in entries] == [4, 6]  # 8 = 2*4 excluded, per the oracle


@pytest.mark.parametrize("j", range(1, 26))
def test_enumerate_matches_brute_force(j, engine):
    entries = enumerate_ensemble(EnsembleQuery(j=j), engine)
    assert [(e.x, e.y, e.N) for e in entries] == brute_force_ensemble(j, engine)


@pytest.mark.parametrize("j", [1, 2, 3, 12, 50])
def test_enumerate_matches_is_prime_reference(j, engine):
    pj = engine.nth_prime(j)
    queries = [
        EnsembleQuery(j=j),
        EnsembleQuery(j=j, x_min=3),
        EnsembleQuery(j=j, x_max=pj // 2),
        EnsembleQuery(j=j, x_min=pj // 3, x_max=pj - 1),
        EnsembleQuery(j=j, x_min=pj + 1),
    ]
    for query in queries:
        got = enumerate_ensemble(query, engine)
        assert got == reference_ensemble(query, engine), query
        assert all(type(v) is int
                   for e in got for v in (e.x, e.y, e.N, e.j, e.pix, e.piy))


def test_entry_invariants(engine):
    for e in enumerate_ensemble(EnsembleQuery(j=12), engine):
        assert e.q * e.q - e.p * e.p == e.E
        assert sqrt_index(e.N, engine) == e.j
        assert e.p >= 0
        if e.x == e.y:
            assert e.E == Fraction(e.pix, e.j) ** 2
            assert (e.E == 1) == (e.pix == e.j)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_phase_identity_property(engine, j):
    for e in enumerate_ensemble(EnsembleQuery(j=j), engine)[:5]:
        assert e.q * e.q - e.p * e.p == e.E


def test_spectrum_points(engine):
    pts = spectrum_points(EnsembleQuery(j=3), engine)
    assert len(pts) == 8
    assert (Fraction(1), 25) in pts
    assert (Fraction(2, 3), 26) in pts


def test_spectrum_points_empty_window(engine):
    assert spectrum_points(EnsembleQuery(j=3, x_min=6, x_max=5), engine) == []


def test_fig1_marked_point(engine):
    pts = spectrum_points(EnsembleQuery(j=10000, x_min=47290, x_max=47300), engine)
    match = [N for E, N in pts if N == 10969262131]
    assert match, "marked band point missing"
    e = [E for E, N in pts if N == 10969262131][0]
    assert abs(float(e) - 1.00441815) < 5e-9
