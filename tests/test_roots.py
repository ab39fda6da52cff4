import bisect
import math

import numpy as np
import pytest

from factorsim.roots import bisect_lanes, grid_roots
from factorsim.spectral import q_grid


def bisect_root(f, lo, hi, f_lo, xtol=0.0, rtol=0.0):
    """The scalar halving loop that `bisect_lanes` runs on each lane, kept as
    the reference: the midpoint of [lo, hi] once hi - lo < xtol + rtol*mid,
    the width tested before each evaluation; [lo, mid] is kept when
    f_lo*f(mid) <= 0, else [mid, hi]; at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol + rtol * mid:
            return mid
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def ref_q_grid_scan(f, xs, fs):
    """The zero scans of spectral and trap before `roots` existed: the
    width is tested after each halving against 1e-12, at most 60 halvings,
    and a sample that is exactly 0.0 is appended as a root."""
    zeros = []
    for i in range(len(xs) - 1):
        if fs[i] == 0.0:
            zeros.append(xs[i])
            continue
        if fs[i] * fs[i + 1] < 0.0:
            a, b, fa = xs[i], xs[i + 1], fs[i]
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = f(m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
                if b - a < 1e-12:
                    break
            zeros.append(0.5 * (a + b))
    return zeros


def ref_near_scan(f, xs, fs, rel_tol):
    """The near= branch of invert_x_of_E before it went through `grid_roots`:
    every cell with fs[i]*fs[i+1] <= 0 is bisected, the relative width is
    tested before each evaluation, at most 200 halvings."""
    out = []
    for i in range(len(xs) - 1):
        if fs[i] * fs[i + 1] > 0.0:
            continue
        lo, hi, fl = xs[i], xs[i + 1], fs[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (hi - lo) < rel_tol * mid:
                break
            fm = f(mid)
            if fl * fm <= 0.0:
                hi = mid
            else:
                lo, fl = mid, fm
        out.append(0.5 * (lo + hi))
    return out


class Recorded:
    """The scalar f with every argument it was called at kept, in order; an
    array argument is evaluated element by element, in array order."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return np.array([self(v) for v in x.tolist()])
        self.calls.append(x)
        return self.f(x)


def by_cell(calls, xs):
    """The calls grouped by the grid cell [xs[i], xs[i+1]] holding them,
    each group in call order: one bisection's evaluation sequence per cell."""
    cells = {}
    for x in calls:
        cells.setdefault(bisect.bisect_right(xs, x) - 1, []).append(x)
    return cells


def _q_scan_both(f, qs):
    fs = [f(q) for q in qs]
    ref, new = Recorded(f), Recorded(f)
    return ref_q_grid_scan(ref, qs, fs), grid_roots(new, qs, fs, 1e-12), ref, new


@pytest.mark.parametrize("phase", [0.0, 0.3, 1.7])
def test_grid_roots_equals_old_q_scan_on_q_grid(phase):
    # zeros ~2*pi apart in q^2, like both wavefunctions
    def f(q):
        return math.cos(0.5 * q * q + phase) / q

    qs = q_grid(1.0, 144.0)
    ref, new, rec_ref, rec_new = _q_scan_both(f, qs)
    assert len(new) >= 20
    assert new == ref
    # the same evaluation sequence in every cell, the cells in lockstep
    assert by_cell(rec_new.calls, qs) == by_cell(rec_ref.calls, qs)
    assert rec_new.calls != rec_ref.calls


def test_grid_roots_sample_on_root():
    def f(x):
        return (x - 1.0) * (x - 2.0) * (x - 3.0)

    xs = [0.5 + 0.25 * i for i in range(13)]  # 0.5 .. 3.5, holds 1, 2 and 3
    fs = [f(x) for x in xs]
    assert fs.count(0.0) == 3
    ref, new, rec_ref, rec_new = _q_scan_both(f, xs)
    assert new == ref == [1.0, 2.0, 3.0]
    assert rec_new.calls == rec_ref.calls == []


def test_grid_roots_zero_at_last_sample():
    xs = [0.0, 0.5, 1.0]
    assert grid_roots(lambda x: x - 1.0, xs, [x - 1.0 for x in xs], 1e-12) == [1.0]


def test_grid_roots_large_q_where_doubles_run_out():
    # near q = 1e4 neighbouring doubles are 1.8e-12 apart, so the width
    # never gets below 1e-12; the old 60-halving cap and the new 200 agree
    root = 1e4 + 1.0 / 3.0

    def f(q):
        return q - root

    qs = q_grid(9999.0 ** 2, 10001.0 ** 2)
    ref, new, _, _ = _q_scan_both(f, qs)
    assert new == ref and len(new) == 1 and abs(new[0] - root) < 1e-11


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-13])
def test_bisect_root_equals_old_near_scan(rel_tol):
    # with no sample exactly on a root, grid_roots(rtol=) bisects the same
    # cells as the old <= rule, through the same midpoints
    def f(x):
        return math.sin(x) + 0.3 * math.sin(3.1 * x)

    xs = [float(x) for x in np.linspace(2.0, 40.0, 17)]
    fs = [f(x) for x in xs]
    assert 0.0 not in fs
    rec_ref, rec_new = Recorded(f), Recorded(f)
    ref = ref_near_scan(rec_ref, xs, fs, rel_tol)
    new = grid_roots(rec_new, xs, fs, rtol=rel_tol)
    assert len(new) >= 5
    assert new == ref
    assert by_cell(rec_new.calls, xs) == by_cell(rec_ref.calls, xs)


def test_grid_roots_rtol_returns_sample_on_root():
    # the old <= rule bisected toward an exact-zero sample from both sides;
    # grid_roots returns the sample itself, once, without evaluating f
    def f(x):
        return (x - 2.0) * (x - 7.5)

    xs = [float(x) for x in np.linspace(1.0, 3.0, 17)]
    fs = [f(x) for x in xs]
    assert fs[8] == 0.0
    ref = ref_near_scan(f, xs, fs, 1e-6)
    assert len(ref) == 2 and ref[0] < 2.0 < ref[1]
    rec = Recorded(f)
    assert grid_roots(rec, xs, fs, rtol=1e-6) == [2.0]
    assert rec.calls == []
    assert all(abs(r - 2.0) < 1e-6 * 2.0 for r in ref)


def _one_lane(f, lo, hi, f_lo, **tol):
    """bisect_lanes on the single lane [lo, hi]: (root, capped)."""
    roots, capped = bisect_lanes(lambda mids, lanes: f(mids), lo, hi, np.array([f_lo]), **tol)
    return roots.tolist()[0], capped.tolist()[0]


def test_bisect_root_xtol_and_rtol_add():
    f = Recorded(lambda x: x * x - 2.0)
    r, capped = _one_lane(f, 1.0, 2.0, -1.0, xtol=1e-3, rtol=1e-3)
    assert abs(r - math.sqrt(2.0)) < 2e-3 and not capped
    assert r == bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, -1.0, xtol=1e-3, rtol=1e-3)
    # the width halves from 1 until below 1e-3 + 1e-3*mid ~ 2.4e-3: 9 halvings
    assert len(f.calls) == 9
    # the width must fall strictly below the tolerance: 1, 1/2, 1/4 and
    # 1/8 are all evaluated, 1/16 stops
    g = Recorded(lambda x: x - 0.3)
    _one_lane(g, 0.0, 1.0, -0.3, xtol=0.125)
    assert len(g.calls) == 4


def test_bisect_root_caps_at_200_halvings():
    f = Recorded(lambda x: x - math.pi)
    r, capped = _one_lane(f, 3.0, 4.0, 3.0 - math.pi)
    assert len(f.calls) == 200 and capped
    assert abs(r - math.pi) <= 4e-16
    assert r == bisect_root(lambda x: x - math.pi, 3.0, 4.0, 3.0 - math.pi)


def _lanes_both(fs, lo, hi, rtol, xtol=0.0):
    """bisect_lanes on every lane and bisect_root on each alone; returns
    (lockstep roots, capped, lone roots, per-lane lockstep calls, lone calls,
    the midpoints of each lockstep call)."""
    f_lo = [f(a) for f, a in zip(fs, lo)]
    seen = [[] for _ in fs]
    batches = []

    def f_lanes(mids, lanes):
        batches.append(mids.tolist())
        out = []
        for m, k in zip(mids.tolist(), lanes.tolist()):
            seen[k].append(m)
            out.append(fs[k](m))
        return np.array(out)

    roots, capped = bisect_lanes(f_lanes, np.array(lo), np.array(hi), np.array(f_lo),
                                 xtol=xtol, rtol=rtol)
    lone, lone_calls = [], []
    for f, a, b, fa in zip(fs, lo, hi, f_lo):
        rec = Recorded(f)
        lone.append(bisect_root(rec, a, b, fa, xtol=xtol, rtol=rtol))
        lone_calls.append(rec.calls)
    return roots.tolist(), capped.tolist(), lone, seen, lone_calls, batches


def test_bisect_lanes_equals_bisect_root_at_different_depths():
    # brackets of different widths stop after different numbers of halvings
    fs = [lambda x, c=c: math.sin(x) - c for c in (0.1, -0.4, 0.7, 0.25)]
    lo, hi = [0.0, 3.0, 0.5, 0.1], [1.5, 4.0, 1.5, 0.3]
    for rtol in (1e-3, 1e-6, 1e-12):
        roots, capped, lone, seen, lone_calls, batches = _lanes_both(fs, lo, hi, rtol)
        assert roots == lone
        assert seen == lone_calls
        assert capped == [False] * 4
        assert len({len(c) for c in seen}) > 1  # the lanes stop at different depths
        assert len(batches) == max(len(c) for c in seen)  # one f call per halving


def test_bisect_lanes_width_must_fall_strictly_below():
    # on [0, 1] with rtol = 2 the widths 1 and 1/2 equal rtol*mid and are
    # evaluated; [1/4, 1/2] stops
    fs = [lambda x: x - 0.3, lambda x: x - 0.3]
    roots, capped, lone, seen, lone_calls, _ = _lanes_both(fs, [0.0] * 2, [1.0] * 2, 2.0)
    assert roots == lone == [0.375] * 2 and seen == lone_calls == [[0.5, 0.25]] * 2


def test_bisect_lanes_exact_zero_at_midpoint():
    # f is exactly 0.0 at the first midpoint: f_lo*f_mid <= 0 keeps [lo, mid]
    fs = [lambda x: x - 0.5, lambda x: 0.5 - x, lambda x: x - 0.3]
    roots, capped, lone, seen, lone_calls, _ = _lanes_both(fs, [0.0] * 3, [1.0] * 3, 1e-9)
    assert seen[0][0] == 0.5 and fs[0](0.5) == 0.0
    assert roots == lone and seen == lone_calls and capped == [False] * 3


def test_bisect_lanes_shared_midpoints():
    # equal brackets give equal midpoints in one call until the lanes part
    fs = [lambda x: x - 0.3, lambda x: x - 0.31, lambda x: x - 0.7]
    roots, capped, lone, seen, lone_calls, batches = _lanes_both(fs, [0.0] * 3, [1.0] * 3, 1e-9)
    assert roots == lone and seen == lone_calls and capped == [False] * 3
    assert batches[0] == [0.5, 0.5, 0.5]
    assert any(len(set(b)) < len(b) for b in batches[1:])


def test_bisect_lanes_reports_the_cap():
    # a root at 0 approached from below makes every midpoint negative, so
    # rtol*mid < 0 and the width never falls below it: that lane runs all
    # 200 halvings, while the lane near 1.5 stops after 30
    fs = [lambda x: x, lambda x: x - 1.5]
    roots, capped, lone, seen, lone_calls, batches = _lanes_both(fs, [-1.0, 1.0], [1.0, 2.0], 1e-9)
    assert roots == lone and seen == lone_calls
    assert capped == [True, False]
    assert len(seen[0]) == 200 and len(seen[1]) == 30 and len(batches) == 200


def test_bisect_lanes_scalar_bracket_and_no_lanes():
    # scalar lo and hi are shared by every lane; no lanes make no call of f
    roots, capped = bisect_lanes(lambda m, k: m - 0.25, 0.0, 1.0, np.array([-0.25]), rtol=1e-3)
    assert roots.tolist() == [bisect_root(lambda x: x - 0.25, 0.0, 1.0, -0.25, rtol=1e-3)]
    assert capped.tolist() == [False]
    roots, capped = bisect_lanes(lambda m, k: 1 / 0, 0.0, 1.0, np.empty(0), rtol=1.0)
    assert roots.size == 0 and capped.size == 0


@pytest.mark.parametrize("xtol, rtol", [(1e-9, 0.0), (0.0, 1e-9), (1e-9, 1e-9), (2e-3, 5e-4)])
def test_bisect_lanes_xtol_rtol_equal_reference(xtol, rtol):
    # the absolute, the relative and the summed width tests, lane by lane
    fs = [lambda x, c=c: math.sin(x) - c for c in (0.1, -0.4, 0.7, 0.25, 0.9)]
    lo, hi = [0.0, 3.0, 0.5, 0.1, 1.0], [1.5, 4.0, 1.5, 0.3, 1.4]
    roots, capped, lone, seen, lone_calls, batches = _lanes_both(fs, lo, hi, rtol, xtol)
    assert roots == lone and seen == lone_calls and capped == [False] * 5
    assert len(batches) == max(len(c) for c in seen)


@pytest.mark.parametrize("xtol, rtol", [(1e-12, 0.0), (0.0, 1e-9), (1e-12, 1e-9)])
def test_grid_roots_lanes_equal_reference(xtol, rtol):
    # grid_roots bisects every sign change in one lockstep call; each root
    # and each cell's evaluation sequence is that of the reference on the cell
    def f(x):
        return math.cos(3.0 * x) + 0.2

    xs = [float(x) for x in np.linspace(0.3, 9.0, 23)]
    fs = [f(x) for x in xs]
    rec = Recorded(f)
    got = grid_roots(rec, xs, fs, xtol=xtol, rtol=rtol)
    ref, ref_rec = [], Recorded(f)
    for i in range(len(xs) - 1):
        if fs[i] * fs[i + 1] < 0.0:
            ref.append(bisect_root(ref_rec, xs[i], xs[i + 1], fs[i], xtol=xtol, rtol=rtol))
    assert len(got) >= 6 and got == ref
    assert by_cell(rec.calls, xs) == by_cell(ref_rec.calls, xs)
