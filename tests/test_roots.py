import bisect
import math

import numpy as np
import pytest

from factorsim import qsieve
from factorsim.roots import bisect_lanes, false_position_lanes, grid_roots, grid_zeros
from factorsim.spectral import q_grid


def bisect_root(f, lo, hi, f_lo, xtol=0.0, rtol=0.0):
    """The scalar halving loop that `bisect_lanes` runs on each lane (xtol =
    0.0) and that the zero scans ran before false position (rtol = 0.0),
    kept as the reference: the midpoint of [lo, hi] once
    hi - lo < xtol + rtol*mid, the width tested before each evaluation;
    [lo, mid] is kept when f_lo*f(mid) <= 0, else [mid, hi]; at most 200
    halvings."""
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


# every zero the false-position scans return lies this close to the one
# bisection to the same width returns
ZERO_TOL = 1e-10


def _q_scan_both(f, qs):
    """The old q-grid scan and `grid_zeros` at its width 1e-12, each with
    its calls recorded: (old zeros, new zeros, old calls, new calls)."""
    fs = [f(q) for q in qs]
    ref, new = Recorded(f), Recorded(f)
    zeros, capped = grid_zeros(new, qs, fs, 1e-12)
    assert capped == []
    return ref_q_grid_scan(ref, qs, fs), zeros, ref, new


def _near(got, ref, tol=ZERO_TOL):
    return len(got) == len(ref) and all(abs(a - b) <= tol for a, b in zip(got, ref))


@pytest.mark.parametrize("phase", [0.0, 0.3, 1.7])
def test_grid_zeros_near_old_q_scan_on_q_grid(phase):
    # zeros ~2*pi apart in q^2, like both wavefunctions
    def f(q):
        return math.cos(0.5 * q * q + phase) / q

    qs = q_grid(1.0, 144.0)
    ref, new, rec_ref, rec_new = _q_scan_both(f, qs)
    assert len(new) >= 20
    assert _near(new, ref)
    # every cell in lockstep, in a fraction of the old scan's evaluations
    assert len(rec_new.calls) < len(rec_ref.calls) / 3


def test_grid_roots_sample_on_root():
    def f(x):
        return (x - 1.0) * (x - 2.0) * (x - 3.0)

    xs = [0.5 + 0.25 * i for i in range(13)]  # 0.5 .. 3.5, holds 1, 2 and 3
    fs = [f(x) for x in xs]
    assert fs.count(0.0) == 3
    ref, new, rec_ref, rec_new = _q_scan_both(f, xs)
    assert new == ref == [1.0, 2.0, 3.0]
    assert rec_new.calls == rec_ref.calls == []
    rec = Recorded(f)
    assert grid_roots(rec, xs, fs, rtol=1e-12) == [1.0, 2.0, 3.0] and rec.calls == []


def test_grid_roots_zero_at_last_sample():
    xs = [0.0, 0.5, 1.0]
    fs = [x - 1.0 for x in xs]
    assert grid_roots(lambda x: x - 1.0, xs, fs, rtol=1e-12) == [1.0]
    assert grid_zeros(lambda x: x - 1.0, xs, fs, 1e-12) == ([1.0], [])


def test_grid_roots_large_q_where_doubles_run_out():
    # near q = 1e4 neighbouring doubles are 1.8e-12 apart, so a width of
    # rtol*mid = 1e-12 is never reached; the old 60-halving cap and the 200
    # of bisect_lanes end on the same pair of doubles
    root = 1e4 + 1.0 / 3.0

    def f(q):
        return q - root

    qs = q_grid(9999.0 ** 2, 10001.0 ** 2)
    fs = [f(q) for q in qs]
    new = grid_roots(Recorded(f), qs, fs, rtol=1e-16)
    assert new == ref_q_grid_scan(f, qs, fs) and len(new) == 1 and abs(new[0] - root) < 1e-11


def test_grid_zeros_large_q_where_doubles_run_out():
    # near q = 1e4 neighbouring doubles are 1.8e-12 apart, so the width
    # never gets below 1e-12: the lane stops once no double lies between
    # its ends, well before the 200-round cap
    root = 1e4 + 1.0 / 3.0

    def f(q):
        return q - root

    qs = q_grid(9999.0 ** 2, 10001.0 ** 2)
    ref, new, _, rec_new = _q_scan_both(f, qs)
    assert len(new) == 1 and abs(new[0] - root) < 1e-11
    assert _near(new, ref, 1e-11)
    assert len(rec_new.calls) <= 10


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


def closest_root(f, xs, fs, rtol, near):
    """Every root of the grid, then the one closest to `near`, the first in
    sample order on a tie: the rule `grid_roots(near=)` must equal."""
    roots = grid_roots(f, xs, fs, rtol=rtol)
    return [min(roots, key=lambda r: abs(r - near))] if roots else []


def _near_both(f, xs, fs, near, rtol=1e-9):
    """grid_roots(near=) against `closest_root`, bit for bit, and each cell
    it bisects through the same midpoints: (root, cells bisected, cells the
    reference bisected)."""
    rec_ref, rec = Recorded(f), Recorded(f)
    ref = closest_root(rec_ref, xs, fs, rtol, near)
    got = grid_roots(rec, xs, fs, rtol=rtol, near=near)
    assert [r.hex() for r in got] == [r.hex() for r in ref]
    kept, every = by_cell(rec.calls, xs), by_cell(rec_ref.calls, xs)
    assert all(every[c] == calls for c, calls in kept.items())
    return got, set(kept), set(every)


def test_grid_roots_near_exact_zero_skips_far_sign_changes():
    def f(x):
        return (x - 2.0) * (x - 3.3) * (x - 4.7)

    xs = [float(x) for x in np.linspace(1.0, 5.0, 17)]  # 2.0 is a sample
    fs = [f(x) for x in xs]
    assert fs.count(0.0) == 1
    got, kept, every = _near_both(f, xs, fs, 2.0)
    assert got == [2.0] and kept == set() and len(every) == 2
    # a little off the sample, the exact zero still wins without bisection
    got, kept, every = _near_both(f, xs, fs, 2.1)
    assert got == [2.0] and kept == set()


def test_grid_roots_near_inside_a_sign_change_cell():
    def f(x):
        return math.sin(x) + 0.3 * math.sin(3.1 * x)

    xs = [float(x) for x in np.linspace(2.0, 40.0, 17)]
    fs = [f(x) for x in xs]
    cells = [i for i in range(16) if fs[i] * fs[i + 1] < 0.0]
    for i in cells:
        for near in (0.5 * (xs[i] + xs[i + 1]), xs[i], xs[i + 1]):
            got, kept, every = _near_both(f, xs, fs, near)
            assert i in kept and kept < every


def test_grid_roots_near_two_exact_zeros_and_a_tie():
    def f(x):
        return (x - 2.0) * (x - 3.0) * (x - 5.3)

    xs = [float(x) for x in np.linspace(1.0, 6.0, 21)]  # 2.0 and 3.0 are samples
    fs = [f(x) for x in xs]
    assert fs.count(0.0) == 2
    assert _near_both(f, xs, fs, 2.4)[:2] == ([2.0], set())
    assert _near_both(f, xs, fs, 2.6)[:2] == ([3.0], set())
    # 2.5 is 0.5 from both: the first in sample order wins, as min() picks it
    assert _near_both(f, xs, fs, 2.5)[:2] == ([2.0], set())
    # nearer 5.3 than 3.0, the sign change is bisected and wins
    got, kept, _ = _near_both(f, xs, fs, 5.0)
    assert len(kept) == 1 and abs(got[0] - 5.3) < 1e-8


def test_grid_roots_near_far_edge_prunes_without_exact_zero():
    # no sample on a root: only the far edge of the closest cell bounds the
    # distance, and the cells whose near edge lies beyond it are not bisected
    def f(x):
        return math.cos(3.0 * x) + 0.2

    xs = [float(x) for x in np.linspace(0.3, 9.0, 23)]
    fs = [f(x) for x in xs]
    assert 0.0 not in fs
    pruned = 0
    for near in np.linspace(-1.0, 10.0, 111).tolist():
        got, kept, every = _near_both(f, xs, fs, near)
        assert 1 <= len(kept) <= 2 and kept <= every
        pruned += len(every) - len(kept)
    assert pruned > 100 * 6


def test_bisect_root_caps_at_200_halvings():
    f = Recorded(lambda x: x - math.pi)
    r, capped = _one_lane(f, 3.0, 4.0, 3.0 - math.pi)
    assert len(f.calls) == 200 and capped
    assert abs(r - math.pi) <= 4e-16
    assert r == bisect_root(lambda x: x - math.pi, 3.0, 4.0, 3.0 - math.pi)


def _lanes_both(fs, lo, hi, rtol):
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

    roots, capped = bisect_lanes(f_lanes, np.array(lo), np.array(hi), np.array(f_lo), rtol)
    lone, lone_calls = [], []
    for f, a, b, fa in zip(fs, lo, hi, f_lo):
        rec = Recorded(f)
        lone.append(bisect_root(rec, a, b, fa, rtol=rtol))
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


def test_bisect_lanes_settled_stops_on_the_same_path():
    """The density map's stop test on the x bins [10, 12), ..., [18, 20]:
    the lane wholly below the window stops before any call of f, a bracket
    that straddles x_edges[0] or the edge 14 keeps halving, f is never
    called for a lane once it stopped, and each lane goes through the first
    midpoints of the full-tolerance lane and ends in the bin of its root."""
    edges = np.linspace(10.0, 20.0, 6)
    settled = qsieve._bin_settled(edges)
    fs = [lambda x: x - 3.0, lambda x: x - 10.5, lambda x: 15.3 - x, lambda x: x - 14.0]
    lo, hi = np.array([0.0, 5.0, 10.0, 10.0]), np.array([8.0, 20.0, 20.0, 20.0])
    f_lo = np.array([f(a) for f, a in zip(fs, lo.tolist())])
    live = [np.arange(4)]  # the lanes of each halving
    tested = []  # (lane, lo, hi, settled) for every bracket settled saw
    seen = [[] for _ in fs]

    def recording(a, b):
        flags = settled(a, b)
        tested.extend(zip(live[-1].tolist(), a.tolist(), b.tolist(), flags.tolist()))
        return flags

    def f_lanes(mids, lanes):
        live.append(lanes.copy())
        for m, k in zip(mids.tolist(), lanes.tolist()):
            seen[k].append(m)
        return np.array([fs[k](m) for m, k in zip(mids.tolist(), lanes.tolist())])

    roots, capped = bisect_lanes(f_lanes, lo, hi, f_lo, 1e-12, recording)
    full, _, _, full_seen, _, _ = _lanes_both(fs, lo.tolist(), hi.tolist(), 1e-12)
    flags = [[s for k, _, _, s in tested if k == lane] for lane in range(4)]
    assert flags[:3] == [[False] * len(c) + [True] for c in seen[:3]]
    assert seen[0] == [] and roots[0] == 4.0 and full[0] < edges[0]
    assert not any(s for _, a, b, s in tested if a < edges[0] <= b or a < 14.0 <= b)
    assert any(k == 1 and a < edges[0] <= b for k, a, b, _ in tested)
    assert flags[3] == [False] * (len(seen[3]) + 1) and roots[3] == full[3]  # rtol stops it
    assert all(c == ref[:len(c)] for c, ref in zip(seen, full_seen))
    assert (qsieve._uniform_bins(roots[1:], edges).tolist()
            == qsieve._uniform_bins(np.array(full[1:]), edges).tolist() == [0, 2, 2])
    assert not capped.any() and len(seen[2]) < 6 < 30 < len(seen[3])


@pytest.mark.parametrize("xtol, rtol", [(1e-9, 0.0), (0.0, 1e-9)])
def test_bisect_lanes_xtol_rtol_equal_reference(xtol, rtol):
    # the relative width test is bisect_lanes': lane by lane the roots and
    # calls of the reference; the absolute one is false_position_lanes',
    # the zero scans' routine: each root within xtol of the reference
    fs = [lambda x, c=c: math.sin(x) - c for c in (0.1, -0.4, 0.7, 0.25, 0.9)]
    lo, hi = [0.0, 3.0, 0.5, 0.1, 1.0], [1.5, 4.0, 1.5, 0.3, 1.4]
    if rtol:
        roots, capped, lone, seen, lone_calls, batches = _lanes_both(fs, lo, hi, rtol)
        assert roots == lone and seen == lone_calls
    else:
        roots, capped, seen, batches = _fp_lanes(fs, lo, hi, xtol)
        ref = [bisect_root(f, a, b, f(a), xtol=xtol) for f, a, b in zip(fs, lo, hi)]
        assert all(abs(r - t) < xtol for r, t in zip(roots, ref))
        assert all(a < x < b for c, a, b in zip(seen, lo, hi) for x in c)
    assert capped == [False] * 5
    assert len(batches) == max(len(c) for c in seen)  # one f call per round


@pytest.mark.parametrize("xtol, rtol", [(1e-12, 0.0), (0.0, 1e-9)])
def test_grid_roots_lanes_equal_reference(xtol, rtol):
    # every sign change goes through one lockstep call: at a relative width
    # grid_roots bisects, each root and each cell's evaluation sequence that
    # of the reference on the cell; at an absolute width grid_zeros refines
    # by false position, each zero within ZERO_TOL of the reference
    def f(x):
        return math.cos(3.0 * x) + 0.2

    xs = [float(x) for x in np.linspace(0.3, 9.0, 23)]
    fs = [f(x) for x in xs]
    ref, ref_rec = [], Recorded(f)
    for i in range(len(xs) - 1):
        if fs[i] * fs[i + 1] < 0.0:
            ref.append(bisect_root(ref_rec, xs[i], xs[i + 1], fs[i], xtol=xtol, rtol=rtol))
    rec = Recorded(f)
    if rtol:
        got = grid_roots(rec, xs, fs, rtol=rtol)
        assert got == ref
        assert by_cell(rec.calls, xs) == by_cell(ref_rec.calls, xs)
    else:
        got, capped = grid_zeros(rec, xs, fs, xtol)
        assert _near(got, ref) and capped == []
    assert len(got) >= 6


def _fp_lanes(fs, lo, hi, xtol):
    """false_position_lanes on every lane: (roots, capped, per-lane calls,
    the trial points of each lockstep call)."""
    seen = [[] for _ in fs]
    batches = []

    def f_lanes(xs, lanes):
        batches.append(xs.tolist())
        out = []
        for x, k in zip(xs.tolist(), lanes.tolist()):
            seen[k].append(x)
            out.append(fs[k](x))
        return np.array(out)

    roots, capped = false_position_lanes(f_lanes, np.array(lo), np.array(hi),
                                         np.array([f(a) for f, a in zip(fs, lo)]),
                                         np.array([f(b) for f, b in zip(fs, hi)]), xtol)
    return roots.tolist(), capped.tolist(), seen, batches


@pytest.mark.parametrize("xtol", [1e-12, 2e-3])
def test_false_position_lanes_near_reference(xtol):
    # both brackets end narrower than xtol around the one root of each lane
    fs = [lambda x, c=c: math.sin(x) - c for c in (0.1, -0.4, 0.7, 0.25, 0.9)]
    lo, hi = [0.0, 3.0, 0.5, 0.1, 1.0], [1.5, 4.0, 1.5, 0.3, 1.4]
    roots, capped, seen, batches = _fp_lanes(fs, lo, hi, xtol)
    ref = [bisect_root(f, a, b, f(a), xtol=xtol) for f, a, b in zip(fs, lo, hi)]
    assert all(abs(r - t) < xtol for r, t in zip(roots, ref))
    assert capped == [False] * 5
    assert len(batches) == max(len(c) for c in seen)  # one f call per round
    assert all(a < x < b for c, a, b in zip(seen, lo, hi) for x in c)


def test_false_position_lanes_rounds_against_bisection():
    # superlinear on simple roots; where false position crawls (steep or
    # flat ends, a triple root) the midpoint fallback halves the bracket at
    # least once in every three rounds, so a lane takes at most three times
    # the halvings that bisection needs on the same bracket
    fs = [lambda x: math.exp(20.0 * x) - 2.0, lambda x: x ** 9 - 1e-3,
          lambda x: (x - 0.3) ** 3, lambda x: math.atan(50.0 * (x - 0.71)),
          lambda x: math.cos(x) - 0.5]
    lo, hi = [0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 2.0]
    roots, capped, seen, _ = _fp_lanes(fs, lo, hi, 1e-12)
    halvings = []
    for f, a, b, r, calls in zip(fs, lo, hi, roots, seen):
        rec = Recorded(f)
        ref = bisect_root(rec, a, b, f(a), xtol=1e-12)
        assert abs(r - ref) < 1e-12
        assert len(calls) <= 3 * len(rec.calls)
        halvings.append(len(rec.calls))
    assert capped == [False] * 5
    assert len(seen[4]) < halvings[4] / 2  # cos - 1/2: a simple root
    assert len(seen[2]) > 2 * halvings[2]  # the triple root crawls


def test_false_position_lanes_exact_zero_at_trial_point():
    # the first trial point on [0, 1] of the line x - 1/2 is 1/2, where f
    # is exactly 0.0: it is the root, after one call
    fs = [lambda x: x - 0.5, lambda x: 0.5 - x]
    roots, capped, seen, batches = _fp_lanes(fs, [0.0, 0.0], [1.0, 1.0], 1e-12)
    assert roots == [0.5, 0.5] and capped == [False, False]
    assert seen == [[0.5], [0.5]] and len(batches) == 1


def test_false_position_lanes_reports_the_cap():
    # f is NaN inside the first bracket, so neither of its ends ever moves:
    # that lane runs all 200 rounds and returns its midpoint, while the
    # other lane stops early
    def nan_inside(x):
        return x - 0.3 if x in (0.0, 1.0) else math.nan

    fs = [nan_inside, lambda x: x - 1.3]
    roots, capped, seen, batches = _fp_lanes(fs, [0.0, 1.0], [1.0, 2.0], 1e-12)
    assert capped == [True, False]
    assert roots[0] == 0.5 and abs(roots[1] - 1.3) < 1e-12
    assert len(seen[0]) == 200 == len(batches) and len(seen[1]) < 10


def test_false_position_lanes_no_lanes():
    roots, capped = false_position_lanes(lambda x, k: 1 / 0, np.empty(0), np.empty(0),
                                         np.empty(0), np.empty(0), 1e-12)
    assert roots.size == 0 and capped.size == 0
