"""Bracketing: the two lockstep loops behind every root the package finds.

`bisect_lanes` halves many brackets at once: each halving is one call of
f over the midpoints of every lane still halving, and each lane goes
through exactly the midpoints, evaluations and result that the halving
loop would give on its bracket alone. The x(E) inversions use it: their
objective is locally non-monotone with several roots per bracket, and
which of them bisection picks is part of their output.

`false_position_lanes` refines many brackets at once by Illinois false
position (Dowell & Jarratt, BIT 11 (1971) 168), each round one call of f
over the trial points of every live lane. The wavefunction zero scans use
it: every cell of their grid holds one simple zero, where it converges
superlinearly, in a few rounds instead of about 35 halvings.

`grid_roots` (bisection) and `grid_zeros` (false position) take each
sample of a sampled function where it is exactly 0.0 as a root and send
every strict sign change between neighbours through one lockstep call.
`grid_roots(near=)` returns only the root closest to `near`, and sends
only the cells that can hold it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_MAX_ROUNDS = 200


def bisect_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, f_lo,
                 rtol: float = 0.0, settled: Callable | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every lane [lo[i], hi[i]] at once: (roots, capped).

    lo, hi and f_lo are 1-D arrays of one lane each (or scalars shared by
    all), where f_lo = f(lo) and f(lo)*f(hi) <= 0. Each halving makes one
    call f(mids, lanes), where `lanes` holds the indices of the lanes
    still halving and `mids` their midpoints; it returns f at each
    midpoint. Per lane, the midpoint `0.5*(lo + hi)` is the root once
    `hi - lo < rtol*mid`, a width tested before each evaluation;
    otherwise the lane keeps [lo, mid] when `f_lo*f_mid <= 0.0`, else
    [mid, hi]; `settled(lo, hi)`, if given, also stops the lanes it flags.
    `capped` flags the lanes that ran out of their 200 halvings; their
    root is the midpoint of the last bracket.
    """
    f_lo = np.array(f_lo, dtype=float, ndmin=1)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), f_lo.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), f_lo.shape).copy()
    roots = np.empty(f_lo.shape)
    live = np.arange(f_lo.size)
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo[live] + hi[live])
        done = hi[live] - lo[live] < rtol * mid
        if settled is not None:
            done |= settled(lo[live], hi[live])
        roots[live[done]] = mid[done]
        live, mid = live[~done], mid[~done]
        if live.size == 0:
            break
        f_mid = np.asarray(f(mid, live), dtype=float)
        left = f_lo[live] * f_mid <= 0.0
        hi[live[left]] = mid[left]
        lo[live[~left]] = mid[~left]
        f_lo[live[~left]] = f_mid[~left]
    roots[live] = 0.5 * (lo[live] + hi[live])
    capped = np.zeros(f_lo.shape, dtype=bool)
    capped[live] = True
    return roots, capped


def false_position_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                         f_lo, f_hi, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Illinois false position on every lane [lo[i], hi[i]] at once: (roots, capped).

    lo, hi, f_lo = f(lo) and f_hi = f(hi) are 1-D arrays of one lane each,
    with f_lo*f_hi < 0. Each round makes one call f(xs, lanes) over the
    trial points of the live lanes, x = (a*f_b - b*f_a)/(f_b - f_a) on
    each bracket [a, b], kept at least xtol/4 inside both ends; x replaces
    the end whose f has its sign. An end kept twice in a row has its f
    halved (the Illinois step), and a lane whose bracket did not halve over
    its last two rounds takes the midpoint instead, so each bracket at
    least halves in every three rounds. A lane stops with its midpoint once
    its width is below xtol or no double lies strictly between its ends,
    and with x where f(x) == 0.0. `capped` flags the lanes still live
    after 200 rounds (f NaN inside the bracket, say); their root is the
    midpoint of the last bracket.
    """
    a = np.array(lo, dtype=float, ndmin=1)
    b = np.array(hi, dtype=float, ndmin=1)
    f_lo = np.array(f_lo, dtype=float, ndmin=1)
    # each lane's f scaled so that f(a) < 0 < f(b)
    sign = np.where(f_lo < 0.0, 1.0, -1.0)
    fa = sign * f_lo
    fb = sign * np.asarray(f_hi, dtype=float)
    kept = np.zeros(a.size)  # 1.0: the last round kept a, -1.0: kept b
    width1 = np.full(a.size, np.inf)  # the width one and two rounds back
    width2 = np.full(a.size, np.inf)
    roots = np.empty(a.size)
    live = np.arange(a.size)
    quarter = 0.25 * xtol
    for _ in range(_MAX_ROUNDS):
        la, lb = a[live], b[live]
        mid = 0.5 * (la + lb)
        width = lb - la
        done = np.where(np.where(la < mid, mid < lb, False), width < xtol, True)
        roots[live[done]] = mid[done]
        go = ~done
        live, la, lb, mid, width = live[go], la[go], lb[go], mid[go], width[go]
        if live.size == 0:
            break
        fla, flb = fa[live], fb[live]
        x = (la * flb - lb * fla) / (flb - fla)
        x = np.where(x < la + quarter, la + quarter, x)
        x = np.where(x > lb - quarter, lb - quarter, x)
        inside = np.where(la < x, x < lb, False)
        x = np.where(np.where(inside, width > 0.5 * width2[live], True), mid, x)
        fx = sign[live] * np.asarray(f(x, live), dtype=float)
        hit = fx == 0.0
        roots[live[hit]] = x[hit]
        left = fx > 0.0  # the root lies in [a, x]; a NaN moves neither end
        right = fx < 0.0
        now = np.where(left, 1.0, np.where(right, -1.0, 0.0))
        twice = now * kept[live] > 0.0
        a[live] = np.where(right, x, la)
        b[live] = np.where(left, x, lb)
        fa[live] = np.where(right, fx, np.where(twice, 0.5 * fla, fla))
        fb[live] = np.where(left, fx, np.where(twice, 0.5 * flb, flb))
        kept[live] = now
        width2[live] = width1[live]
        width1[live] = width
        live = live[~hit]
    roots[live] = 0.5 * (a[live] + b[live])
    capped = np.zeros(a.size, dtype=bool)
    capped[live] = True
    return roots, capped


def _on_grid(refine: Callable, xs: Sequence[float], fs: Sequence[float],
             near: float | None = None) -> tuple[list[float], list[tuple[float, float]]]:
    """The roots of a sampled function in sample order, and the cells whose
    lane ran out of rounds: each sample where fs is exactly 0.0 is a root,
    and `refine(lo, hi, f_lo, f_hi)` -> (roots, capped) refines every cell
    [xs[i], xs[i+1]] with a strict sign change in one lockstep call.

    With `near`, a cell whose near edge is farther from `near` than some
    root can be is left out: farther than an exact-zero sample, or than the
    far edge of a sign-change cell. A refined root lies in its closed cell
    and float subtraction rounds monotonically, so a left-out cell's root
    is strictly farther from `near` than the closest root, and the cells
    kept are refined exactly as they would be with every cell."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    samples = np.arange(xs.size)
    zero = samples[fs == 0.0]
    cells = samples[:-1][fs[:-1] * fs[1:] < 0.0]
    if near is not None:
        lo, hi = xs[cells].tolist(), xs[cells + 1].tolist()
        best = min([abs(x - near) for x in xs[zero].tolist()]
                   + [max(near - a, b - near) for a, b in zip(lo, hi)], default=math.inf)
        cells = cells[[a - near <= best and near - b <= best for a, b in zip(lo, hi)]]
    roots, capped = refine(xs[cells], xs[cells + 1], fs[cells], fs[cells + 1])
    found = zip(zero.tolist() + cells.tolist(), xs[zero].tolist() + roots.tolist())
    stuck = cells[capped]
    return [x for _, x in sorted(found)], list(zip(xs[stuck].tolist(), xs[stuck + 1].tolist()))


def grid_roots(f: Callable[[np.ndarray], np.ndarray], xs: Sequence[float],
               fs: Sequence[float], rtol: float = 0.0,
               near: float | None = None) -> list[float]:
    """Roots of f on the ascending samples xs, where fs[i] = f(xs[i]), in
    sample order, by bisection.

    f takes a 1-D array of x and returns f at each. A sample where f is
    exactly 0.0 is a root, returned as is; each strict sign change between
    neighbours is one lane of a single `bisect_lanes` call, halved until
    its width falls below rtol*mid. With `near`, the list holds only the
    root closest to `near` (the first in sample order on a tie), and only
    the cells that can hold it are bisected.
    """
    def refine(lo, hi, f_lo, f_hi):
        return bisect_lanes(lambda mid, live: f(mid), lo, hi, f_lo, rtol)

    roots = _on_grid(refine, xs, fs, near)[0]
    if near is None or not roots:
        return roots
    return [min(roots, key=lambda r: abs(r - near))]


def grid_zeros(f: Callable[[np.ndarray], np.ndarray], xs: Sequence[float],
               fs: Sequence[float], xtol: float) -> tuple[list[float], list[tuple[float, float]]]:
    """Zeros of f on the ascending samples xs, where fs[i] = f(xs[i]), by
    false position: (zeros in sample order, capped cells).

    As `grid_roots`, but each strict sign change is one lane of a single
    `false_position_lanes` call to the width xtol; `capped` lists the
    (xs[i], xs[i+1]) cells whose lane ran out of rounds.
    """
    def refine(lo, hi, f_lo, f_hi):
        return false_position_lanes(lambda x, live: f(x), lo, hi, f_lo, f_hi, xtol)

    return _on_grid(refine, xs, fs)
