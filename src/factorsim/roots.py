"""Bisection: the one halving loop behind every root the package finds.

The x(E) inversion of the quantum sieve and the zeros of the simulator
and trap wavefunctions all bracket a sign change and halve it. Keeping
one loop keeps one stopping rule and one evaluation sequence.

`bisect_lanes` runs that loop on many brackets in lockstep: each halving
is one call of f over the midpoints of every lane still halving, and
each lane goes through exactly the midpoints, evaluations and result of
`bisect_root` on its own bracket. `bisect_root` stays the scalar form,
and the reference the lockstep form is tested against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_MAX_HALVINGS = 200


def bisect_root(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
                xtol: float = 0.0, rtol: float = 0.0) -> float:
    """Midpoint of [lo, hi] once hi - lo < xtol + rtol*mid.

    `f_lo` is f(lo), and f(lo)*f(hi) <= 0. Each step keeps the half
    [lo, mid] when f_lo*f(mid) <= 0, else [mid, hi]; the width is tested
    before each evaluation, and at most 200 halvings are made.
    """
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol + rtol * mid:
            return mid
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def bisect_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, f_lo,
                 rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """`bisect_root(..., rtol=rtol)` on every lane [lo[i], hi[i]] at once:
    (roots, capped).

    lo, hi and f_lo are 1-D arrays of one lane each (or scalars shared by
    all). Each halving makes one call f(mids, lanes), where `lanes` holds
    the indices of the lanes still halving and `mids` their midpoints; it
    returns f at each midpoint. Per lane, the midpoint, the width test
    before each evaluation, the `f_lo*f_mid <= 0.0` rule and the cap of
    200 halvings are those of `bisect_root`, so roots[i] equals
    `bisect_root` on lane i bit for bit. `capped` flags the lanes that ran
    out of halvings; their root is the midpoint of the last bracket.
    """
    f_lo = np.array(f_lo, dtype=float, ndmin=1)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), f_lo.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), f_lo.shape).copy()
    roots = np.empty(f_lo.shape)
    live = np.arange(f_lo.size)
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo[live] + hi[live])
        done = hi[live] - lo[live] < rtol * mid
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


def grid_roots(f: Callable[[float], float], xs: Sequence[float],
               fs: Sequence[float], xtol: float = 0.0, rtol: float = 0.0) -> list[float]:
    """Roots of f on the ascending samples xs, where fs[i] = f(xs[i]).

    A sample where f is exactly 0.0 is a root, returned as is; each strict
    sign change between neighbours is bisected until its width falls below
    xtol + rtol*mid (see `bisect_root`).
    """
    out = []
    for i in range(len(xs)):
        if fs[i] == 0.0:
            out.append(xs[i])
        elif i + 1 < len(xs) and fs[i] * fs[i + 1] < 0.0:
            out.append(bisect_root(f, xs[i], xs[i + 1], fs[i], xtol=xtol, rtol=rtol))
    return out
