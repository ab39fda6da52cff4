"""Bisection: the one halving loop behind every root the package finds.

The x(E) inversion of the quantum sieve and the zeros of the simulator
and trap wavefunctions all bracket a sign change and halve it. Keeping
one loop keeps one stopping rule and one evaluation sequence.

`bisect_lanes` runs that loop on many brackets in lockstep: each halving
is one call of f over the midpoints of every lane still halving, and each
lane goes through exactly the midpoints, evaluations and result that the
loop would give on its bracket alone. `grid_roots` sends every sign
change of a sampled function through one `bisect_lanes` call.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_MAX_HALVINGS = 200


def bisect_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, f_lo,
                 xtol: float = 0.0, rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Bisect every lane [lo[i], hi[i]] at once: (roots, capped).

    lo, hi and f_lo are 1-D arrays of one lane each (or scalars shared by
    all), where f_lo = f(lo) and f(lo)*f(hi) <= 0. Each halving makes one
    call f(mids, lanes), where `lanes` holds the indices of the lanes
    still halving and `mids` their midpoints; it returns f at each
    midpoint. Per lane, the midpoint `0.5*(lo + hi)` is the root once
    `hi - lo < xtol + rtol*mid`, a width tested before each evaluation;
    otherwise the lane keeps [lo, mid] when `f_lo*f_mid <= 0.0`, else
    [mid, hi]. `capped` flags the lanes that ran out of their 200
    halvings; their root is the midpoint of the last bracket.
    """
    f_lo = np.array(f_lo, dtype=float, ndmin=1)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), f_lo.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), f_lo.shape).copy()
    roots = np.empty(f_lo.shape)
    live = np.arange(f_lo.size)
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo[live] + hi[live])
        done = hi[live] - lo[live] < xtol + rtol * mid
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


def grid_roots(f: Callable[[np.ndarray], np.ndarray], xs: Sequence[float],
               fs: Sequence[float], xtol: float = 0.0, rtol: float = 0.0) -> list[float]:
    """Roots of f on the ascending samples xs, where fs[i] = f(xs[i]), in
    sample order.

    f takes a 1-D array of x and returns f at each. A sample where f is
    exactly 0.0 is a root, returned as is; each strict sign change between
    neighbours is one lane of a single `bisect_lanes` call, halved until
    its width falls below xtol + rtol*mid.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    samples = np.arange(xs.size)
    zero = samples[fs == 0.0]
    cells = samples[:-1][fs[:-1] * fs[1:] < 0.0]
    roots, _ = bisect_lanes(lambda mid, live: f(mid), xs[cells], xs[cells + 1], fs[cells],
                            xtol, rtol)
    found = zip(zero.tolist() + cells.tolist(), xs[zero].tolist() + roots.tolist())
    return [x for _, x in sorted(found)]
