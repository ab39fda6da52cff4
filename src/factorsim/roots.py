"""Bisection: the one halving loop behind every root the package finds.

The x(E) inversion of the quantum sieve and the zeros of the simulator
and trap wavefunctions all bracket a sign change and halve it. Keeping
one loop keeps one stopping rule and one evaluation sequence.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
