"""F and U of one (a, b) family over a 1-D array of z, in array passes.

`KummerFamily(a, b).FU` runs the regimes of `special.kummer_F` and
`special.kummer_U` on every z of an array at once, and each element
equals the scalar function's value bit for bit. U is the exp-sinh row
inside _ASYMPT_RADIUS (35) and the asymptotic sum beyond it, with the
row's weights built once per distinct ph z in a pass. F is the power
series inside _SERIES_RADIUS (3); beyond it, F is the U(a, b, z) of the
same pass and one more U pass at (b - a, b, -z), joined by DLMF 13.2.41
with one pair of factors per sign of Im z. So a pass runs one quadrature
rule and one large-|z| formula for both functions.

Plain NumPy complex arithmetic rounds differently from CPython's complex
type (products, quotients, abs and exp), so the passes hold each complex
array as (real, imag) float arrays and apply CPython's formulas to them:
the product (ar*br - ai*bi, ar*bi + ai*br); the quotient of
`_Py_c_quot`, Smith's algorithm (R. L. Smith, Commun. ACM 5 (1962)
435), with one branch for a fixed divisor and a branch per element
otherwise; `abs` as np.hypot. Float + - * /, comparisons, np.hypot and
np.spacing are exact in NumPy. exp and log (and phase) go through cmath
one element at a time, and the exp-sinh row stays one NumPy row per z,
as in `special`. Each series or sum keeps one lane per z, with a mask
that stops it at the term where the scalar loop stops (the quarter-ulp
stop included); with fewer than _LANES_MIN z, the scalar loop runs on
each z instead, since a NumPy call costs about as much as a scalar term.
"""

from __future__ import annotations

import cmath

import numpy as np

from .special import (
    _ASYMPT_RADIUS,
    _EPS,
    _MAXTERMS,
    _SERIES_RADIUS,
    SpecialFunctionError,
    _asymptotic_sum,
    _connection_factors,
    _es_weights,
    _hyp_series,
    _row_sum,
)

# below this many z, a series or sum runs the scalar loop on each z: the
# array loop's cost per term is mostly fixed per NumPy call
_LANES_MIN = 48


def cmul(xr, xi, yr, yi):
    """CPython's complex product x*y on (real, imag) parts."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def cquot(xr, xi, d: complex):
    """x/d for one complex d by CPython's `_Py_c_quot` (Smith's algorithm):
    d picks the branch once for every element."""
    d = complex(d)
    if abs(d.real) >= abs(d.imag):
        if d.real == 0.0:
            raise ZeroDivisionError("complex division by zero")
        ratio = d.imag / d.real
        denom = d.real + d.imag * ratio
        return (xr + xi * ratio) / denom, (xi - xr * ratio) / denom
    ratio = d.real / d.imag
    denom = d.real * ratio + d.imag
    return (xr * ratio + xi) / denom, (xi * ratio - xr) / denom


def cdiv(xr, xi, yr, yi):
    """x/y element by element by `_Py_c_quot`, each y taking its own branch."""
    by_real = np.hypot(yr, 0.0) >= np.hypot(yi, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = yi / yr
        d1 = yr + yi * r1
        r2 = yr / yi
        d2 = yr * r2 + yi
        return (np.where(by_real, (xr + xi * r1) / d1, (xr * r2 + xi) / d2),
                np.where(by_real, (xi - xr * r1) / d1, (xi * r2 - xr) / d2))


def pack(re, im) -> np.ndarray:
    """The complex array of (real, imag) parts."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def each(fn, zr, zi):
    """The cmath function fn at every element, as (real, imag) parts."""
    out = np.array([fn(complex(r, i)) for r, i in zip(zr.tolist(), zi.tolist())],
                   dtype=complex)
    return out.real, out.imag


def _hyp_series_many(a: complex, b: complex, zr, zi):
    """`_hyp_series` at every z, as (real, imag) parts.

    Every lane runs the scalar recurrence; a lane's total stops changing
    at the term where the scalar loop returns.
    """
    n = zr.size
    if n < _LANES_MIN:
        return each(lambda z: _hyp_series(a, b, z), zr, zi)
    tr, ti = np.ones(n), np.zeros(n)
    sr, si = tr.copy(), ti.copy()
    live = np.ones(n, dtype=bool)
    for k in range(_MAXTERMS):
        ak = a + k
        tr, ti = cmul(tr, ti, *cquot(*cmul(ak.real, ak.imag, zr, zi), (b + k) * (k + 1)))
        np.add(sr, tr, out=sr, where=live)
        np.add(si, ti, out=si, where=live)
        if k > 2:
            live = np.where(np.hypot(tr, ti) < _EPS * np.hypot(sr, si), False, live)
            if not np.count_nonzero(live):
                return sr, si
    raise SpecialFunctionError(f"series F({a},{b},z) did not converge")


def _asymptotic_sum_many(a: complex, c: complex, ir, ii):
    """`_asymptotic_sum` at every invz = ir + i*ii.

    Every lane runs the scalar recurrence and its stop rule; a stopped
    lane's total no longer changes, while its term runs on unused. A
    quarter ulp is that of math.ulp: np.spacing of |x| (taken as
    hypot(x, 0)) for the finite totals these sums keep.
    """
    n = ir.size
    if n < _LANES_MIN:
        return each(lambda invz: _asymptotic_sum(a, c, invz), ir, ii)
    tr, ti = np.ones(n), np.zeros(n)
    sr, si, size_t = tr.copy(), ti.copy(), tr
    live = np.ones(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(_MAXTERMS):
            as_, cs = a + s, c + s
            tr, ti = cmul(tr, ti, as_.real, as_.imag)
            tr, ti = cmul(tr, ti, cs.real, cs.imag)
            tr, ti = cquot(*cmul(tr, ti, ir, ii), s + 1)
            size = np.hypot(tr, ti)
            ulp_r, ulp_i = np.spacing(np.hypot(sr, 0.0)), np.spacing(np.hypot(si, 0.0))
            stop = np.where(size >= size_t, True,
                            size < 0.25 * np.where(ulp_i < ulp_r, ulp_i, ulp_r))
            live = np.where(stop, False, live)
            if not np.count_nonzero(live):
                break
            np.add(sr, tr, out=sr, where=live)
            np.add(si, ti, out=si, where=live)
            size_t = size
    return sr, si


def _u_many(a: complex, b: complex, zr, zi) -> np.ndarray:
    """`kummer_U(a, b, z)` at every nonzero z: one exp-sinh row per z inside
    the radius, its weights built once per distinct ph z (keyed by hex, so
    -0.0 is not 0.0), and the asymptotic sum beyond it."""
    r = np.hypot(zr, zi)
    idx = np.arange(zr.size)
    U = np.empty(zr.size, dtype=complex)
    tail = idx[~(r <= _ASYMPT_RADIUS)]
    if tail.size:
        tr, ti = zr[tail], zi[tail]
        s = _asymptotic_sum_many(a, a - b + 1.0, *cdiv(-1.0, 0.0, tr, ti))
        er, ei = each(cmath.exp, *cmul(-a.real, -a.imag, *each(cmath.log, tr, ti)))
        U.real[tail], U.imag[tail] = cmul(er, ei, *s)
    near = idx[r <= _ASYMPT_RADIUS]
    rows = {}
    for k, z in zip(near.tolist(), pack(zr[near], zi[near]).tolist()):
        theta = -cmath.phase(z)
        key = theta.hex()
        if key not in rows:
            rows[key] = _es_weights(a, b, theta)
        weights, scale = rows[key]
        U[k] = _row_sum(-abs(z), weights) * scale
    return U


class KummerFamily:
    """F(a, b, z) and U(a, b, z) of one (a, b) over 1-D arrays of z.

    Every element equals scalar `kummer_F` / `kummer_U` at that z bit for
    bit: each regime runs the scalar algorithm on all of its z at once, in
    CPython's complex arithmetic on (real, imag) float arrays. Beyond the
    series radius, F is built from the U(a, b, z) that `FU` returns and
    one more U pass at (b - a, b, -z).
    """

    def __init__(self, a: complex, b: complex):
        a, b = complex(a), complex(b)
        if b.real <= 0 and b.imag == 0 and b.real == int(b.real):
            raise SpecialFunctionError(f"F pole: b = {b} is a non-positive integer")
        self.a, self.b = a, b

    def FU(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(F, U)(a, b, z) at every z of a 1-D array; no z may be 0."""
        a, b = self.a, self.b
        z = np.asarray(z, dtype=complex)
        zr, zi = z.real, z.imag
        r = np.hypot(zr, zi)
        if np.count_nonzero(r == 0.0):
            raise SpecialFunctionError("U undefined at z = 0")
        idx = np.arange(z.size)
        small = idx[r <= _SERIES_RADIUS]
        big = idx[~(r <= _SERIES_RADIUS)]
        # the DLMF 13.2.41 factors of each sign of Im z beyond the radius,
        # taken first so that F names its own conditions before U runs
        signs = np.sign(zi[big]).tolist()
        factors = {y: _connection_factors(a, b, y) for y in sorted(set(signs))}
        U = _u_many(a, b, zr, zi)
        F = np.empty(z.size, dtype=complex)
        if small.size:
            F.real[small], F.imag[small] = _hyp_series_many(a, b, zr[small], zi[small])
        if big.size:
            br, bi = zr[big], zi[big]
            k1, k2 = (np.array(col) for col in zip(*(factors[y] for y in signs)))
            u2 = _u_many(b - a, b, -br, -bi)
            t1 = cmul(k1.real, k1.imag, U.real[big], U.imag[big])
            t2 = cmul(*cmul(k2.real, k2.imag, *each(cmath.exp, br, bi)), u2.real, u2.imag)
            F[big] = pack(t1[0] + t2[0], t1[1] + t2[1])
        return F, U
