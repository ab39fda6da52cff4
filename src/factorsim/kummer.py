"""F and U of one (a, b) family over a 1-D array of z, in array passes.

`KummerFamily(a, b)` runs the regimes of `special.kummer_F` and
`special.kummer_U` on every z of an array at once, and each element
equals the scalar function's value bit for bit. The Gamma prefactors,
the tanh-sinh weights and the connection coefficients are built once per
family; `FU` computes F once for both F and the connection formula of U,
and the large-z sum that F and U share once.

Plain NumPy complex arithmetic rounds differently from CPython's complex
type (products, quotients, abs and exp), so the passes hold each complex
array as (real, imag) float arrays and apply CPython's formulas to them:
the product (ar*br - ai*bi, ar*bi + ai*br); the quotient of
`_Py_c_quot`, Smith's algorithm (R. L. Smith, Commun. ACM 5 (1962)
435), with one branch for a fixed divisor and a branch per element
otherwise; `abs` as np.hypot. Float + - * /, comparisons, np.hypot and
np.spacing are exact in NumPy. exp and log (and phase) go through cmath
one element at a time, and the tanh-sinh integral stays one NumPy row
per z, as in `special`. Each series or sum keeps one lane per z, with a
mask that stops it at the term where the scalar loop stops (the
quarter-ulp stop included); with fewer than _LANES_MIN z, the scalar
loop runs on each z instead, since a NumPy call costs about as much as
a scalar term.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .special import (
    _ASYMPT_RADIUS,
    _EPS,
    _MAXTERMS,
    _SERIES_RADIUS,
    _U_ASYMPT_RADIUS,
    _U_LOG_RADIUS,
    SpecialFunctionError,
    _asymptotic_sum,
    _hyp_series,
    _kummer_u_log_series,
    _ts_sum,
    _ts_weights,
    cdigamma,
    cgamma,
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
    """`_hyp_series` at every z: (real, imag, loss).

    Every lane runs the scalar recurrence; a lane's total and peak stop
    changing at the term where the scalar loop returns.
    """
    n = zr.size
    if n < _LANES_MIN:
        vals = [_hyp_series(a, b, complex(r, i)) for r, i in zip(zr.tolist(), zi.tolist())]
        v = np.array([x for x, _ in vals], dtype=complex)
        return v.real, v.imag, np.array([x for _, x in vals])
    tr, ti = np.ones(n), np.zeros(n)
    sr, si, peak = tr.copy(), ti.copy(), tr.copy()
    live = np.ones(n, dtype=bool)
    for k in range(_MAXTERMS):
        ak = a + k
        tr, ti = cmul(tr, ti, *cquot(*cmul(ak.real, ak.imag, zr, zi), (b + k) * (k + 1)))
        np.add(sr, tr, out=sr, where=live)
        np.add(si, ti, out=si, where=live)
        size = np.hypot(tr, ti)
        np.copyto(peak, size, where=np.where(live, size > peak, False))
        if k > 2:
            live = np.where(size < _EPS * np.hypot(sr, si), False, live)
            if not np.count_nonzero(live):
                mag = np.hypot(sr, si)
                return sr, si, peak / np.where(1e-300 > mag, 1e-300, mag)
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


class KummerFamily:
    """F(a, b, z) and U(a, b, z) of one (a, b) over 1-D arrays of z.

    Every element equals scalar `kummer_F` / `kummer_U` at that z bit for
    bit: each regime runs the scalar algorithm on all of its z at once, in
    CPython's complex arithmetic on (real, imag) float arrays. The Gamma
    prefactors, the digammas of the log series and the connection
    coefficients are built once per family, on first use; `FU` reuses F
    and the sum shared by the large-z F and U within one pass.
    """

    def __init__(self, a: complex, b: complex):
        a, b = complex(a), complex(b)
        if b.real <= 0 and b.imag == 0 and b.real == int(b.real):
            raise SpecialFunctionError(f"F pole: b = {b} is a non-positive integer")
        self.a, self.b = a, b
        self._integer_b = b.imag == 0 and b.real == int(b.real)
        self._u_radius = _U_LOG_RADIUS if self._integer_b else _U_ASYMPT_RADIUS

    @functools.cached_property
    def _gammas(self) -> tuple[complex, complex, complex]:
        """(Gamma(b), Gamma(a), Gamma(b - a)) of the integral and large-z F."""
        return cgamma(self.b), cgamma(self.a), cgamma(self.b - self.a)

    @functools.cached_property
    def _ts_weights(self) -> tuple[np.ndarray, np.ndarray]:
        return _ts_weights(self.a, self.b)

    @functools.cached_property
    def _connection(self) -> tuple[complex, complex, KummerFamily]:
        """(c1, c2, F family of (a - b + 1, 2 - b)) of the two-F formula for U."""
        a, b = self.a, self.b
        return (cgamma(1.0 - b) / cgamma(a - b + 1.0), cgamma(b - 1.0) / cgamma(a),
                KummerFamily(a - b + 1.0, 2.0 - b))

    def F(self, z) -> np.ndarray:
        """F(a, b, z) at every z of a 1-D array."""
        return self._pass(np.asarray(z, dtype=complex), False)[0]

    def FU(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(F, U)(a, b, z) at every z of a 1-D array; no z may be 0."""
        return self._pass(np.asarray(z, dtype=complex), True)

    def _pass(self, z: np.ndarray, with_u: bool):
        a, b = self.a, self.b
        zr, zi = z.real, z.imag
        r = np.hypot(zr, zi)
        idx = np.arange(z.size)
        F = np.empty(z.size, dtype=complex)
        small = idx[r <= _SERIES_RADIUS]
        rest = idx[~(r <= _SERIES_RADIUS)]
        mid = rest[r[rest] <= _ASYMPT_RADIUS]
        if small.size:
            F.real[small], F.imag[small], _ = _hyp_series_many(a, b, zr[small], zi[small])
        if mid.size:
            F[mid] = self._middle(zr[mid], zi[mid])
        # the large-z sum of F is U's whole sum, so U's radius (below F's)
        # sets the tail where both are summed once
        tail = idx[~(r <= (self._u_radius if with_u else _ASYMPT_RADIUS))]
        tr, ti = zr[tail], zi[tail]
        logz = each(cmath.log, tr, ti)
        s1 = _asymptotic_sum_many(a, a - b + 1.0, *cdiv(-1.0, 0.0, tr, ti))
        large = ~(r[tail] <= _ASYMPT_RADIUS)
        if tail[large].size:
            F[tail[large]] = self._f_large(tr[large], ti[large],
                                           *(v[large] for v in logz + s1))
        if not with_u:
            return F, None
        if idx[r == 0.0].size:
            raise SpecialFunctionError("U undefined at z = 0")
        U = np.empty(z.size, dtype=complex)
        far = r[tail] > self._u_radius
        er, ei = each(cmath.exp, *cmul(-a.real, -a.imag, logz[0][far], logz[1][far]))
        U.real[tail[far]], U.imag[tail[far]] = cmul(er, ei, s1[0][far], s1[1][far])
        near = idx[~(r > self._u_radius)]
        if near.size:
            U[near] = self._u_near(zr[near], zi[near], F[near])
        return F, U

    def _middle(self, zr, zi) -> np.ndarray:
        """F in the band (_SERIES_RADIUS, _ASYMPT_RADIUS]: one tanh-sinh row per z."""
        a, b = self.a, self.b
        if b.real > a.real > 0.0:
            gb, ga, gba = self._gammas
            den = ga * gba
            weights = self._ts_weights
            return np.array([_ts_sum(complex(r, i), weights) * gb / den
                             for r, i in zip(zr.tolist(), zi.tolist())], dtype=complex)
        vr, vi, loss = _hyp_series_many(a, b, zr, zi)
        lossy = np.arange(zr.size)[loss > 1e8]
        if lossy.size:
            k = lossy[0]
            raise SpecialFunctionError(
                f"F({a},{b},{complex(zr[k], zi[k])}): series loses {loss[k]:.1e} "
                "and no integral path")
        return pack(vr, vi)

    def _f_large(self, zr, zi, lr, li, s1r, s1i) -> np.ndarray:
        """`_kummer_f_asymptotic` at every z, given log z and the first sum s1."""
        a, b = self.a, self.b
        gb, ga, gba = self._gammas
        upper = np.array([-0.5 * math.pi < cmath.phase(complex(r, i)) <= 1.5 * math.pi
                          for r, i in zip(zr.tolist(), zi.tolist())], dtype=bool)
        w_up, w_down = 1.0 * 1j * cmath.pi * a, -1.0 * 1j * cmath.pi * a
        pr, pi_ = cmul(a.real, a.imag, lr, li)
        e1 = each(cmath.exp, np.where(upper, w_up.real, w_down.real) - pr,
                   np.where(upper, w_up.imag, w_down.imag) - pi_)
        t1 = cmul(*cquot(*e1, gba), s1r, s1i)
        s2 = _asymptotic_sum_many(b - a, 1.0 - a, *cdiv(1.0, 0.0, zr, zi))
        pr, pi_ = cmul((a - b).real, (a - b).imag, lr, li)
        t2 = cmul(*cquot(*each(cmath.exp, zr + pr, zi + pi_), ga), *s2)
        return pack(*cmul(gb.real, gb.imag, t1[0] + t2[0], t1[1] + t2[1]))

    def _u_near(self, zr, zi, f: np.ndarray) -> np.ndarray:
        """U inside its radius, where f is F at the same z: the log series
        for b = 1, the two-F connection for non-integer b."""
        a, b = self.a, self.b
        lr, li = each(cmath.log, zr, zi)
        if self._integer_b:
            if b.real == 1.0:
                return self._u_log_series(zr, zi, lr, li)
            raise SpecialFunctionError(f"integer b = {b} != 1 not implemented")
        c1, c2, family2 = self._connection
        f2 = family2.F(pack(zr, zi))
        e = each(cmath.exp, *cmul((1.0 - b).real, (1.0 - b).imag, lr, li))
        u1 = cmul(c1.real, c1.imag, f.real, f.imag)
        u2 = cmul(*cmul(c2.real, c2.imag, *e), f2.real, f2.imag)
        return pack(u1[0] + u2[0], u1[1] + u2[1])

    @functools.cached_property
    def _log_series_constants(self) -> tuple[complex, complex, complex]:
        """(Gamma(a), psi(a), psi(1)) of the log series."""
        return cgamma(self.a), cdigamma(self.a), cdigamma(1.0)

    def _u_log_series(self, zr, zi, lr, li) -> np.ndarray:
        """`_kummer_u_log_series` at every z, given log z; a lane's total
        stops changing at the term where the scalar loop returns."""
        a = self.a
        n = zr.size
        if n < _LANES_MIN:
            return pack(*each(lambda z: _kummer_u_log_series(a, z), zr, zi))
        gamma_a, psi_a, psi_k1 = self._log_series_constants
        two = 2.0 * psi_k1
        cr, ci = np.ones(n), np.zeros(n)
        sr, si = cmul(cr, ci, (lr + psi_a.real) - two.real, (li + psi_a.imag) - two.imag)
        live = np.ones(n, dtype=bool)
        for k in range(_MAXTERMS):
            ak = a + k
            cr, ci = cmul(cr, ci, *cquot(*cmul(ak.real, ak.imag, zr, zi), (k + 1) * (k + 1)))
            psi_a += 1.0 / ak
            psi_k1 += 1.0 / (k + 1)
            two = 2.0 * psi_k1
            tr, ti = cmul(cr, ci, (lr + psi_a.real) - two.real, (li + psi_a.imag) - two.imag)
            np.add(sr, tr, out=sr, where=live)
            np.add(si, ti, out=si, where=live)
            if k > 3:
                live = np.where(np.hypot(tr, ti) < _EPS * np.hypot(sr, si), False, live)
                if not np.count_nonzero(live):
                    # -total / Gamma(a); x * -1.0 is -x bit for bit
                    return pack(*cquot(sr * -1.0, si * -1.0, gamma_a))
        raise SpecialFunctionError(f"U log-series({a},1,z) did not converge")
