"""Complex special functions for the spectral solver.

Confluent hypergeometric F (regular) and U (irregular) on the imaginary
axis, backed by a Lanczos complex gamma. Three F regimes: power series
for small |z|, a tanh-sinh integral representation in the middle band,
and the compound large-z expansion. U has two, split at F's large-z
radius: inside it, the Laplace integral DLMF 13.4.4 turned onto the ray
arg t = -ph z and summed by an exp-sinh row, for every b and Re a > 0;
outside it, the asymptotic series whose sum F's large-z form shares.

Fast paths are exact, not approximate. The asymptotic sums stop at the
first term below a quarter ulp of both parts of the running total: no
later term can move it, so the result is the same float as the full
optimally truncated sum. Each quadrature row (F's tanh-sinh, U's
exp-sinh) is one NumPy pass whose cumulative sum adds the nodes in the
order of the scalar running sum.

These are the point evaluators (the Newton solver, the matching point,
boundary constants). A scan at fixed (a, b) goes through
`kummer.KummerFamily`, which runs these same algorithms on a whole array
of z and returns floats equal to these, bit for bit. NumPy's own complex
product, quotient, abs and exp round differently from CPython's, so that
path applies CPython's formulas to (real, imag) float arrays: the product
(ar*br - ai*bi, ar*bi + ai*br), Smith's quotient as `_Py_c_quot` takes
it, np.hypot for abs; float + - * /, comparisons, np.hypot and
np.spacing are exact, and exp and log go through cmath per element.

Regime radii were calibrated against an arbitrary-precision oracle:
the double-precision power series keeps ~1e-11 relative accuracy to
|z| ~ 12 and degrades fast beyond (cancellation on the imaginary axis),
while the asymptotic series reaches ~1e-13 by |z| ~ 35. U is within
2e-14 of the oracle on both scan families for |z| from 0.3 to 400.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

_LANCZOS_G = 7
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SERIES_RADIUS = 12.0
_ASYMPT_RADIUS = 35.0
# U's radius, which is F's; the benchmark tracer (perfbench/layers.py)
# labels U's regimes by this name
_U_ASYMPT_RADIUS = _ASYMPT_RADIUS
_EPS = 1e-15
_MAXTERMS = 600


class SpecialFunctionError(ArithmeticError):
    """Raised when no evaluation regime reaches its accuracy target."""


def cgamma(z: complex) -> complex:
    """Complex gamma by reflection plus the shifted Lanczos series."""
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0.0 and z.real == int(z.real):
            raise SpecialFunctionError(f"gamma pole at {z}")
        s = cmath.sin(cmath.pi * z)
        return cmath.pi / (s * cgamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_C[0]
    for i in range(1, _LANCZOS_G + 2):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def _hyp_series(a: complex, b: complex, z: complex) -> tuple[complex, float]:
    """Plain Taylor series; returns (value, max-term/|value| loss factor)."""
    term = 1.0 + 0.0j
    total = term
    peak = 1.0
    for k in range(_MAXTERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        peak = max(peak, abs(term))
        if abs(term) < _EPS * abs(total) and k > 2:
            return total, peak / max(abs(total), 1e-300)
    raise SpecialFunctionError(f"series F({a},{b},{z}) did not converge")


# the nodes of the two quadrature rows, built once by math in a Python loop
_TS_H = 2.0 ** -6  # F's tanh-sinh row on (0, 1): u = k h to |u| = 6
_ES_H = 2.0 ** -5  # U's exp-sinh row on (0, inf): u = k h, k = -160..112


@functools.cache
def _ts_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node arrays (t, log dt, log t, log(1-t)) of the tanh-sinh rule."""
    nodes = []
    kmax = int(6.0 / _TS_H)
    for k in range(-kmax, kmax + 1):
        u = k * _TS_H
        w = 0.5 * math.pi * math.sinh(u)
        # t in (0,1) with stable log(t), log(1-t)
        log_t = -math.log1p(math.exp(-2.0 * w)) if w > -350 else 2.0 * w
        log_1mt = -math.log1p(math.exp(2.0 * w)) if w < 350 else -2.0 * w
        dt = 0.25 * math.pi * math.cosh(u) / math.cosh(w) ** 2
        if dt == 0.0 or not math.isfinite(dt):
            continue
        nodes.append((cmath.exp(log_t), math.log(dt), log_t, log_1mt))
    return tuple(np.array(col) for col in zip(*nodes))


@functools.cache
def _es_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node arrays (s, log ds, log s) of the exp-sinh rule s = exp(pi/2 sinh u)
    (Takahasi & Mori, Publ. RIMS Kyoto 9 (1974) 721)."""
    nodes = []
    for k in range(-160, 113):
        u = k * _ES_H
        log_s = 0.5 * math.pi * math.sinh(u)
        log_ds = log_s + math.log(0.5 * math.pi * math.cosh(u))
        nodes.append((complex(math.exp(log_s)), log_ds, log_s))
    return tuple(np.array(col) for col in zip(*nodes))


def _ts_weights(a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) terms (a-1) log t and (b-a-1) log(1-t) of the Euler exponent."""
    _, _, log_t, log_1mt = _ts_nodes()
    return (a - 1.0) * log_t, (b - a - 1.0) * log_1mt


def _es_weights(a: complex, b: complex, theta: float) -> tuple[tuple, complex]:
    """U's Laplace row on the ray arg t = theta: its weights (a-1) log s and
    (b-a-1) log(1 + s e^{i theta}), and its factor e^{i theta a} / Gamma(a)."""
    if not a.real > 0.0:
        raise SpecialFunctionError(f"U's Laplace integral needs Re a > 0, got a = {a}")
    if abs(theta) == math.pi:
        raise SpecialFunctionError(
            "U's Laplace ray meets the cut of (1+t)^(b-a-1): z on the negative real axis")
    s, _, log_s = _es_nodes()
    weights = (a - 1.0) * log_s, (b - a - 1.0) * np.log1p(s * cmath.exp(1j * theta))
    return weights, cmath.exp(1j * theta * a) / cgamma(a)


def _row_sum(x: complex, nodes: tuple, h: float, weights: tuple[np.ndarray, np.ndarray]) -> complex:
    """h * sum_k exp(x t_k + w_k + v_k + log dt_k) over the nodes (t, log dt, ...)
    of a rule of step h, with the weights (w, v).

    One array pass over the nodes; cumsum adds them in node order, so
    the total is the same float as a running sum.
    """
    t, log_dt = nodes[:2]
    w_a, w_b = weights
    # x*t + w_a + w_b + log_dt, added in place in that order
    expo = x * t
    expo += w_a
    expo += w_b
    expo += log_dt
    total = complex(np.cumsum(np.exp(expo, out=expo))[-1])
    total *= h
    return total


def _hyp_integral(a: complex, b: complex, z: complex) -> complex:
    """Euler integral for F, tanh-sinh quadrature; needs Re b > Re a > 0."""
    if not (b.real > a.real > 0.0):
        raise SpecialFunctionError(
            f"integral representation needs Re b > Re a > 0, got a={a}, b={b}"
        )
    total = _row_sum(z, _ts_nodes(), _TS_H, _ts_weights(a, b))
    return total * cgamma(b) / (cgamma(a) * cgamma(b - a))


def _asymptotic_sum(a: complex, c: complex, invz: complex) -> complex:
    """Optimally truncated sum of (a)_s (c)_s / s! * invz^s.

    Stops before the first term that does not shrink, or before the
    first term below a quarter ulp of both parts of the total: adding
    it leaves the total unchanged, and so does every smaller term after
    it, so the early stop returns the full sum's exact value.
    """
    term = 1.0 + 0.0j
    total = term
    for s in range(_MAXTERMS):
        nxt = term * (a + s) * (c + s) * invz / (s + 1)
        size = abs(nxt)
        if size >= abs(term) or size < 0.25 * min(math.ulp(total.real),
                                                  math.ulp(total.imag)):
            break
        term = nxt
        total += term
    return total


def _kummer_f_asymptotic(a: complex, b: complex, z: complex) -> complex:
    sigma = 1.0 if -0.5 * math.pi < cmath.phase(z) <= 1.5 * math.pi else -1.0
    s1 = _asymptotic_sum(a, a - b + 1.0, -1.0 / z)
    s2 = _asymptotic_sum(b - a, 1.0 - a, 1.0 / z)
    t1 = cmath.exp(sigma * 1j * cmath.pi * a - a * cmath.log(z)) / cgamma(b - a) * s1
    t2 = cmath.exp(z + (a - b) * cmath.log(z)) / cgamma(a) * s2
    return cgamma(b) * (t1 + t2)


def kummer_F(a: complex, b: complex, z: complex) -> complex:
    """Regular confluent hypergeometric function F(a, b, z)."""
    a, b, z = complex(a), complex(b), complex(z)
    if b.real <= 0 and b.imag == 0 and b.real == int(b.real):
        raise SpecialFunctionError(f"F pole: b = {b} is a non-positive integer")
    az = abs(z)
    if az <= _SERIES_RADIUS:
        return _hyp_series(a, b, z)[0]
    if az <= _ASYMPT_RADIUS:
        if b.real > a.real > 0.0:
            return _hyp_integral(a, b, z)
        val, loss = _hyp_series(a, b, z)
        if loss > 1e8:
            raise SpecialFunctionError(
                f"F({a},{b},{z}): series loses {loss:.1e} and no integral path"
            )
        return val
    return _kummer_f_asymptotic(a, b, z)


def _kummer_u_row(a: complex, b: complex, z: complex) -> complex:
    """U(a, b, z) by DLMF 13.4.4 turned onto the ray arg t = -ph z, where
    z t = |z| s: e^{i theta a}/Gamma(a) * int_0^inf e^{-|z| s} s^{a-1}
    (1 + s e^{i theta})^{b-a-1} ds, summed on the exp-sinh nodes."""
    weights, scale = _es_weights(a, b, -cmath.phase(z))
    return _row_sum(-abs(z), _es_nodes(), _ES_H, weights) * scale


def kummer_U(a: complex, b: complex, z: complex) -> complex:
    """Irregular confluent hypergeometric function U(a, b, z), z != 0."""
    a, b, z = complex(a), complex(b), complex(z)
    if z == 0:
        raise SpecialFunctionError("U undefined at z = 0")
    if abs(z) <= _ASYMPT_RADIUS:
        return _kummer_u_row(a, b, z)
    s = _asymptotic_sum(a, a - b + 1.0, -1.0 / z)
    return cmath.exp(-a * cmath.log(z)) * s
