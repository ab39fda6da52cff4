"""Complex special functions for the spectral solver.

Confluent hypergeometric F (regular) and U (irregular) on the imaginary
axis, backed by a Lanczos complex gamma. Three F regimes: power series
for small |z|, a tanh-sinh integral representation in the middle band,
and the compound large-z expansion. U uses the two-F connection formula
for non-integer b, the logarithmic series for b = 1, and its own
asymptotic series for large |z|.

Fast paths are exact, not approximate. The asymptotic sums stop at the
first term below a quarter ulp of both parts of the running total: no
later term can move it, so the result is the same float as the full
optimally truncated sum. The tanh-sinh integral is one NumPy pass whose
cumulative sum adds the nodes in the order of the scalar running sum.

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
while the asymptotic series reaches ~1e-13 by |z| ~ 35.
"""

from __future__ import annotations

import cmath
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
_U_ASYMPT_RADIUS = 30.0
_U_LOG_RADIUS = 17.5  # U(a, 1, z): log series inside, asymptotic series outside
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


def cdigamma(z: complex) -> complex:
    """Complex digamma: reflection, upward recurrence, Bernoulli tail."""
    z = complex(z)
    if z.real < 0.5:
        t = cmath.tan(cmath.pi * z)
        if t == 0:
            raise SpecialFunctionError(f"digamma pole at {z}")
        return cdigamma(1.0 - z) - cmath.pi / t
    acc = 0.0 + 0.0j
    while abs(z) < 16.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = (
        -1.0 / 12.0
        + w * (1.0 / 120.0 + w * (-1.0 / 252.0 + w * (1.0 / 240.0
        + w * (-1.0 / 132.0 + w * (691.0 / 32760.0 - w / 12.0)))))
    )
    return acc + cmath.log(z) - 0.5 / z + w * tail


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


# tanh-sinh nodes are shared by every middle-band evaluation
_TS_LEVEL = 6  # h = 2^-6, nodes to |u| = 6.0
_ts_cache: tuple | None = None


def _ts_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node arrays (t, log t, log(1-t), log dt) of the tanh-sinh rule."""
    global _ts_cache
    if _ts_cache is None:
        h = 2.0 ** -_TS_LEVEL
        nodes = []
        kmax = int(6.0 / h)
        for k in range(-kmax, kmax + 1):
            u = k * h
            w = 0.5 * math.pi * math.sinh(u)
            # t in (0,1) with stable log(t), log(1-t)
            log_t = -math.log1p(math.exp(-2.0 * w)) if w > -350 else 2.0 * w
            log_1mt = -math.log1p(math.exp(2.0 * w)) if w < 350 else -2.0 * w
            dt = 0.25 * math.pi * math.cosh(u) / math.cosh(w) ** 2
            if dt == 0.0 or not math.isfinite(dt):
                continue
            nodes.append((cmath.exp(log_t), log_t, log_1mt, math.log(dt)))
        t, log_t, log_1mt, log_dt = zip(*nodes)
        _ts_cache = (np.array(t), np.array(log_t), np.array(log_1mt), np.array(log_dt))
    return _ts_cache


def _ts_weights(a: complex, b: complex) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) terms (a-1) log t and (b-a-1) log(1-t) of the Euler exponent."""
    _, log_t, log_1mt, _ = _ts_nodes()
    return (a - 1.0) * log_t, (b - a - 1.0) * log_1mt


def _ts_sum(z: complex, weights: tuple[np.ndarray, np.ndarray]) -> complex:
    """The tanh-sinh sum of the Euler integrand at one z, before its Gamma factor.

    One array pass over the nodes; cumsum adds them in node order, so
    the total is the same float as a running sum.
    """
    t, _, _, log_dt = _ts_nodes()
    w_a, w_b = weights
    # z*t + w_a + w_b + log_dt, added in place in that order
    expo = z * t
    expo += w_a
    expo += w_b
    expo += log_dt
    total = complex(np.cumsum(np.exp(expo, out=expo))[-1])
    total *= 2.0 ** -_TS_LEVEL
    return total


def _hyp_integral(a: complex, b: complex, z: complex) -> complex:
    """Euler integral for F, tanh-sinh quadrature; needs Re b > Re a > 0."""
    if not (b.real > a.real > 0.0):
        raise SpecialFunctionError(
            f"integral representation needs Re b > Re a > 0, got a={a}, b={b}"
        )
    return _ts_sum(z, _ts_weights(a, b)) * cgamma(b) / (cgamma(a) * cgamma(b - a))


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


def _kummer_u_log_series(a: complex, z: complex) -> complex:
    """U(a, 1, z) by the logarithmic small-z expansion."""
    logz = cmath.log(z)
    psi_a = cdigamma(a)
    psi_k1 = cdigamma(1.0)  # -euler_gamma
    coeff = 1.0 + 0.0j  # (a)_k z^k / (k!)^2
    total = coeff * (logz + psi_a - 2.0 * psi_k1)
    for k in range(_MAXTERMS):
        coeff *= (a + k) * z / ((k + 1) * (k + 1))
        psi_a += 1.0 / (a + k)
        psi_k1 += 1.0 / (k + 1)
        term = coeff * (logz + psi_a - 2.0 * psi_k1)
        total += term
        if abs(term) < _EPS * abs(total) and k > 3:
            return -total / cgamma(a)
    raise SpecialFunctionError(f"U log-series({a},1,{z}) did not converge")


def _kummer_u_connection(a: complex, b: complex, z: complex) -> complex:
    c1 = cgamma(1.0 - b) / cgamma(a - b + 1.0)
    c2 = cgamma(b - 1.0) / cgamma(a)
    f1 = kummer_F(a, b, z)
    f2 = kummer_F(a - b + 1.0, 2.0 - b, z)
    return c1 * f1 + c2 * cmath.exp((1.0 - b) * cmath.log(z)) * f2


def kummer_U(a: complex, b: complex, z: complex) -> complex:
    """Irregular confluent hypergeometric function U(a, b, z), z != 0."""
    a, b, z = complex(a), complex(b), complex(z)
    if z == 0:
        raise SpecialFunctionError("U undefined at z = 0")
    integer_b = b.imag == 0 and b.real == int(b.real)
    # the logarithmic series loses digits sooner than the connection route,
    # and the asymptotic side is already ~5e-9 at 17.5 (measured crossover)
    radius = _U_LOG_RADIUS if integer_b else _U_ASYMPT_RADIUS
    if abs(z) > radius:
        s = _asymptotic_sum(a, a - b + 1.0, -1.0 / z)
        return cmath.exp(-a * cmath.log(z)) * s
    if integer_b:
        if b.real == 1.0:
            return _kummer_u_log_series(a, z)
        raise SpecialFunctionError(f"integer b = {b} != 1 not implemented")
    return _kummer_u_connection(a, b, z)
