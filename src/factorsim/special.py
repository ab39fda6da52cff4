"""Complex special functions for the spectral solver.

Confluent hypergeometric F (regular) and U (irregular) on the imaginary
axis, backed by a Lanczos complex gamma, with one quadrature rule and
one large-|z| formula. U has two regimes, split at _ASYMPT_RADIUS (75):
inside it, the Laplace integral DLMF 13.4.4 turned onto the ray
arg t = -ph z and summed by an exp-sinh row, for every b and Re a > 0;
outside it, the asymptotic series. F has two, split at _SERIES_RADIUS
(3): inside it, the power series; outside it, two U's by DLMF 13.2.41,
F(a, b, z) = Gamma(b) [e^{-s i pi a} U(a, b, z) / Gamma(b - a)
+ e^{s i pi (b - a)} e^z U(b - a, b, -z) / Gamma(a)], s = +1 if Im z < 0
and -1 otherwise, which needs Re b > Re a > 0 and z off the real axis.

Fast paths are exact, not approximate. The asymptotic sums stop at the
first term below a quarter ulp of both parts of the running total: no
later term can move it, so the result is the same float as the full
optimally truncated sum. U's row is h sum_k e^{-|z| s_k} c_k: only the
real term -|z| s_k of its exponent depends on |z|, so the complex
weights c_k are built once per ray ph z, and the rows of any number of
|z| on one ray are one exp of the real (|z| x node) outer product, whose
cumulative sum adds the nodes in the order of a running sum. In a family
pass, F's rows U(a, b, z) and U(b - a, b, -z) share that exp, as
|-z| = |z|, and a z on the imaginary axis needs no phase for its ray:
atan2(y, +-0.0) is +-pi/2. A scalar row is the one-element call of
that pass.

These are the point evaluators (the Newton solver, the matching point,
boundary constants). A scan at fixed (a, b) goes through
`kummer.KummerFamily`, which runs these same algorithms on a whole array
of z and returns floats equal to these, bit for bit.

The series radius was calibrated against an arbitrary-precision oracle
on both scan families (spectral a = 3/4 - iE/4, b = 3/2; trap
a = 1/2 + iE/4, b = 1; E up to 8): on the imaginary axis the series and
the connection both stay within about 1e-13 relative from |z| = 2.5 to
3, and beyond 3 the series loses digits to cancellation. The row radius
was measured the same way: from |z| = 36 to 500 the row stays within
7e-15 of the oracle on both families, at z and at the (b - a, b, -z) of
F, and the asymptotic sum within 6e-15. A benchmark spectral pass runs
as fast with the radius anywhere from 75 to 150, and about 15% slower at
35; at 150 its peak memory read about 0.15 MB above that at 75 or 35, so
the radius is 75. F is within 1e-13 and U within 2e-14 of the
oracle for |z| from 0.3 to 400 on ph z = +-pi/2, the scans' rays, and
both within about 1e-14 up to the 0.2 rad off those rays that the tests
tilt. Near the negative real axis the exp-sinh ray passes close to the
cut of (1+t)^(b-a-1) at t = -1 and U loses digits: at |z| = 6, about
2e-9 relative at 0.1 rad from the axis and 1e-6 at 0.05 rad. F, which
takes U at both z and -z, loses as much near either side of the real
axis.
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

_SERIES_RADIUS = 3.0
_ASYMPT_RADIUS = 75.0
# the older name of U's radius, which the benchmark tracer
# (perfbench/layers.py) reads to label U's regimes
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


def _hyp_series(a: complex, b: complex, z: complex) -> complex:
    """Plain Taylor series of F(a, b, z)."""
    term = 1.0 + 0.0j
    total = term
    for k in range(_MAXTERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        if abs(term) < _EPS * abs(total) and k > 2:
            return total
    raise SpecialFunctionError(f"series F({a},{b},{z}) did not converge")


_ES_H = 2.0 ** -5  # U's exp-sinh row on (0, inf): u = k h, k = -160..112
# z per chunk of a one-row pass, half that for two rows: either way the
# chunk's complex terms take 35 kB, a pass's transient memory
_ROW_CHUNK = 8


@functools.cache
def _es_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node arrays (s, log ds, log s) of the exp-sinh rule s = exp(pi/2 sinh u)
    (Takahasi & Mori, Publ. RIMS Kyoto 9 (1974) 721), built by math in a
    Python loop."""
    nodes = []
    for k in range(-160, 113):
        u = k * _ES_H
        log_s = 0.5 * math.pi * math.sinh(u)
        log_ds = log_s + math.log(0.5 * math.pi * math.cosh(u))
        nodes.append((math.exp(log_s), log_ds, log_s))
    return tuple(np.array(col) for col in zip(*nodes))


def _es_weights(a: complex, b: complex, theta: float) -> tuple[np.ndarray, complex]:
    """U's Laplace row on the ray arg t = theta: its node weights
    c_k = exp((a-1) log s_k + (b-a-1) log(1 + s_k e^{i theta}) + log ds_k)
    and its factor e^{i theta a} / Gamma(a)."""
    if not a.real > 0.0:
        raise SpecialFunctionError(f"U's Laplace integral needs Re a > 0, got a = {a}")
    if abs(theta) == math.pi:
        raise SpecialFunctionError(
            "U's Laplace ray meets the cut of (1+t)^(b-a-1): z on the negative real axis")
    s, log_ds, log_s = _es_nodes()
    c = np.exp((a - 1.0) * log_s + (b - a - 1.0) * np.log1p(s * cmath.exp(1j * theta)) + log_ds)
    return c, cmath.exp(1j * theta * a) / cgamma(a)


def _row_sum(r: np.ndarray, *weights: np.ndarray) -> np.ndarray:
    """h * sum_k exp(-r s_k) c_k at every r of a 1-D array, for each weight
    set c of `_es_weights`: a (set, r) array.

    Only the real term -r s_k of the exponent depends on z, so a chunk of
    r is one exp over the (r x node) outer product, shared by every weight
    set. The product is held as complex numbers with imaginary part 0:
    NumPy's complex exp, which the weights use too, then takes the real
    exp of each, and each product with c_k is (e c_re, e c_im) exactly.
    (NumPy's float exp is another kernel, with other roundings, that a
    spectral run would load for this alone.) add.accumulate, cumsum's
    kernel unwrapped, adds the nodes in node order, so each total is the
    same float as a running sum, whatever else its chunk holds.
    """
    s = _es_nodes()[0]
    nr = -r
    step = _ROW_CHUNK // len(weights)
    out = np.empty((len(weights), r.size), dtype=complex)
    for lo in range(0, r.size, step):
        chunk = nr[lo:lo + step]
        e = np.zeros((chunk.size, s.size), dtype=complex)
        np.multiply.outer(chunk, s, out=e.real)
        np.exp(e, out=e)
        for k in range(1, len(weights)):  # each on a copy of e
            terms = e * weights[k]
            out[k, lo:lo + step] = np.add.accumulate(terms, 1, out=terms)[:, -1]
        e *= weights[0]
        out[0, lo:lo + step] = np.add.accumulate(e, 1, out=e)[:, -1]
    out *= _ES_H
    return out


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


def _connection_factors(a: complex, b: complex, y: float) -> tuple[complex, complex]:
    """(k1, k2) with F(a, b, z) = k1 U(a, b, z) + k2 e^z U(b - a, b, -z) for
    Im z = y, by DLMF 13.2.41: k1 = Gamma(b) e^{-s i pi a} / Gamma(b - a) and
    k2 = Gamma(b) e^{s i pi (b - a)} / Gamma(a), where s = +1 if y < 0 and -1
    otherwise, so that -z = e^{s i pi} z on the principal branch.

    The two U rows need Re a > 0 and Re (b - a) > 0, and z and -z off
    the negative real axis.
    """
    if not b.real > a.real > 0.0:
        raise SpecialFunctionError(
            f"F beyond |z| = {_SERIES_RADIUS} needs Re b > Re a > 0, got a = {a}, b = {b}")
    if y == 0.0:
        raise SpecialFunctionError(f"F beyond |z| = {_SERIES_RADIUS} needs z off the real axis")
    s = 1.0 if y < 0.0 else -1.0
    gb = cgamma(b)
    return (gb * cmath.exp(-s * 1j * cmath.pi * a) / cgamma(b - a),
            gb * cmath.exp(s * 1j * cmath.pi * (b - a)) / cgamma(a))


def _check_F_pole(b: complex) -> None:
    if b.real <= 0 and b.imag == 0 and b.real == int(b.real):
        raise SpecialFunctionError(f"F pole: b = {b} is a non-positive integer")


def kummer_F(a: complex, b: complex, z: complex) -> complex:
    """Regular confluent hypergeometric function F(a, b, z)."""
    a, b, z = complex(a), complex(b), complex(z)
    if abs(z) <= _SERIES_RADIUS:
        _check_F_pole(b)
        return _hyp_series(a, b, z)
    return kummer_FU(a, b, z)[0]


def kummer_FU(a: complex, b: complex, z: complex) -> tuple[complex, complex]:
    """(kummer_F(a, b, z), kummer_U(a, b, z)), bit for bit, raising what
    they raise in the order F then U. Beyond the series radius F is built
    from the U that is returned, so U(a, b, z) is evaluated once."""
    a, b, z = complex(a), complex(b), complex(z)
    _check_F_pole(b)
    if abs(z) <= _SERIES_RADIUS:
        return _hyp_series(a, b, z), kummer_U(a, b, z)
    k1, k2 = _connection_factors(a, b, z.imag)
    u = kummer_U(a, b, z)
    return k1 * u + k2 * cmath.exp(z) * kummer_U(b - a, b, -z), u


def _kummer_u_row(a: complex, b: complex, z: complex) -> complex:
    """U(a, b, z) by DLMF 13.4.4 turned onto the ray arg t = -ph z, where
    z t = |z| s: e^{i theta a}/Gamma(a) * int_0^inf e^{-|z| s} s^{a-1}
    (1 + s e^{i theta})^{b-a-1} ds, summed on the exp-sinh nodes."""
    weights, scale = _es_weights(a, b, -cmath.phase(z))
    return complex(_row_sum(np.array([abs(z)]), weights)[0, 0]) * scale


def kummer_U(a: complex, b: complex, z: complex) -> complex:
    """Irregular confluent hypergeometric function U(a, b, z), z != 0."""
    a, b, z = complex(a), complex(b), complex(z)
    if z == 0:
        raise SpecialFunctionError("U undefined at z = 0")
    if abs(z) <= _ASYMPT_RADIUS:
        return _kummer_u_row(a, b, z)
    s = _asymptotic_sum(a, a - b + 1.0, -1.0 / z)
    return cmath.exp(-a * cmath.log(z)) * s
