import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from factorsim import kummer, special
from factorsim.kummer import KummerFamily, cdiv, cmul, cquot, pack
from factorsim.special import (
    SpecialFunctionError,
    cdigamma,
    cgamma,
    kummer_F,
    kummer_U,
)

mp.mp.dps = 30

ALPHA1 = 0.75 - 0.25j  # a at E = 1
B32 = 1.5


def relerr(mine, ref):
    ref = complex(ref)
    return abs(mine - ref) / max(abs(ref), 1e-300)


def test_cgamma_known_values():
    assert relerr(cgamma(0.5), math.sqrt(math.pi)) < 1e-13
    assert relerr(cgamma(5.0), 24.0) < 1e-13
    for z in [0.75 - 0.25j, 1 + 1j, -1.5 + 0.5j, 0.25 + 4j, 3.5 - 2j]:
        assert relerr(cgamma(z), mp.gamma(z)) < 1e-12


def test_cgamma_pole():
    with pytest.raises(SpecialFunctionError):
        cgamma(-2.0)


def test_cdigamma_known_values():
    for z in [1.0, 0.75 - 0.25j, 3 + 2j, -2.5 + 1j, 0.5 + 0.25j]:
        assert relerr(cdigamma(z), mp.digamma(z)) < 1e-12


def test_F_at_zero_is_one():
    assert kummer_F(ALPHA1, B32, 0.0) == 1.0


def test_F_kummer_identity_e_z():
    assert relerr(kummer_F(1.0, 1.0, 1j), cmath.exp(1j)) < 1e-13


def test_F_oracle_value():
    mine = kummer_F(ALPHA1, B32, 4j)
    ref = mp.hyp1f1(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 4j)
    assert relerr(mine, ref) < 1e-12


@pytest.mark.parametrize("y", [0.5, 2, 8, 12, 15, 20, 30, 40, 50, 200, 2000, 10000])
def test_F_accuracy_imaginary_axis(y):
    mine = kummer_F(ALPHA1, B32, 1j * y)
    ref = mp.hyp1f1(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 1j * mp.mpf(y), maxterms=10**6)
    tol = 1e-10 if y <= 50 else 1e-6
    assert relerr(mine, ref) < tol


def test_F_regime_overlap_band():
    """Quadrature and asymptotic regimes agree through |z| in [25, 50]."""
    from factorsim.special import _hyp_integral, _kummer_f_asymptotic

    for y in [25, 30, 35, 40, 45, 50]:
        quad = _hyp_integral(ALPHA1, B32, 1j * y)
        asym = _kummer_f_asymptotic(ALPHA1, B32, 1j * y)
        assert relerr(quad, asym) < 1e-6


def test_F_series_quadrature_overlap():
    from factorsim.special import _hyp_integral, _hyp_series

    for y in [8, 10, 12]:
        series = _hyp_series(ALPHA1, B32, 1j * y)[0]
        quad = _hyp_integral(ALPHA1, B32, 1j * y)
        assert relerr(series, quad) < 1e-9


def test_U_oracle_value():
    mine = kummer_U(ALPHA1, B32, 1j)
    ref = mp.hyperu(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 1j)
    assert relerr(mine, ref) < 1e-12


@pytest.mark.parametrize("y", [0.5, 2, 8, 15, 25, 30, 35, 100, 1000])
def test_U_accuracy_imaginary_axis(y):
    mine = kummer_U(ALPHA1, B32, 1j * y)
    ref = mp.hyperu(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 1j * mp.mpf(y))
    assert relerr(mine, ref) < 1e-8


def test_U_connection_vs_asymptotic_at_40():
    """U rebuilt from two F values matches the direct asymptotic tail."""
    from factorsim.special import _asymptotic_sum, _kummer_u_connection

    z = 40j
    conn = _kummer_u_connection(ALPHA1, B32, z)
    s = _asymptotic_sum(ALPHA1, ALPHA1 - B32 + 1.0, -1.0 / z)
    asym = cmath.exp(-ALPHA1 * cmath.log(z)) * s
    assert relerr(conn, asym) < 1e-5


def test_U_large_argument_normalization():
    """U(a, 3/2, i rho) * (i rho)^a -> 1 as rho grows."""
    prev = None
    for rho in [1e3, 1e4]:
        v = kummer_U(ALPHA1, B32, 1j * rho) * cmath.exp(ALPHA1 * cmath.log(1j * rho))
        assert abs(v - 1.0) < 1e-2
        if prev is not None:
            assert abs(v - 1.0) < prev
        prev = abs(v - 1.0)


@pytest.mark.parametrize("y", [0.5, 2, 9, 16, 17, 20, 36, 64])
def test_U_log_case_b1(y):
    """Trap family U(beta, 1, -i y) against the oracle."""
    beta = 0.5 + 0.25j
    mine = kummer_U(beta, 1.0, -1j * y)
    ref = mp.hyperu(mp.mpf(1) / 2 + 0.25j, 1, -1j * mp.mpf(y))
    assert relerr(mine, ref) < 5e-8


def test_F_pole_guard():
    with pytest.raises(SpecialFunctionError):
        kummer_F(ALPHA1, -1.0, 1j)


def test_U_zero_argument():
    with pytest.raises(SpecialFunctionError):
        kummer_U(ALPHA1, B32, 0.0)


def _reference_hyp_integral(a, b, z):
    """The scalar tanh-sinh loop: one cmath.exp(log t) and one running sum per node."""
    _, log_ts, log_1mts, log_dts = special._ts_nodes()
    am1 = a - 1.0
    bam1 = b - a - 1.0
    total = 0.0 + 0.0j
    for log_t, log_1mt, log_dt in zip(log_ts.tolist(), log_1mts.tolist(), log_dts.tolist()):
        expo = z * cmath.exp(log_t) + am1 * log_t + bam1 * log_1mt + log_dt
        total += cmath.exp(expo)
    total *= 2.0 ** -special._TS_LEVEL
    return total * cgamma(b) / (cgamma(a) * cgamma(b - a))


def _reference_asymptotic_sum(a, c, invz):
    """The full-length sum: every term until one stops shrinking."""
    term = 1.0 + 0.0j
    total = term
    for s in range(special._MAXTERMS):
        nxt = term * (a + s) * (c + s) * invz / (s + 1)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
    return total


# (a, b) families as the simulator calls them: the spectral F(a, 3/2),
# the connection formula's F(a - 1/2, 1/2) and the trap's F(beta, 1)
_FAMILIES = {
    "spectral": lambda E: (complex(0.75, -0.25 * E), 1.5),
    "connection": lambda E: (complex(0.25, -0.25 * E), 0.5),
    "trap": lambda E: (complex(0.5, 0.25 * E), 1.0),
}


def _fast_path_sweep():
    rng = np.random.default_rng(20261018)
    edges = [12.0, 17.5, 30.0, 35.0, 2500.0]
    for family, ab in _FAMILIES.items():
        Es = rng.uniform(0.2, 3.0, 60)
        rs = np.concatenate([edges, np.exp(rng.uniform(math.log(12.0), math.log(2500.0), 55))])
        for E, r in zip(Es.tolist(), rs.tolist()):
            for sign in (1.0, -1.0):
                a, b = ab(E)
                yield family, a, b, complex(0.0, sign * r)


def test_fast_paths_match_reference_loops_bit_for_bit(monkeypatch):
    """The array tanh-sinh pass and the exact-stop asymptotic sums give
    the same floats as the scalar loop and the full-length sums."""
    cases = list(_fast_path_sweep())
    fast = [(kummer_F(a, b, z), kummer_U(a, b, z)) for _, a, b, z in cases]
    monkeypatch.setattr(special, "_hyp_integral", _reference_hyp_integral)
    monkeypatch.setattr(special, "_asymptotic_sum", _reference_asymptotic_sum)
    slow = [(kummer_F(a, b, z), kummer_U(a, b, z)) for _, a, b, z in cases]
    mismatches = [(c, f, s) for c, f, s in zip(cases, fast, slow) if f != s]
    assert not mismatches, mismatches[:3]


def _bits(values) -> list:
    """The 64-bit patterns of the real and imaginary parts: equal bits mean
    equal floats, signed zeros included."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def _signed_draw(rng, n):
    """Seeded floats over 22 decades, with +0.0 and -0.0 mixed in."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-11, 12, n).astype(float)
    x[rng.random(n) < 0.05] = 0.0
    x[rng.random(n) < 0.05] = -0.0
    return x


def test_complex_helpers_match_cpython_bit_for_bit():
    """The array product, quotients and abs are CPython's complex results."""
    rng = np.random.default_rng(20261019)
    xr, xi, yr, yi = (_signed_draw(rng, 20000) for _ in range(4))
    xs = [complex(r, i) for r, i in zip(xr.tolist(), xi.tolist())]
    ys = [complex(r, i) for r, i in zip(yr.tolist(), yi.tolist())]
    assert _bits(pack(*cmul(xr, xi, yr, yi))) == _bits([x * y for x, y in zip(xs, ys)])
    nonzero = np.hypot(yr, yi) != 0.0
    assert _bits(pack(*cdiv(xr[nonzero], xi[nonzero], yr[nonzero], yi[nonzero]))) == \
        _bits([x / y for x, y in zip(xs, ys) if y != 0])
    # a fixed divisor takes one branch of Smith's algorithm for every x
    for d in (3, 2.5, 2.5j, complex(-0.0, 1.0), complex(1e-3, -4.0), complex(-7.0, 0.5),
              ys[0], ys[1]):
        assert _bits(pack(*cquot(xr, xi, d))) == _bits([x / d for x in xs]), d
    assert np.hypot(xr, xi).tolist() == [abs(x) for x in xs]
    # a scalar on either side of the product, as the family passes use it
    w = complex(-0.0, -0.5)
    assert _bits(pack(*cmul(w.real, w.imag, xr, xi))) == _bits([w * x for x in xs])
    assert _bits(pack(*cmul(yr, 0.0, xr, xi))) == \
        _bits([r * x for r, x in zip(yr.tolist(), xs)])


def _family_sweep():
    """(family, [(a, b), ...], z array) per family: the (a, b) of every E of
    `_fast_path_sweep` and all of that family's z values, on both axis signs."""
    cases = list(_fast_path_sweep())
    for family in _FAMILIES:
        mine = [c for c in cases if c[0] == family]
        params = list(dict.fromkeys((a, b) for _, a, b, _ in mine))
        yield family, params, np.array([z for _, _, _, z in mine])


@pytest.mark.parametrize("lanes_min", ["default", "array", "scalar"])
def test_family_matches_scalar_bit_for_bit(lanes_min, monkeypatch):
    """One KummerFamily pass over a family's whole sweep per E gives the
    scalar F and U at every z. `lanes_min` forces the array loops (or the
    per-z scalar loops) on every regime, whatever its size."""
    if lanes_min != "default":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0 if lanes_min == "array" else 10**9)
    for family, params, zs in _family_sweep():
        for a, b in (params if lanes_min == "default" else params[::12]):
            F, U = KummerFamily(a, b).FU(zs)
            assert _bits(F) == _bits([kummer_F(a, b, z) for z in zs.tolist()]), (family, a)
            assert _bits(U) == _bits([kummer_U(a, b, z) for z in zs.tolist()]), (family, a)
            assert _bits(KummerFamily(a, b).F(zs)) == _bits(F)


@pytest.mark.parametrize("lanes_min", ["default", "array"])
def test_family_mixed_regimes_and_edges(lanes_min, monkeypatch):
    """One z array that crosses every regime of both functions, with each
    radius (12, 17.5, 30, 35) and its float neighbours, in shuffled order."""
    if lanes_min == "array":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0)
    rng = np.random.default_rng(7)
    edges = [12.0, 17.5, 30.0, 35.0]
    rs = edges + [np.nextafter(r, 0.0) for r in edges] + [np.nextafter(r, 99.0) for r in edges]
    rs = np.concatenate([rs, np.exp(rng.uniform(math.log(0.05), math.log(3000.0), 400))])
    # off the axis by up to 0.2 rad, across the phase -pi/2 where the large-z
    # F switches sign; e^z stays finite
    tilt = np.where(rng.random(rs.size) < 0.5, 0.5, -0.5) * np.pi + rng.uniform(-0.2, 0.2, rs.size)
    zs = np.concatenate([1j * rs, -1j * rs, rs * np.exp(1j * tilt)])
    zs = zs[rng.permutation(zs.size)]
    for family, ab in _FAMILIES.items():
        a, b = ab(1.3)
        F, U = KummerFamily(a, b).FU(zs)
        assert _bits(F) == _bits([kummer_F(a, b, z) for z in zs.tolist()]), family
        assert _bits(U) == _bits([kummer_U(a, b, z) for z in zs.tolist()]), family


def test_family_errors():
    with pytest.raises(SpecialFunctionError):
        KummerFamily(ALPHA1, -1.0)
    with pytest.raises(SpecialFunctionError):
        KummerFamily(ALPHA1, B32).FU(np.array([1j, 0j]))
    with pytest.raises(SpecialFunctionError):
        KummerFamily(ALPHA1, 2.0).FU(np.array([1j]))
    assert KummerFamily(ALPHA1, B32).FU(np.array([], dtype=complex))[1].size == 0
