import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from factorsim import kummer, special
from factorsim.kummer import KummerFamily, cdiv, cmul, cquot, pack
from factorsim.special import (
    SpecialFunctionError,
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
    assert relerr(mine, ref) < 1e-13


def test_F_series_connection_overlap():
    """The power series and the two-U connection agree at the float
    neighbours of the series radius, on both families and axis signs."""
    from factorsim.special import _SERIES_RADIUS, _connection_factors, _hyp_series

    radii = (np.nextafter(_SERIES_RADIUS, 0.0), _SERIES_RADIUS,
             np.nextafter(_SERIES_RADIUS, 99.0))
    for a, b in [(ALPHA1, B32), (complex(0.75, -2.0), B32), (0.5 + 0.625j, 1.0),
                 (complex(0.5, -2.0), 1.0)]:
        for z in [complex(0.0, sign * r) for r in radii for sign in (1.0, -1.0)]:
            k1, k2 = _connection_factors(a, b, z.imag)
            connection = k1 * kummer_U(a, b, z) + k2 * cmath.exp(z) * kummer_U(b - a, b, -z)
            assert relerr(_hyp_series(a, b, z), connection) < 1e-13, (a, z)


def test_U_oracle_value():
    mine = kummer_U(ALPHA1, B32, 1j)
    ref = mp.hyperu(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 1j)
    assert relerr(mine, ref) < 1e-12


@pytest.mark.parametrize("y", [0.5, 2, 8, 15, 25, 30, 35, 100, 1000])
def test_U_accuracy_imaginary_axis(y):
    mine = kummer_U(ALPHA1, B32, 1j * y)
    ref = mp.hyperu(mp.mpf(3) / 4 - 0.25j, mp.mpf(3) / 2, 1j * mp.mpf(y))
    assert relerr(mine, ref) < 2e-14


def _U_sweep():
    """Seeded (a, b, z, mpmath a, mpmath b) of the spectral U(3/4 - iE/4, 3/2)
    and trap U(1/2 + iE/4, 1) families: E in [0.2, 8], |z| log-uniform in
    [0.3, 400] plus the float neighbours of the radius 35, both axis signs."""
    rng = np.random.default_rng(20261019)
    r35 = [np.nextafter(35.0, 0.0), 35.0, np.nextafter(35.0, 99.0)]
    for family in ("spectral", "trap"):
        rs = np.concatenate([r35, np.exp(rng.uniform(math.log(0.3), math.log(400.0), 60))])
        for E, r in zip(rng.uniform(0.2, 8.0, rs.size).tolist(), rs.tolist()):
            e4 = mp.mpf(E) / 4
            if family == "spectral":
                ab = (complex(0.75, -0.25 * E), 1.5, mp.mpf(3) / 4 - 1j * e4, mp.mpf(3) / 2)
            else:
                ab = (complex(0.5, 0.25 * E), 1.0, mp.mpf(1) / 2 + 1j * e4, 1)
            for sign in (1.0, -1.0):
                yield (*ab[:2], complex(0.0, sign * r), *ab[2:])


def test_U_matches_mpmath_on_seeded_sweep():
    """U on both scan families, every regime and both axis signs, within
    2e-14 of mpmath; F at the same points within 1e-13."""
    cases = list(_U_sweep())
    worst = max(((relerr(kummer_U(a, b, z), mp.hyperu(ma, mb, mp.mpc(0, z.imag))), a, z)
                 for a, b, z, ma, mb in cases), key=lambda case: case[0])
    assert worst[0] < 2e-14, worst
    worst = max(((relerr(kummer_F(a, b, z), mp.hyp1f1(ma, mb, mp.mpc(0, z.imag))), a, z)
                 for a, b, z, ma, mb in cases), key=lambda case: case[0])
    assert worst[0] < 1e-13, worst


def test_U_row_vs_asymptotic_at_35():
    """The exp-sinh row and the asymptotic sum agree at the radius."""
    from factorsim.special import _asymptotic_sum, _kummer_u_row

    for a, b in [(ALPHA1, B32), (0.5 + 0.625j, 1.0)]:
        for z in (35j, -35j):
            row = _kummer_u_row(a, b, z)
            asym = cmath.exp(-a * cmath.log(z)) * _asymptotic_sum(a, a - b + 1.0, -1.0 / z)
            assert relerr(row, asym) < 2e-14, (a, z)


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
    assert relerr(mine, ref) < 2e-14


def test_F_pole_guard():
    with pytest.raises(SpecialFunctionError):
        kummer_F(ALPHA1, -1.0, 1j)


def test_U_zero_argument():
    with pytest.raises(SpecialFunctionError):
        kummer_U(ALPHA1, B32, 0.0)


def _reference_kummer_u_row(a, b, z):
    """The scalar exp-sinh loop: one running sum per node, each weight taken
    at its node (log(1 + s e^{i theta}) by NumPy's log1p, as the row takes it)."""
    theta = -cmath.phase(z)
    rot = cmath.exp(1j * theta)
    am1 = a - 1.0
    bam1 = b - a - 1.0
    total = 0.0 + 0.0j
    for s, log_ds, log_s in zip(*(col.tolist() for col in special._es_nodes())):
        expo = -abs(z) * s + am1 * log_s + bam1 * complex(np.log1p(s * rot)) + log_ds
        total += cmath.exp(expo)
    total *= special._ES_H
    return total * (cmath.exp(1j * theta * a) / cgamma(a))


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


# (a, b) families as the simulator calls them: the spectral F(a, 3/2)
# and the trap's F(beta, 1)
_FAMILIES = {
    "spectral": lambda E: (complex(0.75, -0.25 * E), 1.5),
    "trap": lambda E: (complex(0.5, 0.25 * E), 1.0),
}


def _fast_path_sweep():
    rng = np.random.default_rng(20261018)
    edges = [3.0, 35.0, 2500.0]
    for family, ab in _FAMILIES.items():
        Es = rng.uniform(0.2, 3.0, 80)
        # 20 draws in [0.3, 12]: F's series below 3 and its connection
        # above, U's row throughout
        rs = np.concatenate([edges, np.exp(rng.uniform(math.log(12.0), math.log(2500.0), 57)),
                             np.exp(rng.uniform(math.log(0.3), math.log(12.0), 20))])
        for E, r in zip(Es.tolist(), rs.tolist()):
            for sign in (1.0, -1.0):
                a, b = ab(E)
                yield family, a, b, complex(0.0, sign * r)


def test_fast_paths_match_reference_loops_bit_for_bit(monkeypatch):
    """The array exp-sinh pass and the exact-stop asymptotic sums give the
    same floats as the scalar loop and the full-length sums, in U and in the
    F built from two U's."""
    cases = list(_fast_path_sweep())
    fast = [(kummer_F(a, b, z), kummer_U(a, b, z)) for _, a, b, z in cases]
    monkeypatch.setattr(special, "_kummer_u_row", _reference_kummer_u_row)
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


@pytest.mark.parametrize("lanes_min", ["default", "array"])
def test_family_mixed_regimes_and_edges(lanes_min, monkeypatch):
    """One z array that crosses every regime of both functions, with each
    radius (3, 35) and its float neighbours, in shuffled order."""
    if lanes_min == "array":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0)
    rng = np.random.default_rng(7)
    edges = [3.0, 35.0]
    rs = edges + [np.nextafter(r, 0.0) for r in edges] + [np.nextafter(r, 99.0) for r in edges]
    rs = np.concatenate([rs, np.exp(rng.uniform(math.log(0.05), math.log(3000.0), 400))])
    # off the axis by up to 0.2 rad; e^z stays finite
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
    with pytest.raises(SpecialFunctionError, match="Re a > 0"):
        KummerFamily(-0.25 + 1j, B32).FU(np.array([1j]))
    with pytest.raises(SpecialFunctionError, match="negative real axis"):
        KummerFamily(ALPHA1, B32).FU(np.array([1j, -2.0]))
    # the scalar U takes the same row, so it names the same conditions
    with pytest.raises(SpecialFunctionError, match="Re a > 0"):
        kummer_U(-0.25 + 1j, B32, 1j)
    with pytest.raises(SpecialFunctionError, match="negative real axis"):
        kummer_U(ALPHA1, B32, -2.0)
    # F beyond the series radius is two U's; it names its own conditions
    # on both paths: Re a <= 0, Re a >= Re b, z on the real axis
    order = r"F beyond \|z\| = 3.0 needs Re b > Re a > 0"
    axis = r"F beyond \|z\| = 3.0 needs z off the real axis"
    for a, z, what in ((-0.25 + 1j, 5j, order), (1.75 - 0.25j, 5j, order), (ALPHA1, 5.0, axis),
                       (ALPHA1, complex(5.0, -0.0), axis), (ALPHA1, -5.0, axis)):
        with pytest.raises(SpecialFunctionError, match=what):
            kummer_F(a, B32, z)
        with pytest.raises(SpecialFunctionError, match=what):
            KummerFamily(a, B32).FU(np.array([1j, z]))
    # just off the real axis, where the connection switches sign of Im z
    zs = np.array([5 + 1e-3j, 5 - 1e-3j, -5 + 1e-3j, -5 - 1e-3j, 40 + 1e-3j, -40 - 1e-3j])
    F, U = KummerFamily(ALPHA1, B32).FU(zs)
    assert _bits(F) == _bits([kummer_F(ALPHA1, B32, z) for z in zs.tolist()])
    assert _bits(U) == _bits([kummer_U(ALPHA1, B32, z) for z in zs.tolist()])
    # integer b other than 1 is an ordinary row
    for b in (2, 3):
        assert relerr(kummer_U(ALPHA1, b, 1j), mp.hyperu(mp.mpf(3) / 4 - 0.25j, b, 1j)) < 1e-15
        U = KummerFamily(ALPHA1, b).FU(np.array([1j]))[1]
        assert _bits(U) == _bits([kummer_U(ALPHA1, b, 1j)])
    assert KummerFamily(ALPHA1, B32).FU(np.array([], dtype=complex))[1].size == 0
