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
    [0.3, 400] plus the float neighbours of U's radius, both axis signs."""
    rng = np.random.default_rng(20261019)
    radius = special._ASYMPT_RADIUS
    edge = [np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf)]
    for family in ("spectral", "trap"):
        rs = np.concatenate([edge, np.exp(rng.uniform(math.log(0.3), math.log(400.0), 60))])
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


def test_U_row_vs_asymptotic_at_radius():
    """The exp-sinh row and the asymptotic sum agree at the radius."""
    from factorsim.special import _asymptotic_sum, _kummer_u_row

    radius = special._ASYMPT_RADIUS
    for a, b in [(ALPHA1, B32), (0.5 + 0.625j, 1.0)]:
        for z in (1j * radius, -1j * radius):
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


def test_FU_is_F_and_U_bit_for_bit():
    """The scalar pair equals the two functions at every point of the sweep,
    and raises what they raise."""
    for _, a, b, z in _fast_path_sweep():
        assert _bits(special.kummer_FU(a, b, z)) == _bits([kummer_F(a, b, z), kummer_U(a, b, z)])
    with pytest.raises(SpecialFunctionError, match="F pole"):
        special.kummer_FU(ALPHA1, -1.0, 5j)
    with pytest.raises(SpecialFunctionError, match="needs Re b > Re a > 0"):
        special.kummer_FU(1.75 - 0.25j, B32, 5j)
    with pytest.raises(SpecialFunctionError, match="U undefined at z = 0"):
        special.kummer_FU(ALPHA1, B32, 0.0)


def test_F_pole_guard():
    with pytest.raises(SpecialFunctionError):
        kummer_F(ALPHA1, -1.0, 1j)


def test_U_zero_argument():
    with pytest.raises(SpecialFunctionError):
        kummer_U(ALPHA1, B32, 0.0)


def _reference_kummer_u_row(a, b, z):
    """The scalar exp-sinh loop: one running sum over the nodes of
    e^{-|z| s_k} c_k, each exp by NumPy's exp of a complex exponent with
    imaginary part 0 (as the row pass takes it) and each weight c_k as
    `special._es_weights` builds it."""
    weights, scale = special._es_weights(a, b, -cmath.phase(z))
    total = 0.0 + 0.0j
    for s, c in zip(special._es_nodes()[0].tolist(), weights.tolist()):
        e = np.exp(complex(-abs(z) * s, 0.0)).real
        total += complex(e * c.real, e * c.imag)
    total *= special._ES_H
    return total * scale


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
    edges = [special._SERIES_RADIUS, special._ASYMPT_RADIUS, 2500.0]
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
    radius (3, and U's) and its float neighbours, in shuffled order."""
    if lanes_min == "array":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0)
    rng = np.random.default_rng(7)
    edges = [special._SERIES_RADIUS, special._ASYMPT_RADIUS]
    rs = edges + [np.nextafter(r, 0.0) for r in edges] + [np.nextafter(r, np.inf) for r in edges]
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


def test_row_pass_is_batch_invariant():
    """A ray's row sums are the same floats whatever else their pass holds,
    and a paired pass, F's rows at z and -z on one exp, gives each row the
    floats of a one-row pass: batches of 1, chunk - 1, chunk and chunk + 1
    |z| for the one-row and the paired chunk, and 701, cross the chunk
    boundaries. Both rays of a scan go through one `KummerFamily` pass,
    interleaved."""
    chunk = special._ROW_CHUNK
    rng = np.random.default_rng(22)
    rs = np.exp(rng.uniform(math.log(0.3), math.log(special._ASYMPT_RADIUS), 701))
    sizes = sorted({n for c in (chunk // 2, chunk) for n in (1, c - 1, c, c + 1)} | {rs.size})
    for family, ab in _FAMILIES.items():
        a, b = ab(1.3)
        # the weights of z = i r and of -z, as F beyond the series radius takes them
        weights = special._es_weights(a, b, -0.5 * math.pi)[0]
        weights2 = special._es_weights(b - a, b, 0.5 * math.pi)[0]
        alone = [_bits([special._row_sum(rs[k:k + 1], w)[0, 0] for k in range(rs.size)])
                 for w in (weights, weights2)]
        for n in sizes:
            assert _bits(special._row_sum(rs[:n], weights)[0]) == alone[0][:2 * n], (family, n)
            paired = special._row_sum(rs[:n], weights, weights2)
            assert [_bits(row) for row in paired] == [bits[:2 * n] for bits in alone], \
                (family, n)
            zs = np.empty(2 * n, dtype=complex)
            zs[0::2], zs[1::2] = 1j * rs[:n], -1j * rs[:n]
            F, U = KummerFamily(a, b).FU(zs)
            assert _bits(U) == _bits([kummer_U(a, b, z) for z in zs.tolist()]), (family, n)
            assert _bits(F) == _bits([kummer_F(a, b, z) for z in zs.tolist()]), (family, n)


_AXIS_Y = (5e-324, 1e-300, 1e-3, 1.0, 75.0, 1e300)


def test_axis_phase_is_half_pi():
    """atan2(y, +-0.0) is exactly +-pi/2, the rays that `KummerFamily` gives
    the z on the imaginary axis without a phase."""
    half_pi = kummer._HALF_PI
    assert half_pi == math.atan2(1.0, 0.0)
    for s0 in (0.0, -0.0):
        for y in _AXIS_Y:
            assert (-cmath.phase(complex(s0, y))).hex() == (-half_pi).hex(), (s0, y)
            assert (-cmath.phase(complex(s0, -y))).hex() == half_pi.hex(), (s0, y)


@pytest.mark.parametrize("lanes_min", ["default", "array"])
def test_family_axis_and_tilted_rays(lanes_min, monkeypatch):
    """One pass over z on the axis with either sign of zero, a z just off
    the axis whose phase rounds to pi/2, and tilted z, in shuffled order,
    gives the scalar F and U at every z."""
    if lanes_min == "array":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0)
    rng = np.random.default_rng(26)
    ys = list(_AXIS_Y[1:-1]) + [2.0, 3.0, 5.0, 20.0, 74.0, 76.0, 300.0]
    zs = [complex(s0, sy * y) for s0 in (0.0, -0.0) for sy in (1.0, -1.0) for y in ys]
    zs += [complex(1e-300, 5.0), complex(-1e-300, -5.0)]
    assert cmath.phase(zs[-2]) == 0.5 * math.pi
    rs = np.exp(rng.uniform(math.log(0.3), math.log(300.0), 60))
    tilt = np.where(rng.random(rs.size) < 0.5, 0.5, -0.5) * np.pi + rng.uniform(-0.2, 0.2, rs.size)
    zs = np.concatenate([zs, rs * np.exp(1j * tilt)])
    zs = zs[rng.permutation(zs.size)]
    for family, ab in _FAMILIES.items():
        a, b = ab(0.7)
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


@pytest.mark.parametrize("lanes_min", ["default", "array"])
def test_family_routes_off_axis_z_to_scalar(lanes_min, monkeypatch):
    """The array regimes take every z on the imaginary axis, either sign of
    zero, both half-axes and |z| on both sides of each radius; each other
    z takes scalar `kummer_FU` exactly once, and every value is the scalar
    one bit for bit."""
    if lanes_min == "array":
        monkeypatch.setattr(kummer, "_LANES_MIN", 0)
    calls = []

    def counted(a, b, z):
        calls.append(z)
        return special.kummer_FU(a, b, z)

    monkeypatch.setattr(kummer, "kummer_FU", counted)
    ys = [0.5, 2.9, 3.0, 3.1, 40.0, 74.9, 75.0, 75.1, 400.0]
    axis = [complex(s0, sy * y) for s0 in (0.0, -0.0) for sy in (1.0, -1.0) for y in ys]
    rng = np.random.default_rng(28)
    rs = np.array(ys * 2)
    tilt = np.where(rng.random(rs.size) < 0.5, 0.5, -0.5) * np.pi + rng.uniform(-0.2, 0.2, rs.size)
    tilted = (rs * np.exp(1j * tilt)).tolist() + [complex(1e-300, 5.0), complex(-1e-300, -5.0)]
    zs = np.array(axis + tilted)
    zs = zs[rng.permutation(zs.size)]
    for family, ab in _FAMILIES.items():
        a, b = ab(0.9)
        calls.clear()
        F, U = KummerFamily(a, b).FU(zs)
        assert sorted(_bits(calls)) == sorted(_bits(tilted)), family
        assert _bits(F) == _bits([kummer_F(a, b, z) for z in zs.tolist()]), family
        assert _bits(U) == _bits([kummer_U(a, b, z) for z in zs.tolist()]), family


@pytest.mark.parametrize("zs, a, error, what", [
    # z = 0 is named before anything else runs
    ([-2.0, 0j], ALPHA1, SpecialFunctionError, "U undefined at z = 0"),
    ([800 + 1j, 0j, 1j], ALPHA1, SpecialFunctionError, "U undefined at z = 0"),
    # F's conditions at any z beyond the series radius come before every U
    ([-2.0, 1j, 5.0], ALPHA1, SpecialFunctionError, "z off the real axis"),
    ([-2.0, 1j, 5j], -0.25 + 1j, SpecialFunctionError, "Re b > Re a > 0"),
    ([800 + 1j, 1j], -0.25 + 1j, SpecialFunctionError, "Re b > Re a > 0"),
    # a U condition, at a z on the axis or off it, before any series or e^z
    ([-2.0, 1j], -0.25 + 1j, SpecialFunctionError, "Re a > 0"),
    ([2 + 1j, -1j], -0.25 + 1j, SpecialFunctionError, "Re a > 0"),
    ([800 + 1j, -2.0], ALPHA1, SpecialFunctionError, "negative real axis"),
    ([800 + 1j, 1j, complex(-2.0, -0.0), 100j], ALPHA1, SpecialFunctionError,
     "negative real axis"),
    ([-1j, 800 + 1j, 100j], ALPHA1, OverflowError, "math range error"),
])
def test_family_mixed_errors_name_the_first(zs, a, error, what):
    """An array with several failing z, on the axis and off it, raises
    the first error of the regimes' order: z = 0, F's conditions, U's
    conditions, then e^z."""
    with pytest.raises(error, match=what):
        KummerFamily(a, B32).FU(np.array(zs, dtype=complex))
