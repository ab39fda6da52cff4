import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from factorsim import qsieve, spectral
from factorsim.ensemble import EnsembleQuery, enumerate_ensemble
from factorsim.primes import PrimeTable
from factorsim.qsieve import (
    DEFAULT_G_GRID,
    E_MAX_DEFAULT,
    INVERT_REL_TOL,
    BracketError,
    DensityError,
    GaugeError,
    MonteCarloConfig,
    ZetaZerosTable,
    compare_densities,
    density_map,
    energy_levels,
    exact_energy_levels,
    invert_x_of_E,
    make_gauge,
    measurements_budget,
    montecarlo_spectrum,
    pi_approx,
    qm_of_k,
    riemann_R,
)
from factorsim.roots import grid_roots

mp.mp.dps = 30

N_FIG1 = 10969262131


def test_zeros_table_validation(zeros):
    assert zeros.count >= 1000
    assert abs(zeros.heights[0] - 14.134725) <= 1e-6
    with pytest.raises(ValueError):
        ZetaZerosTable((14.134725141735, 14.0))
    with pytest.raises(ValueError):
        ZetaZerosTable((15.0, 16.0))


def test_make_gauge_examples(engine):
    g = make_gauge(10**12, 0.0, engine)
    assert abs(g.q_G - 100.0) < 1e-9
    assert abs(g.k_m - 1.5 * math.pi) < 1e-12
    g2 = make_gauge(N_FIG1, 0.0, engine)
    # B_G = nearest prime to 3/8 N^(1/3), fixed by the neighbor-scan oracle
    assert g2.B_G == 829


def test_gauge_chi_identity(engine):
    for G in [0.0, 0.2, 0.5]:
        g = make_gauge(N_FIG1, G, engine)
        assert abs(g.chi + g.q_G**2 - math.log(g.q_G)) < 1e-9


def test_gauge_rejection(engine):
    with pytest.raises(GaugeError):
        make_gauge(5000, 0.0, engine)
    with pytest.raises(GaugeError):
        make_gauge(10**5, 3.0, engine)  # lambda blows past 0.1


def test_qm_of_k(engine):
    g = make_gauge(N_FIG1, 0.0, engine)
    assert qm_of_k(g, 0) == g.q_G
    assert qm_of_k(g, 1) == pytest.approx(g.q_G + 2.0 * g.lam / 3.0)
    with pytest.raises(ValueError):
        qm_of_k(g, 100)


def test_phase_step_identity(engine):
    """q_m(k)^2 - q_G^2 matches the phase step 2 pi k / k_m to within lambda."""
    for G in [0.0, 0.3]:
        g = make_gauge(N_FIG1, G, engine)
        for k in range(1, int(g.k_m) + 1):
            qm = qm_of_k(g, k)
            got, want = qm * qm - g.q_G**2, 2.0 * math.pi * k / g.k_m
            assert abs(got - want) / want <= g.lam


def test_energy_levels(engine):
    g = make_gauge(N_FIG1, 0.4, engine)
    levels = energy_levels(g)
    assert levels[0] == (0, 1.0)
    es = [e for _, e in levels]
    assert all(b > a for a, b in zip(es, es[1:]))
    assert all(e <= E_MAX_DEFAULT == 9.0 / 8.0 for e in es)
    spacing = 2.0 * math.pi / (g.k_m * math.log(g.q_G))
    for k, e in levels:
        assert e == pytest.approx(1.0 + k * spacing)
    full = int(g.k_m)
    assert energy_levels(make_gauge(10**30, 0.0, engine))[-1][0] <= full


def test_exact_levels_match_eq13_for_snapped_gauge(engine):
    """With q_G moved onto the nearest zero of the E = 1 wavefunction, E = 1
    is an exact level of the boundary and the ladder follows eq. 13."""
    g = make_gauge(N_FIG1, 0.2, engine, j=10000)
    u_c = g.q_G * g.q_G
    zs = spectral._zeros_on_grid(1.0, spectral.q_grid(u_c - 6.0 * math.pi, u_c + 6.0 * math.pi))
    q_G = min(zs, key=lambda z: abs(z - g.q_G))
    g = dataclasses.replace(g, q_G=q_G, chi=-q_G * q_G + math.log(q_G),
                            lam=q_G * q_G / math.sqrt(N_FIG1))
    exact = exact_energy_levels(g, k_max=5)
    eq13 = dict(energy_levels(g))
    spacing = 2.0 * math.pi / (g.k_m * math.log(g.q_G))
    for k, e in exact:
        e13 = 1.0 + k * spacing
        assert abs(e - e13) <= 2.0 * abs(e13 - 1.0) ** 2 + 1e-6


def test_measurements_budget(engine):
    assert measurements_budget(math.e**2) == 1
    assert measurements_budget(N_FIG1) == 1545  # ceil(11.55919...^3)
    big, small = measurements_budget(10**20), measurements_budget(10**10)
    assert big / small == pytest.approx(8.0, rel=0.05)


def test_riemann_R_examples(zeros):
    assert riemann_R(1.0) == 1.0
    assert abs(riemann_R(1.0 + 1e-9) - 1.0) < 1e-7
    ref = float(mp.riemannr(10**6))
    mine = riemann_R(10**6)
    assert abs(mine - ref) / ref < 1e-10
    # exceeds pi(1e6) by an O(sqrt(x)/log x) amount
    gap = mine - 78498
    assert 0 < gap < 10 * math.sqrt(10**6) / math.log(10**6)


def test_riemann_R_guards():
    assert type(riemann_R(10.0)) is float
    with pytest.raises(ValueError):
        riemann_R(0.5)
    with pytest.raises(ValueError):
        riemann_R(np.array([2.0, 0.5]))
    with pytest.raises(ArithmeticError):
        riemann_R(1e60)
    with pytest.raises(ArithmeticError):
        riemann_R(np.array([10.0, 1e60]))


def test_riemann_R_increasing():
    xs = np.geomspace(2.0, 10**6, 60)
    vals = [riemann_R(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_pi_approx_T0_equals_R(zeros):
    for x in [10.5, 1000.5, 123456.5]:
        assert pi_approx(x, zeros, 0) == riemann_R(x)


def test_pi_approx_T_improves(zeros):
    tab = PrimeTable(1_100_000)
    x = 10**6 + 0.5
    true_pi = tab.pi(10**6)
    err_r = abs(riemann_R(x) - true_pi)
    err_100 = abs(pi_approx(x, zeros, 100) - true_pi)
    assert err_100 < err_r


def test_pi_approx_mean_error_decreases(zeros):
    """Mean |error| over a grid decreases with T (averaged, not pointwise)."""
    tab = PrimeTable(1_000_100)
    pts = [math.floor(10 ** (3 + 3 * i / 19)) + 0.5 for i in range(20)]
    means = []
    for T in [0, 50, 100, 300, 1000]:
        errs = [abs(pi_approx(x, zeros, T) - tab.pi(int(x))) for x in pts]
        means.append(sum(errs) / len(errs))
    assert all(b < a for a, b in zip(means, means[1:]))


def test_pi_approx_guards(zeros):
    with pytest.raises(ValueError):
        pi_approx(1.5, zeros, 0)
    with pytest.raises(ValueError):
        pi_approx(100.0, zeros, zeros.count + 1)
    with pytest.raises(ValueError, match="T = -5 must be >= 0"):
        pi_approx(100.0, zeros, -5)


# The scalar explicit-formula path as it stood before the array evaluator,
# kept as the reference that pi_approx_many must match bit for bit.


def _ref_riemann_R(x):
    if x <= 1.0:
        if x == 1.0:
            return 1.0
        raise ValueError("riemann_R needs x > 1")
    s = math.log(x)
    pow_over_fact = np.cumprod(s / np.arange(1.0, qsieve._GRAM_ZINV.size + 1.0))
    adds = pow_over_fact * qsieve._GRAM_ZINV
    total = 1.0 + float(adds.sum())
    if adds[-1] > qsieve.GRAM_TAIL * total:
        raise ArithmeticError(f"Gram series tail bound not reached for x={x}")
    return total


def _ref_ei_asymptotic(w):
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    aw = np.abs(w)
    big = aw >= 20.0
    if big.any():
        wb = w[big]
        inv = 1.0 / wb
        s = 1.0 + 12.0 * inv
        for k in range(11, 0, -1):
            s = 1.0 + (k * inv) * s
        out[big] = np.exp(wb) * inv * s
    small = ~big
    if small.any():
        ws = w[small]
        term = np.ones_like(ws)
        total = np.ones_like(ws)
        active = np.ones(ws.shape, dtype=bool)
        for k in range(1, 48):
            nxt = term * (k / ws)
            active &= np.abs(nxt) < np.abs(term)
            nxt = np.where(active, nxt, 0.0)
            total += nxt
            term = np.where(active, nxt, term)
            if not active.any():
                break
        out[small] = np.exp(ws) / ws * total
    return out


def _ref_r_complex_folded(x, sigmas):
    sigmas = np.asarray(sigmas, dtype=float)
    logx = math.log(x)
    s = (0.5 + 1j * sigmas) * logx
    min_abs_s = math.hypot(0.5, float(sigmas.min())) * logx
    M = max(1, int(logx / (2.0 * math.log(2.0))))
    ms = [m for m in range(1, M + 1) if qsieve._MU[m] != 0 and min_abs_s / m >= 6.0]
    if not ms:
        ms = [1]
    marr = np.array(ms, dtype=float)
    w = s[None, :] / marr[:, None]
    vals = _ref_ei_asymptotic(w)
    coef = np.array([qsieve._MU[m] / m for m in ms])
    total = (coef[:, None] * vals).sum(axis=0)
    return 2.0 * total.real


def _ref_pi_approx(x, zeros, T):
    r = _ref_riemann_R(x)
    if T == 0:
        return r
    corr = _ref_r_complex_folded(x, np.array(zeros.heights[:T]))
    return r - float(np.sum(corr))


def _ref_objective(N, j, zeros, T):
    j2 = float(j) * float(j)

    def g(x):
        if isinstance(x, np.ndarray):
            return np.array([g(v) for v in x.tolist()])
        return _ref_pi_approx(x, zeros, T) * _ref_pi_approx(N / x, zeros, T) / j2

    return g


def _edges(points, rng):
    """Each point, its float neighbours and seeded relative offsets around it."""
    out = []
    for p in points:
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        out += (p * (1.0 + rng.uniform(-1e-6, 1e-6, 2))).tolist()
        out += (p * (1.0 + rng.uniform(-0.05, 0.05, 2))).tolist()
    return out


def _low_cut_edges(sigma_min, x_max):
    """x where min_abs_s/m = 6 for a zero set with smallest height sigma_min."""
    edges = []
    for m in range(1, 64):
        logx = 6.0 * m / math.hypot(0.5, sigma_min)
        if logx < math.log(x_max) and qsieve._MU[m] != 0:
            edges.append(math.exp(logx))
    return edges


def test_pi_approx_many_matches_reference(engine, zeros, monkeypatch):
    """pi_approx_many, its kernels and the scalar wrappers equal the old
    scalar loop by ==, on a sweep across every edge of the list of m:
    M = floor(log x / 2 log 2) steps at x = 4^k, and the min_abs_s/m >= 6
    cut (which the zeta zeros never reach, so a low synthetic zero set
    crosses it). Batches mix groups; single points go alone as well. Then
    criterion-8 inversions, at near = x and off it, give the same roots
    with the reference objective swapped in."""
    rng = np.random.default_rng(2024)
    xs = _edges([4.0**k for k in range(1, 19)], rng)
    xs += np.exp(rng.uniform(math.log(2.0), math.log(1e11), 200)).tolist()
    # x where np.log and math.log round apart, if this NumPy has any
    cand = np.exp(rng.uniform(math.log(2.0), math.log(1e11), 200_000))
    xs += cand[np.log(cand) != np.array([math.log(x) for x in cand.tolist()])][:8].tolist()
    xs = [x for x in xs if x >= 2.0]
    rng.shuffle(xs)
    for T in (0, 1, 50, 100):
        ref = [_ref_pi_approx(x, zeros, T) for x in xs]
        assert qsieve.pi_approx_many(np.array(xs), zeros, T).tolist() == ref
        assert [qsieve.pi_approx_many(np.array([x]), zeros, T)[0] for x in xs] == ref
        assert [pi_approx(x, zeros, T) for x in xs] == ref
    assert riemann_R(np.array(xs)).tolist() == [_ref_riemann_R(x) for x in xs]

    low = np.array([0.3, 2.0, 7.5])
    xl = [x for x in _edges(_low_cut_edges(0.3, 1e11), rng) if x >= 2.0]
    ref = np.array([_ref_r_complex_folded(x, low) for x in xl])
    assert np.array_equal(qsieve.r_complex_folded(np.array(xl), low), ref)
    assert all(np.array_equal(qsieve.r_complex_folded(x, low), r) for x, r in zip(xl, ref))

    # the reference objective in place of the batched one: the same roots
    cases = []
    entries = enumerate_ensemble(EnsembleQuery(j=1000), engine)
    for i in rng.permutation(len(entries)):
        e = entries[i]
        x = float(e.x)
        if e.x <= make_gauge(e.N, 0.0, engine, j=e.j).B_G:
            continue
        E = _ref_objective(float(e.N), e.j, zeros, 100)(x)
        if 1.0 < E < 9.0 / 8.0:
            offset = rng.uniform(-0.3, 0.3) * qsieve._NEAR_WINDOW
            cases += [(E, float(e.N), e.j, x), (E, float(e.N), e.j, x * (1.0 + offset))]
        if len(cases) == 24:
            break
    roots = []
    for objective in (qsieve.inversion_objective, _ref_objective):
        monkeypatch.setattr(qsieve, "inversion_objective", objective)
        roots.append([invert_x_of_E(E, N, j, zeros, 100, near=near) for E, N, j, near in cases])
    assert roots[0] == roots[1]


def test_invert_symmetric_closed_loop(zeros):
    """N = p^2: the E computed at x = p inverts back to p."""
    p = 104729.0
    N = p * p
    E = pi_approx(p, zeros, 0) * pi_approx(N / p, zeros, 0) / 10000**2
    x = invert_x_of_E(E, N, 10000, zeros, 0, near=p)
    assert abs(x - p) / p <= 1e-6


def test_invert_near_offset_round_trip(engine, zeros, monkeypatch):
    """Criterion-8 round trips with `near` off the root by a seeded +-2% of
    the scan window: no grid sample lands on the root, so each inversion
    bisects (more objective evaluations than the 17 samples). The scan
    returns the root closest to `near`; at small x (743, 1237) a neighbouring
    root about 1e-4 away can be closer than the true one, and is then the
    right answer. Larger offsets find such neighbours often."""
    T, cases = 100, 60
    entries = enumerate_ensemble(EnsembleQuery(j=1000), engine)
    rng = np.random.default_rng(8)
    objective = qsieve.inversion_objective
    calls = []

    def counting_objective(*args):
        g = objective(*args)

        def counted(y):  # a scan grid is one array call; count its points
            calls.extend(np.atleast_1d(y).tolist())
            return g(y)

        return counted

    monkeypatch.setattr(qsieve, "inversion_objective", counting_objective)
    tested = matched = 0
    for i in rng.permutation(len(entries)):
        e = entries[i]
        x = float(e.x)
        if e.x <= make_gauge(e.N, 0.0, engine, j=e.j).B_G:
            continue
        E = objective(float(e.N), e.j, zeros, T)(x)
        if not (1.0 < E < 9.0 / 8.0):
            continue
        calls.clear()
        near = x * (1.0 + rng.uniform(-0.02, 0.02) * qsieve._NEAR_WINDOW)
        xr = invert_x_of_E(E, float(e.N), e.j, zeros, T, near=near)
        assert len(calls) > 17
        if abs(xr - x) / x <= 1e-6:
            matched += 1
        else:
            assert abs(xr - near) < abs(x - near)
        tested += 1
        if tested == cases:
            break
    assert tested == cases and matched >= 0.95 * cases


def test_invert_global_follows_the_grid_roots_rule():
    """Per E, the lockstep inversion equals grid_roots on the bracket's two
    ends: an end where the objective is exactly E is the root, the lower end
    first; a sign change is bisected; no root leaves x NaN."""
    N = 1e8
    lo, hi = qsieve._global_bracket(N).tolist()

    def line(x):
        return 3.0 - x / hi

    def hump(x):  # exactly 1.0 at both ends
        return 1.0 + (x - lo) * (hi - x) / hi**2

    for g, Es in ((line, [line(lo), 2.0, 2.5, 3.5, 1.0]), (hump, [1.0, 1.1, 0.5])):
        x, f, capped = qsieve.invert_global(np.array(Es), N, g)
        assert not capped.any()
        for E, got in zip(Es, x.tolist()):
            ref = grid_roots(lambda t: g(t) - E, [lo, hi], [g(lo) - E, g(hi) - E],
                             rtol=INVERT_REL_TOL)
            assert got == ref[0] if ref else math.isnan(got), E
    assert x.tolist()[0] == lo


def test_invert_fig1_point(zeros):
    """Global-bracket inversion of the marked point; tolerance pinned
    from the measured truncated-formula root scatter (~3%)."""
    x = invert_x_of_E(1.00441815, float(N_FIG1), 10000, zeros, 1000)
    assert abs(x - 47297) / 47297 <= 0.05


def test_invert_monotone_trend(zeros):
    xs = [invert_x_of_E(E, float(N_FIG1), 10000, zeros, 100)
          for E in [1.01, 1.04, 1.08, 1.12]]
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_invert_no_bracket(zeros):
    with pytest.raises(BracketError):
        invert_x_of_E(50.0, float(N_FIG1), 10000, zeros, 0)


def test_montecarlo_determinism(engine, zeros):
    mc = MonteCarloConfig(samples=6, rng_seed=11, T=50)
    a = montecarlo_spectrum(N_FIG1, 10000, DEFAULT_G_GRID, mc, zeros, engine)
    b = montecarlo_spectrum(N_FIG1, 10000, DEFAULT_G_GRID, mc, zeros, engine)
    assert [(s.E, s.x, s.k, s.G, s.xi) for s in a.samples] == \
           [(s.E, s.x, s.k, s.G, s.xi) for s in b.samples]
    assert a.budget == 6


def test_montecarlo_degenerate_window(engine, zeros):
    """All draws share levels when the two gauges see the same sqrt(N')."""
    mc = MonteCarloConfig(samples=2, rng_seed=3, T=50)
    res = montecarlo_spectrum(N_FIG1, 10000, (0.0,), mc, zeros, engine)
    ks = {}
    for s in res.samples:
        ks.setdefault(s.xi, []).append(s.k)
    assert all(v == sorted(v) for v in ks.values())


def test_montecarlo_failure_and_memo_counts(engine, zeros, monkeypatch):
    """Counts are deterministic; every objective evaluation is a hit or a miss."""
    N, j = 10000019, 446  # small enough that both failure modes occur
    G_list = (0.0, 0.5, 3.0)  # G = 3 is rejected at every draw
    mc = MonteCarloConfig(samples=4, rng_seed=1, T=50)
    evaluations = 0  # points asked of the run's memo, hits and misses
    pi_calls = 0  # points evaluated, not calls: a scan grid is one batch
    pi_many = qsieve.pi_approx_many

    class CountingMemo(qsieve.MemoObjective):
        def __call__(self, x):
            nonlocal evaluations
            evaluations += np.size(x)
            return super().__call__(x)

    def counting_pi(xs, *args):
        nonlocal pi_calls
        pi_calls += np.size(xs)
        return pi_many(xs, *args)

    monkeypatch.setattr(qsieve, "MemoObjective", CountingMemo)
    monkeypatch.setattr(qsieve, "pi_approx_many", counting_pi)
    a = montecarlo_spectrum(N, j, G_list, mc, zeros, engine)
    assert a.gauge_rejections == 4 and a.bracket_misses > 0
    assert a.failed_inversions == a.gauge_rejections + a.bracket_misses
    assert a.memo_hits + a.memo_misses == evaluations
    assert pi_calls == 2 * a.memo_misses
    b = montecarlo_spectrum(N, j, G_list, mc, zeros, engine)
    assert (a.gauge_rejections, a.bracket_misses, a.memo_hits, a.memo_misses) == \
           (b.gauge_rejections, b.bracket_misses, b.memo_hits, b.memo_misses)


def test_montecarlo_memo_matches_direct_inversion(engine, zeros):
    mc = MonteCarloConfig(samples=3, rng_seed=42, T=100)
    res = montecarlo_spectrum(N_FIG1, 10000, DEFAULT_G_GRID, mc, zeros, engine)
    assert res.memo_hits > res.memo_misses > 0
    for s in res.samples:
        direct = invert_x_of_E(s.E, float(N_FIG1), 10000, zeros, mc.T)
        assert direct == s.x


def test_density_map_classical_matches_exact_rationals(engine):
    N, j = 7919 * 7919, 1000  # p_1000^2
    dm = density_map(N, j, "classical", engine)
    x_lo = make_gauge(N, 0.0, engine, j=j).B_G
    entries = enumerate_ensemble(EnsembleQuery(j=j, x_min=x_lo), engine)
    h, _, _ = np.histogram2d([float(e.E) for e in entries], [float(e.x) for e in entries],
                             bins=[dm.e_edges, dm.x_edges])
    assert dm.points == len(entries)
    assert np.array_equal(dm.mass, h / h.sum())


def j3_map(engine, n_bins):
    """The classical j = 3 map on (0.5, 1.5) x (2, 6), binned as density_map
    bins; density_map itself starts its x window at a gauge's B_G, and a
    gauge needs N >= 1e4."""
    entries = enumerate_ensemble(EnsembleQuery(j=3), engine)
    return qsieve._histogram2d([float(e.E) for e in entries], [float(e.x) for e in entries],
                               np.linspace(0.5, 1.5, n_bins + 1),
                               np.linspace(2.0, 6.0, n_bins + 1), "classical")


def test_density_map_classical_j3(engine):
    dm = j3_map(engine, 6)
    assert dm.points == 8
    assert dm.mass.sum() == pytest.approx(1.0)


def test_density_map_quantum_needs_zeros(engine):
    with pytest.raises(DensityError):
        density_map(N_FIG1, 10000, "quantum", engine, zeros=None)


def test_compare_densities_identity_and_disjoint(engine):
    dm = j3_map(engine, 5)
    m = compare_densities(dm, dm)
    assert m["rank_correlation"] == pytest.approx(1.0)
    assert m["jensen_shannon"] == pytest.approx(0.0, abs=1e-12)
    assert m["overlap"] == pytest.approx(1.0)
    import dataclasses

    other = dataclasses.replace(dm, mass=np.roll(dm.mass, 3, axis=1))
    disjoint = np.zeros_like(dm.mass)
    disjoint[np.where(dm.mass == 0)] = 1.0
    disjoint /= disjoint.sum()
    m2 = compare_densities(dm, dataclasses.replace(dm, mass=disjoint))
    assert m2["overlap"] == pytest.approx(0.0, abs=1e-12)


def test_compare_densities_binning_mismatch(engine):
    a, b = j3_map(engine, 5), j3_map(engine, 4)
    with pytest.raises(DensityError):
        compare_densities(a, b)


def test_montecarlo_counts_capped_bisections(engine, zeros, monkeypatch):
    """With no width tolerance no bisection can stop early: every level that
    bisects runs all 200 halvings, is counted, and keeps its sample."""
    N, j = 10000019, 446
    mc = MonteCarloConfig(samples=2, rng_seed=1, T=50)
    res = montecarlo_spectrum(N, j, (0.0, 0.5), mc, zeros, engine)
    assert res.capped_bisections == 0 and res.samples
    monkeypatch.setattr(qsieve, "INVERT_REL_TOL", 0.0)
    capped = montecarlo_spectrum(N, j, (0.0, 0.5), mc, zeros, engine)
    assert capped.capped_bisections == len(capped.samples) == len(res.samples)
    assert capped.failed_inversions == res.failed_inversions
    for a, b in zip(res.samples, capped.samples):
        assert abs(a.x - b.x) <= INVERT_REL_TOL * a.x
