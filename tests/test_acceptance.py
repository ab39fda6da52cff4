"""Acceptance criteria, one test per criterion, stated tolerances pinned.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass/fail
line per criterion. Measured values (explicit-formula mean errors, the
density-map similarity metrics) are recorded in acceptance_manifest.json
next to this repository's test artifacts.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from factorsim.ensemble import EnsembleQuery, energy, enumerate_ensemble, sqrt_index
from factorsim.primes import PrimeEngine, PrimeTable
from factorsim.qsieve import (
    DEFAULT_G_GRID,
    BracketError,
    MonteCarloConfig,
    compare_densities,
    density_map,
    exact_energy_levels,
    invert_x_of_E,
    make_gauge,
    montecarlo_spectrum,
    pi_approx,
)
from factorsim import spectral, svgplot, trap
from factorsim.cli import run as cli_run

ART_DIR = os.path.join(os.path.dirname(__file__), "..", "acceptance_artifacts")
MANIFEST = {}


@pytest.fixture(scope="module", autouse=True)
def _manifest_writer():
    """Merge the criteria that ran into the manifest, so a partial run
    keeps the others."""
    os.makedirs(ART_DIR, exist_ok=True)
    yield
    path = os.path.join(ART_DIR, "acceptance_manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            merged = json.load(fh)
    except FileNotFoundError:
        merged = {}
    merged.update(MANIFEST)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_acceptance_01_fig1_marked_point(zeros):
    t0 = time.monotonic()
    engine = PrimeEngine()  # fresh: the budget includes sieving
    e = energy(47297, 231923, 10000, engine)
    rendered = float(e)
    j = sqrt_index(10969262131, engine)
    elapsed = time.monotonic() - t0
    ok = abs(rendered - 1.00441815) <= 5e-9 and j == 10000 and elapsed < 60.0
    _report(1, ok, f"E renders {rendered!r}, sqrt_index = {j}, {elapsed:.1f}s")
    assert abs(rendered - 1.00441815) <= 5e-9
    assert j == 10000
    assert elapsed < 60.0


def test_acceptance_02_worked_examples(engine):
    e26 = energy(2, 13, 3, engine)
    e25 = energy(5, 5, 3, engine)
    ok = e26 == Fraction(2, 3) and e25 == Fraction(1)
    _report(2, ok, f"E(26) = {e26}, E(25) = {e25} (exact rationals)")
    assert e26 == Fraction(2, 3)
    assert e25 == Fraction(1)


def test_acceptance_03_first_zero():
    zs = spectral.wavefunction_zeros(1.0, 3.0)
    ok = len(zs) >= 1 and abs(zs[0] - 2.82765) <= 1e-3
    _report(3, ok, f"first zero = {zs[0]:.6f} (target 2.82765 +- 1e-3, "
                   "i*q_m^2 argument convention)")
    assert ok


def test_acceptance_04_phi0():
    a = spectral.extract_phi0(150.0, 800.0)
    b = spectral.extract_phi0(2000.0, 2700.0)
    ok = abs(a - 1.11965) <= 1e-3 and abs(b - 1.11965) <= 1e-3
    _report(4, ok, f"phi0 = {a:.6f} / {b:.6f} on disjoint windows "
                   "(target 1.11965 +- 1e-3)")
    assert abs(a - 1.11965) <= 1e-3
    assert abs(b - 1.11965) <= 1e-3
    assert abs(a - b) <= 1e-3


def test_acceptance_05_asymptotic_vs_exact():
    t0 = time.monotonic()
    rows = []
    for qm in [5.0, 10.0, 20.0, 40.0]:
        eps_a = spectral.epsilon_asymptotic(qm, 0.0)
        sol = spectral.solve_energy(qm, 1.0 + eps_a)
        eps_e = sol.E - 1.0
        ratio = abs(eps_a - eps_e) / abs(eps_e)
        rows.append((qm, eps_a, eps_e, ratio))
    elapsed = time.monotonic() - t0
    detail = "; ".join(f"qm={qm:g}: eps_a={ea:+.4f} eps_e={ee:+.4f} r={r:.3f}"
                       for qm, ea, ee, r in rows)
    ratios = [r for *_, r in rows]
    ok = all(r <= 0.3 for r in ratios) and \
        all(b <= a for a, b in zip(ratios, ratios[1:])) and elapsed < 300.0
    MANIFEST["criterion_05"] = {"rows": [list(r) for r in rows]}
    _report(5, ok, detail + f" ({elapsed:.0f}s)")
    assert all(r <= 0.3 for r in ratios), (
        "first-order remainder exceeds 0.3 at some q_m: no eigenvalue lies "
        "near E = 1 at q_m = 10 (nearest root E = 2.0003), so the "
        "asymptotic-vs-exact gap there is O(eps^2) ~ 0.9, see ledger"
    )
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    assert elapsed < 300.0


def test_acceptance_06_level_count(engine):
    details = []
    ok = True
    for G in [0.0, 0.2]:
        gauge = make_gauge(10969262131, G, engine, j=10000)
        period = 2.0 * math.pi / math.log(gauge.q_G)
        levels = exact_energy_levels(gauge)
        count = sum(1 for _, E in levels if 1.0 < E <= 1.0 + period)
        target = int(gauge.k_m)
        details.append(f"G={G}: {count} roots vs floor(k_m)={target}")
        ok = ok and abs(count - target) <= 1
    _report(6, ok, "; ".join(details))
    assert ok


def test_acceptance_07_explicit_formula_convergence(zeros):
    tab = PrimeTable(1_000_100)
    pts = [math.floor(10 ** (3 + 3 * i / 49)) + 0.5 for i in range(50)]
    true_pi = {x: tab.pi(int(x)) for x in pts}
    means = {}
    for T in [0, 100, 300, 1000]:
        errs = [abs(pi_approx(x, zeros, T) - true_pi[x]) for x in pts]
        means[T] = sum(errs) / len(errs)
    seq = [means[T] for T in [0, 100, 300, 1000]]
    ok = all(b < a for a, b in zip(seq, seq[1:]))
    MANIFEST["criterion_07_mean_abs_error"] = {str(k): v for k, v in means.items()}
    _report(7, ok, "mean|pi_approx - pi| = " +
            ", ".join(f"T={T}: {means[T]:.3f}" for T in [0, 100, 300, 1000]))
    assert ok


def test_acceptance_08_inversion_round_trip(engine, zeros):
    t0 = time.monotonic()
    T = 100
    entries = enumerate_ensemble(EnsembleQuery(j=1000), engine)
    tested = failed = 0
    worst = 0.0
    for e in entries:
        gauge = make_gauge(e.N, 0.0, engine, j=e.j)
        if e.x <= gauge.B_G:
            continue
        E_loop = (pi_approx(float(e.x), zeros, T)
                  * pi_approx(e.N / float(e.x), zeros, T) / e.j**2)
        if not (1.0 < E_loop < 9.0 / 8.0):
            continue
        tested += 1
        try:
            xr = invert_x_of_E(E_loop, float(e.N), e.j, zeros, T, near=float(e.x))
            rel = abs(xr - e.x) / e.x
        except BracketError:
            rel = math.inf
        worst = max(worst, rel)
        if rel > 1e-6:
            failed += 1
    elapsed = time.monotonic() - t0
    ok = failed == 0 and tested > 1000 and elapsed < 600.0
    MANIFEST["criterion_08"] = {"tested": tested, "failed": failed,
                                "worst_rel": worst if worst < math.inf else None}
    _report(8, ok, f"{tested} entries, {failed} beyond 1e-6 "
                   f"(worst {worst:.2e}), {elapsed:.0f}s")
    assert failed == 0
    assert tested > 1000
    assert elapsed < 600.0


def test_acceptance_09_fig2_desk_scale(engine, zeros):
    t0 = time.monotonic()
    N, j = 10969262131, 10000
    mc = MonteCarloConfig(samples=None, rng_seed=42, T=100)
    bins = (40, 40)
    qmap = density_map(N, j, "quantum", engine, zeros=zeros, bins=bins, mc=mc)
    cmap = density_map(N, j, "classical", engine, bins=bins)
    metrics = compare_densities(qmap, cmap)
    elapsed = time.monotonic() - t0
    for dm, tag in ((qmap, "quantum"), (cmap, "classical")):
        with open(os.path.join(ART_DIR, f"fig2_{tag}.svg"), "wb") as fh:
            fh.write(svgplot.heatmap_svg(dm.e_edges, dm.x_edges, dm.mass))
    # wall time stays out of the tracked manifest, so reruns leave it unchanged
    MANIFEST["criterion_09"] = {"metrics": metrics, "samples": qmap.points,
                                "seed": 42, "T": 100}
    ok = (qmap.same_binning(cmap) and metrics["rank_correlation"] > 0.0
          and elapsed < 1800.0)
    _report(9, ok, f"rank_corr = {metrics['rank_correlation']:.3f}, "
                   f"JS = {metrics['jensen_shannon']:.3f}, "
                   f"overlap = {metrics['overlap']:.3f}, {elapsed:.0f}s")
    assert qmap.same_binning(cmap)
    assert metrics["rank_correlation"] > 0.0
    assert elapsed < 1800.0


def test_acceptance_10_fig3_zero_match():
    plan = trap.plan_trap(10969262131, 0.0, 3e-3, "electron")
    rep = trap.zero_match_report(1.0, 1.0, 8.0, plan.params)
    gaps = [zm.gap for zm in rep]
    half = len(gaps) // 2
    trend_ok = sum(gaps[half:]) / (len(gaps) - half) <= sum(gaps[:half]) / half
    all_small = all(g <= 1e-2 for g in gaps)
    MANIFEST["criterion_10"] = {
        "pairs": [[zm.q_exact, zm.q_trap, zm.gap] for zm in rep]
    }
    ok = all_small and trend_ok
    _report(10, ok, f"{len(gaps)} pairs, max gap = {max(gaps):.4f} "
                    f"(first pair {gaps[0]:.4f}), trend non-increasing: {trend_ok}")
    assert trend_ok
    assert all_small, (
        "first exact/trap zero pair differs by 0.0118 > 1e-2: the trap "
        "equation drops the 1/(4 rho^2) term, which genuinely displaces "
        "the first zero by that much (verified by independent RK4 "
        "integration of both radial ODEs), see ledger"
    )


def test_acceptance_11_trap_planning_bound():
    out = trap.encodable_N(100.0, 1000.0, 3e-3)
    bound_ok = out["N"] <= 1e21  # <= ~1e20 within a factor of 10
    w1 = trap.size_to_axial(3e-3, 47.0)
    rho = trap.axial_to_size(w1, 47.0)
    rt1 = abs(rho - 3e-3) / 3e-3
    plan = trap.plan_trap(10969262131, 0.0, 3e-3, "electron")
    rt2 = abs(plan.N_encodable - 10969262131) / 10969262131
    p = plan.params
    hier = (p.omega_c >= math.sqrt(2.0) * p.omega_z
            and p.omega_c / p.omega_z >= 10.0 and p.omega_z / p.omega_m >= 10.0)
    ok = bound_ok and rt1 <= 1e-12 and rt2 <= 1e-12 and hier
    _report(11, ok, f"encodable N = {out['N']:.3e} <= 1e21, roundtrips "
                    f"{rt1:.1e}/{rt2:.1e}, hierarchy ok = {hier}")
    assert bound_ok and rt1 <= 1e-12 and rt2 <= 1e-12 and hier


def test_acceptance_12_determinism(tmp_path, engine, zeros, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = cli_run(["sieve", "run", "--N", "10969262131", "--j", "10000",
                        "--T", "50", "--samples", "6", "--seed", "42",
                        "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    byte_identical = a.read_bytes() == b.read_bytes()
    # serial vs parallel: a split over draws merged back equals one pass
    mc6 = MonteCarloConfig(samples=6, rng_seed=42, T=50)
    mc3 = MonteCarloConfig(samples=3, rng_seed=42, T=50)
    serial = montecarlo_spectrum(10969262131, 10000, DEFAULT_G_GRID, mc6, zeros, engine)
    lo = montecarlo_spectrum(10969262131, 10000, DEFAULT_G_GRID, mc3, zeros, engine)
    hi = montecarlo_spectrum(10969262131, 10000, DEFAULT_G_GRID, mc6, zeros, engine,
                             first_draw=3)
    merged = lo.samples + hi.samples
    split_identical = [(s.E, s.x, s.k, s.G, s.xi) for s in serial.samples] == \
                      [(s.E, s.x, s.k, s.G, s.xi) for s in merged]
    ok = byte_identical and split_identical
    _report(12, ok, f"CLI rerun byte-identical: {byte_identical}; "
                    f"serial == split-merged: {split_identical}")
    assert byte_identical
    assert split_identical
