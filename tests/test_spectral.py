import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from factorsim import spectral
from factorsim.cli import run as cli_run
from factorsim.roots import grid_roots
from factorsim.special import kummer_F, kummer_U
from factorsim.spectral import (
    CHI_REF,
    PHI0,
    SolverError,
    alpha_of,
    epsilon_asymptotic,
    extract_phi0,
    quantization_residual,
    solve_d,
    solve_energy,
    wavefunction,
    wavefunction_many,
    wavefunction_zeros,
)

mp.mp.dps = 30


def test_solve_d_oracle_value():
    d = solve_d(1.0)
    a = mp.mpf(3) / 4 - 0.25j
    ref = -mp.hyp1f1(a, mp.mpf(3) / 2, 1j) / mp.hyperu(a, mp.mpf(3) / 2, 1j)
    assert abs(d - complex(ref)) < 1e-12


@pytest.mark.parametrize("E", [0.7, 1.0, 1.1])
def test_psi_vanishes_at_inner_boundary(E):
    d = solve_d(E)
    q0 = math.sqrt(E)
    scale = abs(q0 * kummer_F(alpha_of(E), 1.5, 1j * E))
    assert abs(wavefunction(q0, E, d)) <= 1e-10 * scale


def test_solve_d_continuity():
    assert abs(solve_d(1.1) - solve_d(1.1 + 1e-6)) <= 1e-4


def test_wavefunction_zero_at_origin():
    assert wavefunction(0.0, 1.3, solve_d(1.3)) == 0.0


def test_first_zero_reference_value():
    zs = wavefunction_zeros(1.0, 3.0)
    assert len(zs) == 1
    assert abs(zs[0] - 2.82765) <= 1e-3


def test_zeros_empty_below_first():
    assert wavefunction_zeros(1.0, 2.7) == []


def test_zeros_against_dense_grid_oracle():
    """Every |Psi| dip on a 1e-4 grid must be matched by a solver zero."""
    E = 1.0
    d = solve_d(E)
    zs = wavefunction_zeros(E, 10.0)
    q = 1.001
    qs = []
    while q <= 10.0:
        qs.append(q)
        q += 1e-4
    psi = wavefunction_many(np.array(qs), E, d)
    minima = []
    prev2 = prev = None
    for q, cur in zip(qs, np.hypot(psi.real, psi.imag).tolist()):
        if prev2 is not None and prev < prev2 and prev < cur and prev < 1e-2:
            minima.append(q - 1e-4)
        prev2, prev = prev, cur
    assert len(minima) == len(zs)
    assert max(abs(a - b) for a, b in zip(minima, zs)) < 5e-4


def bisection_reference(f, qs, fs):
    """The zeros of a scan by lockstep bisection, each bracket halved below
    ZERO_XTOL (the zero scans' width before false position)."""
    return grid_roots(f, qs, fs, rtol=spectral.ZERO_XTOL / float(qs[-1]))


def assert_near_reference(scans, tol=1e-10):
    for f, qs, fs, zeros, _ in scans:
        ref = bisection_reference(f, qs, fs)
        assert len(zeros) == len(ref)
        assert max(abs(a - b) for a, b in zip(zeros, ref)) <= tol


@pytest.mark.parametrize("E", [0.3, 1.0, 2.5, 7.5])
def test_zeros_near_bisection_reference(zero_scans, E):
    zs = wavefunction_zeros(E, 30.0)
    assert len(zero_scans) == 1 and len(zs) >= 130
    assert_near_reference(zero_scans)


def cell_of(qs, q):
    """The cell (qs[i], qs[i+1]) of the grid qs that holds q."""
    i = int(np.searchsorted(qs, q)) - 1
    return qs[i], qs[i + 1]


def nan_inside(vals, x, lo, hi):
    """vals with NaN wherever lo < x < hi."""
    vals = np.array(vals)
    vals[(x > lo) & (x < hi)] = np.nan
    return vals


def test_zero_scan_out_of_rounds_raises(monkeypatch, capsys):
    # Psi is NaN inside the cell of the first zero: that lane never moves,
    # runs out of rounds, and the scan names its q bracket
    lo, hi = cell_of(spectral.q_grid(1.0 + 1e-6, 12.0 * 12.0), 2.8277)
    psi = spectral.wavefunction_many
    monkeypatch.setattr(spectral, "wavefunction_many",
                        lambda q, E, d: nan_inside(psi(q, E, d), q, lo, hi))
    with pytest.raises(SolverError, match=rf"\[{lo!r}, {hi!r}\]"):
        wavefunction_zeros(1.0, 12.0)
    assert cli_run(["spectrum", "zeros", "--E", "1", "--qmax", "12"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_zeros_strictly_increasing_and_above_sqrtE():
    E = 1.21
    zs = wavefunction_zeros(E, 8.0)
    assert all(b > a for a, b in zip(zs, zs[1:]))
    assert zs[0] >= math.sqrt(E)


def test_residual_identity_at_coincident_arguments():
    E = 1.3
    assert abs(quantization_residual(E, math.sqrt(E))) < 1e-12


def test_residual_at_solved_eigenvalue():
    sol = solve_energy(20.0, 1.0)
    assert sol.converged
    assert abs(quantization_residual(sol.E, 20.0)) <= 1e-8


def test_solve_energy_known_roots():
    """Roots frozen from an independent RK4 shooting oracle."""
    for qm, guess, expect in [(10.0, 2.0, 2.000268), (20.0, 1.0, 1.144000),
                              (40.0, 1.0, 0.943030)]:
        sol = solve_energy(qm, guess)
        assert sol.converged
        assert abs(sol.E - expect) < 2e-4


def test_solve_energy_idempotent():
    sol = solve_energy(20.0, 1.0)
    again = solve_energy(20.0, sol.E)
    assert abs(again.E - sol.E) <= 1e-10


def test_solve_energy_adjacent_root():
    """One true E-period up lands on the next root of the same boundary."""
    first = solve_energy(20.0, 1.0)
    period = 2.0 * math.pi / math.log(20.0)
    second = solve_energy(20.0, first.E + period)
    assert second.converged
    assert abs(second.E - first.E) > 0.5 * period
    assert abs((second.E - first.E) - period) < 0.25 * period


def test_solve_energy_derivative_step_invariance(monkeypatch):
    a = solve_energy(20.0, 1.0)
    monkeypatch.setattr(spectral, "_FD_STEP", 1e-7)
    b = solve_energy(20.0, 1.0)
    assert abs(a.E - b.E) <= 1e-8


@pytest.mark.parametrize("qm", [5.0, 20.0, 46.6])
def test_solve_energy_d_equals_solve_d(qm):
    """d read off the last residual's inner pair is solve_d's d, bit for bit."""
    sol = solve_energy(qm, 1.0)
    assert sol.converged
    assert sol.d == solve_d(sol.E)


def test_residual_sweep_period():
    """Eigenvalues of one boundary recur with period 2 pi / log q_m."""
    first = solve_energy(20.0, 1.0)
    second = solve_energy(20.0, 3.0)
    spacing = second.E - first.E
    period = 2.0 * math.pi / math.log(20.0)
    assert abs(spacing - period) < 0.15 * period
    # at q_m = 10 the window (0, 3.6) holds exactly one root (frozen scan)
    sol = solve_energy(10.0, 2.0)
    assert abs(sol.E - 2.000268) < 1e-3


def test_epsilon_formula_structure():
    qm = 25.0
    lg = math.log(qm)
    base = qm * qm - lg - PHI0 + CHI_REF
    # chi zeroing the phase: eps = tan(phi0)/log q_m exactly
    chi0 = -base
    assert abs(epsilon_asymptotic(qm, chi0) - math.tan(PHI0) / lg) < 1e-12
    # chi putting the phase at -pi/2: eps = (tan - sec)/log
    chi1 = -base - math.pi / 2.0
    expect = (math.tan(PHI0) - 1.0 / math.cos(PHI0)) / lg
    assert abs(epsilon_asymptotic(qm, chi1) - expect) < 1e-12


def test_epsilon_tracks_exact_root_when_small():
    """Where a root passes near E = 1 the first-order value nails it."""
    for qm in [20.0, 40.0]:
        eps_a = epsilon_asymptotic(qm, 0.0)
        sol = solve_energy(qm, 1.0 + eps_a)
        assert sol.converged
        assert abs(eps_a - (sol.E - 1.0)) <= 0.15 * abs(sol.E - 1.0)


def test_solve_energy_at_sin_phi_zero_phase():
    """q_m pinned so sin(phi_m) = 0; formula value and frozen exact root."""
    # solve q^2 - log q - phi0 + CHI_REF = 64*2pi near q = 20
    target = 64 * 2.0 * math.pi
    q = 20.02
    for _ in range(40):
        f = q * q - math.log(q) - PHI0 + CHI_REF - target
        q -= f / (2 * q - 1 / q)
    lg = math.log(q)
    assert abs(epsilon_asymptotic(q, 0.0) - math.tan(PHI0) / lg) < 1e-10
    sol = solve_energy(q, 1.0 + epsilon_asymptotic(q, 0.0))
    # frozen from the dense-scan oracle at this phase
    assert abs(sol.E - 1.3665) < 2e-2


def test_extract_phi0_value_and_envelope():
    phi0 = extract_phi0(150.0, 800.0)
    assert abs(phi0 - 1.11965) <= 1e-3
    assert abs(math.cos(phi0) - math.cos(1.11965)) <= 1e-3


def test_extract_phi0_window_stability():
    a = extract_phi0(150.0, 800.0)
    b = extract_phi0(2000.0, 2700.0)
    assert abs(a - b) <= 1e-3


def test_envelope_has_sec_poles():
    """|1/S| maxima blow up between the cos(phi0) floors."""
    from factorsim.spectral import _envelope_ratio, _inner_pair

    vals = _envelope_ratio(np.arange(200.0, 300.0), _inner_pair(1.0)).tolist()
    assert max(vals) > 5.0 * min(vals)


def _reference_wavefunction(q, E, d):
    """The scalar Psi(q) the array pass replaced, kept as the reference."""
    if q == 0.0:
        return 0.0 + 0.0j
    a = alpha_of(E)
    z = 1j * q * q
    bracket = kummer_F(a, 1.5, z) + d * kummer_U(a, 1.5, z)
    return q * cmath.exp(-0.5j * q * q) * bracket


def _reference_envelope_ratio(rho, inner):
    f_in, u_in = inner
    a = alpha_of(1.0)
    z_out = 1j * math.sqrt(rho) * math.sqrt(rho)
    s = kummer_F(a, 1.5, z_out) * u_in / (f_in * kummer_U(a, 1.5, z_out))
    return 1.0 / abs(s)


@pytest.mark.parametrize("E", [0.4, 1.0, 2.7])
def test_wavefunction_many_equals_scalar_formula(E):
    """Every element of the array pass is the scalar formula's value, in
    every regime of F and U (q^2 from 0 to 2500), q = 0 included."""
    d = solve_d(E)
    qs = np.concatenate([[0.0, math.sqrt(12.0), math.sqrt(30.0), math.sqrt(35.0)],
                         np.linspace(0.01, 50.0, 397)])
    got = wavefunction_many(qs, E, d)
    ref = [_reference_wavefunction(q, E, d) for q in qs.tolist()]
    assert np.asarray(got).view(np.uint64).tolist() == \
        np.asarray(ref, dtype=complex).view(np.uint64).tolist()
    assert [wavefunction(q, E, d) for q in qs[:40].tolist()] == ref[:40]
    with pytest.raises(ValueError):
        wavefunction_many(np.array([1.0, -0.5]), E, d)


def test_envelope_ratio_equals_scalar_formula():
    from factorsim.spectral import _envelope_ratio, _inner_pair

    inner = _inner_pair(1.0)
    rhos = np.linspace(150.0, 475.0, 301)
    assert _envelope_ratio(rhos, inner).tolist() == \
        [_reference_envelope_ratio(r, inner) for r in rhos.tolist()]

