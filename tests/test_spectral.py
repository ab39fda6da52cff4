import cmath
import math

import mpmath as mp
import pytest

from factorsim import spectral
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
    minima = []
    prev2 = prev = None
    while q <= 10.0:
        cur = abs(wavefunction(q, E, d))
        if prev2 is not None and prev < prev2 and prev < cur and prev < 1e-2:
            minima.append(q - 1e-4)
        prev2, prev = prev, cur
        q += 1e-4
    assert len(minima) == len(zs)
    assert max(abs(a - b) for a, b in zip(minima, zs)) < 5e-4


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
    from factorsim.spectral import _envelope_ratio

    vals = [_envelope_ratio(r) for r in [float(x) for x in range(200, 300)]]
    assert max(vals) > 5.0 * min(vals)

