import cmath
import math

import numpy as np
import pytest

from factorsim import spectral, trap
from factorsim.special import kummer_F, kummer_U
from factorsim.spectral import SolverError
from test_spectral import assert_near_reference, cell_of, nan_inside

from factorsim.trap import (
    FLUX_QUANTUM,
    HBAR,
    M_ELECTRON,
    PARTICLES,
    PLANCK_H,
    SQRT2,
    TrapPlanError,
    axial_to_size,
    encodable_N,
    flux_quanta,
    length_scale,
    plan_trap,
    size_to_axial,
    to_dimensionless,
    to_physical,
    trap_beta,
    trap_boundary_constant,
    trap_wavefunction,
    trap_wavefunction_many,
    trap_wavefunction_zeros,
    zero_match_report,
)

N_FIG1 = 10969262131


@pytest.fixture(scope="module")
def plan():
    return plan_trap(N_FIG1, 0.0, 3e-3, "electron")


def test_unit_map_examples(plan):
    p = plan.params
    rho, ep = to_physical(0.0, 1.0, p)
    assert rho == 0.0
    assert ep == pytest.approx(-HBAR * p.omega_z / 2.0**1.5)
    assert ep < 0  # bound magnetron energy


def test_unit_map_roundtrip(plan):
    p = plan.params
    for q, E in [(2.82765, 1.0), (0.3, 0.25), (7.0, 1.125)]:
        rho, ep = to_physical(q, E, p)
        q2, e2 = to_dimensionless(rho, ep, p)
        assert abs(q2 - q) <= 1e-12 * max(q, 1.0)
        assert abs(e2 - E) <= 1e-12 * max(E, 1.0)


def test_size_to_axial_scaling_and_roundtrip():
    w1 = size_to_axial(3e-3, 50.0)
    w2 = size_to_axial(3e-3, 100.0)
    assert w2 / w1 == pytest.approx(4.0)
    rho = axial_to_size(w1, 50.0)
    assert rho == pytest.approx(3e-3, rel=1e-12)


def test_encodable_reference_operating_point():
    out = encodable_N(100.0, 1000.0)
    # the q_G <~ 1e2, ratio ~ 1e3 electron trap reaches ~4e16,
    # inside the stated <= 1e20 order-of-magnitude bound
    assert out["N"] <= 1e21
    assert out["N"] == pytest.approx(4.19e16, rel=0.01)
    assert out["relative_gap"] <= 0.01


def test_encodable_scaling():
    a = encodable_N(50.0, 100.0)
    b = encodable_N(50.0, 200.0)
    assert b["N"] / a["N"] == pytest.approx(4.0, rel=1e-9)


def test_flux_quanta():
    assert flux_quanta(3e-3, 0.0) == 0.0
    n = flux_quanta(3e-3, 1.0)
    assert n == pytest.approx(math.pi * 9e-6 / FLUX_QUANTUM)
    assert flux_quanta(3e-3, 2.0) == pytest.approx(2.0 * n)
    assert flux_quanta(6e-3, 1.0) == pytest.approx(4.0 * n)
    # physical-constants oracle: h/2e = 2.067833848e-15 Wb (CODATA)
    assert FLUX_QUANTUM == pytest.approx(2.067833848e-15, rel=1e-9)
    assert n == pytest.approx(1.3672e10, rel=1e-3)


def test_trap_boundary_zero(plan):
    p = plan.params
    _, ep = to_physical(0.0, 1.0, p)
    c = trap_boundary_constant(ep, p)
    lam = length_scale(p)
    val = trap_wavefunction(1.0 * lam, ep, p, c)  # u = sqrt(E) = 1
    # compare against the typical wavefunction magnitude nearby
    ref = abs(trap_wavefunction(2.0 * lam, ep, p, c))
    assert abs(val) <= 1e-9 * ref


@pytest.mark.parametrize("E, rows", [(1.0, 1), (4.0, 2)])
def test_trap_boundary_constant_evaluates_each_U_once(plan, monkeypatch, E, rows):
    """F and U come from one `kummer_FU`: beyond |z| = 3 F is built from the
    U(beta, 1, -iE) it returns, so no exp-sinh row runs twice. c is the same
    -U/F, bit for bit, as with F and U taken apart."""
    from factorsim import special

    calls = []
    row = special._kummer_u_row

    def recorded(a, b, z):
        calls.append((a, b, z))
        return row(a, b, z)

    p = plan.params
    _, ep = to_physical(0.0, E, p)
    monkeypatch.setattr(special, "_kummer_u_row", recorded)
    c = trap_boundary_constant(ep, p)
    assert len(set(calls)) == len(calls) == rows
    monkeypatch.undo()
    beta, z = trap_beta(ep, p), -1j * trap.to_dimensionless(0.0, ep, p)[1]
    assert c == -kummer_U(beta, 1.0, z) / kummer_F(beta, 1.0, z)


def test_trap_density_integrable_at_origin(plan):
    p = plan.params
    _, ep = to_physical(0.0, 1.0, p)
    c = trap_boundary_constant(ep, p)
    lam = length_scale(p)
    vals = []
    for u in [1e-3, 1e-5, 1e-7]:
        psi = trap_wavefunction(u * lam, ep, p, c)
        vals.append(u * psi * psi)
    # psi diverges only like log(u), so u psi^2 ~ u log^2 u -> 0
    assert abs(vals[2]) < abs(vals[1]) < abs(vals[0])
    assert abs(vals[-1]) < 1e-3


def test_zero_match_fig3(plan):
    rep = zero_match_report(1.0, 1.0, 8.0, plan.params)
    assert len(rep) >= 8
    assert abs(rep[0].q_exact - 2.82765) <= 1e-3
    # frozen from the independent RK4 integration of both radial ODEs
    assert rep[0].gap == pytest.approx(0.01183, abs=5e-4)
    gaps = [zm.gap for zm in rep]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_zero_match_empty_below_turning_point(plan):
    assert zero_match_report(1.0, 0.1, 0.9, plan.params) == []


def test_plan_fig1_N(plan):
    p = plan.params
    assert plan.q_G == pytest.approx(2.82765, abs=1e-3)
    assert plan.N_encodable == pytest.approx(N_FIG1, rel=1e-12)
    assert p.omega_c >= SQRT2 * p.omega_z
    assert p.omega_c / p.omega_z >= 10.0
    assert p.omega_z / p.omega_m >= 10.0
    assert plan.level_spacing_sim == pytest.approx(plan.level_spacing_trap, rel=1e-12)
    assert plan.diagnostics["flux_form_gap"] <= 0.01
    assert plan.measurement_budget == 1545


def test_plan_second_zero_rescales_omega_z(plan):
    plan2 = plan_trap(N_FIG1, 0.0, 3e-3, "electron", zero_index=1)
    expect = (plan2.q_G / plan.q_G) ** 2
    assert plan2.params.omega_z / plan.params.omega_z == pytest.approx(expect, rel=1e-12)


def test_plan_rejections():
    with pytest.raises(TrapPlanError) as err:
        plan_trap(1e26, 0.0, 3e-3, "electron")
    assert "B" in str(err.value) and "flux" in str(err.value)
    with pytest.raises(TrapPlanError) as err:
        plan_trap(20000, 0.0, 3e-3, "electron")
    assert "omega" in str(err.value)
    with pytest.raises(TrapPlanError):
        plan_trap(N_FIG1, 0.0, 3e-3, "unobtainium")
    with pytest.raises(TrapPlanError, match="zero index -1 must be >= 0"):
        plan_trap(N_FIG1, 0.0, 3e-3, "electron", zero_index=-1)


def test_plan_proton_particle():
    plan = plan_trap(N_FIG1, 0.0, 3e-3, "proton")
    assert plan.params.particle is PARTICLES["proton"]
    assert plan.params.omega_z < size_to_axial(3e-3, plan.q_G, M_ELECTRON)


def test_parameter_validation_catches_inconsistency(plan):
    import dataclasses

    p = dataclasses.replace(plan.params, omega_m=plan.params.omega_m * 1.5)
    with pytest.raises(TrapPlanError):
        p.validate()


def _reference_trap_wavefunction(rho, e_prime, params, c):
    """The scalar trap psi the array pass replaced, kept as the reference."""
    u = rho / length_scale(params)
    beta = trap_beta(e_prime, params)
    z = -1j * (u * u)
    return (cmath.exp(0.5j * u * u) * (kummer_U(beta, 1.0, z) + c * kummer_F(beta, 1.0, z))).real


@pytest.mark.parametrize("E", [0.5, 1.0, 1.6])
def test_trap_wavefunction_many_equals_scalar_formula(plan, E):
    """Every element of the array pass is the scalar formula's value, across
    U's exp-sinh row, the F regimes and the large-u sums."""
    p = plan.params
    _, ep = to_physical(0.0, E, p)
    c = trap_boundary_constant(ep, p)
    rhos = np.linspace(0.02, 45.0, 300) * length_scale(p)
    ref = [_reference_trap_wavefunction(r, ep, p, c) for r in rhos.tolist()]
    assert trap_wavefunction_many(rhos, ep, p, c).tolist() == ref
    assert [trap_wavefunction(r, ep, p, c) for r in rhos[:30].tolist()] == ref[:30]


@pytest.mark.parametrize("rho", [0.0, -1e-9])
def test_trap_wavefunction_rejects_rho_at_or_below_origin(plan, rho):
    # psi diverges logarithmically at rho = 0, where U(beta, 1, z) is undefined
    p = plan.params
    _, ep = to_physical(0.0, 1.0, p)
    with pytest.raises(ValueError, match="rho"):
        trap_wavefunction(rho, ep, p)
    with pytest.raises(ValueError, match="rho"):
        trap_wavefunction_many(np.array([1e-3, rho]), ep, p)


@pytest.mark.parametrize("E", [0.5, 1.0, 2.0, 2.5, 3.0, 4.0])
def test_trap_zeros_near_bisection_reference(plan, zero_scans, E):
    zs = trap_wavefunction_zeros(E, math.sqrt(E) + 1e-6, 14.0, plan.params)
    assert len(zero_scans) == 1 and len(zs) >= 25
    assert_near_reference(zero_scans)


@pytest.mark.parametrize("E, q", [(2.0, 4.05799), (2.5, 4.16814), (4.0, 3.56159)])
def test_trap_psi_changes_sign_once_at_zero(plan, E, q):
    """psi is smooth through its zero to 1e-11: one sign change on a
    4001-point grid over +-2e-8 (U's former b = 1 path flickered there)."""
    _, ep = to_physical(0.0, E, plan.params)
    zero = min(trap_wavefunction_zeros(E, q - 0.01, q + 0.01, plan.params),
               key=lambda z: abs(z - q))
    qs = np.linspace(zero - 2e-8, zero + 2e-8, 4001)
    psi = trap._trap_psi(trap_beta(ep, plan.params), qs, trap_boundary_constant(ep, plan.params))
    assert np.count_nonzero(np.signbit(psi[1:]) != np.signbit(psi[:-1])) == 1


def test_zero_scans_take_few_rounds(zero_scans):
    # the three scans of fig3 (q_G, the exact and the trap zeros) and the
    # zero scan of the benchmark: a bisection down to ZERO_XTOL takes ~35
    zero_match_report(1.0, 1.0, 8.0, plan_trap(N_FIG1, 0.0, 3e-3, "electron").params)
    spectral.wavefunction_zeros(1.0, 12.0)
    assert len(zero_scans) == 4
    assert max(rounds for *_, rounds in zero_scans) <= 12


def test_trap_zero_scan_out_of_rounds_raises(plan, monkeypatch):
    lo, hi = cell_of(spectral.q_grid(4.0, 64.0), 3.8061)  # the second zero at E = 1
    psi = trap._trap_psi
    monkeypatch.setattr(trap, "_trap_psi",
                        lambda beta, us, c: nan_inside(psi(beta, us, c), us, lo, hi))
    with pytest.raises(SolverError, match=rf"\[{lo!r}, {hi!r}\]"):
        trap_wavefunction_zeros(1.0, 2.0, 8.0, plan.params)
