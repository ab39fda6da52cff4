"""Penning-trap realization: unit maps, trap sizing and planning, trap psi.

SI units throughout; the source expressions are Gaussian-flavored, so
every cyclotron/spin formula here drops the 1/c (B in tesla). The
dimensionless radial coordinate u equals the simulator coordinate q
under the length scale lambda = sqrt(sqrt(2) hbar / (M omega_z)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from . import spectral
from .qsieve import measurements_budget
from .roots import grid_roots
from .special import kummer_F, kummer_U

HBAR = 1.054571817e-34  # J s
PLANCK_H = 6.62607015e-34  # J s
E_CHARGE = 1.602176634e-19  # C
M_ELECTRON = 9.1093837015e-31  # kg
M_PROTON = 1.67262192369e-27  # kg
G_ELECTRON = 2.00231930436256
G_PROTON = 5.5856946893
FLUX_QUANTUM = PLANCK_H / (2.0 * E_CHARGE)  # Wb (h/2e)

SQRT2 = math.sqrt(2.0)
S_HAT = 0.5  # spin of both particle presets

# least ratio omega_c/omega_z and omega_z/omega_m a plan accepts
_HIERARCHY_MIN = 10.0
_B_MAX = 10.0  # tesla, the strongest field a plan may ask for


@dataclass(frozen=True)
class Particle:
    name: str
    mass: float  # kg, single particle
    g: float


PARTICLES = {
    "electron": Particle("electron", M_ELECTRON, G_ELECTRON),
    "proton": Particle("proton", M_PROTON, G_PROTON),
}


class TrapPlanError(ValueError):
    """Plan rejected; the message names the failing ratio or limit."""


@dataclass
class TrapParameters:
    particle: Particle
    B: float  # tesla
    omega_c: float  # rad/s, free-space cyclotron
    omega_c_prime: float  # rad/s, shifted cyclotron
    omega_z: float  # rad/s, axial
    omega_m: float  # rad/s, magnetron
    rho_m: float  # m, saddle-region radius

    @property
    def M_pair(self) -> float:
        return 2.0 * self.particle.mass

    def validate(self) -> None:
        if self.omega_c < _HIERARCHY_MIN * self.omega_z:
            raise TrapPlanError(
                f"omega_c/omega_z = {self.omega_c / self.omega_z:.3g} < "
                f"{_HIERARCHY_MIN}"
            )
        if self.omega_z < _HIERARCHY_MIN * self.omega_m:
            raise TrapPlanError(
                f"omega_z/omega_m = {self.omega_z / self.omega_m:.3g} < "
                f"{_HIERARCHY_MIN}"
            )
        if self.omega_c < SQRT2 * self.omega_z:
            raise TrapPlanError("stability bound omega_c >= sqrt(2) omega_z violated")
        om_pred = self.omega_z**2 / (2.0 * self.omega_c_prime)
        if abs(self.omega_m - om_pred) > 0.01 * om_pred:
            raise TrapPlanError("omega_m inconsistent with omega_z^2/(2 omega_c')")


def length_scale(params: TrapParameters) -> float:
    """lambda with q = rho / lambda under the unit transformation."""
    return math.sqrt(SQRT2 * HBAR / (params.M_pair * params.omega_z))


def to_physical(q: float, E: float, params: TrapParameters) -> tuple[float, float]:
    """(rho meters, E' joules) for dimensionless (q, E)."""
    rho = q * length_scale(params)
    e_prime = -E * HBAR * params.omega_z / 2.0**1.5
    return rho, e_prime


def to_dimensionless(rho: float, e_prime: float, params: TrapParameters) -> tuple[float, float]:
    q = rho / length_scale(params)
    E = -e_prime * 2.0**1.5 / (HBAR * params.omega_z)
    return q, E


def size_to_axial(rho_m: float, q_G: float, m_single: float = M_ELECTRON) -> float:
    """omega_z = hbar q_G^2 / (sqrt(2) m rho_m^2)."""
    if rho_m <= 0:
        raise ValueError("rho_m must be positive")
    return HBAR * q_G * q_G / (SQRT2 * m_single * rho_m * rho_m)


def axial_to_size(omega_z: float, q_G: float, m_single: float = M_ELECTRON) -> float:
    """Inverse of size_to_axial; round-trips exactly."""
    if omega_z <= 0:
        raise ValueError("omega_z must be positive")
    return math.sqrt(HBAR * q_G * q_G / (SQRT2 * m_single * omega_z))


def encodable_N(
    q_G: float,
    ratio_wc_wz: float,
    rho_m: float = 3e-3,
    particle: Particle = PARTICLES["electron"],
) -> dict:
    """Largest N the trap encodes: sqrt(N) = (2^{3/2}/3) q_G^3/log(q_G) * ratio.

    Also evaluates the flux form sqrt(N) ~ (q_G/log q_G)(4/3 g s)[pi rho_m^2
    B/(h/2e)] with B taken from the free-space cyclotron of the fitted
    trap, and reports the relative gap between the two forms.
    """
    if q_G <= 1.0 or ratio_wc_wz <= 1.0:
        raise ValueError("need q_G > 1 and ratio > 1")
    lg = math.log(q_G)
    sqrt_n = (2.0**1.5 / 3.0) * q_G**3 / lg * ratio_wc_wz
    omega_z = size_to_axial(rho_m, q_G, particle.mass)
    omega_c_prime = ratio_wc_wz * omega_z
    omega_m = omega_z**2 / (2.0 * omega_c_prime)
    omega_c = math.sqrt(omega_c_prime**2 + omega_z**2 + omega_m**2)
    B = particle.mass * omega_c / (particle.g * S_HAT * E_CHARGE)
    n_flux = flux_quanta(rho_m, B)
    sqrt_n_flux = (q_G / lg) * (4.0 / 3.0) * particle.g * S_HAT * n_flux
    gap = abs(sqrt_n_flux - sqrt_n) / sqrt_n
    return {
        "N": sqrt_n * sqrt_n,
        "sqrt_N": sqrt_n,
        "sqrt_N_flux_form": sqrt_n_flux,
        "relative_gap": gap,
        "B": B,
        "flux_quanta": n_flux,
    }


def flux_quanta(rho_m: float, B: float) -> float:
    """n = pi rho_m^2 B / (h/2e); the register exponent (2^n states)."""
    if rho_m < 0 or B < 0:
        raise ValueError("rho_m and B must be non-negative")
    return math.pi * rho_m * rho_m * B / FLUX_QUANTUM


# ---------------------------------------------------------------------------
# trap wavefunction and the zero-match against the exact simulator


def trap_beta(e_prime: float, params: TrapParameters) -> complex:
    """beta = 1/2 - i E'/(sqrt(2) hbar omega_z)."""
    return complex(0.5, -e_prime / (SQRT2 * HBAR * params.omega_z))


def _trap_psi(beta: complex, u: float, c: complex) -> float:
    """Re{ e^{i u^2/2} [U(beta,1,-iu^2) + c F(beta,1,-iu^2)] }."""
    z = -1j * (u * u)
    return (cmath.exp(0.5j * u * u) * (kummer_U(beta, 1.0, z) + c * kummer_F(beta, 1.0, z))).real


def trap_boundary_constant(e_prime: float, params: TrapParameters) -> complex:
    """c_{E'} from the inner boundary psi(rho(sqrt(E))) = 0.

    The stated physical boundary radius (2/omega_z) sqrt(-E'/M) equals
    lambda*sqrt(E) exactly, i.e. the dimensionless turning point of the
    simulator, so the constraint is applied at u^2 = E.
    """
    _, E = to_dimensionless(0.0, e_prime, params)
    if E <= 0:
        raise TrapPlanError("boundary needs a bound state (E' < 0)")
    beta = trap_beta(e_prime, params)
    f = kummer_F(beta, 1.0, -1j * E)
    if abs(f) == 0.0:
        raise TrapPlanError("boundary matching failed: F vanished")
    return -kummer_U(beta, 1.0, -1j * E) / f


def trap_wavefunction(rho: float, e_prime: float, params: TrapParameters,
                      c: complex | None = None) -> float:
    """psi(rho) = Re{ e^{i u^2/2} [U(beta,1,-iu^2) + c F(beta,1,-iu^2)] }."""
    if c is None:
        c = trap_boundary_constant(e_prime, params)
    u = rho / length_scale(params)
    beta = trap_beta(e_prime, params)
    if u == 0.0:
        # U(beta,1,z) ~ -log(z)/Gamma(beta) as z->0: psi diverges only
        # logarithmically, so rho*psi^2 -> 0 at the origin
        u = 1e-300
    return _trap_psi(beta, u, c)


def trap_wavefunction_zeros(E: float, q_lo: float, q_hi: float,
                            params: TrapParameters) -> list[float]:
    """Zeros of the trap psi in dimensionless q over [q_lo, q_hi]."""
    _, e_prime = to_physical(0.0, E, params)
    c = trap_boundary_constant(e_prime, params)
    beta = trap_beta(e_prime, params)

    def f(q: float) -> float:
        return _trap_psi(beta, q, c)

    qs = spectral.q_grid(q_lo * q_lo, q_hi * q_hi)
    return grid_roots(f, qs, [f(q) for q in qs], spectral.ZERO_XTOL)


@dataclass(frozen=True)
class ZeroMatch:
    q_exact: float
    q_trap: float
    gap: float


def zero_match_report(E: float, q_lo: float, q_hi: float,
                      params: TrapParameters) -> list[ZeroMatch]:
    """Pair zeros of the exact density with the trap density over [q_lo, q_hi].

    Unpaired zeros (beyond the shorter list) are dropped, not fatal.
    """
    if q_hi <= max(q_lo, math.sqrt(E)):
        return []
    exact = [z for z in spectral.wavefunction_zeros(E, q_hi) if z >= q_lo]
    trap = [z for z in trap_wavefunction_zeros(E, max(q_lo, math.sqrt(E) + 1e-6), q_hi, params)]
    out = []
    for qe in exact:
        if not trap:
            break
        qt = min(trap, key=lambda t: abs(t - qe))
        out.append(ZeroMatch(q_exact=qe, q_trap=qt, gap=abs(qt - qe)))
    return out


# ---------------------------------------------------------------------------
# planning


@dataclass
class TrapPlan:
    params: TrapParameters
    N_target: float
    N_encodable: float
    q_G: float
    zero_index: int
    ratio_wc_wz: float
    k_m_effective: float
    level_spacing_sim: float
    level_spacing_trap: float
    flux_quanta: float
    measurement_budget: int
    diagnostics: dict = field(default_factory=dict)


def plan_trap(
    N: float,
    G: float,
    rho_m: float,
    particle: str | Particle = "electron",
    zero_index: int = 0,
) -> TrapPlan:
    """Size a trap that encodes N with q_G set to a wavefunction zero.

    q_G is the (zero_index+1)-th zero of the exact E = 1 wavefunction;
    the saddle-radius sizing relation fixes omega_z from rho_m, and the shifted cyclotron is
    fine-tuned so the encodable-N relation reproduces N. A hierarchy ratio
    below 10 or a field above 10 T rejects the plan, naming the failing
    quantity.
    """
    if isinstance(particle, str):
        if particle not in PARTICLES:
            raise TrapPlanError(f"unknown particle {particle!r}")
        particle = PARTICLES[particle]
    if zero_index < 0:
        raise TrapPlanError(f"zero index {zero_index} must be >= 0")
    zeros = spectral.wavefunction_zeros(1.0, 3.0 + 1.2 * (zero_index + 1))
    if zero_index >= len(zeros):
        raise TrapPlanError(f"zero index {zero_index} beyond computed zeros")
    q_G = zeros[zero_index]
    lg = math.log(q_G)

    omega_z = size_to_axial(rho_m, q_G, particle.mass)
    ratio = 3.0 * math.sqrt(N) * lg / (2.0**1.5 * q_G**3)
    omega_c_prime = ratio * omega_z
    omega_m = omega_z**2 / (2.0 * omega_c_prime)
    omega_c = math.sqrt(omega_c_prime**2 + omega_z**2 + omega_m**2)
    B = particle.mass * omega_c / (particle.g * S_HAT * E_CHARGE)
    if B > _B_MAX:
        raise TrapPlanError(
            f"required field B = {B:.3g} T exceeds B_max = {_B_MAX} T "
            f"(flux quanta would be {flux_quanta(rho_m, B):.3g})"
        )
    params = TrapParameters(
        particle=particle, B=B, omega_c=omega_c, omega_c_prime=omega_c_prime,
        omega_z=omega_z, omega_m=omega_m, rho_m=rho_m,
    )
    params.validate()

    k_m_eff = math.pi * SQRT2 / (lg * (omega_z / omega_c_prime))
    spacing_sim = 2.0 * math.pi / (k_m_eff * lg)
    spacing_trap = SQRT2 * omega_z / omega_c_prime
    enc = encodable_N(q_G, ratio, rho_m, particle)
    return TrapPlan(
        params=params,
        N_target=float(N),
        N_encodable=enc["N"],
        q_G=q_G,
        zero_index=zero_index,
        ratio_wc_wz=ratio,
        k_m_effective=k_m_eff,
        level_spacing_sim=spacing_sim,
        level_spacing_trap=spacing_trap,
        flux_quanta=flux_quanta(rho_m, B),
        measurement_budget=measurements_budget(N),
        diagnostics={
            "flux_form_gap": enc["relative_gap"],
            "B_tesla": B,
            "omega_c_over_omega_z": omega_c / omega_z,
            "omega_z_over_omega_m": omega_z / omega_m,
        },
    )
