"""Stationary states of the inverted-oscillator simulator.

The amplitude is Psi(q) = q e^{-i q^2/2} { F(a,3/2,i q^2) + d(E) U(a,3/2,i q^2) }
with a = 3/4 - iE/4. d(E) kills Psi at the inner turning point sqrt(E);
the outer wall at q_m then quantizes E through the ratio condition
S(E, q_m) = 1. Because any solution vanishing at sqrt(E) is a complex
multiple of a real one, zero finding and root solving work on a
phase-anchored real projection.

Every scan (the zero grids, each lockstep round of their false-position
refinement and the phi0 grid) is one `KummerFamily` pass over an array
of z at fixed E; the Newton solver and the matching point use the scalar
`kummer_FU`.
The scans import `kummer` when they run: the sieve and ensemble commands
import this module but never scan, and so never load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .roots import grid_zeros
from .special import kummer_FU

B32 = 1.5

# arccos of the envelope floor of the reciprocal quantization ratio at
# E = 1; the same universal constant the asymptotic energy formula uses
PHI0 = 1.1196526677867445

# arg Gamma(3/4 - i/4); enters the absorbed phase constant of phi(rho)
ARG_GAMMA_ALPHA1 = 0.2584325484596134

# Phase reference aligning the first-order energy formula with the exact
# quantization roots, measured over rho in [4e2, 1.6e3]; its rho -> inf
# limit is 2*PHI0 - 2*ARG_GAMMA_ALPHA1 - 3*pi/4 ~ 5.6494.
CHI_REF = 5.4430

# |S(E, q_m) - 1| at which the Newton solve counts as converged
RESIDUAL_TOL = 1e-8
_DEGENERATE_TOL = 1e-250
_NEWTON_MAX_ITER = 50
_FD_STEP = 1e-6  # central-difference step of dS/dE

# q^2 spacing of every zero scan (see `q_grid`) and the bracket width at
# which the refinement of a zero stops
_Q2_STEP = math.pi / 8
ZERO_XTOL = 1e-12
# samples of |1/S| per period 2*pi of rho in `extract_phi0`
_PHI0_SAMPLES_PER_PERIOD = 40


class SolverError(ArithmeticError):
    pass


@dataclass
class SpectralSolution:
    E: float
    d: complex
    q_m: float
    residual: float
    converged: bool
    iterations: int


def alpha_of(E: float) -> complex:
    return complex(0.75, -0.25 * E)


def _inner_pair(E: float) -> tuple[complex, complex]:
    """(F, U)(a, 3/2, iE): the matching point sqrt(E), shared by d(E) and S(E, q_m)."""
    return kummer_FU(alpha_of(E), B32, 1j * E)


def solve_d(E: float) -> complex:
    """d(E) = -F(a,3/2,iE)/U(a,3/2,iE), making Psi(sqrt(E)) = 0."""
    if E <= 0:  # before U(a,3/2,iE) is evaluated at z = 0
        raise ValueError("E must be positive")
    return _d_of(E, _inner_pair(E))


def _d_of(E: float, inner: tuple[complex, complex]) -> complex:
    """d(E) from `inner` = `_inner_pair(E)`; also rejects the E <= 0 that
    `solve_energy` can end on after a non-positive guess."""
    if E <= 0:
        raise ValueError("E must be positive")
    f, u = inner
    if abs(u) < _DEGENERATE_TOL:
        raise SolverError(f"degenerate matching point: U(a,3/2,iE) ~ 0 at E={E}")
    return -f / u


def wavefunction(q: float, E: float, d: complex) -> complex:
    """Psi(q); a one-element call of `wavefunction_many`."""
    return complex(wavefunction_many(np.array([q], dtype=float), E, d)[0])


def wavefunction_many(qs: np.ndarray, E: float, d: complex) -> np.ndarray:
    """Psi at every q of a 1-D array: q e^{-i q^2/2} {F + d U}(a, 3/2, i q^2),
    in CPython's complex arithmetic; the q prefactor makes Psi(0) = 0 exactly."""
    from .kummer import KummerFamily, cmul, each, pack

    qs = np.asarray(qs, dtype=float)
    samples = np.arange(qs.size)
    if samples[qs < 0.0].size:
        raise ValueError("q must be >= 0")
    psi = np.zeros(qs.size, dtype=complex)
    on = samples[qs != 0.0]
    q = qs[on]
    z = cmul(*cmul(0.0, 1.0, q, 0.0), q, 0.0)  # 1j * q * q
    f, u = KummerFamily(alpha_of(E), B32).FU(pack(*z))
    du = cmul(d.real, d.imag, u.real, u.imag)
    w = -0.5j
    phase = each(cmath.exp, *cmul(*cmul(w.real, w.imag, q, 0.0), q, 0.0))
    psi[on] = pack(*cmul(*cmul(q, 0.0, *phase), f.real + du[0], f.imag + du[1]))
    return psi


def q_grid(u_lo: float, u_hi: float) -> list[float]:
    """q samples uniform in q^2 over [u_lo, u_hi], at most _Q2_STEP apart in q^2.

    Zeros of both wavefunctions are ~2*pi apart in q^2, so a step below
    pi puts a sign change between every pair of neighbouring zeros, and
    each cell with a sign change holds one simple zero.
    """
    n = max(int((u_hi - u_lo) / _Q2_STEP) + 2, 8)
    return [math.sqrt(u_lo + (u_hi - u_lo) * i / (n - 1)) for i in range(n)]


def refine_zeros(f, qs: np.ndarray, fs: np.ndarray) -> list[float]:
    """Zeros of f on the ascending q samples qs, fs = f(qs): every sign
    change refined by lockstep false position to ZERO_XTOL (`roots.grid_zeros`).

    f takes and returns 1-D arrays. Raises SolverError naming the q bracket
    of a zero that ran out of rounds.
    """
    zeros, capped = grid_zeros(f, qs, fs, ZERO_XTOL)
    if capped:
        lo, hi = capped[0]
        raise SolverError(f"zero scan did not converge on q in [{lo!r}, {hi!r}] "
                          f"({len(capped)} bracket(s) ran out of rounds)")
    return zeros


def _zeros_on_grid(E: float, qs: list[float]) -> list[float]:
    """Zeros of Psi(.; E) found on the ascending samples qs.

    Psi with d = solve_d(E) is a complex constant times a real function
    (any ODE solution vanishing at sqrt(E) is), so dividing by the unit
    phase of its largest sample makes the profile real up to rounding
    noise; the zeros are those of that real projection. The grid is one
    array pass, and so is each lockstep round that refines its sign changes.
    """
    from .kummer import cquot

    d = solve_d(E)
    qs = np.array(qs, dtype=float)
    vals = wavefunction_many(qs, E, d)
    mags = np.hypot(vals.real, vals.imag).tolist()
    ref = complex(vals[mags.index(max(mags))])
    if abs(ref) == 0.0:
        raise SolverError("wavefunction vanished on the whole grid")
    phase = ref / abs(ref)

    def proj(q: np.ndarray) -> np.ndarray:
        psi = wavefunction_many(q, E, d)
        return cquot(psi.real, psi.imag, phase)[0]

    return refine_zeros(proj, qs, cquot(vals.real, vals.imag, phase)[0])


def wavefunction_zeros(E: float, q_max: float) -> list[float]:
    """All zeros of Psi in (sqrt(E), q_max], by sign change + false position."""
    if E <= 0:
        raise ValueError("E must be positive")
    q0 = math.sqrt(E)
    if q_max <= q0:
        return []
    zeros = _zeros_on_grid(E, q_grid(E + 1e-6, q_max * q_max))
    return [z for z in zeros if z > q0 and z <= q_max]


def quantization_residual(E: float, q_m: float) -> complex:
    """S(E, q_m) - 1; zero exactly at the eigenvalues.

    The outer-wall argument is i*q_m^2, the form consistent with the
    wavefunction constraints.
    """
    return _ratio_s(E, q_m) - 1.0


def _ratio_s(E: float, q_m: float, inner: tuple[complex, complex] | None = None) -> complex:
    """S(E, q_m); `inner` is `_inner_pair(E)` when the caller already has it."""
    f_in, u_in = inner if inner is not None else _inner_pair(E)
    f_out, u_out = kummer_FU(alpha_of(E), B32, 1j * q_m * q_m)
    den = f_in * u_out
    if abs(den) < _DEGENERATE_TOL:
        raise SolverError(f"near-zero denominator in S at E={E}, q_m={q_m}")
    return f_out * u_in / den


def solve_energy(q_m: float, guess: float) -> SpectralSolution:
    """Newton-Raphson on S(E, q_m) - 1 with a numerically differenced S'.

    Eigenvalues are real, so the complex Newton step is projected onto
    the real axis and clamped to a fraction of the root spacing
    2*pi/log(q_m) to keep iterates inside one basin. The solve stops at
    |S - 1| <= RESIDUAL_TOL or after 50 iterates, and returns the iterate
    with the smallest residual; its d comes from the inner pair that its
    residual used.
    """
    if q_m <= 1.0:
        raise ValueError("q_m must exceed 1")
    clamp = 0.45 * 2.0 * math.pi / math.log(q_m)
    E = float(guess)
    best = (math.inf, E, 0, None)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        inner = _inner_pair(E)
        r = _ratio_s(E, q_m, inner) - 1.0
        if abs(r) < best[0]:
            best = (abs(r), E, it, inner)
        # every earlier iterate had a residual above the tolerance, so a
        # converged iterate is always the best one
        if abs(r) <= RESIDUAL_TOL:
            break
        rp = quantization_residual(E + _FD_STEP, q_m)
        rm = quantization_residual(E - _FD_STEP, q_m)
        deriv = (rp - rm) / (2.0 * _FD_STEP)
        if deriv == 0:
            break
        step = (r / deriv).real
        if abs(step) > clamp:
            step = math.copysign(clamp, step)
        E_new = E - step
        if E_new <= 0.0:
            E_new = 0.5 * E
        E = E_new
    res, E_best, it, inner = best
    if inner is None:  # no residual was below infinity (a NaN guess, say)
        inner = _inner_pair(E_best)
    return SpectralSolution(E=E_best, d=_d_of(E_best, inner), q_m=q_m, residual=res,
                            converged=res <= RESIDUAL_TOL, iterations=it)


def epsilon_asymptotic(q_m: float, chi: float) -> float:
    """First-order eigenvalue shift: E ~ 1 + epsilon(q_m).

    epsilon = {tan(phi0) + sin(phi_m) sec(phi0)} / log(q_m) with
    phi_m = q_m^2 - log(q_m) - phi0 + chi, taken relative to the
    internal phase reference CHI_REF (the absorbed arbitrary constant
    of phi(rho)).
    """
    if q_m <= math.e:
        raise ValueError("q_m must exceed e")
    lg = math.log(q_m)
    phi_m = q_m * q_m - lg - PHI0 + chi + CHI_REF
    return (math.tan(PHI0) + math.sin(phi_m) / math.cos(PHI0)) / lg


def _envelope_ratio(rhos: np.ndarray, inner: tuple[complex, complex]) -> np.ndarray:
    """|1/S(1, rho)| at every rho of a 1-D array, `inner` = `_inner_pair(1.0)`:
    envelope floor cos(phi0), poles where cos(phi) = 0.

    One `KummerFamily` pass over the outer-wall arguments i*rho; each
    element is `_ratio_s(1.0, sqrt(rho), inner)` in CPython's complex
    arithmetic.
    """
    from .kummer import KummerFamily, cdiv, cmul, pack

    f_in, u_in = inner
    q = np.array([math.sqrt(r) for r in rhos.tolist()])
    f, u = KummerFamily(alpha_of(1.0), B32).FU(pack(*cmul(*cmul(0.0, 1.0, q, 0.0), q, 0.0)))
    den = cmul(f_in.real, f_in.imag, u.real, u.imag)
    rows = np.arange(rhos.size)
    small = rows[np.hypot(*den) < _DEGENERATE_TOL]
    if small.size:
        raise SolverError(f"near-zero denominator in S at E=1.0, q_m={q[small[0]]}")
    m = np.hypot(*cdiv(*cmul(f.real, f.imag, u_in.real, u_in.imag), *den))
    vanished = rows[m == 0.0]
    if vanished.size:
        raise SolverError(f"S vanished at rho={rhos[vanished[0]]}")
    return 1.0 / m


def extract_phi0(rho_lo: float = 150.0, rho_hi: float = 1500.0) -> float:
    """Recover phi0 from the envelope minima of the reciprocal ratio.

    The reciprocal ratio has |R| = cos(phi0)*|sec(phi(rho))|: its local
    minima all touch cos(phi0) while its maxima are sec poles, which the
    detector skips by construction (only minima are collected).
    """
    if rho_hi <= rho_lo + 4.0 * math.pi:
        raise ValueError("window must span at least two envelope periods")
    step = 2.0 * math.pi / _PHI0_SAMPLES_PER_PERIOD
    n = int((rho_hi - rho_lo) / step) + 1
    grid = np.array([rho_lo + i * step for i in range(n)])
    mags = _envelope_ratio(grid, _inner_pair(1.0)).tolist()
    minima = []
    for i in range(1, n - 1):
        if mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]:
            # parabolic refinement of the minimum value
            y0, y1, y2 = mags[i - 1], mags[i], mags[i + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom > 0:
                delta = 0.5 * (y0 - y2) / denom
                y_min = y1 - 0.25 * (y0 - y2) * delta
            else:
                y_min = y1
            minima.append(y_min)
    if len(minima) < 3:
        raise SolverError("envelope not resolved: too few minima")
    mean = sum(minima) / len(minima)
    if not (0.0 < mean < 1.0):
        raise SolverError(f"envelope floor {mean} outside (0, 1)")
    return math.acos(mean)
