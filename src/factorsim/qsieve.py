"""Gauge machinery, Riemann explicit-formula counting, and the quantum sieve.

A gauge G fixes the classical bound B_G and the prepared-state boundary
q_G; each gauge carries k_m stationary levels E_k. Monte-Carlo sampling
over the sqrt(N) window plus the truncated-explicit-formula inversion
x(E) produces the (E, x) probability maps that the classical ensemble
enumeration is compared against.

pi~ has one evaluator, `pi_approx_many`, over a 1-D array of x; the
scalar `pi_approx` is a one-element call of it, and every element of a
batch equals the scalar value bit for bit. The inversion objective takes
an array (one scan grid, or one lockstep halving over every live
bracket), evaluated with one `pi_approx_many` call over the xs and N/xs
together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from . import spectral
from .ensemble import ensemble_columns
from .primes import PI_LOWER_BOUND_FROM, PrimeEngine, pi_lower_bound
from .roots import bisect_lanes, grid_roots

E_MAX_DEFAULT = 9.0 / 8.0
_FIRST_ZERO = 14.134725

# relative bracket width at which x(E) bisection stops
INVERT_REL_TOL = 1e-6
# half-width of the first `near=` scan of x(E), relative to `near`
_NEAR_WINDOW = 0.005


class GaugeError(ValueError):
    """Gauge rejected: an invariant (scale separation) failed."""


class BracketError(ArithmeticError):
    """Inversion target not attainable on the search interval."""


# ---------------------------------------------------------------------------
# zeta zeros


@dataclass(frozen=True)
class ZetaZerosTable:
    heights: tuple

    def __post_init__(self):
        h = self.heights
        if len(h) < 1:
            raise ValueError("empty zeros table")
        if abs(h[0] - _FIRST_ZERO) > 1e-6:
            raise ValueError(f"first zero {h[0]} does not match {_FIRST_ZERO}")
        if any(b <= a for a, b in zip(h, h[1:])):
            raise ValueError("zero heights must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.heights)

    @functools.cached_property
    def sigmas(self) -> np.ndarray:
        """The heights as a read-only float array, built once per table."""
        a = np.array(self.heights, dtype=float)
        a.flags.writeable = False
        return a

    @classmethod
    def from_file(cls, path) -> "ZetaZerosTable":
        with open(path) as fh:
            heights = tuple(float(line) for line in fh if line.strip())
        return cls(heights)

    @classmethod
    def bundled(cls) -> "ZetaZerosTable":
        ref = resources.files("factorsim.data").joinpath("zeta_zeros.txt")
        with resources.as_file(ref) as path:
            return cls.from_file(path)


# ---------------------------------------------------------------------------
# gauges


@dataclass(frozen=True)
class GaugeConfig:
    N: float
    j: int
    G: float
    B_G: int
    q_G: float
    chi: float
    lam: float
    k_m: float


def make_gauge(N, G: float, engine: PrimeEngine, j: int = 0) -> GaugeConfig:
    """Populate a gauge: classical bound B_G, boundary q_G, chi, lambda, k_m.

    B_G is the prime closest to (3/8) N^(1/3) (log sqrt N)^G and
    q_G = N^(1/6) / (log sqrt N)^G. N may be a float (the Monte-Carlo
    step feeds perturbed sqrt(N')^2 values).
    """
    if N < 1e4:
        raise GaugeError("gauge needs N >= 1e4")
    if G < 0:
        raise GaugeError("gauge exponent must be >= 0")
    log_sqrt = 0.5 * math.log(N)
    B_G = engine.nearest_prime(0.375 * N ** (1.0 / 3.0) * log_sqrt**G)
    q_G = N ** (1.0 / 6.0) / log_sqrt**G
    lam = q_G * q_G / math.sqrt(N)
    k_m = 1.5 * math.pi * log_sqrt ** (3.0 * G)
    if not B_G < math.sqrt(N) / 10.0:
        raise GaugeError(f"B_G = {B_G} not << sqrt(N)")
    if not lam < 0.1:
        raise GaugeError(f"lambda = {lam:.3g} not << 1")
    if not k_m > 0.0:
        raise GaugeError("k_m must be positive")
    chi = -q_G * q_G + math.log(q_G)
    return GaugeConfig(N=N, j=j, G=G, B_G=B_G, q_G=q_G, chi=chi, lam=lam, k_m=k_m)


def qm_of_k(gauge: GaugeConfig, k: int) -> float:
    """Boundary for the k-th transition: q_G + (2/3) lambda k."""
    if abs(k) > gauge.k_m + 1:
        raise ValueError(f"|k| = {abs(k)} beyond k_m = {gauge.k_m:.3f}")
    return gauge.q_G + (2.0 / 3.0) * gauge.lam * k


def energy_levels(gauge: GaugeConfig) -> list[tuple[int, float]]:
    """Levels E_k = 1 + (k/k_m)(2 pi / log q_G), k = 0..floor(k_m), E <= E_MAX_DEFAULT."""
    spacing = 2.0 * math.pi / (gauge.k_m * math.log(gauge.q_G))
    out = []
    for k in range(int(gauge.k_m) + 1):
        E = 1.0 + k * spacing
        if E > E_MAX_DEFAULT:
            break
        out.append((k, E))
    return out


def exact_energy_levels(gauge: GaugeConfig) -> list[tuple[int, float]]:
    """Level family solved exactly at the boundaries q_m(k), k = 0..floor(k_m) + 1.

    The k = 0 level anchors at q_G from guess 1; each next guess chains
    from the previous root shifted by the first-order spacing, which
    keeps every solve inside its own basin. The ladder stops at the first
    solve that does not converge.
    """
    spacing = 2.0 * math.pi / (gauge.k_m * math.log(gauge.q_G))
    sol = spectral.solve_energy(gauge.q_G, 1.0)
    levels = [(0, sol.E)]
    for k in range(1, int(gauge.k_m) + 2):
        sol = spectral.solve_energy(qm_of_k(gauge, k), levels[-1][1] + spacing)
        if not sol.converged:
            break
        levels.append((k, sol.E))
    return levels


def measurements_budget(N) -> int:
    """Default sample budget ceil((log sqrt(N))^3); cubic in digit count."""
    if N < math.e**2:
        raise ValueError("budget needs N >= e^2")
    return math.ceil((0.5 * math.log(N)) ** 3)


# ---------------------------------------------------------------------------
# Riemann prime-counting approximations


def _zeta_int(k: int) -> float:
    """zeta(k) for integer k >= 2 (Euler-Maclaurin)."""
    N = 20
    s = sum(n ** (-float(k)) for n in range(1, N))
    s += N ** (1.0 - k) / (k - 1.0) + 0.5 * N ** (-float(k))
    s += k * N ** (-k - 1.0) / 12.0
    s -= k * (k + 1) * (k + 2) * N ** (-k - 3.0) / 720.0
    return s


# Gram-series coefficients 1 / (n zeta(n+1)), n = 1..192
_GRAM_ZINV = np.array([1.0 / (n * _zeta_int(n + 1)) for n in range(1, 193)])
_GRAM_N = np.arange(1.0, _GRAM_ZINV.size + 1.0)
# the last Gram term must fall below this fraction of R(x)
GRAM_TAIL = 1e-12


def riemann_R(x: float | np.ndarray) -> float | np.ndarray:
    """Gram series R(x) = 1 + sum_n (log x)^n / (n n! zeta(n+1)).

    All terms are positive for x > 1, so the sum is stable; the tail is
    bounded by the last of the 192 terms, which must stay below
    GRAM_TAIL times the total. Supports x up to ~1e12 (log x ~ 28, well
    inside the term budget) in double precision. R(1) = 1 exactly. A 1-D
    ndarray of x gives the array of R(x) in one pass; a float x gives a
    float, from a one-element array.
    """
    if not isinstance(x, np.ndarray):
        return float(riemann_R(np.array([x], dtype=float))[0])
    xs = x.tolist()
    if min(xs, default=1.0) < 1.0:
        raise ValueError("riemann_R needs x >= 1")
    # math.log, not np.log, which may differ in the last place
    logs = np.array([[math.log(v)] for v in xs])
    adds = np.cumprod(logs / _GRAM_N, axis=1) * _GRAM_ZINV
    total = 1.0 + adds.sum(axis=1)
    for v, last, t in zip(xs, adds[:, -1].tolist(), total.tolist()):
        if last > GRAM_TAIL * t:
            raise ArithmeticError(f"Gram series tail bound {GRAM_TAIL} not reached for x={v}")
    return total


def _mobius_upto(M: int) -> list[int]:
    mu = [1] * (M + 1)
    primes = []
    is_comp = [False] * (M + 1)
    for i in range(2, M + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > M:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


_MU = _mobius_upto(64)


def _ei_fixed_depth(w: np.ndarray) -> np.ndarray:
    """The |w| >= 20 branch of `_ei_asymptotic`: Horner over sum_k k!/w^k, k <= 12."""
    inv = 1.0 / w
    s = 1.0 + 12.0 * inv
    for k in range(11, 0, -1):
        s = 1.0 + (k * inv) * s
    return np.exp(w) * inv * s


def _ei_asymptotic(w: np.ndarray) -> np.ndarray:
    """Ei(w) ~ e^w / w * sum_k k!/w^k, optimally truncated, vectorized.

    Intended for |w| >~ 6 (the explicit-formula corrections always have
    |w| >= first_zero * log(x)/m there); relative accuracy improves like
    e^{-|w|}. Elements with |w| >= 20 take a fixed-depth Horner sum
    (truncation error <= 13!/20^13 ~ 8e-8 relative, usually far less);
    smaller ones fall back to the per-element optimal truncation.

    Off the real axis the full Ei carries an extra i*pi*sign(Im w) that
    this expansion drops; it is purely imaginary and cancels exactly
    under the conjugate-pair folding every caller here applies.
    """
    w = np.asarray(w, dtype=complex)
    big = np.abs(w) >= 20.0
    n_big = np.count_nonzero(big)
    if n_big == w.size:
        return _ei_fixed_depth(w)
    out = np.empty_like(w)
    if n_big:
        out[big] = _ei_fixed_depth(w[big])
    small = ~big
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


def _moebius_terms(logx: float, min_abs_z: float) -> tuple:
    """The m of the Moebius-li expansion at log x (see r_complex_folded)."""
    M = max(1, int(logx / (2.0 * math.log(2.0))))
    min_abs_s = min_abs_z * logx
    ms = tuple(m for m in range(1, M + 1) if _MU[m] != 0 and min_abs_s / m >= 6.0)
    return ms or (1,)


def r_complex_folded(x: float | np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """2 Re R(x^rho) for rho = 1/2 + i sigma, via the Moebius-li expansion.

    R at complex argument is evaluated as sum_m mu(m)/m li(x^{rho/m});
    the direct complex Gram series cancels catastrophically in double
    precision once |rho log x| >~ 40, while this path is stable. The
    truncation (m while x^{1/(2m)} >= 2 and |s|/m large enough for the
    asymptotic Ei) was validated against sieve counts. Conjugate zeros
    are folded so the result is real by construction.

    A float x gives one value per sigma; a 1-D ndarray of x gives one row
    per x. The xs that share their list of m go through `_ei_asymptotic`
    as one (x, m, sigma) block, summed over m in order, so each row equals
    the float result bit for bit.
    """
    if not isinstance(x, np.ndarray):
        return r_complex_folded(np.array([x], dtype=float), sigmas)[0]
    sigmas = np.asarray(sigmas, dtype=float)
    logs = [math.log(v) for v in x.tolist()]
    z = 0.5 + 1j * sigmas
    min_abs_z = math.hypot(0.5, float(sigmas.min()))
    groups: dict[tuple, list] = {}
    for i, logx in enumerate(logs):
        groups.setdefault(_moebius_terms(logx, min_abs_z), []).append(i)
    if len(groups) == 1:
        [ms] = groups
        return _folded_block(z, logs, ms)
    out = np.empty((len(logs), sigmas.size))
    for ms, rows in groups.items():
        out[rows] = _folded_block(z, [logs[i] for i in rows], ms)
    return out


def _folded_block(z: np.ndarray, logs: list, ms: tuple) -> np.ndarray:
    """Rows of r_complex_folded for the log xs that share one list of m."""
    s = z * np.array([[logx] for logx in logs])  # (n_x, n_zeros)
    w = s[:, None, :] / np.array(ms, dtype=float)[:, None]  # (n_x, n_m, n_zeros)
    coef = np.array([_MU[m] / m for m in ms])
    total = (coef[:, None] * _ei_asymptotic(w)).sum(axis=1)
    return 2.0 * total.real


def pi_approx_many(xs: np.ndarray, zeros: ZetaZerosTable, T: int) -> np.ndarray:
    """pi~(x) = R(x) - sum_{k<=T} R(x^{rho_k}) for every x of a 1-D array.

    The one pi~ evaluator: `riemann_R` and `r_complex_folded` each take
    the whole array in one call, and every element equals the scalar
    `pi_approx` of it bit for bit, whatever else is in the batch.
    """
    xs = np.asarray(xs, dtype=float)
    if min(xs.tolist(), default=2.0) < 2.0:
        raise ValueError("pi_approx needs x >= 2")
    if T < 0:
        raise ValueError(f"T = {T} must be >= 0")
    if T > zeros.count:
        raise ValueError(f"T = {T} exceeds table size {zeros.count}")
    r = riemann_R(xs)
    if T == 0:
        return r
    return r - r_complex_folded(xs, zeros.sigmas[:T]).sum(axis=1)


def pi_approx(x: float, zeros: ZetaZerosTable, T: int) -> float:
    """pi(x) ~ R(x) - sum_{k<=T} R(x^{rho_k}), conjugate pairs folded.

    A one-element call of `pi_approx_many`.
    """
    return float(pi_approx_many(np.array([x], dtype=float), zeros, T)[0])


def inversion_objective(N: float, j: int, zeros: ZetaZerosTable, T: int) -> Callable:
    """g(x) = pi~(x) pi~(N/x) / j^2, the E that x(E) inversion inverts.

    g takes a 1-D ndarray of x and gives the array of E, with one
    `pi_approx_many` call over the xs and the N/xs together. g does not
    depend on E, so one g serves every inversion at the same (N, j, T),
    and `invert_global` evaluates it once per distinct x of each of its
    calls. j enters only as j^2, so a j below 1 is rejected here rather
    than read as |j| or as 0.
    """
    if j < 1:
        raise ValueError(f"j = {j} must be >= 1")
    j2 = float(j) * float(j)

    def g(x: np.ndarray) -> np.ndarray:
        p = pi_approx_many(np.concatenate((x, N / x)), zeros, T)
        return p[:x.size] * p[x.size:] / j2

    return g


def invert_x_of_E(
    E: float,
    N: float,
    j: int,
    zeros: ZetaZerosTable,
    T: int,
    near: float | None = None,
) -> float:
    """Solve E = pi~(x) pi~(N/x) / j^2 for x by bracketed bisection.

    pi~ is the T-truncated explicit-formula approximation. The smooth
    part of the objective decreases with x; the eta oscillations make it
    locally non-monotone, which is why bisection (not Newton) is used --
    and why, at desk scale, the equation can have several roots spread
    over a few percent of x. The global bracket returns one of them
    deterministically (the probabilistic sieve reading); it is a one-E
    call of `invert_global`. Passing `near` scans 17 points of
    near*(1 +- 0.005), narrowed by thirds until a root shows, and returns
    the root closest to `near` (the first in x on a tie), to certify a
    known root; each scan grid is one array call of the objective and goes
    through `roots.grid_roots(near=)`, which bisects only the sign changes
    whose root can be the closest: none when a sample is exactly on the
    root at `near`.
    On both paths a sample where the objective is exactly E is a root, and
    a sign change is bisected to a relative width of INVERT_REL_TOL.
    Raises BracketError when no root shows.
    """
    g = inversion_objective(N, j, zeros, T)
    if near is None:
        x, fs, _, _ = invert_global(np.array([E], dtype=float), N, g)
        if math.isnan(x[0]):
            lo, hi = _global_bracket(N).tolist()
            f_lo, f_hi = fs[0].tolist()
            raise BracketError(f"E = {E} not bracketed on [{lo:.6g}, {hi:.6g}] "
                               f"(f = {f_lo:.3g}, {f_hi:.3g})")
        return float(x[0])

    def f(x: np.ndarray) -> np.ndarray:
        return g(x) - E

    w = _NEAR_WINDOW
    for _ in range(6):
        xs = np.linspace(near * (1.0 - w), min(near * (1.0 + w), math.sqrt(N)), 17)
        # the eta oscillations can put a second root inside the window
        roots = grid_roots(f, xs, f(xs), rtol=INVERT_REL_TOL, near=near)
        if roots:
            return roots[0]
        w /= 3.0
    raise BracketError(f"no sign change around {near:.6g} down to +-{w:.2g}")


def _global_bracket(N: float) -> np.ndarray:
    return np.array([max(N ** 0.25, 2.01), math.sqrt(N)])


def invert_global(Es: np.ndarray, N: float, g: Callable,
                  settled: Callable | None = None) -> tuple:
    """x(E) on the global bracket [max(N^(1/4), 2.01), sqrt N] for every E
    of a 1-D array, in lockstep: (x, f, capped, points).

    g is `inversion_objective(N, j, zeros, T)`. Both ends are evaluated
    once for all E, and f[i] = g(ends) - Es[i]. As `grid_roots` does on
    two samples, an end where f is exactly 0.0 is the root, the lower end
    first; a strict sign change is bisected to a relative width of
    INVERT_REL_TOL; otherwise x[i] is NaN. The bisections run through
    `roots.bisect_lanes`, each halving one call of g over the distinct
    midpoints of every live lane, so x[i] equals a lone bisection of E[i]
    bit for bit unless `settled`, passed on to `bisect_lanes`, stops it
    earlier. `capped` flags the lanes that ran out of halvings, and
    `points` counts the x passed to g. With no E, g is not called.
    """
    if Es.size == 0:
        return np.empty(0), np.empty((0, 2)), np.zeros(0, dtype=bool), 0
    ends = _global_bracket(N)
    f = g(ends) - Es[:, None]
    x = np.full(Es.size, np.nan)
    x[f[:, 1] == 0.0] = ends[1]
    x[f[:, 0] == 0.0] = ends[0]
    capped = np.zeros(Es.size, dtype=bool)
    lanes = np.flatnonzero(f[:, 0] * f[:, 1] < 0.0)
    points = ends.size

    def f_mid(mid: np.ndarray, live: np.ndarray) -> np.ndarray:
        # every lane halves in step from the same bracket, so the lanes of
        # one halving share midpoints and those of two halvings do not
        nonlocal points
        keys = mid.tolist()
        values = dict.fromkeys(keys)
        values.update(zip(values, g(np.array(list(values))).tolist()))
        points += len(values)
        return np.array([values[k] for k in keys]) - Es[lanes[live]]

    x[lanes], capped[lanes] = bisect_lanes(f_mid, ends[0], ends[1], f[lanes, 0],
                                           INVERT_REL_TOL, settled)
    return x, f, capped, points


# ---------------------------------------------------------------------------
# Monte-Carlo spectrum


@dataclass(frozen=True)
class MonteCarloConfig:
    samples: int | None = None  # None -> measurements_budget(N)
    rng_seed: int = 0
    T: int = 100


@dataclass(frozen=True)
class SpectrumSample:
    E: float
    x: float
    k: int
    G: float
    xi: float


@dataclass
class MonteCarloResult:
    """Samples of one run plus deterministic counts of what it did.

    A gauge rejection drops a whole (draw, G) pair; a bracket miss drops
    one level whose E the global bracket does not straddle. A capped
    bisection is a level whose bisection ran out of its 200 halvings; its
    sample is kept, at the midpoint of the last bracket. `objective_points`
    counts the distinct x at which the inversion objective was evaluated,
    each once: pi~ ran at twice as many points, x and N/x.
    """

    samples: list
    budget: int
    gauge_rejections: int
    bracket_misses: int
    capped_bisections: int
    objective_points: int

    @property
    def failed_inversions(self) -> int:
        return self.gauge_rejections + self.bracket_misses


DEFAULT_G_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def montecarlo_spectrum(
    N: int,
    j: int,
    G_list,
    mc: MonteCarloConfig,
    zeros: ZetaZerosTable,
    engine: PrimeEngine,
    first_draw: int = 0,
    settled: Callable | None = None,
) -> MonteCarloResult:
    """Sample sqrt(N') uniformly in +-log sqrt(N), emit levels, invert to x.

    Per-draw RNG substreams are derived from (seed, draw index), so any
    parallel split over draws (expressed through `first_draw` slices)
    reproduces the serial output bit for bit. Every (draw, G, k, E) is
    listed first, in that order; then all of them are inverted in
    lockstep on the global bracket (`invert_global`). Each halving is one
    objective call over the distinct midpoints of every level still
    bisecting, and each x equals a lone `invert_x_of_E(E, N, j, zeros, T)`
    bit for bit unless `settled`, passed on to `invert_global`, stops its
    bisection earlier.
    """
    sqrt_n = math.sqrt(N)
    log_sqrt = math.log(sqrt_n)
    budget = mc.samples if mc.samples is not None else measurements_budget(N)
    if budget < 0:
        raise ValueError(f"samples = {budget} must be >= 0")
    objective = inversion_objective(float(N), j, zeros, mc.T)
    levels = []
    gauge_rejections = 0
    for i in range(first_draw, budget):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=mc.rng_seed, spawn_key=(i,)))
        xi = float(rng.uniform(-1.0, 1.0))
        sqrt_np = sqrt_n + xi * log_sqrt
        n_prime = sqrt_np * sqrt_np
        for G in G_list:
            try:
                gauge = make_gauge(n_prime, G, engine, j=j)
            except GaugeError:
                gauge_rejections += 1
                continue
            for k, E in energy_levels(gauge):
                levels.append((1.0 + 1e-12 if E <= 1.0 else E, k, G, xi))
    xs, _, capped, points = invert_global(np.array([lv[0] for lv in levels]), float(N),
                                          objective, settled)
    out = [SpectrumSample(E=E, x=x, k=k, G=G, xi=xi)
           for (E, k, G, xi), x in zip(levels, xs.tolist()) if not math.isnan(x)]
    return MonteCarloResult(samples=out, budget=budget,
                            gauge_rejections=gauge_rejections,
                            bracket_misses=len(levels) - len(out),
                            capped_bisections=int(capped.sum()),
                            objective_points=points)


# ---------------------------------------------------------------------------
# density maps


@dataclass(frozen=True)
class DensityMap:
    e_edges: np.ndarray
    x_edges: np.ndarray
    mass: np.ndarray  # shape (nE, nx), sums to 1
    mode: str
    points: int

    def same_binning(self, other: "DensityMap") -> bool:
        return (
            self.e_edges.shape == other.e_edges.shape
            and self.x_edges.shape == other.x_edges.shape
            and np.allclose(self.e_edges, other.e_edges)
            and np.allclose(self.x_edges, other.x_edges)
        )


class DensityError(RuntimeError):
    pass


def _uniform_bins(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each v for uniform (linspace) edges: bin i holds edges[i] <=
    v < edges[i + 1], the last bin also edges[-1], as in np.histogram2d;
    -1 below the edges and n above them, so the bin never falls as v grows.

    The bin is computed by arithmetic, then moved by one where rounding
    left v below edges[i] or at or above edges[i + 1] (np.histogram's rule
    for uniform bins), so no edge is searched.
    """
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    i = ((np.clip(v, lo, hi) - lo) / (hi - lo) * n).astype(np.intp)
    i[i == n] = n - 1
    i[v < edges[i]] -= 1
    i[(v >= edges[i + 1]) & (i != n - 1)] += 1
    i[v > hi] = n
    return i


def _bin_settled(x_edges: np.ndarray) -> Callable:
    """settled(lo, hi) for `bisect_lanes`: [lo, hi] lies below the x window,
    where `_histogram2d` drops x, or in one bin (bins never fall as x grows)."""
    return lambda lo, hi: _uniform_bins(lo, x_edges) == _uniform_bins(hi, x_edges)


def _histogram2d(es, xs, e_edges, x_edges, mode, weights=None) -> DensityMap:
    """np.histogram2d(es, xs, bins=[e_edges, x_edges], weights=weights),
    normalized; both edge arrays are uniform. `points` sums the integer
    weights (1 per sample by default)."""
    e, x = np.asarray(es, dtype=float), np.asarray(xs, dtype=float)
    inside = (e >= e_edges[0]) & (e <= e_edges[-1]) & (x >= x_edges[0]) & (x <= x_edges[-1])
    e, x = e[inside], x[inside]
    nx = x_edges.size - 1
    cell = _uniform_bins(e, e_edges) * nx + _uniform_bins(x, x_edges)
    w = None if weights is None else weights[inside]
    h = np.bincount(cell, w, minlength=(e_edges.size - 1) * nx).reshape(-1, nx)
    total = int(h.sum())
    if total <= 0:
        raise DensityError("no points fell inside the binning window")
    return DensityMap(e_edges=e_edges, x_edges=x_edges, mass=h / total, mode=mode,
                      points=len(es) if weights is None else int(weights.sum()))


def _first_binnable_x(j: int, x_lo: int, engine: PrimeEngine) -> int:
    """First prime x >= x_lo (else x_lo) whose j-ensemble column may hold
    E <= 9/8: column x reads y >= ceil(p_j^2/x), so it is empty when
    pi(ceil(p_j^2/x) - 1) >= floor(9j^2/(8 pi(x))), which `pi_lower_bound`
    shows with a margin of 1."""
    pj = engine.nth_prime(j)
    xs = engine.table.primes_between(x_lo, pj)
    pix = engine.table.pi_many(xs)
    y = np.divmod(pj * pj - 1, xs)[0].astype(float)  # ceil(p_j^2/x) - 1
    floor_k = np.divmod(9 * j * j, 8 * pix)[0]
    empty = (y >= PI_LOWER_BOUND_FROM) & (pi_lower_bound(y) - 1.0 >= floor_k)
    kept = xs[~empty]
    return int(kept[0]) if kept.size else x_lo


def density_map(
    N: int,
    j: int,
    mode: str,
    engine: PrimeEngine,
    zeros: ZetaZerosTable | None = None,
    bins: tuple[int, int] = (40, 40),
    mc: MonteCarloConfig | None = None,
) -> DensityMap:
    """Normalized 2D histogram over (E, x) on (1, E_MAX_DEFAULT) x (B_G, sqrt N).

    B_G is the classical bound of the G = 0 gauge; both modes bin alike.
    The quantum map samples the gauges of DEFAULT_G_GRID, each x(E)
    bisected until its bin is settled (`_bin_settled`). The classical map
    reads `ensemble_columns` from `_first_binnable_x(j, B_G)`: a column
    whose first and last E share a bin is one point weighted by its pair
    count. `points` counts the samples, or the pairs of the columns read.
    """
    if min(bins) < 1:
        raise ValueError(f"bins = {bins} must be >= 1")
    B_G = make_gauge(N, 0.0, engine, j=j).B_G
    e_edges = np.linspace(1.0, E_MAX_DEFAULT, bins[0] + 1)
    x_edges = np.linspace(float(B_G), math.sqrt(N), bins[1] + 1)

    if mode == "classical":
        x, pix, _, _, piy, n = ensemble_columns(j, _first_binnable_x(j, B_G, engine), None, engine)
        if not n.any():
            raise DensityError("classical ensemble empty in the window")
        # exact doubles below 2^53: each E is float(Fraction(pix * piy, j * j)), rising with piy
        jj = float(j * j)
        ends = _uniform_bins(pix * np.stack([piy, piy + n - 1]) / jj, e_edges)
        split = ends[0] != ends[1]
        reps = np.where(split, n, 1)  # a split column's pairs, else one point
        col = np.repeat(np.arange(n.size), reps)
        es = (pix[col] * (piy[col] + np.arange(col.size) - (np.cumsum(reps) - reps)[col])) / jj
        return _histogram2d(es, x[col], e_edges, x_edges, "classical", np.where(split, 1, n)[col])

    if mode == "quantum":
        if zeros is None:
            raise DensityError("quantum mode needs a zeros table")
        result = montecarlo_spectrum(N, j, DEFAULT_G_GRID, mc or MonteCarloConfig(), zeros, engine,
                                     settled=_bin_settled(x_edges))
        if not result.samples:
            raise DensityError("no successful inversions: cannot build a map")
        es = np.array([s.E for s in result.samples])
        xs = np.array([s.x for s in result.samples])
        return _histogram2d(es, xs, e_edges, x_edges, "quantum")

    raise ValueError(f"unknown mode {mode!r}")


def _rankdata(v: np.ndarray) -> np.ndarray:
    """Ranks from 1, each tie group at the mean of its ranks."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    start = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    size = np.diff(np.r_[start, sv.size])
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (2 * start + 1 + size), size)
    return ranks


def compare_densities(a: DensityMap, b: DensityMap) -> dict:
    """Spearman rank correlation, Jensen-Shannon divergence, overlap."""
    if not a.same_binning(b):
        raise DensityError("density maps use different binning")
    p = a.mass.ravel()
    q = b.mass.ravel()
    rp, rq = _rankdata(p), _rankdata(q)
    rp -= rp.mean()
    rq -= rq.mean()
    denom = math.sqrt(float(np.dot(rp, rp) * np.dot(rq, rq)))
    rank_corr = float(np.dot(rp, rq) / denom) if denom > 0 else 0.0
    m = 0.5 * (p + q)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_pm = np.where(p > 0, p * np.log2(p / m), 0.0)  # p > 0 implies m > 0
        kl_qm = np.where(q > 0, q * np.log2(q / m), 0.0)
    js = float(0.5 * kl_pm.sum() + 0.5 * kl_qm.sum())
    overlap = float(np.minimum(p, q).sum())
    return {"rank_correlation": rank_corr, "jensen_shannon": js, "overlap": overlap}
