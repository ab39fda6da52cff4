"""Software simulator of the factorization-ensemble quantum device."""

__version__ = "0.1.0"

from .ensemble import (  # noqa: F401
    EnsembleEntry,
    EnsembleQuery,
    energy,
    enumerate_ensemble,
    spectrum_points,
    sqrt_index,
)
from .primes import PrimeEngine, PrimeTable, is_prime, prime_pi_lucy  # noqa: F401
from .qsieve import (  # noqa: F401
    GaugeConfig,
    MonteCarloConfig,
    ZetaZerosTable,
    compare_densities,
    density_map,
    energy_levels,
    invert_x_of_E,
    make_gauge,
    measurements_budget,
    montecarlo_spectrum,
    pi_approx,
    qm_of_k,
    riemann_R,
)
from .spectral import (  # noqa: F401
    SpectralSolution,
    epsilon_asymptotic,
    extract_phi0,
    quantization_residual,
    solve_d,
    solve_energy,
    wavefunction,
    wavefunction_zeros,
)
from .trap import (  # noqa: F401
    TrapParameters,
    TrapPlan,
    encodable_N,
    flux_quanta,
    plan_trap,
    size_to_axial,
    to_physical,
    trap_wavefunction,
    zero_match_report,
)
