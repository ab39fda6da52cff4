"""Per-layer tracing of factorsim from outside the package.

The tracer replaces each public function of a layer with a timing
wrapper at every place the function is bound: its defining module, every
module that imported it by name (``factorsim.ensemble.is_prime``,
``factorsim.spectral.kummer_F``, ``factorsim.cli.density_map``, ...)
and the package namespace. A call is therefore counted however it is
looked up, and nested calls get the right parent.

Calls are aggregated per (name, parent name) as count, inclusive time
and self time (inclusive minus the time of traced children); no span is
kept per call, because ``is_prime`` alone runs about 1.6 million times in
one ``fig2`` pass.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
from time import perf_counter

# Integer-b branch radius of special.kummer_U; the module keeps it as a
# literal rather than a named constant.
_U_INTEGER_B_RADIUS = 17.5


class Tracer:
    """Per-(name, parent) call counts and times, plus counters set by observers."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: collections.Counter = collections.Counter()
        self.distinct_pi_x: set = set()
        self._stack = [[None, 0.0]]  # frames of [name, traced child seconds]

    def wrap(self, fn, name, observe=None):
        """Timing wrapper; `name` is a string or a function of (args, kwargs)."""
        namer = None if isinstance(name, str) else name
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if namer is None else namer(args, kwargs)
            stack = tracer._stack
            parent = stack[-1]
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[label + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                key = (label, parent[0])
                rec = tracer.spans.get(key)
                if rec is None:
                    rec = tracer.spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(r[0] for (n, p), r in self.spans.items()
                   if n == name and (parent is ... or p == parent))

    def incl_s(self, name: str) -> float:
        # a name nested in itself would count twice; none of the traced
        # functions call themselves
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def signature(self) -> tuple:
        """Every count the trace holds; equal across passes of equal input."""
        calls = sorted((n, p or "", r[0]) for (n, p), r in self.spans.items())
        return (tuple(calls), tuple(sorted(self.counts.items())),
                len(self.distinct_pi_x))


# ---------------------------------------------------------------------------
# what gets wrapped


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _kummer_f_regime(special, args, kwargs):
    a = complex(_arg(args, kwargs, 0, "a"))
    b = complex(_arg(args, kwargs, 1, "b"))
    az = abs(complex(_arg(args, kwargs, 2, "z")))
    if az <= special._SERIES_RADIUS:
        return "special.kummer_F.series"
    if az <= special._ASYMPT_RADIUS:
        if b.real > a.real > 0.0:
            return "special.kummer_F.integral"
        return "special.kummer_F.series"
    return "special.kummer_F.asymptotic"


def _kummer_u_regime(special, args, kwargs):
    b = complex(_arg(args, kwargs, 1, "b"))
    az = abs(complex(_arg(args, kwargs, 2, "z")))
    integer_b = b.imag == 0 and b.real == int(b.real)
    radius = _U_INTEGER_B_RADIUS if integer_b else special._U_ASYMPT_RADIUS
    if az > radius:
        return "special.kummer_U.asymptotic"
    if integer_b:
        return "special.kummer_U.log_series"
    return "special.kummer_U.connection"


def _density_mode(args, kwargs):
    return "qsieve.density_map." + _arg(args, kwargs, 2, "mode")


def _count_prime(tracer, args, result):
    if result:
        tracer.counts["primes.is_prime.hits"] += 1


def _sieve_limit(tracer, args, result):
    tracer.counts["primes.sieve.limit"] = max(tracer.counts["primes.sieve.limit"],
                                              args[0].limit)


def _count_entries(tracer, args, result):
    tracer.counts["ensemble.enumerate.entries"] += len(result)


def _record_pi_x(tracer, args, result):
    tracer.distinct_pi_x.add(args[0])


def _count_samples(tracer, args, result):
    tracer.counts["qsieve.montecarlo.samples"] += len(result.samples)


def _count_newton(tracer, args, result):
    tracer.counts["spectral.solve_energy.newton_iters"] += result.iterations
    tracer.counts["spectral.solve_energy.unconverged"] += not result.converged


def _targets():
    """(owner, attribute, name, observer) for every traced function."""
    from factorsim import cli, ensemble, primes, qsieve, special, spectral, svgplot, trap

    return [
        (primes, "is_prime", "primes.is_prime", _count_prime),
        (primes.PrimeEngine, "pi", "primes.pi", None),
        (primes.PrimeEngine, "nearest_prime", "primes.nearest_prime", None),
        (primes.PrimeTable, "__post_init__", "primes.sieve.build", _sieve_limit),
        (ensemble, "enumerate_ensemble", "ensemble.enumerate", _count_entries),
        (qsieve, "pi_approx", "qsieve.pi_approx", _record_pi_x),
        (qsieve, "riemann_R", "qsieve.riemann_R", None),
        (qsieve, "r_complex_folded", "qsieve.r_complex_folded", None),
        (qsieve, "invert_x_of_E", "qsieve.invert", None),
        (qsieve, "make_gauge", "qsieve.make_gauge", None),
        (qsieve, "montecarlo_spectrum", "qsieve.montecarlo", _count_samples),
        (qsieve, "density_map", _density_mode, None),
        (qsieve, "compare_densities", "qsieve.compare", None),
        (special, "kummer_F", functools.partial(_kummer_f_regime, special), None),
        (special, "kummer_U", functools.partial(_kummer_u_regime, special), None),
        (spectral, "solve_energy", "spectral.solve_energy", _count_newton),
        (spectral, "solve_d", "spectral.solve_d", None),
        (spectral, "wavefunction", "spectral.wavefunction", None),
        (spectral, "wavefunction_zeros", "spectral.wavefunction_zeros", None),
        (spectral, "extract_phi0", "spectral.extract_phi0", None),
        (trap, "plan_trap", "trap.plan_trap", None),
        (trap, "zero_match_report", "trap.zero_match_report", None),
        (trap, "trap_wavefunction_zeros", "trap.trap_wavefunction_zeros", None),
        (trap, "trap_wavefunction", "trap.trap_wavefunction", None),
        (cli, "run", "cli.run", None),
        (svgplot, "scatter_svg", "svgplot", None),
        (svgplot, "heatmap_svg", "svgplot", None),
        (svgplot, "curves_svg", "svgplot", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every target at each module attribute bound to it."""
    targets = _targets()  # imports every layer before the bindings are scanned
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "factorsim" or n.startswith("factorsim.")]
    for owner, attr, name, observe in targets:
        if inspect.isclass(owner):
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))
            continue
        original = inspect.unwrap(getattr(owner, attr))
        wrapped = {}
        for module in modules:
            for key, value in list(vars(module).items()):
                if callable(value) and inspect.unwrap(value) is original:
                    if id(value) not in wrapped:
                        wrapped[id(value)] = tracer.wrap(value, name, observe)
                    setattr(module, key, wrapped[id(value)])


# ---------------------------------------------------------------------------
# per-layer metrics

# end-to-end metric each layer should move, by metric-name prefix
MOVES = {
    "primes.": "fig2 wall_s",
    "ensemble.": "fig2 wall_s",
    "qsieve.": "fig2 wall_s, roundtrip wall_s and inversion_p50_ms; "
               "rejections and misses move error_rate",
    "special.": "spectral wall_s",
    "spectral.": "spectral wall_s",
    "trap.": "spectral wall_s",
    "cli.": "fig2 wall_s, spectral wall_s",
    "svgplot.": "fig2 wall_s, spectral wall_s",
    "trace.": "none (cost of tracing itself)",
}


def moves(metric: str) -> str:
    return next(v for k, v in MOVES.items() if metric.startswith(k))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Metric name -> value for one traced pass."""
    c = tr.counts
    m: dict[str, float] = {}
    calls = tr.calls("primes.is_prime")
    m["primes.is_prime.calls"] = calls
    m["primes.is_prime.hit_frac"] = _ratio(c["primes.is_prime.hits"], calls)
    m["primes.is_prime.self_s"] = tr.self_s("primes.is_prime")
    m["primes.pi.calls"] = tr.calls("primes.pi")
    m["primes.pi.self_s"] = tr.self_s("primes.pi")
    m["primes.nearest_prime.calls"] = tr.calls("primes.nearest_prime")
    m["primes.sieve.builds"] = tr.calls("primes.sieve.build")
    m["primes.sieve.limit"] = c["primes.sieve.limit"]
    m["primes.sieve.build_s"] = tr.incl_s("primes.sieve.build")

    entries = c["ensemble.enumerate.entries"]
    m["ensemble.enumerate.calls"] = tr.calls("ensemble.enumerate")
    m["ensemble.enumerate.entries"] = entries
    m["ensemble.enumerate.self_s"] = tr.self_s("ensemble.enumerate")
    m["ensemble.candidates_per_entry"] = _ratio(
        tr.calls("primes.is_prime", "ensemble.enumerate"), entries)

    pi_calls = tr.calls("qsieve.pi_approx")
    inversions = tr.calls("qsieve.invert")
    m["qsieve.pi_approx.calls"] = pi_calls
    m["qsieve.pi_approx.distinct_frac"] = _ratio(len(tr.distinct_pi_x), pi_calls)
    m["qsieve.pi_approx.self_s"] = tr.self_s("qsieve.pi_approx")
    m["qsieve.riemann_R.self_s"] = tr.self_s("qsieve.riemann_R")
    m["qsieve.r_complex_folded.self_s"] = tr.self_s("qsieve.r_complex_folded")
    m["qsieve.invert.calls"] = inversions
    m["qsieve.invert.pi_calls_per_call"] = _ratio(
        tr.calls("qsieve.pi_approx", "qsieve.invert"), inversions)
    m["qsieve.invert.self_s"] = tr.self_s("qsieve.invert")
    m["qsieve.make_gauge.calls"] = tr.calls("qsieve.make_gauge")
    m["qsieve.gauge_rejections"] = c["qsieve.make_gauge.raised.GaugeError"]
    m["qsieve.bracket_misses"] = c["qsieve.invert.raised.BracketError"]
    m["qsieve.montecarlo.samples"] = c["qsieve.montecarlo.samples"]
    m["qsieve.montecarlo.s"] = tr.incl_s("qsieve.montecarlo")
    m["qsieve.density_map.quantum_s"] = tr.incl_s("qsieve.density_map.quantum")
    m["qsieve.density_map.classical_s"] = tr.incl_s("qsieve.density_map.classical")
    m["qsieve.compare.s"] = tr.incl_s("qsieve.compare")

    for fn, regimes in (("kummer_F", ("series", "integral", "asymptotic")),
                        ("kummer_U", ("connection", "log_series", "asymptotic"))):
        for regime in regimes:
            name = f"special.{fn}.{regime}"
            m[name + ".calls"] = tr.calls(name)
            m[name + ".self_s"] = tr.self_s(name)

    m["spectral.solve_energy.calls"] = tr.calls("spectral.solve_energy")
    m["spectral.solve_energy.newton_iters"] = c["spectral.solve_energy.newton_iters"]
    m["spectral.solve_energy.unconverged"] = c["spectral.solve_energy.unconverged"]
    m["spectral.solve_d.calls"] = tr.calls("spectral.solve_d")
    m["spectral.wavefunction.calls"] = tr.calls("spectral.wavefunction")
    m["spectral.wavefunction_zeros.s"] = tr.incl_s("spectral.wavefunction_zeros")
    m["spectral.extract_phi0.s"] = tr.incl_s("spectral.extract_phi0")

    m["trap.plan_trap.s"] = tr.incl_s("trap.plan_trap")
    m["trap.zero_match_report.s"] = tr.incl_s("trap.zero_match_report")
    m["trap.trap_wavefunction_zeros.s"] = tr.incl_s("trap.trap_wavefunction_zeros")
    m["trap.trap_wavefunction.calls"] = tr.calls("trap.trap_wavefunction")

    m["cli.self_s"] = tr.self_s("cli.run")
    m["svgplot.s"] = tr.incl_s("svgplot")
    return m
