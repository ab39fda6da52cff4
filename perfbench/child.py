"""Workload process of the factorsim benchmark; run.py starts it.

    python3 perfbench/child.py setup
        Time one cold start: import factorsim, load the bundled zeta
        table, build PrimeEngine() and warm the lazy caches. Prints
        {"setup_s": ...}.

    python3 perfbench/child.py run WORKLOAD SEED SECONDS TRACE WORKDIR
        Set up as above (untimed), build the workload's inputs from SEED
        (untimed), then repeat passes over the same inputs for SECONDS and
        check every output. A pass is a fixed sequence of timed steps.
        With TRACE = 1 the untraced passes get half of SECONDS and are
        followed by two passes under the per-layer tracer. Prints one JSON
        object as its last line.

The interpreter must find factorsim under src/ of the checkout that
holds this file (run.py sets PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workload sizes. A fig2 pass costs about 4 s for the classical map plus
# about 0.3 s per draw, so the draws that a memo of pi~ would speed up are
# about a third of it; a roundtrip inversion costs about 15 ms; a
# spectral pass about 2.5 s, half of it the phi0 extraction.
#
# Passes and their steps are kept short (a step is one inversion, one part
# of the phi0 window or one density map), because wall_s takes each step
# at its fastest pass: the more passes a run holds, the likelier each step
# falls at least once wholly into a quiet stretch of the host.
FIG2_DRAWS = 8
ROUNDTRIP_INVERSIONS = 100  # each one a timed step
PHI0_WINDOW = (150.0, 475.0)
PHI0_PARTS = 8  # phi0 is extracted from each part of the window in turn
SPECTRAL_QMAX = 12.0
MIN_PASSES = 2
TRACED_PASSES = 2

# Desk-scale instance of the paper (Fig. 2 and Fig. 3).
N_DESK = 10969262131
J_DESK = 10000
T_ZEROS = 100

# Reference values. They equal criterion_09 and criterion_10 of the
# acceptance manifest, which every draw budget and seed reproduces bit for
# bit, because each draw's 23 samples land in the same 40x40 bins.
FIG2_METRICS = {
    "rank_correlation": 0.4002778800250298,
    "jensen_shannon": 0.6557837661550766,
    "overlap": 0.21259133611691022,
}
FIG2_SAMPLES_PER_DRAW = 23
FIG3_GAPS = (
    0.0118272377237858, 0.00949343296498295, 0.008118466529094093,
    0.007204163693009136, 0.006542010908464846, 0.006034403437999103,
    0.005629367196510415, 0.005296457926068143, 0.005016529801904923,
)
FIG3_GAP_TOL = 1e-9
LADDER_GAUGES = (0.0, 0.2)  # criterion 6
PHI0 = 1.11965
FIRST_ZERO = 2.82765
PAPER_TOL = 1e-3
ROUNDTRIP_J = 1000
ROUNDTRIP_REL_TOL = 1e-6


def setup():
    """Cold start every CLI call pays; returns (zeros, engine)."""
    import factorsim
    from factorsim import special

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([src, os.path.abspath(factorsim.__file__)]) != src:
        raise SystemExit(f"factorsim imported from {factorsim.__file__}, not {src}")
    zeros = factorsim.ZetaZerosTable.bundled()
    engine = factorsim.PrimeEngine()
    factorsim.pi_approx(1000.5, zeros, 1)  # Gram-series coefficients
    special.kummer_F(0.75 - 0.25j, 1.5, 20j)  # tanh-sinh nodes
    return zeros, engine


class Checks:
    """Output checks; every failure is kept and printed by run.py."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@contextlib.contextmanager
def timed(steps: list[float]):
    """Append the wall time of the block to steps."""
    t0 = time.perf_counter()
    yield
    steps.append(time.perf_counter() - t0)


def run_cli(argv: list[str]) -> int:
    from factorsim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def files_in(workdir: str) -> list[str]:
    return [os.path.join(workdir, n) for n in os.listdir(workdir)]


class Fig2:
    """CLI fig2 at j = 10000, T = 100 with FIG2_DRAWS Monte-Carlo draws."""

    def __init__(self, seed, zeros, engine, workdir):
        from factorsim import cli

        self.workdir = workdir
        self.argv = ["fig2", "--j", str(J_DESK), "--T", str(T_ZEROS),
                     "--seed", str(seed), "--samples", str(FIG2_DRAWS),
                     "--out-prefix", os.path.join(workdir, "fig2")]
        self.quantum_points: list[int] = []
        self.map_times: list[float] = []
        density_map = cli.density_map

        @functools.wraps(density_map)
        def recording(*args, **kwargs):
            t0 = time.perf_counter()
            dm = density_map(*args, **kwargs)
            self.map_times.append(time.perf_counter() - t0)
            if dm.mode == "quantum":
                self.quantum_points.append(dm.points)
            return dm

        cli.density_map = recording  # the CLI prints no sample count

    def run_pass(self, checks: Checks, steps: list[float]) -> str:
        self.quantum_points.clear()
        self.map_times.clear()
        t0 = time.perf_counter()
        code = run_cli(self.argv)
        total = time.perf_counter() - t0
        # the quantum map, the classical map and the rest of the CLI call
        steps.extend(self.map_times)
        steps.append(total - sum(self.map_times))
        checks.check(code == 0, f"fig2 exit code {code}")
        if code != 0:
            return ""
        with open(os.path.join(self.workdir, "fig2_metrics.json")) as fh:
            metrics = json.load(fh)
        for key, ref in FIG2_METRICS.items():
            got = metrics.get(key)
            checks.check(got == ref, f"fig2 {key} = {got!r}, expected {ref!r}")
        want = [FIG2_SAMPLES_PER_DRAW * FIG2_DRAWS]
        checks.check(self.quantum_points == want,
                     f"fig2 quantum samples {self.quantum_points}, expected {want}")
        return digest_files(files_in(self.workdir))


class Roundtrip:
    """x(E) inversion with the local bracket (criterion 8) on seeded entries.

    Candidates are the j = 1000 ensemble entries with x > B_G whose exact E
    and E_loop = pi~(x) pi~(N/x) / j^2 both lie in (1, 9/8). Inversion time
    changes with x in steps (about 12 ms to 19 ms on average), so the
    candidates are sorted by x and cut into ROUNDTRIP_INVERSIONS strata; the
    seed picks one entry per stratum, which keeps the work of a pass nearly
    the same for every seed. Only the inversions are timed, one by one.
    """

    def __init__(self, seed, zeros, engine, workdir):
        from factorsim import ensemble, qsieve

        self.zeros = zeros
        entries = ensemble.enumerate_ensemble(ensemble.EnsembleQuery(j=ROUNDTRIP_J), engine)
        pool = sorted((e for e in entries if 1 < e.E < Fraction(9, 8)
                       and e.x > qsieve.make_gauge(e.N, 0.0, engine, j=e.j).B_G),
                      key=lambda e: (e.x, e.N))
        rng = random.Random(seed)
        self.inputs = []
        for k in range(ROUNDTRIP_INVERSIONS):
            stratum = pool[k * len(pool) // ROUNDTRIP_INVERSIONS:
                           (k + 1) * len(pool) // ROUNDTRIP_INVERSIONS]
            rng.shuffle(stratum)
            for e in stratum:
                x = float(e.x)
                E = (qsieve.pi_approx(x, zeros, T_ZEROS)
                     * qsieve.pi_approx(e.N / x, zeros, T_ZEROS) / e.j ** 2)
                if 1.0 < E < 9.0 / 8.0:
                    self.inputs.append((E, float(e.N), e.j, x))
                    break
        self.inversions_ms: list[float] = []

    def run_pass(self, checks: Checks, steps: list[float]) -> str:
        from factorsim import qsieve

        roots = []
        for E, N, j, x in self.inputs:
            with timed(steps):
                try:
                    root = qsieve.invert_x_of_E(E, N, j, self.zeros, T_ZEROS, near=x)
                except qsieve.BracketError as exc:
                    root, error = None, str(exc)
            self.inversions_ms.append(steps[-1] * 1e3)
            if root is not None:
                rel = abs(root - x) / x
                error = f"rel. error {rel:.3e}"
            checks.check(root is not None and rel <= ROUNDTRIP_REL_TOL,
                         f"roundtrip x = {x:.0f}: {error}")
            roots.append(root)
        return repr(roots)


class Spectral:
    """CLI fig3 --svg, phi0 extraction, exact level ladders, zero scan.

    phi0 is extracted from PHI0_PARTS equal parts of PHI0_WINDOW, one
    timed step each: nearly the same grid of the reciprocal ratio as one
    call on the whole window, in steps short enough to time steadily. The
    inputs are the paper's fixed constants, so the seed changes nothing.
    """

    def __init__(self, seed, zeros, engine, workdir):
        self.engine = engine
        self.workdir = workdir
        self.csv = os.path.join(workdir, "fig3.csv")

    def run_pass(self, checks: Checks, steps: list[float]) -> str:
        from factorsim import qsieve, spectral

        with timed(steps):
            code = run_cli(["fig3", "--out", self.csv, "--svg"])
        checks.check(code == 0, f"fig3 exit code {code}")
        gaps = []
        if code == 0:
            with open(self.csv) as fh:
                gaps = [float(line.split(",")[2]) for line in fh.readlines()[1:]]
        checks.check(len(gaps) == len(FIG3_GAPS),
                     f"fig3 {len(gaps)} zero pairs, expected {len(FIG3_GAPS)}")
        for k, (got, ref) in enumerate(zip(gaps, FIG3_GAPS)):
            checks.check(abs(got - ref) <= FIG3_GAP_TOL,
                         f"fig3 pair {k} gap {got!r}, expected {ref!r}")

        lo, hi = PHI0_WINDOW
        width = (hi - lo) / PHI0_PARTS
        phi0s = []
        for k in range(PHI0_PARTS):
            with timed(steps):
                phi0 = spectral.extract_phi0(lo + k * width, lo + (k + 1) * width)
            checks.check(abs(phi0 - PHI0) <= PAPER_TOL,
                         f"phi0 = {phi0!r} on part {k} of {PHI0_WINDOW}")
            phi0s.append(phi0)

        ladders = []
        for G in LADDER_GAUGES:
            with timed(steps):
                gauge = qsieve.make_gauge(N_DESK, G, self.engine, j=J_DESK)
                levels = qsieve.exact_energy_levels(gauge)
            # a Newton step that fails to converge cuts the ladder short
            checks.check(len(levels) == int(gauge.k_m) + 2,
                         f"G = {G}: ladder cut at {len(levels)} levels")
            period = 2.0 * math.pi / math.log(gauge.q_G)
            count = sum(1 for _, E in levels if 1.0 < E <= 1.0 + period)
            checks.check(abs(count - int(gauge.k_m)) <= 1,
                         f"G = {G}: {count} levels in one period, "
                         f"floor(k_m) = {int(gauge.k_m)}")
            ladders.append(levels)

        with timed(steps):
            zs = spectral.wavefunction_zeros(1.0, SPECTRAL_QMAX)
        checks.check(bool(zs) and abs(zs[0] - FIRST_ZERO) <= PAPER_TOL,
                     f"first zero {zs[:1]}")
        return digest_files(files_in(self.workdir)) + repr((phi0s, ladders, zs))


WORKLOADS = {"fig2": Fig2, "roundtrip": Roundtrip, "spectral": Spectral}
SIZES = {
    "fig2": {"draws": FIG2_DRAWS, "j": J_DESK, "T": T_ZEROS, "bins": 40},
    "roundtrip": {"inversions": ROUNDTRIP_INVERSIONS, "j": ROUNDTRIP_J, "T": T_ZEROS},
    "spectral": {"q_max": SPECTRAL_QMAX, "phi0_window": list(PHI0_WINDOW),
                 "phi0_parts": PHI0_PARTS, "G": list(LADDER_GAUGES)},
}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import numpy  # already imported by factorsim; only its version is read

    zeros, engine = setup()
    wl = WORKLOADS[workload](seed, zeros, engine, workdir)
    checks = Checks()
    first = []
    step_times: list[list[float]] = []

    def timed_pass() -> float:
        steps: list[float] = []
        t0 = time.perf_counter()
        try:
            digest = wl.run_pass(checks, steps)
        except Exception as exc:  # a raising pass is a failed check, not a crash
            digest = None
            checks.check(False, f"{workload} pass raised {exc!r}")
        wall = time.perf_counter() - t0
        if digest is not None:  # a pass that raised did not run every step
            step_times.append(steps)
        if first:
            checks.check(digest == first[0], f"{workload} outputs differ between passes")
        else:
            first.append(digest)
        return wall

    # tracing runs get half the budget untraced, as the overhead baseline
    budget = seconds / 2 if trace else seconds
    min_passes = 1 if trace else MIN_PASSES
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < budget:
        walls.append(timed_pass())
    # Interference from other load on the host only adds time, so each
    # step is taken at its fastest pass (as timeit reports the best repeat).
    # Only passes with the steps of the first whole pass count; with none
    # there is no wall time, and run.py reports the failures.
    whole = [steps for steps in step_times if len(steps) == len(step_times[0])]
    out = {"wall_s": sum(min(times) for times in zip(*whole)) if whole else None,
           "walls": walls, "inversions_ms": getattr(wl, "inversions_ms", []),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)
        traced, signatures, per_pass = [], [], []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            traced.append(timed_pass())
            signatures.append(tracer.signature())
            per_pass.append(layers.layer_metrics(tracer))
        checks.check(all(s == signatures[0] for s in signatures),
                     "traced counts differ between passes of the same input")
        # counts are equal across passes (checked above); times are averaged
        metrics = {k: v if all(p[k] == v for p in per_pass)
                   else statistics.fmean(p[k] for p in per_pass)
                   for k, v in per_pass[0].items()}
        metrics["trace.overhead_frac"] = min(traced) / min(walls) - 1.0
        out["layers"] = metrics
    out.update(attempted=checks.attempted, failures=checks.failures,
               sizes=SIZES[workload], numpy=numpy.__version__)
    return out


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"]:
        t0 = time.perf_counter()  # numpy and factorsim are not imported yet
        setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return
    _, workload, seed, seconds, trace, workdir = argv
    print(json.dumps(run(workload, int(seed), float(seconds), trace == "1", workdir)))


if __name__ == "__main__":
    main(sys.argv[1:])
