"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 usage, 2 domain error (e.g. gauge or plan
rejected), 3 numerical non-convergence. Every file-writing run drops a
manifest (inputs, seed, versions, tolerances) next to its outputs, and
reruns with the same manifest produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import platform
import sys

import numpy as np

from . import __version__, spectral, svgplot, trap
from .ensemble import ensemble_sorted, sqrt_index
from .primes import PrimeEngine, PrimeRangeError
from .qsieve import (
    DEFAULT_G_GRID,
    GRAM_TAIL,
    INVERT_REL_TOL,
    BracketError,
    DensityError,
    DensityMap,
    GaugeError,
    MonteCarloConfig,
    ZetaZerosTable,
    compare_densities,
    density_map,
    invert_x_of_E,
    montecarlo_spectrum,
)
from .spectral import RESIDUAL_TOL, ZERO_XTOL, SolverError
from .special import SpecialFunctionError
from .trap import TrapPlanError

_TOLERANCES = {
    "quantization_residual": RESIDUAL_TOL,
    "bisection_rel_tol": INVERT_REL_TOL,
    "gram_tail": GRAM_TAIL,
    "zero_bisection": ZERO_XTOL,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_zeros(path: str | None) -> ZetaZerosTable:
    return ZetaZerosTable.from_file(path) if path else ZetaZerosTable.bundled()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_manifest(out_path: str, command: str, args: dict, seed=None) -> None:
    manifest = {
        "command": command,
        "inputs": {k: v for k, v in sorted(args.items()) if v is not None},
        "seed": seed,
        "versions": {
            "factorsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "tolerances": _TOLERANCES,
    }
    _write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _g(v) -> str:
    return f"{v:.12g}"


def _density_csv(dm) -> str:
    e = [_g(v) for v in dm.e_edges.tolist()]
    x = [_g(v) for v in dm.x_edges.tolist()]
    rows = [[e[i], e[i + 1], x[k], x[k + 1], _g(m)]
            for i, masses in enumerate(dm.mass.tolist()) for k, m in enumerate(masses)]
    return _csv(rows, ["bin_E_lo", "bin_E_hi", "bin_x_lo", "bin_x_hi", "mass"])


_MASS_SUM_TOL = 1e-9  # a density CSV's 12-digit masses sum to 1 within about 1e-12


def _read_density_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("bin_E_lo"):
            raise DensityError(f"{path} is not a density CSV")
        rows = []
        line_of = {}  # (E_lo, x_lo) -> the line that holds that bin
        for n, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = line.strip().split(",")
            if len(row) < 5:
                raise DensityError(f"{path} line {n}: {len(row)} fields, expected 5")
            try:
                row = [float(v) for v in row[:5]]
            except ValueError as exc:
                raise DensityError(f"{path} line {n}: {exc}") from None
            first = line_of.setdefault((row[0], row[2]), n)
            if first != n:
                raise DensityError(f"{path} line {n}: bin (E_lo, x_lo) = ({row[0]!r}, "
                                   f"{row[2]!r}) repeats line {first}")
            rows.append(row)
    if not rows:
        raise DensityError(f"{path} holds no density rows")
    total = sum(r[4] for r in rows)
    if not abs(total - 1.0) <= _MASS_SUM_TOL:
        raise DensityError(f"{path} lines 2-{n}: masses sum to {total!r}, "
                           f"expected 1 within {_MASS_SUM_TOL:g}")
    e_lo = sorted({r[0] for r in rows})
    x_lo = sorted({r[2] for r in rows})
    e_edges = np.array(e_lo + [max(r[1] for r in rows)])
    x_edges = np.array(x_lo + [max(r[3] for r in rows)])
    mass = np.zeros((len(e_lo), len(x_lo)))
    e_idx = {v: i for i, v in enumerate(e_lo)}
    x_idx = {v: i for i, v in enumerate(x_lo)}
    for r in rows:
        mass[e_idx[r[0]], x_idx[r[2]]] = r[4]
    return DensityMap(e_edges=e_edges, x_edges=x_edges, mass=mass,
                      mode="file", points=len(rows))


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parse_args gives each run its own namespace."""
    p = _Parser(prog="factorsim", description="factorization-ensemble simulator")
    p.add_argument("--config", help="JSON file whose entries override flags")
    sub = p.add_subparsers(dest="cmd", required=True)

    pp = sub.add_parser("primes", help="prime queries")
    pps = pp.add_subparsers(dest="sub", required=True)
    q = pps.add_parser("pi"); q.add_argument("x", type=int)
    q = pps.add_parser("nth"); q.add_argument("n", type=int)
    q = pps.add_parser("nearest"); q.add_argument("t", type=float)

    pe = sub.add_parser("ensemble", help="factorization ensembles")
    pes = pe.add_subparsers(dest="sub", required=True)
    q = pes.add_parser("enumerate")
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--x-min", type=int)
    q.add_argument("--x-max", type=int)
    q.add_argument("--out", required=True)

    ps = sub.add_parser("spectrum", help="spectral solver")
    pss = ps.add_subparsers(dest="sub", required=True)
    q = pss.add_parser("solve")
    q.add_argument("--qm", type=float, required=True)
    q.add_argument("--guess", type=float, required=True)
    q = pss.add_parser("zeros")
    q.add_argument("--E", type=float, required=True)
    q.add_argument("--qmax", type=float, required=True)
    pss.add_parser("phi0")

    pv = sub.add_parser("sieve", help="quantum sieve")
    pvs = pv.add_subparsers(dest="sub", required=True)
    q = pvs.add_parser("run")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--zeros")
    q.add_argument("--T", type=int, default=100)
    q.add_argument("--samples", type=int)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q = pvs.add_parser("invert")
    q.add_argument("--E", type=float, required=True)
    q.add_argument("--N", type=float, required=True)
    q.add_argument("--j", type=int)
    q.add_argument("--T", type=int, default=100)
    q.add_argument("--zeros")
    q = pvs.add_parser("compare")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)

    pt = sub.add_parser("trap", help="trap planning")
    pts = pt.add_subparsers(dest="sub", required=True)
    q = pts.add_parser("plan")
    q.add_argument("--N", type=float, required=True)
    q.add_argument("--rho-m", type=float, default=3.0, help="saddle radius in mm")
    q.add_argument("--particle", default="electron")
    q.add_argument("--zero-index", type=int, default=0)
    q = pts.add_parser("zeromatch")
    q.add_argument("--E", type=float, default=1.0)
    q.add_argument("--N", type=float, default=10969262131.0)
    q.add_argument("--q-lo", type=float, default=1.0)
    q.add_argument("--q-hi", type=float, default=8.0)
    q.add_argument("--out", required=True)

    q = sub.add_parser("fig1", help="band-spectrum points (E, N)")
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--x-min", type=int)
    q.add_argument("--x-max", type=int)
    q.add_argument("--out", default="fig1.csv")
    q.add_argument("--svg", action="store_true")

    q = sub.add_parser("fig2", help="quantum vs classical density maps")
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--N", type=int)
    q.add_argument("--T", type=int, default=100)
    q.add_argument("--seed", type=int, default=42)
    q.add_argument("--samples", type=int)
    q.add_argument("--bins", type=int, default=40)
    q.add_argument("--zeros")
    q.add_argument("--out-prefix", default="fig2")

    q = sub.add_parser("fig3", help="exact vs trap density zero match")
    q.add_argument("--E", type=float, default=1.0)
    q.add_argument("--N", type=float, default=10969262131.0)
    q.add_argument("--out", default="fig3.csv")
    q.add_argument("--svg", action="store_true")

    return p


def _flag_actions(parser: argparse.ArgumentParser, args) -> dict:
    """dest -> argparse action of every flag of the parsed subcommand."""
    flags = {}
    while parser is not None:
        nested = None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                nested = action.choices[getattr(args, action.dest)]
            elif not isinstance(action, argparse._HelpAction) and action.dest != "config":
                flags[action.dest] = action
        parser = nested
    return flags


def _cmd_primes(args, engine: PrimeEngine) -> int:
    if args.sub == "pi":
        print(engine.pi(args.x))
    elif args.sub == "nth":
        print(engine.nth_prime(args.n))
    else:
        print(engine.nearest_prime(args.t))
    return 0


def _cmd_ensemble(args, engine: PrimeEngine) -> int:
    j = args.j
    cols = [c.tolist() for c in ensemble_sorted(j, args.x_min, args.x_max, engine)]
    # int / int is correctly rounded at any size, as float(Fraction) is
    rows = [[str(x), str(y), str(x * y), str(j), str(a), str(b), _g(a * b / (j * j)),
             _g((a + b) / (2 * j)), _g((b - a) / (2 * j))] for x, y, a, b in zip(*cols)]
    _write_text(args.out, _csv(rows, ["x", "y", "N", "j", "pix", "piy",
                                      "E_decimal", "q_decimal", "p_decimal"]))
    _write_manifest(args.out, "ensemble enumerate",
                    {"j": args.j, "x_min": args.x_min, "x_max": args.x_max})
    print(f"wrote {len(rows)} entries to {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    if args.sub == "solve":
        sol = spectral.solve_energy(args.qm, args.guess)
        zeros = spectral.wavefunction_zeros(sol.E, args.qm) if sol.converged else []
        out = {
            "E": sol.E, "d_re": sol.d.real, "d_im": sol.d.imag,
            "residual": sol.residual, "converged": sol.converged,
            "iterations": sol.iterations, "zeros": zeros,
        }
        print(json.dumps(out, sort_keys=True))
        return 0 if sol.converged else 3
    if args.sub == "zeros":
        zs = spectral.wavefunction_zeros(args.E, args.qmax)
        d = spectral.solve_d(args.E)
        print(json.dumps({"E": args.E, "d_re": d.real, "d_im": d.imag,
                          "zeros": zs}, sort_keys=True))
        return 0
    phi0 = spectral.extract_phi0()
    print(json.dumps({"phi0": phi0, "reference": spectral.PHI0}, sort_keys=True))
    return 0


def _cmd_sieve(args, engine: PrimeEngine) -> int:
    if args.sub == "run":
        zeros = _load_zeros(args.zeros)
        mc = MonteCarloConfig(samples=args.samples, rng_seed=args.seed, T=args.T)
        res = montecarlo_spectrum(args.N, args.j, DEFAULT_G_GRID, mc, zeros, engine)
        rows = [[_g(s.E), _g(s.x), str(s.k), _g(s.G), _g(s.xi)] for s in res.samples]
        _write_text(args.out, _csv(rows, ["E", "x", "k", "G", "xi"]))
        _write_manifest(args.out, "sieve run",
                        {"N": args.N, "j": args.j, "T": args.T,
                         "samples": res.budget, "zeros": args.zeros},
                        seed=args.seed)
        print(f"wrote {len(res.samples)} samples ({res.failed_inversions} failed) to {args.out}")
        return 0
    if args.sub == "invert":
        zeros = _load_zeros(args.zeros)
        j = sqrt_index(int(args.N), engine) if args.j is None else args.j
        x = invert_x_of_E(args.E, args.N, j, zeros, args.T)
        print(json.dumps({"x": x, "E": args.E, "N": args.N, "j": j, "T": args.T},
                         sort_keys=True))
        return 0
    a = _read_density_csv(args.a)
    b = _read_density_csv(args.b)
    print(json.dumps(compare_densities(a, b), sort_keys=True))
    return 0


def _cmd_trap(args) -> int:
    if args.sub == "plan":
        plan = trap.plan_trap(args.N, args.rho_m * 1e-3, args.particle,
                              zero_index=args.zero_index)
        p = plan.params
        out = {
            "N_target": plan.N_target,
            "N_encodable": plan.N_encodable,
            "q_G": plan.q_G,
            "zero_index": plan.zero_index,
            "B_tesla": p.B,
            "omega_c": p.omega_c,
            "omega_c_prime": p.omega_c_prime,
            "omega_z": p.omega_z,
            "omega_m": p.omega_m,
            "rho_m_mm": p.rho_m * 1e3,
            "ratio_wc_wz": plan.ratio_wc_wz,
            "k_m_effective": plan.k_m_effective,
            "level_spacing_sim": plan.level_spacing_sim,
            "level_spacing_trap": plan.level_spacing_trap,
            "flux_quanta": plan.flux_quanta,
            "qubit_equivalent": plan.flux_quanta,
            "measurement_budget": plan.measurement_budget,
            "diagnostics": plan.diagnostics,
        }
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0
    return _cmd_zero_match(args, "trap zeromatch", args.q_lo, args.q_hi,
                           {"E": args.E, "N": args.N, "q_lo": args.q_lo, "q_hi": args.q_hi})


def _cmd_fig1(args, engine: PrimeEngine) -> int:
    x, y, pix, piy = ensemble_sorted(args.j, args.x_min, args.x_max, engine)
    jj = args.j * args.j
    E = [a * b / jj for a, b in zip(pix.tolist(), piy.tolist())]
    N = (x * y).tolist()
    rows = [[_g(e), str(n)] for e, n in zip(E, N)]
    _write_text(args.out, _csv(rows, ["E", "N"]))
    _write_manifest(args.out, "fig1",
                    {"j": args.j, "x_min": args.x_min, "x_max": args.x_max})
    if args.svg:
        svg = svgplot.scatter_svg(zip(N, E))
        with open(args.out + ".svg", "wb") as fh:
            fh.write(svg)
    print(f"wrote {len(N)} spectrum points to {args.out}")
    return 0


def _cmd_fig2(args, engine: PrimeEngine) -> int:
    N = args.N
    if N is None:
        if args.j == 10000:
            N = 10969262131
        else:
            raise _UsageError("fig2 needs --N when j != 10000")
    zeros = _load_zeros(args.zeros)
    mc = MonteCarloConfig(samples=args.samples, rng_seed=args.seed, T=args.T)
    bins = (args.bins, args.bins)
    qmap = density_map(N, args.j, "quantum", engine, zeros=zeros, bins=bins, mc=mc)
    cmap = density_map(N, args.j, "classical", engine, bins=bins)
    metrics = compare_densities(qmap, cmap)
    base = args.out_prefix
    _write_text(base + "_quantum.csv", _density_csv(qmap))
    _write_text(base + "_classical.csv", _density_csv(cmap))
    _write_text(base + "_metrics.json", json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    for dm, tag in ((qmap, "quantum"), (cmap, "classical")):
        with open(f"{base}_{tag}.svg", "wb") as fh:
            fh.write(svgplot.heatmap_svg(dm.e_edges, dm.x_edges, dm.mass))
    _write_manifest(base + "_quantum.csv", "fig2",
                    {"N": N, "j": args.j, "T": args.T, "bins": args.bins,
                     "samples": args.samples}, seed=args.seed)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_zero_match(args, command: str, q_lo: float, q_hi: float, inputs: dict) -> int:
    """`trap zeromatch` and `fig3`: pair the exact and trap zeros over
    [q_lo, q_hi] into a CSV; fig3's --svg adds both densities."""
    plan = trap.plan_trap(args.N, 3e-3, "electron")
    rep = trap.zero_match_report(args.E, q_lo, q_hi, plan.params)
    rows = [[_g(zm.q_exact), _g(zm.q_trap), _g(zm.gap)] for zm in rep]
    _write_text(args.out, _csv(rows, ["q_exact_zero", "q_trap_zero", "gap"]))
    _write_manifest(args.out, command, inputs)
    if getattr(args, "svg", False):
        qs = [1.0 + i * 0.01 for i in range(701)]
        psi = spectral.wavefunction_many(np.array(qs), args.E, spectral.solve_d(args.E))
        exact = [(q, q * m ** 2 / q ** 2)
                 for q, m in zip(qs, np.hypot(psi.real, psi.imag).tolist())]
        _, e_prime = trap.to_physical(0.0, args.E, plan.params)
        lam = trap.length_scale(plan.params)
        psi = trap.trap_wavefunction_many(np.array(qs) * lam, e_prime, plan.params)
        traps = [(q, q * v ** 2) for q, v in zip(qs, psi.tolist())]
        peak_e = max(v for _, v in exact) or 1.0
        peak_t = max(v for _, v in traps) or 1.0
        svg = svgplot.curves_svg([
            ("exact", "steelblue", [(q, v / peak_e) for q, v in exact]),
            ("trap", "darkorange", [(q, v / peak_t) for q, v in traps]),
        ])
        with open(args.out + ".svg", "wb") as fh:
            fh.write(svg)
    print(f"wrote {len(rep)} zero pairs to {args.out}")
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise _UsageError("--config must hold a JSON object")
            flags = _flag_actions(parser, args)
            for key, value in overrides.items():
                name = key.replace("-", "_")
                # only flags of the parsed subcommand; cmd/sub would switch it
                if name not in flags:
                    raise _UsageError(f"--config key {key!r} is not a flag of this command")
                action = flags[name]
                if action.type is not None:
                    # the flag's own type=, as argparse applies it to a token
                    try:
                        value = action.type(str(value))
                    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                        raise _UsageError(f"--config value {value!r} for {key!r}: {exc}") from None
                elif not isinstance(value, bool if action.nargs == 0 else str):
                    # a switch takes a JSON boolean, any other flag a JSON string
                    kind = "boolean" if action.nargs == 0 else "string"
                    raise _UsageError(f"--config value {value!r} for {key!r}: not a JSON {kind}")
                setattr(args, name, value)
        engine = PrimeEngine()
        if args.cmd == "spectrum":
            return _cmd_spectrum(args)
        if args.cmd == "trap":
            return _cmd_trap(args)
        if args.cmd == "fig3":
            return _cmd_zero_match(args, "fig3", 1.0, 8.0, {"E": args.E, "N": args.N})
        if args.cmd == "primes":
            return _cmd_primes(args, engine)
        if args.cmd == "ensemble":
            return _cmd_ensemble(args, engine)
        if args.cmd == "sieve":
            return _cmd_sieve(args, engine)
        if args.cmd == "fig1":
            return _cmd_fig1(args, engine)
        if args.cmd == "fig2":
            return _cmd_fig2(args, engine)
        raise _UsageError(f"unknown command {args.cmd}")
    except (_UsageError, OSError) as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 1
    except (GaugeError, TrapPlanError, DensityError, PrimeRangeError,
            BracketError, ValueError) as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}), file=sys.stderr)
        return 2
    except (SolverError, SpecialFunctionError, ArithmeticError) as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
