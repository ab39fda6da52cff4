"""Benchmark of the factorsim simulator: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {fig2,roundtrip,spectral} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; factorsim is imported from its src/.
Each workload runs in one child process (child.py) with the BLAS/OpenMP
thread counts pinned to 1 and no threads or pools of its own.

--trace 0 times fresh-process set-up (median of SETUP_RUNS children),
then repeats passes of the workload for S seconds and reports the
end-to-end metrics: setup_s, wall_s and peak_rss_mb of the child. A pass
is a fixed sequence of timed steps (child.py); wall_s adds up each step's
fastest time over the passes of the run that ran every step. For
roundtrip it also prints the median and 95th percentile of single
inversions, inversion_p50_ms and inversion_p95_ms.

--trace 1 runs untraced passes for S/2 seconds, then two passes with
every public function of the layers wrapped (layers.py), and reports
the per-layer metrics with trace.overhead_frac; the counts of the two
traced passes must be equal.

Every output is checked (see child.py). The error rate is failed checks
over attempted checks, the "failed" and "attempted" of the result. The
last line of standard output is the JSON result; the lines before it give
the run context, each metric with its unit, and every failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench_work"  # output files of the CLI workloads, removed after
SETUP_RUNS = 9
# Time allowed beyond --seconds for set-up, inputs, the last pass and, in
# traced runs, the two traced passes.
TIME_MARGIN_S = 140.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("fig2", "roundtrip", "spectral")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("FACTORSIM_ZEROS", None)  # the CLI would load this table instead
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload started")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def with_units(values: dict[str, float], key: str) -> dict:
    """Metrics of the result line, with the units BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    if set(values) != set(units):
        raise BenchError(f"measured metrics differ from the {key} of BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "factorsim", "__init__.py")):
        print(f"perfbench: no factorsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    try:
        setup_times = [] if args.trace else [
            run_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_RUNS)]
        base = os.path.join(ROOT, WORK_DIR)
        os.makedirs(base, exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=base) as workdir:
                res = run_child(["run", args.workload, str(args.seed), str(args.seconds),
                                 str(args.trace), workdir], deadline)
        finally:
            try:
                os.rmdir(base)
            except OSError:
                pass  # another run still uses it
        if res["wall_s"] is None:
            raise BenchError("no pass of the workload ran to its end: "
                             + "; ".join(res["failures"]))
        if args.trace:
            metrics = with_units(res["layers"], "per_layer")
        else:
            metrics = with_units({"wall_s": res["wall_s"],
                                  "peak_rss_mb": res["peak_rss_mb"],
                                  "setup_s": statistics.median(setup_times)}, "end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": res["sizes"],
        "passes": len(res["walls"]),
    }
    print("context " + json.dumps(context, sort_keys=True))
    failed = len(res["failures"])
    attempted = res["attempted"]
    layer = None
    for name, m in metrics.items():
        if args.trace and name.split(".")[0] != layer:
            layer = name.split(".")[0]
            print(f"layer {layer}: should move {layers.moves(name)}")
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    inversions = res["inversions_ms"]
    if not args.trace and len(inversions) >= 200:  # ten or more beyond the p95
        print(f"{args.workload} inversion_p50_ms = {statistics.median(inversions):.6g} ms")
        print(f"{args.workload} inversion_p95_ms = "
              f"{statistics.quantiles(inversions, n=20)[18]:.6g} ms "
              f"({len(inversions)} inversions)")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} checks)")
    for what in res["failures"]:
        print(f"FAILED {args.workload}: {what}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
