"""Print one sha256 per CLI output file and per stdout for a fixed run set.

    python3 tools/cli_digest.py [--root CHECKOUT] [--keep DIR]
    python3 tools/cli_digest.py --diff OLD_KEEP NEW_KEEP

Each run of the set below executes `python -m factorsim.cli` from the
`src/` of CHECKOUT (default: the checkout holding this script) in its own
empty directory under a temporary directory, with relative output paths, so
no output names the directory it was written to. Two checkouts give the
same CLI outputs, byte for byte, exactly when their listings are equal:

    python3 tools/cli_digest.py --root OLD > old.txt
    python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

With --keep DIR, each run's output files, its stdout (`stdout.txt`) and
any stderr (`stderr.txt`) are also copied under DIR/<run>/, so the runs
whose digests differ can be compared field by field:

    python3 tools/cli_digest.py --root OLD --keep old > old.txt

--diff OLD_KEEP NEW_KEEP compares two such --keep trees without running
anything. For each run whose files differ it prints one line: the largest
absolute and relative change over the numbers of its CSV files and its
stdout, and the names of its other files that differ. A CSV or stdout
whose text differs outside its numbers is named as "changed layout".

Standard library only. The set takes about ten seconds on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

N_DESK = "10969262131"

RUNS = [
    ("fig1", ["fig1", "--j", "10000", "--x-min", "46000", "--x-max", "49000",
              "--out", "fig1.csv", "--svg"]),
    ("fig2", ["fig2", "--j", "10000", "--T", "100", "--seed", "42", "--samples", "8",
              "--out-prefix", "fig2"]),
    # the README's recipe: the full 1,545-draw budget
    ("fig2-full", ["fig2", "--j", "10000", "--T", "100", "--seed", "42",
                   "--out-prefix", "fig2"]),
    # a binning other than the default 40 x 40
    ("fig2-bins7", ["fig2", "--j", "10000", "--T", "100", "--seed", "3", "--samples", "8",
                    "--bins", "7", "--out-prefix", "fig2"]),
    # narrow bins, so that many roots lie near an x edge
    ("fig2-bins200", ["fig2", "--j", "10000", "--T", "100", "--seed", "42", "--samples", "8",
                      "--bins", "200", "--out-prefix", "fig2"]),
    # a small j, on its own N
    ("fig2-j1000", ["fig2", "--j", "1000", "--N", "62615533", "--T", "100", "--seed", "42",
                    "--samples", "8", "--out-prefix", "fig2"]),
    ("fig3", ["fig3", "--out", "fig3.csv", "--svg"]),
    # away from E = 1, both scans cross every regime of F and U in both families
    ("fig3-E2.5", ["fig3", "--E", "2.5", "--out", "fig3.csv", "--svg"]),
    ("zeromatch-default", ["trap", "zeromatch", "--out", "zm.csv"]),
    ("zeromatch-window", ["trap", "zeromatch", "--E", "1.3", "--q-lo", "2", "--q-hi", "6",
                          "--N", "1e12", "--out", "zm.csv"]),
    # the trap scan crosses |z| = 75, so both U passes of F take rows and sums
    ("zeromatch-r75", ["trap", "zeromatch", "--E", "1", "--q-lo", "1", "--q-hi", "10",
                       "--out", "zm.csv"]),
    ("plan-desk", ["trap", "plan", "--N", N_DESK]),
    ("plan-proton", ["trap", "plan", "--N", "1e12", "--G", "0.2", "--rho-m", "2",
                     "--particle", "proton", "--zero-index", "1"]),
    ("solve-20", ["spectrum", "solve", "--qm", "20", "--guess", "1.0"]),
    ("solve-46.6", ["spectrum", "solve", "--qm", "46.6", "--guess", "1.0"]),
    ("zeros", ["spectrum", "zeros", "--E", "1", "--qmax", "12"]),
    ("zeros-E0.3", ["spectrum", "zeros", "--E", "0.3", "--qmax", "40"]),
    # at large E the scan crosses |z| 6-16, where F is the two-U connection
    # and its power series would lose digits
    ("zeros-E6", ["spectrum", "zeros", "--E", "6", "--qmax", "4"]),
    ("phi0", ["spectrum", "phi0"]),
    ("sieve-run", ["sieve", "run", "--N", N_DESK, "--j", "10000", "--T", "50",
                   "--samples", "6", "--out", "samples.csv"]),
    # no draw, so no inversion: the CSV is a header only
    ("sieve-run-0", ["sieve", "run", "--N", N_DESK, "--j", "10000", "--T", "50",
                     "--samples", "0", "--out", "samples.csv"]),
    # a small N with gauge rejections and bracket misses next to its samples
    ("sieve-run-failing", ["sieve", "run", "--N", "10000019", "--j", "446", "--T", "50",
                           "--samples", "4", "--seed", "1", "--out", "samples.csv"]),
    # at G = 0.3 the draws' B_G targets straddle 1737, the midpoint of the
    # primes 1733 and 1741, so B_G is searched per draw
    ("sieve-run-straddle", ["sieve", "run", "--N", "10981262167", "--j", "10000", "--T", "50",
                            "--samples", "8", "--seed", "42", "--out", "samples.csv"]),
    ("sieve-invert", ["sieve", "invert", "--E", "1.00441815", "--N", N_DESK,
                      "--j", "10000", "--T", "1000"]),
    ("sieve-invert-unbracketed", ["sieve", "invert", "--E", "50", "--N", N_DESK,
                                  "--j", "10000", "--T", "1000"]),
    ("ensemble-1000", ["ensemble", "enumerate", "--j", "1000", "--out", "ens.csv"]),
    ("ensemble-50-window", ["ensemble", "enumerate", "--j", "50", "--x-min", "40",
                            "--x-max", "200", "--out", "ens.csv"]),
    # the pairs (2, 2) and (2, 3): integer and half-integer q and p
    ("ensemble-1", ["ensemble", "enumerate", "--j", "1", "--out", "ens.csv"]),
    ("primes-nth", ["primes", "nth", "700000"]),
    ("primes-pi", ["primes", "pi", "1000000"]),
    # 2^21 + 1, the first odd of the second 2^20-odd sieve page
    ("primes-pi-page2", ["primes", "pi", "2097153"]),
    # a table of many sieve pages
    ("primes-nth-2e6", ["primes", "nth", "2000000"]),
    # the largest table `PrimeEngine.pi` sieves, and the first x it leaves to Lucy
    ("primes-pi-1e8", ["primes", "pi", "100000000"]),
    ("primes-pi-lucy", ["primes", "pi", "100000001"]),
    ("primes-nearest", ["primes", "nearest", "1000000.5"]),
]


# a decimal number as the CLI prints it: sign, digits, point, exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read(path: str) -> bytes | None:
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def numeric_change(old: str, new: str) -> tuple[float, float] | None:
    """(largest absolute, largest relative) change between the numbers of two
    texts that differ only in their numbers; None if anything else differs."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        change = abs(b - a)
        worst_abs = max(worst_abs, change)
        if change:
            worst_rel = max(worst_rel, change / abs(a) if a else math.inf)
    return worst_abs, worst_rel


def diff(old_dir: str, new_dir: str) -> None:
    """One line per run of two --keep trees whose files differ."""
    same = 0
    for name in sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir))):
        old_run, new_run = os.path.join(old_dir, name), os.path.join(new_dir, name)
        files = sorted(set(os.listdir(old_run) if os.path.isdir(old_run) else [])
                       | set(os.listdir(new_run) if os.path.isdir(new_run) else []))
        worst_abs = worst_rel = 0.0
        numeric, other = [], []
        for fname in files:
            old, new = read(os.path.join(old_run, fname)), read(os.path.join(new_run, fname))
            if old == new:
                continue
            change = None
            if old is not None and new is not None and \
                    (fname.endswith(".csv") or fname == "stdout.txt"):
                change = numeric_change(old.decode(), new.decode())
                if change is None:
                    fname += " (changed layout)"
            if change is None:
                other.append(fname)
            else:
                numeric.append(fname)
                worst_abs, worst_rel = max(worst_abs, change[0]), max(worst_rel, change[1])
        if not numeric and not other:
            same += 1
            continue
        line = f"{name}:"
        if numeric:
            line += (f" max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"
                     f" over {', '.join(numeric)};")
        if other:
            line += f" also differ: {', '.join(other)}"
        print(line.rstrip(";"))
    print(f"{same} run(s) identical")


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=here, help="checkout whose src/ is run")
    ap.add_argument("--keep", metavar="DIR",
                    help="also copy each run's files and output streams under DIR/<run>/")
    ap.add_argument("--diff", nargs=2, metavar=("OLD_KEEP", "NEW_KEEP"),
                    help="compare the numbers of two --keep trees instead of running")
    args = ap.parse_args()
    if args.diff:
        diff(*args.diff)
        return
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.root), "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS:
            cwd = os.path.join(tmp, name)
            os.mkdir(cwd)
            proc = subprocess.run([sys.executable, "-m", "factorsim.cli", *argv],
                                  cwd=cwd, env=env, capture_output=True)
            print(f"{sha256(proc.stdout)}  {name}: stdout (exit {proc.returncode})")
            if proc.stderr:
                print(f"{sha256(proc.stderr)}  {name}: stderr")
            for fname in sorted(os.listdir(cwd)):
                with open(os.path.join(cwd, fname), "rb") as fh:
                    print(f"{sha256(fh.read())}  {name}: {fname}")
            if args.keep:
                kept = shutil.copytree(cwd, os.path.join(args.keep, name))
                for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
                    if data or stream == "stdout":
                        with open(os.path.join(kept, stream + ".txt"), "wb") as fh:
                            fh.write(data)


if __name__ == "__main__":
    main()
