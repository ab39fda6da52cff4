"""Print one sha256 per CLI output file and per stdout for a fixed run set.

    python3 tools/cli_digest.py [--root CHECKOUT]

Each run of the set below executes `python -m factorsim.cli` from the
`src/` of CHECKOUT (default: the checkout holding this script) in its own
empty directory under a temporary directory, with relative output paths, so
no output names the directory it was written to. Two checkouts give the
same CLI outputs, byte for byte, exactly when their listings are equal:

    python3 tools/cli_digest.py --root OLD > old.txt
    python3 tools/cli_digest.py > new.txt
    diff old.txt new.txt

Standard library only. The set takes about ten seconds on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

N_DESK = "10969262131"

RUNS = [
    ("fig1", ["fig1", "--j", "10000", "--x-min", "46000", "--x-max", "49000",
              "--out", "fig1.csv", "--svg"]),
    ("fig2", ["fig2", "--j", "10000", "--T", "100", "--seed", "42", "--samples", "8",
              "--out-prefix", "fig2"]),
    ("fig3", ["fig3", "--out", "fig3.csv", "--svg"]),
    ("zeromatch-default", ["trap", "zeromatch", "--out", "zm.csv"]),
    ("zeromatch-window", ["trap", "zeromatch", "--E", "1.3", "--q-lo", "2", "--q-hi", "6",
                          "--N", "1e12", "--out", "zm.csv"]),
    ("plan-desk", ["trap", "plan", "--N", N_DESK]),
    ("plan-proton", ["trap", "plan", "--N", "1e12", "--G", "0.2", "--rho-m", "2",
                     "--particle", "proton", "--zero-index", "1"]),
    ("solve-20", ["spectrum", "solve", "--qm", "20", "--guess", "1.0"]),
    ("solve-46.6", ["spectrum", "solve", "--qm", "46.6", "--guess", "1.0"]),
    ("zeros", ["spectrum", "zeros", "--E", "1", "--qmax", "12"]),
    ("phi0", ["spectrum", "phi0"]),
    ("sieve-run", ["sieve", "run", "--N", N_DESK, "--j", "10000", "--T", "50",
                   "--samples", "6", "--out", "samples.csv"]),
    ("sieve-invert", ["sieve", "invert", "--E", "1.00441815", "--N", N_DESK,
                      "--j", "10000", "--T", "1000"]),
    ("sieve-invert-unbracketed", ["sieve", "invert", "--E", "50", "--N", N_DESK,
                                  "--j", "10000", "--T", "1000"]),
    ("ensemble-1000", ["ensemble", "enumerate", "--j", "1000", "--out", "ens.csv"]),
    ("ensemble-50-window", ["ensemble", "enumerate", "--j", "50", "--x-min", "40",
                            "--x-max", "200", "--out", "ens.csv"]),
    ("primes-nth", ["primes", "nth", "700000"]),
    ("primes-pi", ["primes", "pi", "1000000"]),
    ("primes-nearest", ["primes", "nearest", "1000000.5"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=here, help="checkout whose src/ is run")
    args = ap.parse_args()
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


if __name__ == "__main__":
    main()
