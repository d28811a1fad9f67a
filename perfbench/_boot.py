"""Imported before anything else by the benchmark's entry points.

Puts the checkout's ``src`` first on ``sys.path`` so the code under test is
the code next to the benchmark, never an installed copy, and pins the BLAS
thread pool to one thread.  The workloads are single-process; numpy's
OpenBLAS otherwise spins extra threads for 64-element matrix-vector products,
and any other load on the machine then slows fitting by an order of
magnitude and makes timings unrepeatable.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

if not os.path.isfile(os.path.join(SRC, "esrlab", "__init__.py")):
    sys.stderr.write(f"perfbench: no esrlab sources under {SRC}; run from "
                     "the root of a full checkout\n")
    sys.exit(2)
sys.path.insert(0, SRC)
