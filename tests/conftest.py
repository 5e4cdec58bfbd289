"""Test-session setup: one BLAS thread per process.

The variables are set when pytest loads this file, before numpy loads
OpenBLAS, which reads them once; the tests' subprocesses inherit them.  Two
pytest processes on one host then do not fight over BLAS threads (the bench
harness pins them the same way, `bench/run.py`).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
