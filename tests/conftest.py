"""Session set-up: BLAS at one thread unless the environment says otherwise.

The fock1 sweep's fidelities depend on the BLAS thread count (fock1/3 gives
0.723 at one thread and 0.517 at two), so the tests pin it, as
``perfbench/run.py`` does.  This file runs before any test module imports
numpy, which reads these variables once at import.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
