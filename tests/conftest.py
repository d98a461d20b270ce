"""Session set-up: BLAS at one thread unless the environment says otherwise.

The fock1 sweep's fidelities depend on the BLAS thread count (fock1/3 gives
0.723 at one thread and 0.517 at two), so the tests pin it, as
``perfbench/run.py`` does.  This file runs before any test module imports
numpy, which reads these variables once at import.
"""

from dptomo import default_blas_threads

default_blas_threads()
