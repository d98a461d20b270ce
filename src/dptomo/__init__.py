"""Adaptive data-pattern tomography with a Gaussian coefficient posterior.

Import from the submodules: ``dptomo.experiment_cli`` (runs, export, CLI),
``dptomo.quantum_model``, ``dptomo.pattern_bank``, ``dptomo.gaussian_posterior``,
``dptomo.state_space_shearing`` and ``dptomo.measurement_selector``.
"""

import os

__version__ = "0.1.0"


def default_blas_threads():
    """Set the BLAS thread counts to 1 where the environment leaves them unset.

    A run's matrices are small, so extra BLAS threads only contend: a default
    run took 12-13 s at one thread and 28-30 s at OpenBLAS's default two on a
    2-vCPU host, and the single-photon fidelities move with the thread count.
    numpy reads these variables once, at its first import, so call this before
    anything imports numpy.  A value the user has set is kept.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
