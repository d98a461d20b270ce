"""Adaptive data-pattern tomography with a Gaussian coefficient posterior.

Import from the submodules: ``dptomo.experiment_cli`` (runs, export, CLI),
``dptomo.quantum_model``, ``dptomo.pattern_bank``, ``dptomo.gaussian_posterior``,
``dptomo.state_space_shearing`` and ``dptomo.measurement_selector``.
"""

__version__ = "0.1.0"
