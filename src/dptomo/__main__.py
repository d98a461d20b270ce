"""The ``dptomo`` command, also run as ``python -m dptomo``.

Runs ``experiment_cli``'s CLI with BLAS at one thread unless the environment
sets a thread count (see ``default_blas_threads``).
"""

import sys

from . import default_blas_threads


def main(argv=None):
    default_blas_threads()
    from .experiment_cli import main as cli_main  # first import of numpy

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
