"""The ``ltgcd`` command (``python -m ltgcd``): pins BLAS to one thread
unless the caller sets a count, then runs the CLI.

numpy's OpenBLAS starts its threads as numpy loads, and they oversubscribe
the CPUs of a sweep's workers and keep ``train`` off the helper process. So
the variables are set here, before anything loads numpy, and not when a
module is imported: an importer's environment stays its own.
"""

import os


def main() -> None:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main
    cli_main()


if __name__ == "__main__":
    main()
