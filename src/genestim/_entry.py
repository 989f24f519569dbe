"""Process entry of the ``genestim`` command and ``python -m genestim.cli``.

Both launch paths pin BLAS to one thread before NumPy loads: an idle
OpenBLAS worker busy-waits for about 0.1 CPU-s per process, and no
product here needs a thread pool.  This module imports no NumPy, so the
pin must run before ``genestim.cli`` is imported.
"""

import os


def pin_blas() -> None:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))


def main():
    pin_blas()
    from .cli import main as cli_main
    return cli_main()
