"""Process entry of the ``genestim`` command and ``python -m genestim.cli``.

Both launch paths call :func:`prepare_process` before NumPy loads.  It
pins BLAS to one thread: an idle OpenBLAS worker busy-waits for about
0.1 CPU-s per process, and no product here needs a thread pool.  It also
keeps OpenSSL out: ``numpy.random`` imports ``secrets``, whose ``hashlib``
and ``hmac`` would load ``_hashlib`` and libcrypto, about 3.4 MB resident
that no seeded generator uses.  With ``_hashlib`` marked absent,
``hashlib`` serves its guaranteed algorithms from CPython's built-in
modules and ``secrets`` still draws from ``os.urandom``; the command line
hashes nothing.  Both belong to the process the command owns: a library
``import genestim.cli`` leaves the environment and ``hashlib`` alone.
This module imports no NumPy, so it runs before ``genestim.cli`` loads.
"""

import os
import sys


def prepare_process() -> None:
    """Pin BLAS to one thread and keep OpenSSL's ``_hashlib`` unloaded."""
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.modules.setdefault("_hashlib", None)


def main():
    prepare_process()
    from .cli import main as cli_main
    return cli_main()
