"""Process entry of the ``genestim`` command and ``python -m genestim.cli``.

Both launch paths call :func:`prepare_process` before NumPy loads.  It
pins BLAS to one thread: an idle OpenBLAS worker busy-waits for about
0.1 CPU-s per process, and no product here needs a thread pool.  It also
keeps OpenSSL out: ``numpy.random`` imports ``secrets``, whose ``hashlib``
and ``hmac`` would load ``_hashlib`` and libcrypto, about 3.4 MB resident
that no seeded generator uses.  With ``_hashlib`` marked absent,
``hashlib`` serves its guaranteed algorithms from CPython's built-in
modules and ``secrets`` still draws from ``os.urandom``; the command line
hashes nothing.  And it keeps argparse's own strings ("usage: ",
"positional arguments", ...) out of gettext: each lookup probes the file
system for message catalogs, and the first imports ``locale``, about
0.15 MB resident; the strings print as written, as gettext gives them
where no catalog is installed.

Once the imports are done, and just before the command runs, both paths
call ``gc.freeze()``: the objects NumPy and genestim made at import move
to the permanent generation, so no collection walks them again, the
ones at interpreter exit included: 15-18 ms per process.  No
``gc.collect()`` comes first; it would give back about 5 ms of that.

All four belong to the process the command owns: a library
``import genestim.cli`` or an in-process ``cli.main()`` leaves the
environment, ``hashlib``, argparse and the collector alone.  This module
imports no NumPy, so it runs before ``genestim.cli`` loads.
"""

import gc
import os
import sys


def prepare_process() -> None:
    """Pin BLAS to one thread, keep OpenSSL's ``_hashlib`` unloaded and
    print argparse's strings untranslated, with no catalog lookup."""
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.modules.setdefault("_hashlib", None)
    import argparse
    argparse._ = str
    argparse.ngettext = lambda singular, plural, n: (
        singular if n == 1 else plural)


def main():
    prepare_process()
    from .cli import main as cli_main
    gc.freeze()  # imports done; see the module docstring
    return cli_main()
