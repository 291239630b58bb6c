"""Locate the ctrlkit sources of the checkout this benchmark sits in.

The benchmark measures the code in <checkout>/src, never an installed copy,
and writes only under <checkout>/.perfbench_out.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread, set before numpy loads; inherited by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def use_checkout_sources():
    """Put <checkout>/src first on sys.path and import ctrlkit from it.

    Exits with a message and status 1 when the checkout holds no ctrlkit
    sources or ctrlkit resolves to another copy.
    """
    init = SRC / "ctrlkit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no ctrlkit sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ctrlkit

    if pathlib.Path(ctrlkit.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: ctrlkit was imported from {ctrlkit.__file__}, not {init}")
    return ctrlkit
