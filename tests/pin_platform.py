"""The platform a recorded pin was recorded on.

The sha256 pins hash float bits, and those bits depend on the platform:
np.exp and np.log round their last bit differently under numpy's AVX-512 and
AVX2 paths, and OpenBLAS's per-core gemv and gemm kernels round differently
from each other. Each pin file names the platform its pins were recorded on
in RECORDED_ON, and its hash assertions report it next to the platform the
test runs on, so a mismatch on another CPU says so. The assertions are exact.
"""

import ctypes
import glob
import os

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def simd_found() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU: the `found` list of
    np.show_runtime()."""
    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def openblas_core() -> str:
    """The core kernel set OpenBLAS chose (OPENBLAS_CORETYPE overrides it),
    from the scipy-openblas library numpy's wheel bundles; 'unknown' when
    numpy links another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def platform() -> str:
    return (f"numpy {np.__version__}, SIMD {' '.join(simd_found()) or 'baseline only'}, "
            f"OpenBLAS {openblas_core()}")


def where(recorded_on: str) -> str:
    """A pin assertion's message: where the pin was recorded and where it runs."""
    return f"recorded on {recorded_on}, running on {platform()}"
