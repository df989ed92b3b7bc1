"""The OpenBLAS builds bundled in the numpy and scipy wheels, reached by
``ctypes``: each library's thread-count setter, and the thread count of
numpy's, which runs the analysis's stacked eigensolves.  A missing library
or entry point is skipped silently; numpy's count is then unknown."""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import os

# The package, the library's file pattern beside the package, and its
# exported symbols' suffix; numpy's library comes first.  The packages are
# found, not imported, so a library can be set up before scipy loads it.
_OPENBLAS_LIBRARIES = (("numpy", "numpy.libs/libscipy_openblas64_*.so", "64_"),
                       ("scipy", "scipy.libs/libscipy_openblas-*.so", ""))


def _entry_points(name: str) -> list[list]:
    """``scipy_openblas_<name>`` of each bundled library that is present,
    one list per entry of ``_OPENBLAS_LIBRARIES``; a library that numpy or
    scipy has loaded, or loads later, is the same handle."""
    found = []
    for package, pattern, suffix in _OPENBLAS_LIBRARIES:
        site = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
        functions = []
        for path in glob.glob(os.path.join(site, pattern)):
            try:
                functions.append(getattr(ctypes.CDLL(path), f"scipy_openblas_{name}{suffix}"))
            except (OSError, AttributeError):
                continue
        found.append(functions)
    return found


def setters() -> list:
    """``scipy_openblas_set_num_threads`` of each bundled library found."""
    out = [f for functions in _entry_points("set_num_threads") for f in functions]
    for setter in out:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return out


@functools.cache
def _numpy_getter():
    getters = _entry_points("get_num_threads")[0]
    if not getters:
        return None
    getters[0].argtypes, getters[0].restype = [], ctypes.c_int
    return getters[0]


def numpy_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs with now, or None
    where that library or its getter is not found.  The lookup is made once
    per process; the count is read on every call."""
    getter = _numpy_getter()
    return None if getter is None else int(getter())
