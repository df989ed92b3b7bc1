"""Thread counts: the OpenBLAS builds bundled in the numpy and scipy wheels,
reached by ``ctypes``, and the threads of ``maxdiff``'s polish.

``one_thread`` puts both libraries on one thread, once per process, unless
OpenBLAS's own OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is
set; the command line calls it before any command runs, and importing nclab
leaves the counts alone.  On two cores OpenBLAS's threads slowed down the
small eigensolves of the analysis: ``maxdiff`` on pendulum took 0.55 s with
two threads and 0.44 s with one, printing the same bytes.

``spare_cpus`` is how many threads the polish of ``maxdiff`` may run: the
CPUs this process may run on divided by the threads of numpy's OpenBLAS,
which runs the stacked eigensolves, and 1 where that count is unknown.
Under the one-thread policy on 2 CPUs the polish runs on two threads; with
OpenBLAS on as many threads as CPUs (the library default) it stays on the
calling thread, because two polish threads beside two OpenBLAS threads made
``maxdiff`` on pendulum slower, not faster.

A missing library or entry point is skipped silently: nothing is set, and
numpy's count is unknown."""

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
# Set by the user, any of these decides OpenBLAS's thread count instead.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
def one_thread() -> None:
    """Put the bundled libraries on one thread, once per process, unless
    one of ``_THREAD_VARIABLES`` is set (module docstring)."""
    if not any(os.environ.get(name) for name in _THREAD_VARIABLES):
        for setter in setters():
            setter(1)


@functools.cache
def _numpy_getter():
    getters = _entry_points("get_num_threads")[0]
    if not getters:
        return None
    getters[0].argtypes, getters[0].restype = [], ctypes.c_int
    return getters[0]


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spare_cpus() -> int:
    """Threads the polish may run at once (module docstring).  The lookup
    of numpy's library is made once per process; its thread count is read
    on every call."""
    getter = _numpy_getter()
    blas = None if getter is None else int(getter())
    return max(1, _cpus() // blas) if blas else 1
