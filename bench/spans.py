"""Outside-in span recorder for nclab's public functions.

``install`` wraps every plain function named in a module's ``__all__`` and
puts the wrapper into every nclab namespace that holds the function by name
(``cli``, ``simulator``, ``analysis`` and ``allocation`` import
``expected_cost``, ``synthesize`` and ``build_prediction_operators``
directly, and the package re-exports everything).  Classes are left alone:
replacing them would break ``isinstance`` and enum attribute access.

Spans are kept in memory, one list per thread, as tuples
``(name, layer, start, end, parent, info)`` where ``parent`` indexes the same
thread's list (-1 for a root) and ``info`` is whatever the function's
inspector extracted from its arguments and result (None if it raised).  Only spans of the
thread that opened the harness root span take part in self-time accounting;
spans opened on worker threads (Monte Carlo ``--threads``) run in parallel
with their caller's span, so they are counted but never subtracted.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "scenario", "prediction", "controller", "analysis",
          "allocation", "simulator")
HARNESS = "harness"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: dict[int, list] = {}
        self.main_thread = threading.get_ident()

    def _spans(self) -> list:
        local = self._local
        try:
            return local.spans
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads[threading.get_ident()] = local.spans
            return local.spans

    def wrap(self, fn, layer: str, inspector=None):
        name = f"{layer}.{fn.__name__}"
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            stack = local.stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, layer, t0, clock(), parent, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            info = inspector(args, kwargs, result) if inspector else None
            spans[idx] = (name, layer, t0, t1, parent, info)
            return result

        return traced

    @contextmanager
    def span(self, name: str, layer: str = HARNESS, info=None):
        spans = self._spans()
        stack = self._local.stack
        parent = stack[-1] if stack else -1
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (f"{layer}.{name}", layer, t0, t1, parent, info)

    def main_spans(self) -> list:
        return self.threads.get(self.main_thread, [])

    def worker_spans(self) -> list:
        return [s for tid, spans in self.threads.items()
                if tid != self.main_thread for s in spans]

    def write(self, path) -> None:
        """Write every span as gzip CSV: thread,index,name,start,end,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("thread,index,name,start_s,end_s,parent\n")
            for tid, spans in self.threads.items():
                for i, s in enumerate(spans):
                    fh.write(f"{tid},{i},{s[0]},{s[2]:.9f},{s[3]:.9f},{s[4]}\n")


def install(tracer: Tracer, package, inspectors: dict) -> list:
    """Wrap the public functions of every nclab layer; return the patches
    that ``uninstall`` reverts."""
    modules = [getattr(package, layer) for layer in LAYERS]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(fn, layer, inspectors.get(f"{layer}.{name}"))
    patches = []
    for mod in [package] + modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                patches.append((mod, attr, val))
    return patches


def uninstall(patches: list) -> None:
    for mod, attr, original in patches:
        setattr(mod, attr, original)


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def layer_self_times(spans: list) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        out[s[1]] += st
    return dict(out)
