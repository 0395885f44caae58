"""Per-layer span recorder, installed from outside the program.

A traced run calls :func:`install` before the workload starts.  It
imports every module of the measured layers and wraps their public
functions and the public methods of their public classes with a timing
shim.  Nothing under ``src/`` changes: the shim rebinds names in the
module namespaces (including ``from x import y`` copies and module-level
registries such as ``EXPERIMENTS``) and on the classes.

Each wrapped call records a span.  Spans are kept in memory, one
aggregate per function (calls, inclusive seconds, self seconds) plus the
raw spans up to :data:`MAX_SPANS`, and written out by :func:`dump` when
the process ends.  A function's self time is its duration minus the
time its wrapped children took.  Forked pool workers reset the inherited
state and dump their own file when they exit, so worker-side time is
counted once, in the worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from multiprocessing import util as mp_util
from types import FunctionType, ModuleType
from typing import Any, Dict, List, Optional, Tuple

#: Layer name -> the module prefixes it covers (see README.md).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": ("repro.workloads",),
    "sim": ("repro.sim",),
    "security": ("repro.security",),
    "core": ("repro.core",),
    "baselines": ("repro.baselines",),
    "analysis": ("repro.analysis",),
    "runtime": ("repro.runtime",),
    "durability": ("repro.durability",),
    "serve": ("repro.serve", "repro.resilience"),
}

#: Lifetime loops: their span would cover a whole process, not work.
NOT_WRAPPED = frozenset({"repro.serve.frontend.ServeFrontend.run"})

#: Raw spans kept per process; aggregates are always complete.
MAX_SPANS = 50_000

_perf = time.perf_counter


def layer_of(qualified: str) -> Optional[str]:
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if qualified == prefix or qualified.startswith(prefix + "."):
                return layer
    return None


class Recorder:
    """The per-process span store shared by every wrapper."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.names: List[str] = []
        # Per function id: [calls, inclusive seconds, self seconds].
        self.stats: List[List[float]] = []
        # Raw spans: (function id, thread index, depth, start, duration).
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.dropped = 0
        # Top-level spans (depth 0) per thread, for coverage.
        self.top: List[Tuple[float, float]] = []
        self._tls = threading.local()
        self._thread_count = 0
        # Wrappers run on several threads in the server; counters are
        # read-modify-write, so updates take this lock.
        self._lock = threading.Lock()

    def reset(self) -> None:
        for row in self.stats:
            row[0] = row[1] = row[2] = 0.0
        self.spans = []
        self.dropped = 0
        self.top = []
        self._tls = threading.local()
        self._thread_count = 0
        # A thread of the parent may have held the lock at fork time.
        self._lock = threading.Lock()

    def _new_thread(self) -> Any:
        tls = self._tls
        with self._lock:
            tls.index = self._thread_count
            self._thread_count += 1
        tls.stack = []
        return tls

    def wrap(self, fn: FunctionType, name: str) -> Any:
        fid = len(self.names)
        self.names.append(name)
        row = [0.0, 0.0, 0.0]
        self.stats.append(row)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tls = recorder._tls
            if not hasattr(tls, "stack"):
                tls = recorder._new_thread()
            stack = tls.stack
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                with recorder._lock:
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - frame[0]
                    if not stack:
                        recorder.top.append((start, elapsed))
                    if len(recorder.spans) < MAX_SPANS:
                        recorder.spans.append(
                            (fid, tls.index, len(stack), start, elapsed)
                        )
                    else:
                        recorder.dropped += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def functions(self) -> Dict[str, List[float]]:
        return {
            name: list(row)
            for name, row in zip(self.names, self.stats)
            if row[0]
        }

    def dump(self, role: str) -> str:
        path = os.path.join(self.out_dir, f"layers-{role}-{os.getpid()}.json")
        payload = {
            "pid": os.getpid(),
            "role": role,
            "functions": self.functions(),
            "names": self.names,
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "top": self.top,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return path


RECORDER: Optional[Recorder] = None


def _measured_modules() -> List[ModuleType]:
    modules = []
    for prefixes in LAYERS.values():
        for prefix in prefixes:
            package = importlib.import_module(prefix)
            modules.append(package)
            for info in pkgutil.walk_packages(
                package.__path__, prefix=prefix + "."
            ):
                modules.append(importlib.import_module(info.name))
    return modules


def _after_fork(recorder: Recorder) -> None:
    """In a forked worker: drop the parent's spans, dump at worker exit."""
    recorder.reset()
    mp_util.Finalize(None, recorder.dump, args=("worker",), exitpriority=100)


def install(out_dir: str) -> Recorder:
    """Wrap the measured layers' public callables; returns the recorder."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    recorder = Recorder(out_dir)
    wrapped: Dict[int, Any] = {}

    def wrap(fn: FunctionType, name: str) -> Any:
        if name in NOT_WRAPPED:
            return fn
        if id(fn) not in wrapped:
            wrapped[id(fn)] = recorder.wrap(fn, name)
        return wrapped[id(fn)]

    for module in _measured_modules():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType):
                wrap(obj, f"{module.__name__}.{obj.__qualname__}")
            elif isinstance(obj, type):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") or not isinstance(member, FunctionType):
                        continue
                    try:
                        setattr(obj, name, wrap(member, f"{module.__name__}.{obj.__qualname__}.{name}"))
                    except (AttributeError, TypeError):
                        continue
    # Rebind every reference the program holds in module namespaces and
    # module-level registries, so calls through ``from x import y``
    # copies hit the wrapper too.
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, FunctionType) and id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
            elif type(obj) is dict:
                for key, value in list(obj.items()):
                    if isinstance(value, FunctionType) and id(value) in wrapped:
                        obj[key] = wrapped[id(value)]
    mp_util.register_after_fork(recorder, _after_fork)
    RECORDER = recorder
    return recorder


def covered_seconds(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Union of the ``(start, duration)`` intervals that begin in ``[start, end]``."""
    clipped = sorted(
        (s, min(s + d, end)) for s, d in intervals if start <= s <= end
    )
    covered = 0.0
    cur_start = cur_end = start
    for s, e in clipped:
        if e <= s:
            continue
        if s > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    return covered + (cur_end - cur_start)


def load_dumps(out_dir: str) -> List[Dict[str, Any]]:
    dumps = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("layers-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as handle:
                dumps.append(json.load(handle))
    return dumps


def merge_functions(dumps: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Sum per-function ``[calls, inclusive_s, self_s]`` across processes."""
    merged: Dict[str, List[float]] = {}
    for dump in dumps:
        for name, (calls, incl, self_s) in dump["functions"].items():
            row = merged.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
    return merged
