"""Out-of-package tracer for the benchmark's traced runs.

``Tracer(package)`` wraps every public function and method of every loaded
module of ``package`` for the duration of a ``with`` block.  Modules bind
helpers with ``from .matkernel import sym_eig``, so patching the defining
module alone would miss those calls: the tracer rebinds every module-level
name that holds an original function, and restores all of them on exit.

Spans (name, start, end, parent span, operation id) are kept in flat arrays
in memory and written out by :meth:`Tracer.write_spans` after the run.
A span's self time is its duration minus the part of it covered by its
children (:func:`self_times`).

``RuntimeWarningCounter`` counts ``RuntimeWarning``s by the package module
that raised them, without silencing them: the first warning from each source
line is still shown the way Python shows it by default.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import os
import sys
import threading
import time
import warnings
from array import array


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Children are
    clipped to their parent's interval and merged, so overlapping children
    (spans from worker threads) are not subtracted twice.
    """
    children = collections.defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda k: starts[k]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


class Tracer:
    """Wrap the public API of ``package`` and record one span per call.

    ``probes`` maps a traced key (``"<module>.<qualname>"`` relative to the
    package, e.g. ``"matkernel.sym_eig"``) to ``probe(args, kwargs, result)``
    returning a number; the numbers are kept per key in ``probe_values``.
    """

    def __init__(self, package: str, probes: dict | None = None):
        self.package = package
        self.probes = dict(probes or {})
        self.probe_values = {key: [] for key in self.probes}
        self.names: list[str] = []
        self.ops: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self._op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------

    @contextlib.contextmanager
    def operation(self, label: str):
        """Tag the spans recorded inside the block with ``label``."""
        self.ops.append(label)
        previous, self._op_id = self._op_id, len(self.ops) - 1
        try:
            yield
        finally:
            self._op_id = previous

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        wrappers = {}
        try:
            for mod in modules:
                layer = mod.__name__.removeprefix(self.package + ".")
                for attr in getattr(mod, "__all__", ()):
                    obj = vars(mod).get(attr)
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[obj] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                    elif inspect.isclass(obj):
                        self._patch_class(layer, obj)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(mod, attr, wrappers[value])
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(key, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(key, raw.__func__)))
            elif isinstance(raw, property) and raw.fget is not None:
                wrapped = property(self._wrap(key, raw.fget), raw.fset, raw.fdel, raw.__doc__)
                self._set(cls, attr, wrapped)

    def _wrap(self, key: str, func):
        nid = len(self.names)
        self.names.append(key)
        probe = self.probes.get(key)
        local, lock = self._local, self._lock
        start, end, name_id, parent, op = self.start, self.end, self.name_id, self.parent, self.op

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(start)
                start.append(0.0)
                end.append(0.0)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                op.append(self._op_id)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if probe is not None:
                self.probe_values[key].append(probe(args, kwargs, result))
            return result

        return traced

    # -- results --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced key: ``calls`` and ``self_s`` summed over all spans."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, dur in zip(self.name_id, self_times(self.start, self.end, self.parent)):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += dur
        return out

    def write_spans(self, path) -> None:
        """Write every span as CSV: name, op, start, end, parent, self_s."""
        selfs = self_times(self.start, self.end, self.parent)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,op,start,end,parent,self_s\n")
            for i, nid in enumerate(self.name_id):
                label = self.ops[self.op[i]] if self.op[i] >= 0 else ""
                fh.write(
                    f"{i},{self.names[nid]},{label},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{selfs[i]!r}\n"
                )


class RuntimeWarningCounter:
    """Count ``RuntimeWarning``s per package module while the block runs.

    Every occurrence is counted (the filter is set to ``always``), and the
    first one from each source line is passed on to the regular
    ``warnings.showwarning``, so nothing is hidden that Python would show.
    """

    def __init__(self, package_dir):
        self.package_dir = os.path.realpath(package_dir)
        self.counts: collections.Counter = collections.Counter()
        self._shown: set = set()

    def layer_of(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if os.path.dirname(path) == self.package_dir:
            return os.path.splitext(os.path.basename(path))[0]
        return "other"

    def pop_counts(self) -> dict[str, int]:
        """Counts since the last call, by layer."""
        counts, self.counts = dict(self.counts), collections.Counter()
        return counts

    @contextlib.contextmanager
    def record(self):
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def counting(message, category, filename, lineno, file=None, line=None):
                if issubclass(category, RuntimeWarning):
                    self.counts[self.layer_of(filename)] += 1
                    if (filename, lineno) in self._shown:
                        return
                    self._shown.add((filename, lineno))
                show(message, category, filename, lineno, file, line)

            warnings.showwarning = counting
            yield self
