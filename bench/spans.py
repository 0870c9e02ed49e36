"""Trace betaone from outside the library, one span per call.

`Tracer.install()` wraps every public function and public method that the
betaone modules define, and puts the wrapper into every betaone namespace
that holds the function: the defining module, modules that imported the
name with `from .x import y`, and module-level dicts such as the CLI's
command table.  Kernel bundles returned by a wrapped function get their
`scalar_kernel`, `derivative_kernel`, `integral_kernel` and `assemble`
attributes wrapped too.  Modules and names are looked up at run time, so
a module that no longer exists is reported as absent instead of failing.

Spans (name, parent, start, end) are kept in memory in flat arrays and
written to one `.npz` file by `Tracer.write()`; `layer_totals()` turns
such a file into per-name call counts and self times.
"""

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = (
    "cli",
    "specfun",
    "quadrature",
    "pfaffian",
    "skewortho",
    "ginibre",
    "kernels",
    "ginoe_kernels",
    "reduction",
    "eigensolve",
    "montecarlo",
)
KERNEL_ATTRS = ("scalar_kernel", "derivative_kernel", "integral_kernel")
BUNDLE_ATTRS = KERNEL_ATTRS + ("assemble",)


def _points(args):
    # number of (mu, eta) pairs one kernel call evaluates
    return np.broadcast(args[0], args[1]).size


def _order(args):
    return len(args[0])


# counters recorded from call arguments: span name -> (counter, measure)
ARGUMENT_COUNTERS = {"pfaffian.pfaffian": ("pfaffian.order_sum", _order)}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = {}
        self.absent = []

    def wrap(self, fn, name, counter=None):
        """Return fn wrapped so that each call records one span."""
        sid = self.ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        module = name.split(".", 1)[0]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter_ns
        if counter is None and name in ARGUMENT_COUNTERS:
            counter = ARGUMENT_COUNTERS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(index)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                key, measure = counter
                counts[key] = counts.get(key, 0) + measure(args)
            if getattr(result, "assemble", None) is not None:
                result = self._bundle(result, module)
            return result

        traced.traced = True
        return traced

    def _bundle(self, bundle, module):
        if not dataclasses.is_dataclass(bundle) or getattr(bundle.assemble, "traced", False):
            return bundle
        points = (module + ".kernel_points", _points)
        wrapped = {
            attr: self.wrap(
                getattr(bundle, attr),
                "%s.bundle.%s" % (module, attr),
                points if attr in KERNEL_ATTRS else None,
            )
            for attr in BUNDLE_ATTRS
            if callable(getattr(bundle, attr, None))
        }
        return dataclasses.replace(bundle, **wrapped)

    def install(self):
        replacements = {}
        for short in MODULES:
            try:
                module = importlib.import_module("betaone." + short)
            except ModuleNotFoundError as exc:
                if exc.name != "betaone." + short:
                    raise
                self.absent.append(short)
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replacements[id(value)] = (value, self.wrap(value, short + "." + attr))
                elif inspect.isclass(value):
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            qualified = "%s.%s.%s" % (short, attr, method)
                            setattr(value, method, self.wrap(fn, qualified))

        def replacement(value):
            entry = replacements.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        for name, module in list(sys.modules.items()):
            if name != "betaone" and not name.startswith("betaone."):
                continue
            for attr, value in list(vars(module).items()):
                if replacement(value) is not None:
                    setattr(module, attr, replacement(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if replacement(item) is not None:
                            value[key] = replacement(item)

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            count_keys=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=float),
            absent=np.array(self.absent, dtype=str),
        )


def layer_totals(path):
    """Per span name: (calls, self seconds); plus the argument counters.

    A span's self time is its duration minus the durations of its child
    spans, which never overlap because the traced program is single
    threaded.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        duration = (data["end"] - data["start"]).astype(float)
        counts = dict(zip((str(k) for k in data["count_keys"]), data["count_values"].tolist()))
        absent = [str(a) for a in data["absent"]]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_s = (duration - covered) * 1e-9
    calls = np.bincount(name_id, minlength=len(names))
    seconds = np.bincount(name_id, weights=self_s, minlength=len(names))
    totals = {n: (int(c), float(s)) for n, c, s in zip(names, calls, seconds)}
    return totals, counts, absent
