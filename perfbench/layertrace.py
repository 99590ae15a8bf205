"""Spans and counts around the public functions of each coiso module.

The tracer patches functions and methods from outside the library: module
functions (in every coiso module that imported them by name), class
methods, static methods and the arithmetic operators.  A call opens a span
when it crosses from one layer (module) into another, and every call of a
``cli`` function (the pipeline stages) opens one; any other call inside
the same layer is counted and its time stays in the enclosing span, so a
layer's self time is the time spent in its own code.  Spans and counts are
kept in memory; ``write_spans`` writes them out at the end.

GaussianRational is counted, not timed: a span per coefficient operation
would cost more than the operation, so rational time shows in the self time
of the layer that calls it (mostly ``ring``).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
import types
from collections import Counter, defaultdict

LAYERS = (
    "rational",
    "ring",
    "multivector",
    "multider",
    "leafform",
    "geom",
    "linfty",
    "transversal",
    "graded",
    "bfv",
    "scenario",
    "expr",
    "serialize",
    "cli",
)

# Operators that are part of a class's public interface.
OPERATORS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
}

# Rational operations are counted under these names and never spanned.
RATIONAL_COUNTS = {
    "__mul__": "rational.mul_calls",
    "__rmul__": "rational.mul_calls",
    "__add__": "rational.add_calls",
    "__radd__": "rational.add_calls",
    "__truediv__": "rational.div_calls",
    "__rtruediv__": "rational.div_calls",
}

# Predicates (is_*) and these constant constructors do O(1) work: they are
# counted, not spanned.
CONSTANTS = {"zero", "one"}

# Private functions whose calls are per-layer counts.
PRIVATE = {("graded", "GradedElement._compose"), ("cli", "_random_graded_section")}


def _plain(fn) -> bool:
    """A function whose work is done when it returns: a generator's runs
    after the call, outside any span around it."""
    return isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn)


class Tracer:
    def __init__(self):
        # (span id, parent span id, request, name, start ns, end ns)
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []  # (span id, layer)
        self._patches = []  # (owner, attribute, original value)
        self._ring_fn = None

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        modules = {name: importlib.import_module(f"coiso.{name}") for name in LAYERS}
        self._ring_fn = modules["ring"].ScalarFn
        wrapped = {}  # id(original function) -> wrapper, for re-exported names
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    if not issubclass(value, BaseException):
                        self._patch_class(layer, value)
                elif self._wants(layer, mod, attr, value):
                    wrapped[id(value)] = self._wrap(layer, attr, value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _wants(layer, mod, attr, value) -> bool:
        if not _plain(value) or value.__module__ != mod.__name__:
            return False
        return not attr.startswith("_") or (layer, attr) in PRIVATE

    def _patch_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if layer == "rational":
                if attr in RATIONAL_COUNTS:
                    self._set(cls, attr, self._counter(RATIONAL_COUNTS[attr], value))
                continue
            public = not attr.startswith("_") or attr in OPERATORS
            if not public and (layer, qual) not in PRIVATE:
                continue
            if isinstance(value, staticmethod) and _plain(value.__func__):
                self._set(cls, attr, staticmethod(self._wrap(layer, qual, value.__func__)))
            elif _plain(value):
                self._set(cls, attr, self._wrap(layer, qual, value))

    # -- wrappers -----------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, layer, qual, fn):
        name = f"{layer}.{qual}"
        if (layer, qual) == ("cli", "_random_graded_section"):
            return self._counter("bfv.axiom_samples", fn)
        short = qual.rsplit(".", 1)[-1]
        if short.startswith("is_") or short in CONSTANTS:
            return self._counter(name, fn)
        if name == "ring.ScalarFn.__mul__":
            return self._span(layer, name, fn, post=self._count_products)
        if name == "bfv.sbso":
            return self._span(layer, name, fn, pre=self._count_sbso_steps)
        return self._span(layer, name, fn)

    def _span(self, layer, name, fn, pre=None, post=None):
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[name] += 1
            if pre is not None:
                args, done = pre(args)
            if stack and stack[-1][1] == layer and layer != "cli":
                result = fn(*args, **kwargs)
            else:
                span = len(spans) + len(stack) + 1
                parent = stack[-1][0] if stack else 0
                stack.append((span, layer))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span, parent, self.request, name, start, end))
            if pre is not None:
                done()
            if post is not None:
                post(args, result)
            return result

        return traced

    def _count_products(self, args, result):
        a, b = args
        if isinstance(b, self._ring_fn):
            self.counts["ring.term_products"] += len(a.terms) * len(b.terms)
            self.counts["ring.product_terms"] += len(result.terms)

    def _count_sbso_steps(self, args):
        """sbso squares its input once for the applicability test and once
        per step of its correction loop."""
        counts, bracket = self.counts, args[0]
        calls = [0]

        def counted(a, b):
            calls[0] += 1
            return bracket(a, b)

        def done():
            counts["bfv.sbso_steps"] += max(0, calls[0] - 1)

        return (counted,) + tuple(args[1:]), done

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus the part of it its
        child spans cover, summed by the layer that opened the span."""
        covered = defaultdict(int)
        for span, parent, _, _, start, end in self.spans:
            covered[parent] += end - start
        out = defaultdict(float)
        for span, _, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] += (end - start - covered[span]) / 1e9
        return dict(out)

    def inclusive(self, name: str) -> float:
        return sum(e - s for _, _, _, n, s, e in self.spans if n == name) / 1e9

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for row in sorted(self.spans):
                fh.write("\t".join(map(str, row)) + "\n")
