"""Span tracer that measures the lsl layers from outside the library.

``patched(tracer)`` wraps every public function of each layer module by
replacing its module attribute, and also every other attribute in the
``lsl`` package bound to the same function object by ``from .x import
y`` (``lsl.simulate.quantize``, ``lsl.cli.certify_sum``, the package
re-exports).  A few methods that the per-layer metrics need are wrapped
on their classes.  Everything is restored when the context exits.

Each call records one span: name, start, end, parent span and op id,
kept in memory as parallel arrays and written out by ``write_spans``
(parent -1 marks a root span).
Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("lattices", "representation", "rates", "simulate", "leakage", "cli")

# Methods wrapped on their classes: (layer, class, attribute).
METHODS = (
    ("lattices", "NestedPair", "reduce"),
    ("simulate", "Scheme", "for_config"),
    ("leakage", "DiscreteEnsemble", "__post_init__"),
    ("leakage", "DiscreteEnsemble", "_check_cap"),
)


def _quantize_cosets(lat, x):
    # Construction-A searches every codeword coset; a cubic lattice has one.
    return len(lat.codewords) if lat.codewords else 1


def _closure_pairs(ens):
    return len(ens.elements) ** 2


def _states_checked(ens, exponent):
    # Every tally checks the joint state count against the cap first.
    return len(ens.elements) ** exponent


# Span name -> (counter name, function of the call's arguments).
COUNTERS = {
    "lattices.quantize": ("lattices.quantize.cosets", _quantize_cosets),
    "leakage.DiscreteEnsemble.__post_init__":
        ("leakage.closure_pairs", _closure_pairs),
    "leakage.DiscreteEnsemble._check_cap":
        ("leakage.states_tallied", _states_checked),
}


class Tracer:
    """In-memory span store; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, measure = counter
                tracer.counts[key] = (tracer.counts.get(key, 0)
                                      + measure(*args, **kwargs))
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op_id.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``wall_s`` and ``self_s``."""
        names = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        wall = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "wall_s": float(wall[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """Write every span to a compressed ``.npz`` of parallel arrays."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            op=np.frombuffer(self.op_id, dtype=np.intc))


def _lsl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "lsl" or name.startswith("lsl.")]


@contextmanager
def patched(tracer: Tracer):
    """Route every call into the lsl layers through ``tracer``."""
    modules = {layer: importlib.import_module(f"lsl.{layer}")
               for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                wrapped[id(val)] = (val, tracer.wrap(f"{layer}.{attr}", val))
    saved = []
    try:
        for mod in _lsl_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__))
            else:
                new = tracer.wrap(name, raw)
            saved.append((cls, attr, raw))
            setattr(cls, attr, new)
        yield tracer
    finally:
        for owner, attr, val in reversed(saved):
            setattr(owner, attr, val)
