"""Spans and counters wrapped around the public API of each lfk module.

The library is not changed: `instrument` replaces the public functions
and methods of every layer module with wrappers, in every lfk namespace
that holds them, so intra-package calls go through the wrappers too.

Three kinds of wrapper, chosen per layer to keep the overhead bounded:

* span layers (fp_linalg, class_spaces, extensions, pairings_verifiers,
  cli): public functions always open a span; methods open one only when
  called from another layer;
* local_arith: a frame is timed only when the call crosses into the layer
  from outside it, and it is not kept as a span record (there are
  hundreds of thousands per field);
* residues: counters only, so residue-field time is part of the caller's
  self time.

The hot kernel methods (ResidueElement.mul, ZqElement.mul and
LaurentElement.__init__/mul/inv) are never recorded as spans.  A layer's
self time is the time its frames are open minus the time of the child
frames opened inside them.
"""

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = (
    "residues",
    "local_arith",
    "fp_linalg",
    "class_spaces",
    "extensions",
    "pairings_verifiers",
    "cli",
)
_COUNT_ONLY = {"residues"}
_NO_SPAN = {"local_arith"}
_HOT = {
    "residues.ResidueElement.mul",
    "local_arith.ZqElement.mul",
    "local_arith.LaurentElement.__init__",
    "local_arith.LaurentElement.mul",
    "local_arith.LaurentElement.inv",
}
_REDUCERS = {
    "class_spaces.unit_class_reduce",
    "class_spaces.windowed_unit_reduce",
    "class_spaces.as_class_reduce",
}
# names whose inclusive time is accumulated (outermost call only)
_INCLUSIVE = {"pairings_verifiers.norm_class_subgroup"}

_clock = time.perf_counter


class Tracer:
    """In-memory spans, per-name call counts and per-layer self time."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.inclusive_s = Counter()
        self.spans = []
        # frame: [layer, name, start, child_seconds, span_id, nearest_span_id]
        self.stack = []
        self.request = None

    def enter(self, layer, name, record):
        parent = self.stack[-1][5] if self.stack else None
        now = _clock()
        sid = None
        if record:
            sid = len(self.spans)
            self.spans.append([name, layer, now, None, parent, self.request])
        self.stack.append([layer, name, now, 0.0, sid, parent if sid is None else sid])

    def leave(self):
        now = _clock()
        layer, name, start, child, sid, _ = self.stack.pop()
        dur = now - start
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if sid is not None:
            self.spans[sid][3] = now
        if name in _INCLUSIVE and not any(f[1] == name for f in self.stack):
            self.inclusive_s[name] += dur
        return dur

    def span(self, name, request):
        """Context manager for a root span (one claim or one query)."""
        return _Root(self, name, request)

    def inside(self, name):
        return any(f[1] == name for f in self.stack)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "request"],
                    "spans": self.spans,
                },
                fh,
            )


class _Root:
    def __init__(self, tracer, name, request):
        self.tracer = tracer
        self.name = name
        self.request = request
        self.seconds = None

    def __enter__(self):
        self.tracer.request = self.request
        self.tracer.enter("request", self.name, True)
        return self

    def __exit__(self, *exc):
        self.seconds = self.tracer.leave()
        self.tracer.request = None
        return False


def _wrap(tracer, fn, layer, qualname, is_method):
    counts = tracer.counts
    stack = tracer.stack
    if layer in _COUNT_ONLY:

        def counted(*a, **kw):
            counts[qualname] += 1
            return fn(*a, **kw)

        wrapper = counted
    elif qualname in _REDUCERS:

        def reducer(*a, **kw):
            counts[qualname] += 1
            if tracer.inside("class_spaces.adapted_basis"):
                counts["class_spaces.basis_reduce"] += 1
            tracer.enter(layer, qualname, True)
            try:
                return fn(*a, **kw)
            finally:
                tracer.leave()

        wrapper = reducer
    else:
        always = not is_method and layer not in _NO_SPAN
        record = layer not in _NO_SPAN and qualname not in _HOT

        def framed(*a, **kw):
            counts[qualname] += 1
            if not always and stack and stack[-1][0] == layer:
                return fn(*a, **kw)
            tracer.enter(layer, qualname, record)
            try:
                return fn(*a, **kw)
            finally:
                tracer.leave()

        wrapper = framed
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _wanted(layer, cls_name, name):
    if layer in _COUNT_ONLY or name == "__init__":
        return "%s.%s.%s" % (layer, cls_name, name) in _HOT
    return not name.startswith("_")


def instrument(tracer):
    """Route every public lfk callable through `tracer`, for the rest of the process."""
    mods = {layer: importlib.import_module("lfk." + layer) for layer in LAYERS}
    replaced = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if layer in _COUNT_ONLY:
                    continue
                replaced[id(obj)] = _wrap(tracer, obj, layer, "%s.%s" % (layer, name), False)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, meth in list(vars(obj).items()):
                    if not inspect.isfunction(meth) or not _wanted(layer, name, mname):
                        continue
                    qual = "%s.%s.%s" % (layer, name, mname)
                    setattr(obj, mname, _wrap(tracer, meth, layer, qual, True))
    namespaces = [importlib.import_module("lfk")] + list(mods.values())
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
