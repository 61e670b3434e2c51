"""Span tracer that wraps the package's public functions from outside.

The traced run installs a wrapper around every public function and public
method of each traced module, keeps one span per call in memory
(name, start, end, parent) and removes the wrappers afterwards.  A name that
another module binds through ``from ... import`` is patched there too, so a
call goes through the wrapper whichever module makes it.

Self time of a span is its duration minus the durations of its direct child
spans.  Inclusive time of a name (``.s``) sums only its outermost spans, so
recursion is not counted twice.  The span of a generator (``edges``,
``halfplanes``) covers only its creation; iterating it is the caller's time.
"""

from array import array
from collections import Counter
import functools
import importlib
import json
import time
import types

MODULES = (
    "cli", "jsonio", "translates", "homothets", "bodies", "certificates",
    "covers", "sandwich", "oracle", "circles", "radicals", "geom",
)

# Exact-arithmetic primitives called millions of times per op.  Wrapping them
# would multiply the run time and they are no layer boundary; their time
# stays in the self time of the caller.
SKIP = frozenset({
    "geom.frac", "geom.orient",
    "geom.Point.dot", "geom.Point.cross", "geom.Point.perp", "geom.Point.norm2",
    "geom.Interval.overlaps", "geom.Interval.length",
    "radicals.Radical.is_rational", "radicals.Radical.as_fraction",
    "radicals.RadPoint.is_rational",
})

# Bindings the traced run must reach, as (module, name): each is imported by
# name from the module that defines it, so patching only the definition
# would miss the calls made through it.
REQUIRED_BINDINGS = (
    ("bodies", "pair_checker"), ("translates", "pair_checker"),
    ("homothets", "pair_checker"),
    ("sandwich", "hexagon_sandwich"), ("translates", "hexagon_sandwich"),
    ("covers", "translate_cluster_cover"), ("translates", "translate_cluster_cover"),
)

_CACHE_COUNTED = ("translate_cluster_cover", "homothet_cover")


class Tracer:
    """Spans and counters of one traced run; install() patches, uninstall() restores."""

    def __init__(self):
        self.labels = []
        self._label_id = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_nested = array("b")
        self._stack = []
        self._active = []
        self.counters = Counter()
        self._patches = []

    # -- spans -------------------------------------------------------------

    def label_id(self, label):
        nid = self._label_id.get(label)
        if nid is None:
            nid = self._label_id[label] = len(self.labels)
            self.labels.append(label)
            self._active.append(0)
        return nid

    def begin(self, nid):
        idx = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_nested.append(self._active[nid] > 0)
        self._active[nid] += 1
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.span_name[idx]] -= 1

    def wrap(self, label, fn):
        nid = self.label_id(label)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    # -- installation ------------------------------------------------------

    def _modules(self):
        return {name: importlib.import_module("piercing." + name) for name in MODULES}

    def _targets(self, modules):
        """Yield (label, owner, attribute, function) for every traced callable."""
        for short, mod in modules.items():
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    label = "%s.%s" % (short, name)
                    if label not in SKIP:
                        yield label, mod, name, obj
                elif isinstance(obj, type):
                    for meth, fn in sorted(vars(obj).items()):
                        label = "%s.%s.%s" % (short, name, meth)
                        if (not meth.startswith("_") and isinstance(fn, types.FunctionType)
                                and label not in SKIP):
                            yield label, obj, meth, fn

    def _special(self, short, name, fn, covers_mod):
        """Wrappers that also count: pair tests and hits, pattern-cache misses."""
        if (short, name) == ("bodies", "pair_checker"):
            tests, hits = "bodies.pair_checker.tests", "bodies.pair_checker.hits"
            counters = self.counters

            def pair_checker(f):
                check = fn(f)
                timed = self.wrap("bodies.pair_checker.check", check)

                def counted(i, j):
                    met = timed(i, j)
                    counters[tests] += 1
                    if met:
                        counters[hits] += 1
                    return met

                return counted

            return functools.wraps(fn)(pair_checker)
        if short == "covers" and name in _CACHE_COUNTED:
            cache = getattr(covers_mod, "_pattern_cache", None)
            key = "covers.%s.misses" % name
            counters = self.counters

            def cover(body):
                before = len(cache) if cache is not None else 0
                pat = fn(body)
                if cache is not None and len(cache) > before:
                    counters[key] += 1
                return pat

            return functools.wraps(fn)(cover)
        return fn

    def install(self):
        modules = self._modules()
        wrapped = {}
        for label, owner, attr, fn in list(self._targets(modules)):
            short = label.split(".", 1)[0]
            inner = self._special(short, attr, fn, modules["covers"])
            wrapper = self.wrap(label, inner)
            wrapped[id(fn)] = (fn, wrapper)
            self._patch(owner, attr, wrapper)
        # names bound elsewhere by ``from .module import name``
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        for short, name in REQUIRED_BINDINGS:
            if not hasattr(getattr(modules[short], name), "__wrapped__"):
                raise RuntimeError("trace: %s.%s was not patched" % (short, name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """Per label: calls, inclusive seconds of outermost spans, self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.labels)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if not nested[i]:
                incl[nid] += dur
        return {label: {"calls": calls[j], "s": incl[j], "self_s": self_s[j]}
                for j, label in enumerate(self.labels)}

    def root_residue(self):
        """(root seconds, seconds of roots not covered by their child spans)."""
        total = residue = 0.0
        n = len(self.span_start)
        child = {}
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0 and self.span_parent[p] < 0:
                child[p] = child.get(p, 0.0) + self.span_end[i] - self.span_start[i]
        for i in range(n):
            if self.span_parent[i] < 0:
                dur = self.span_end[i] - self.span_start[i]
                total += dur
                residue += dur - child.get(i, 0.0)
        return total, residue

    def write(self, path, aggregate):
        """Write a JSON header (labels, counters, aggregates), then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"labels": self.labels, "counters": dict(self.counters),
                                 "aggregate": aggregate}) + "\n")
            fh.write("# span: name_id parent start end\n")
            for i in range(len(self.span_start)):
                fh.write("%d %d %.9f %.9f\n" % (self.span_name[i], self.span_parent[i],
                                                self.span_start[i], self.span_end[i]))
