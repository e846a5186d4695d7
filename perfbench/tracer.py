"""Spans around k3lat's public functions, recorded from outside the library.

`Tracer.install` replaces each target function with a wrapper in every
loaded k3lat module namespace that binds it (methods on their class), so a
call reaches the wrapper however the caller imported the name.  Each
wrapped call records one span: name, start, end and parent span.  A
generator function records one span per `next()`.  Spans stay in memory;
`write` stores them at the end, and `metrics` derives calls, total time and
self time (span time minus the time its child spans cover) per function,
plus the exact work counts below.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _decision_count(tracer, args, decision):
    tracer.counts["k3class.candidates_tried"] += decision.candidates_tried


def _nikulin_count(tracer, args, exists):
    tracer.counts["fqf.nikulin_exists.true"] += bool(exists)


def _closure_count(tracer, args, elements):
    # closure_perms answers repeat calls from the group's cache; count each
    # group's elements once, when it is first closed
    group = args[0]
    if group not in tracer.closed_groups:
        tracer.closed_groups.add(group)
        tracer.counts["rootsys.group_elements"] += len(elements)


def _vector_count(tracer, args, vectors):
    tracer.counts["intlat.short_vectors.vectors"] += len(vectors)


def _class_count(tracer, args, result):
    tracer.counts["prootpair.pseudo_classes"] += len(result.entries)


# (module, attribute or Class.method, result hook)
TARGETS = (
    ("k3class", "primitively_embeds", _decision_count),
    ("fqf", "nikulin_exists", _nikulin_count),
    ("fqf", "signature_mod8", None),
    ("fqf", "overlattice_candidates", None),
    ("fqf", "symbol_of", None),
    ("_exact", "mat_mul", None),
    ("_exact", "row_hnf", None),
    ("_exact", "snf_transform", None),
    ("rootsys", "IsometryGroup.closure_perms", _closure_count),
    ("rootsys", "RootDatum.matrix_of_perm", None),
    ("rootsys", "build", None),
    ("prootpair", "classify", _class_count),
    ("prootpair", "verdict", None),
    ("intlat", "short_vectors", _vector_count),
    ("intlat", "roots", None),
    ("intlat", "discriminant_group", None),
    ("hmdata", "load_table", None),
    ("hmdata", "parse_symbol", None),
)

# Counts of work done; they must repeat exactly between runs at one seed.
EXACT_COUNTS = ("k3class.candidates_tried", "fqf.overlattice_candidates.yields",
                "rootsys.group_elements", "intlat.short_vectors.vectors",
                "prootpair.pseudo_classes")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.paused = False
        self.closed_groups = weakref.WeakSet()

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (reference checks use this)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _enter(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if self.paused:
                    return gen
                self.calls[name] += 1
                return self._iterate(name, nid, gen)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _iterate(self, name, nid, gen):
        try:
            while True:
                idx = self._enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[name + ".yields"] += 1
                yield item
        finally:
            gen.close()

    def install(self, package: str = "k3lat") -> None:
        """Wrap every target in every loaded module of `package` binding it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        originals = []
        for module, attr, hook in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            # metric names start with a letter: `_exact` reports as `exact`
            wrapper = self._wrap(f"{module.lstrip('_')}.{attr}", original, hook)
            originals.append(original)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        left = [f"{mod.__name__}.{key}" for mod in modules
                for key, value in vars(mod).items()
                if any(value is o for o in originals)]
        if left:
            raise RuntimeError(f"unwrapped bindings remain: {left}")

    def metrics(self) -> dict:
        """calls/total_s/self_s per target plus the work counts."""
        n = len(self.starts)
        child = [0.0] * n
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += dur
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            nid = self.name_ids[i]
            total[nid] += dur
            own[nid] += dur - child[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = own[nid]
        for key in EXACT_COUNTS:
            out[key] = self.counts[key]
        decisions = self.calls["k3class.primitively_embeds"]
        out["k3class.candidates_per_decision"] = (
            self.counts["k3class.candidates_tried"] / decisions if decisions else 0)
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
