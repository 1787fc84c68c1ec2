"""Runtime span tracer for padicsp's layers, installed from outside the library.

`install` wraps the public functions and methods of each layer module in
place and rebinds every copy that other padicsp modules took with
`from ... import`, so a call is recorded whichever name it goes through.
Each call appends one span (name, start, end, parent, request) to
in-memory columns; `Tracer.layer_table` reduces them to per-function
calls, inclusive (busy) time and self time after the run.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from stats import self_times

LAYERS = ("padic", "quadext", "rootsys", "chevalley", "metaplectic", "schwartz", "harness")

# Dunder methods that are part of a class's public API and get a plain name.
_DUNDER_NAMES = {"__mul__": "mul"}


class Tracer:
    """Span columns plus the per-name counters the wrappers update as they run."""

    def __init__(self, passthrough=()):
        self.names = []
        self._ids = {}
        self.requests = [None]
        self._request_ids = {None: 0}
        self.request = 0
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.req = array("l")
        self._stack = []
        self._depth = []  # open spans per name, to find the outermost ones
        self.busy = []  # inclusive seconds of outermost spans per name
        self.errors = []
        self.arg_keys = {}  # name id -> set of distinct argument keys
        self.counters = {}
        self._passthrough = tuple(passthrough)  # exception types not counted as errors
        self.guard = False  # True while a wrapper updates the columns
        self.pending = None  # an exception a signal handler deferred while guarded

    def raise_pending(self):
        exc, self.pending = self.pending, None
        if exc is not None:
            raise exc

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.busy.append(0.0)
            self.errors.append(0)
        return nid

    def set_request(self, request):
        rid = self._request_ids.get(request)
        if rid is None:
            rid = self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        self.request = rid

    def bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name, fn, observe=None, distinct_args=False):
        """A stand-in for fn that records one span per call.

        observe(args, kwargs, result) runs after a successful call;
        distinct_args keeps the set of argument tuples seen.
        """
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        if distinct_args:
            self.arg_keys[nid] = set()
        seen = self.arg_keys.get(nid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The columns must stay aligned even when a signal handler raises
            # (weil-words times cases out with SIGALRM): while `guard` is set
            # the handler parks its exception in `pending` instead of raising.
            self.guard = True
            idx = len(self.start)
            self.start.append(clock())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.req.append(self.request)
            stack.append(idx)
            depth[nid] += 1
            self.guard = False
            try:
                self.raise_pending()
                result = fn(*args, **kwargs)
            except self._passthrough:
                raise
            except Exception:
                self.errors[nid] += 1
                raise
            finally:
                self.guard = True
                t = clock()
                self.end[idx] = t
                stack.pop()
                depth[nid] -= 1
                if depth[nid] == 0:
                    self.busy[nid] += t - self.start[idx]
                self.guard = False
            self.guard = True
            if seen is not None:
                seen.add(_arg_key(args, kwargs))
            if observe is not None:
                observe(args, kwargs, result)
            self.guard = False
            self.raise_pending()
            return result

        traced._bench_span = name
        return traced

    def layer_table(self):
        """Per-name {calls, busy_s, self_s, errors, distinct} and per-layer self seconds."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += own[i]
        table = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            row = {
                "calls": calls[nid],
                "busy_s": self.busy[nid],
                "self_s": self_s[nid],
                "errors": self.errors[nid],
            }
            if nid in self.arg_keys:
                row["distinct"] = len(self.arg_keys[nid])
            table[name] = row
            layer_self[name.split(".", 1)[0]] += self_s[nid]
        return table, layer_self

    def write_spans(self, path):
        """Gzip the span columns: a JSON header line, then the raw arrays in order."""
        header = {
            "names": self.names,
            "requests": self.requests,
            "count": len(self.start),
            "columns": [["start", "d"], ["end", "d"], ["parent", "l"], ["name", "l"], ["request", "l"]],
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.start, self.end, self.parent, self.name, self.req):
                col.tofile(fh)


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _targets(module, layer):
    """(span name, owner, attribute, raw attribute) for each public callable defined in module."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{attr}", module, attr, obj))
        elif inspect.isclass(obj):
            for mattr, raw in sorted(vars(obj).items()):
                label = _DUNDER_NAMES.get(mattr, mattr)
                if label.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    out.append((f"{layer}.{attr}.{label}", obj, mattr, raw))
    return out


def install(tracer, observers=None, distinct=()):
    """Wrap every layer's public callables and rebind the copies other modules hold.

    observers maps a span name to an observe callback; distinct names the
    spans whose distinct argument tuples are counted.  Returns the span
    names installed.
    """
    observers = observers or {}
    replaced = {}  # id(original function) -> wrapper
    installed = []
    for layer in LAYERS:
        modname = "padicsp" if layer == "harness" else f"padicsp.{layer}"
        mods = [importlib.import_module(modname)]
        if layer == "harness":
            mods = [importlib.import_module(f"padicsp.harness.{sub}") for sub in ("checks", "config", "report", "cli")]
        for module in mods:
            for name, owner, attr, raw in _targets(module, layer):
                if name in installed:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if hasattr(fn, "_bench_span"):
                    continue  # already traced by an earlier install
                wrapper = tracer.wrap(
                    name, fn, observe=observers.get(name), distinct_args=name in distinct
                )
                replaced[id(fn)] = wrapper
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                setattr(owner, attr, wrapper)
                installed.append(name)
    _rebind(replaced)
    return installed


def _rebind(replaced):
    """Point every module-level name that still holds an original at its wrapper."""
    for modname, module in list(sys.modules.items()):
        if not (modname == "padicsp" or modname.startswith("padicsp.")):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                setattr(module, attr, wrapper)


def trace_checks(tracer, catalog, spec_type):
    """Give each catalog check its own span and make its name the request id."""
    for check, spec in list(catalog.items()):
        inner = tracer.wrap(f"harness.check.{check}", spec.fn)

        def run(cfg, rng, _inner=inner, _check=check):
            tracer.set_request(_check)
            try:
                return _inner(cfg, rng)
            finally:
                tracer.set_request(None)

        catalog[check] = spec_type(run, spec.sampled)


def count_fraction_news():
    """Count every Fraction construction from now on; returns a reader for the count."""
    from fractions import Fraction

    original = Fraction.__new__
    count = [0]

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    Fraction.__new__ = counting_new
    return lambda: count[0]
