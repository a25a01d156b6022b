"""Span tracing of pasep from outside the package.

`Tracer.install` replaces public callables of the imported pasep modules by
timing wrappers: the ring operations on the `MPoly` class, the module
globals named in `TRACED` and `GENERATORS`, every Z(N) route reachable from
`verify.METHODS`, and every suite in `verify.SUITES`.  A name imported with
`from .polyring import ...` is bound in several modules, so each wrapper is
rebound wherever the original object appears.

The wrappers keep a span stack.  A span's self time is its duration minus
the durations of the spans it directly contains, so the self times of one
job, root span included, add up to the root span.  Everything stays in
memory; `Tracer.report` hands it back as one JSON-ready dict.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# Module globals wrapped as plain calls; the span is named "<module>.<fn>",
# except where ALIASES gives a shorter name.
TRACED = {
    "polyring": ("exact_div_pow_one_minus_q", "canonical_string", "substitute", "eval_rational"),
    "qtools": ("q_binomial", "touchard_M"),
    "formulas": (
        "R_formula",
        "B_formula",
        "stanton_moment_eval",
        "q_stirling2",
        "q_tangent_secant",
    ),
    "ansatz": ("normal_order", "hatted_coeffs", "state_weight"),
    "paths": ("sum_R", "sum_B", "jfraction_moment"),
    "perms": ("stats",),
    "tableaux": ("tableau_stats",),
    "bijections": (
        "foata_zeilberger",
        "foata_zeilberger_inverse",
        "francon_viennot",
        "francon_viennot_inverse",
        "combine_paths",
        "decompose_path",
    ),
}

# Module globals that return iterators; each next() is a span and each
# yielded object counts as an item.
GENERATORS = {
    "paths": ("enumerate_laguerre",),
    "perms": ("enumerate_permutations",),
    "tableaux": ("enumerate_tableaux",),
}

ALIASES = {
    "polyring.exact_div_pow_one_minus_q": "polyring.div",
    "polyring.canonical_string": "polyring.render",
}

MPOLY_OPS = {"__mul__": "polyring.mul", "__rmul__": "polyring.mul",
             "__add__": "polyring.add", "__radd__": "polyring.add"}

_DONE = object()


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.suite_s: defaultdict[str, float] = defaultdict(float)
        self.term_products = 0
        self.routes: dict[str, str] = {}
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._depth: Counter[str] = Counter()
        self._modules: dict = {}

    # -- wrappers -----------------------------------------------------

    def _close(self, name: str, frame: list[float]) -> float:
        d = time.perf_counter() - frame[0]
        self._stack.pop()
        self._stack[-1][1] += d
        self.self_s[name] += d - frame[1]
        return d

    def span(self, name: str, fn, on_exit=None):
        """Wrap a call; `on_exit(args, result, seconds)` runs after a success."""
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                d = self._close(name, frame)
                self.calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    self.incl_s[name] += d
            if on_exit is not None:
                on_exit(args, result, d)
            return result

        wrapper.traced = fn
        return wrapper

    def gen_span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(it, _DONE)
                finally:
                    self._close(name, frame)
                if item is _DONE:
                    return
                self.items[name] += 1
                yield item

        wrapper.traced = fn
        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"pasep.{name}") for name in (*TRACED, "verify")}
        self._modules = mods
        polyring, verify = mods["polyring"], mods["verify"]
        as_poly = polyring.as_poly

        def count_products(args, result, d):
            self.term_products += args[0].num_terms() * as_poly(args[1]).num_terms()

        for attr, name in MPOLY_OPS.items():
            hook = count_products if name == "polyring.mul" else None
            setattr(polyring.MPoly, attr, self.span(name, getattr(polyring.MPoly, attr), hook))

        wrapped: dict[int, object] = {}
        for mod, names in TRACED.items():
            for fn_name in names:
                fn = getattr(mods[mod], fn_name)
                span_name = ALIASES.get(f"{mod}.{fn_name}", f"{mod}.{fn_name}")
                wrapped[id(fn)] = self.span(span_name, fn)
        for mod, names in GENERATORS.items():
            for fn_name in names:
                fn = getattr(mods[mod], fn_name)
                wrapped[id(fn)] = self.gen_span(f"{mod}.{fn_name}", fn)
        for route, fn in verify.METHODS.items():
            span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self.routes[route] = span_name
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.span(span_name, fn)

        def record_suite(args, report, d):
            self.suite_s[report.suite] += d

        for fn in verify.SUITES["all"]:
            wrapped[id(fn)] = self.span(f"verify.{fn.__name__}", fn, record_suite)

        for name, module in list(sys.modules.items()):
            if name == "pasep" or name.startswith("pasep."):
                _rebind(vars(module), wrapped)
        _rebind(verify.METHODS, wrapped)
        for key, suite in verify.SUITES.items():
            verify.SUITES[key] = tuple(wrapped.get(id(fn), fn) for fn in suite)

    # -- running and reporting ----------------------------------------

    def run_root(self, fn, *args):
        """Call fn inside the root span and return its result."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args)
        finally:
            self.root_s = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_s["root"] += self.root_s - frame[1]

    def caches(self) -> dict[str, dict[str, int]]:
        """Summed cache_info() of every lru_cache'd function, per module."""
        out = {}
        for mod, module in self._modules.items():
            total = {"hits": 0, "misses": 0, "entries": 0}
            for obj in vars(module).values():
                obj = getattr(obj, "traced", obj)
                if not hasattr(obj, "cache_info") or obj.__module__ != module.__name__:
                    continue
                ci = obj.cache_info()
                total["hits"] += ci.hits
                total["misses"] += ci.misses
                total["entries"] += ci.currsize
            out[mod] = total
        return out

    def report(self) -> dict:
        return {
            "root_s": self.root_s,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "items": dict(self.items),
            "suite_s": dict(self.suite_s),
            "term_products": self.term_products,
            "routes": self.routes,
            "caches": self.caches(),
        }


def _rebind(namespace: dict, wrapped: dict[int, object]) -> None:
    for key, value in list(namespace.items()):
        replacement = wrapped.get(id(value))
        if replacement is not None:
            namespace[key] = replacement
