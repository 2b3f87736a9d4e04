"""Layer tracing for the gibonacci benchmark, installed from outside the package.

``Tracer.install`` wraps the public functions of the five computational
layers (plus ``Poly.__call__``, ``AlgebraicNumber.refined``,
``GameConfig.g_hat`` and ``game._locate``) in every ``gibonacci`` module
namespace that holds them.  The package source is not edited.

Calls are aggregated per function (calls, total time, self time) instead of
being stored one span per call; self time is a call's duration minus the
time its traced children cover.  Each benchmark item is a root span whose
per-layer self times are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("exactnum", "polys", "roots", "game", "posets")
PACKAGE = "gibonacci"

# Methods and private functions traced in addition to each layer's public
# module-level functions.
EXTRA = {
    "exactnum": {"Poly.__call__": "poly_eval", "AlgebraicNumber.refined": "refined"},
    "game": {"GameConfig.g_hat": "g_hat", "_locate": "_locate"},
}

# Hit-ratio metric name -> the lru_cache it reads, as "module.attribute".
CACHES = {
    "exactnum.sturm_chain": "exactnum.sturm_chain",
    "polys.sa_poly": "polys._sa_poly_cached",
    "roots.roots_of": "roots.roots_of",
    "roots.cos_pi_enclosure": "roots.cos_pi_enclosure",
    "posets.triangle_rows": "posets._triangle_rows",
}


class _Stats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # "layer.name" -> _Stats
        self.counters = {
            "max_coeff_bits": 0,
            "refine_steps": 0,
            "roots_matched": 0,
            "rows_scanned": 0,
            "moves_played": 0,
            "elements_built": 0,
        }
        self.spans: list = []  # one per benchmark item
        self._stack: list = []  # child-time accumulators of the open spans
        self._caches: dict = {}  # "module.attr" -> lru_cache object

    # -- wrapping -------------------------------------------------------------

    def _timed(self, name: str, fn):
        stats = self.stats.setdefault(name, _Stats())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            covered = [0]
            stack.append(covered)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total_ns += dt
                stats.self_ns += dt - covered[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _counting(self, name: str, fn):
        """Work counters that need the arguments or result of one function."""
        counters = self.counters
        if name == "exactnum.sturm_chain":
            cache_info = fn.cache_info

            def sturm_chain(p):
                misses = cache_info().misses
                chain = fn(p)
                if cache_info().misses != misses:
                    bits = max((abs(c).bit_length() for f in chain for c in f), default=0)
                    counters["max_coeff_bits"] = max(counters["max_coeff_bits"], bits)
                return chain

            return sturm_chain
        if name == "roots.match_closed_forms":
            refined = self.stats.setdefault("exactnum.refined", _Stats())

            def match_closed_forms(rootset, enclosures):
                before = refined.calls
                ok = fn(rootset, enclosures)
                counters["refine_steps"] += refined.calls - before
                if ok:
                    counters["roots_matched"] += rootset.count
                return ok

            return match_closed_forms
        if name == "game._locate":

            def _locate(config):
                k, s = fn(config)
                counters["rows_scanned"] += k
                return k, s

            return _locate
        if name == "game.play":

            def play(*args, **kwargs):
                trace = fn(*args, **kwargs)
                counters["moves_played"] += trace.moves
                return trace

            return play
        if name == "posets.build_poset":

            def build_poset(*args, **kwargs):
                poset = fn(*args, **kwargs)
                counters["elements_built"] += poset.size
                return poset

            return build_poset
        return fn

    def _targets(self):
        """(metric name, holder, attribute, original) of every traced callable."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                yield f"{layer}.{attr}", module, attr, value
            for qualname, metric in EXTRA.get(layer, {}).items():
                holder, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    holder = getattr(module, cls_name)
                yield f"{layer}.{metric}", holder, attr, getattr(holder, attr)

    def install(self):
        """Patch every traced function in every gibonacci module namespace."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        # The wrappers hide cache_info, so the lru_cache objects are kept first.
        for module in modules:
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                    self._caches[f"{module.__name__.split('.')[-1]}.{attr}"] = value
        for name, holder, attr, original in list(self._targets()):
            wrapper = self._timed(name, self._counting(name, original))
            if isinstance(holder, type):
                setattr(holder, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def cache_infos(self) -> dict:
        """cache_info() of every lru_cache in the package, by module.name."""
        return {name: cache.cache_info()._asdict() for name, cache in sorted(self._caches.items())}

    # -- item spans -----------------------------------------------------------

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_ns
        return out

    def item(self, index: int, kind: str, run):
        """Run one benchmark item as a root span; returns run()'s result."""
        before = self.layer_self_ns()
        covered = [0]
        self._stack.append(covered)
        start = time.perf_counter_ns()
        try:
            return run()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            after = self.layer_self_ns()
            self.spans.append(
                {
                    "id": index,
                    "kind": kind,
                    "start_ns": start,
                    "end_ns": end,
                    "harness_self_ns": end - start - covered[0],
                    "layer_self_ns": {k: after[k] - before[k] for k in LAYERS},
                }
            )

    # -- reporting ------------------------------------------------------------

    def functions(self) -> dict:
        return {
            name: {"calls": st.calls, "total_s": st.total_ns / 1e9, "self_s": st.self_ns / 1e9}
            for name, st in sorted(self.stats.items())
        }

    def metrics(self) -> dict:
        """Per-layer values: calls and self time of every traced function,
        self time of each layer, cache hit ratios and the work counters."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_ns / 1e9
        for layer, ns in self.layer_self_ns().items():
            out[f"{layer}.self_s"] = ns / 1e9
        for name, cache in CACHES.items():
            info = self._caches[cache].cache_info()
            looked_up = info.hits + info.misses
            out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        c = self.counters
        out["exactnum.sturm_chain.max_coeff_bits"] = c["max_coeff_bits"]
        matched = c["roots_matched"]
        out["roots.refine_steps_per_root"] = c["refine_steps"] / matched if matched else 0.0
        out["game.rows_scanned"] = c["rows_scanned"]
        out["game.moves_played"] = c["moves_played"]
        out["posets.elements_built"] = c["elements_built"]
        return out

    def dump(self) -> dict:
        return {
            "functions": self.functions(),
            "counters": dict(self.counters),
            "caches": self.cache_infos(),
            "items": self.spans,
        }
