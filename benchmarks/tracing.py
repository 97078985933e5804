"""Per-layer spans for a traced benchmark pass.

`Tracer.install()` wraps the entry points of each iqtheta module (the
layers `presets`, `relations`, `lattices`, `thetas` and `cli`) and rebinds
every module attribute that refers to one of them, so callers that did
``from .thetas import theta_general`` go through the wrapper too.  Each call
records a span (name, parent, start, end, one result count) in memory;
`layer_metrics()` reduces the spans after the pass.  A span's self time is
its duration minus the durations of its direct children, and a layer's self
time is the sum over its spans.

`kfield` has no wrapper: per-element `KMatrix` calls are too frequent to
wrap cheaply, so its cost lands in the self time of its callers.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict


def _points(v):
    return v.lattice_points_used


def _terms(v):
    return len(v.terms)


def _reps(v):
    return len(v.representatives)


def _monomials(v):
    return len(v.monomials)


# (module, attribute, count taken from the result); a dotted attribute is a
# method of a class in that module.
WRAPPED = (
    ("presets", "make_preset", None),
    ("presets", "IdentityCheck.evaluate", None),
    ("relations", "build_relation", _terms),
    ("relations", "evaluate_relation", None),
    ("relations", "decompose_rational_P", _monomials),
    ("relations", "PDecomposition.evaluate", None),
    ("lattices", "shift_group", None),
    ("lattices", "character_group", None),
    ("lattices", "quotient_group", _reps),
    ("lattices", "index_in", None),
    ("lattices", "lattice_image", None),
    ("lattices", "lattice_intersect", None),
    ("thetas", "theta_general", _points),
    ("thetas", "theta_check_variant", _points),
    ("thetas", "riemann_theta_z0", _points),
    ("thetas", "_theta_dense", _points),
    ("cli", "main", None),
)

# Lattice calls that make up an index computation (the group-order screen)
# when made from outside the layer; inside shift_group and character_group
# they count towards lattices.group_s instead.
INDEX_CALLS = ("lattices.lattice_image", "lattices.lattice_intersect",
               "lattices.index_in")

SMALL_CALL_POINTS = 1_000
LARGE_CALL_POINTS = 100_000


class Tracer:
    """Collects spans from wrapped iqtheta entry points."""

    def __init__(self) -> None:
        # one list per span: [name, parent index, start, end, count]
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.cache_hits = 0

    def _wrap(self, name, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1], clock(), 0.0, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if count is not None:
                span[4] = count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import iqtheta.cli  # noqa: F401  (load every layer before rebinding)

        originals = {}
        for layer, attr, count in WRAPPED:
            module = sys.modules[f"iqtheta.{layer}"]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), count))
            else:
                fn = getattr(module, attr)
                originals[id(fn)] = self._wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "iqtheta" and not mod_name.startswith("iqtheta."):
                continue
            for key, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)

        from iqtheta.thetas import ThetaCache

        inner = ThetaCache.get_or_compute
        tracer = self

        def get_or_compute(cache, key, compute):
            before = cache.hits
            value = inner(cache, key, compute)
            tracer.cache_hits += cache.hits - before
            return value

        ThetaCache.get_or_compute = get_or_compute

    def layer_metrics(self) -> dict:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        dense_child: dict[int, int] = {}
        for i, (name, parent, start, end, n) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                if name == "thetas._theta_dense":
                    dense_child[parent] = n
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for i, (name, parent, start, end, n) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            self_s[layer] += dur - child_time[i]
            self_s[name] += dur - child_time[i]
            calls[name] += 1
            counts[name] += n
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name != name:
                inclusive[name] += dur
            if not parent_name.startswith(layer + "."):  # entered the layer
                if layer == "thetas":
                    counts["thetas.outer_points"] += n
                elif name in INDEX_CALLS:
                    inclusive["lattices.index"] += dur
        small = []
        large_s = 0.0
        large_points = 0
        for parent, points in dense_child.items():
            start, end = spans[parent][2], spans[parent][3]
            if points < SMALL_CALL_POINTS:
                small.append(end - start)
            elif points >= LARGE_CALL_POINTS:
                large_s += end - start
                large_points += points
        return {
            "thetas.calls": calls["thetas.theta_general"],
            "thetas.cache_hits": self.cache_hits,
            "thetas.evals": calls["thetas._theta_dense"]
            + calls["thetas.riemann_theta_z0"],
            "thetas.points": counts["thetas.outer_points"],
            "thetas.small_call_us": statistics.median(small) * 1e6 if small else 0.0,
            "thetas.ns_per_point": (large_s / large_points * 1e9
                                    if large_points else 0.0),
            "thetas.self_s": self_s["thetas"],
            "relations.eval_self_s": self_s["relations.evaluate_relation"],
            "presets.identity_self_s": self_s["presets.IdentityCheck.evaluate"],
            "presets.make_s": inclusive["presets.make_preset"],
            "relations.build_s": inclusive["relations.build_relation"],
            "relations.terms": counts["relations.build_relation"],
            "lattices.group_s": inclusive["lattices.shift_group"]
            + inclusive["lattices.character_group"],
            "lattices.reps": counts["lattices.quotient_group"],
            "lattices.index_s": inclusive["lattices.index"],
            "lattices.index_calls": calls["lattices.index_in"],
            "relations.decompose_s": inclusive["relations.decompose_rational_P"],
            "relations.monomials": counts["relations.decompose_rational_P"],
            "relations.poly_self_s": self_s["relations.PDecomposition.evaluate"],
            "cli.self_s": self_s["cli"],
        }
