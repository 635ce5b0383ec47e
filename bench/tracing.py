"""Layer spans for a traced benchmark pass, recorded from outside ``scpp``.

``install`` replaces each target function with a timing wrapper at every
name a caller looks it up by: the attribute of its own module and every
``from ... import`` copy in the other ``scpp`` modules, plus the ``MPoly``
methods on the class.  A target that no longer exists is reported as
unobserved instead of failing, so a later restructuring of a layer cannot
break the traced run.

A span is kept in memory as ``[name, start, end, parent, op, info]`` and
written out when the pass ends.  ``layer_metrics`` turns the spans of one
pass into the per-layer metrics; it needs no ``scpp`` import.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, group): the group is the prefix of the layer's metrics,
# and a span is named "<group>/<function>"
FUNCTION_TARGETS = (
    ("scpp.cli", "main", "cli"),
    ("scpp.verify", "verify_box", "verify"),
    ("scpp.verify", "verify_scpp_count", "verify"),
    ("scpp.verify", "verify_middle_line", "verify"),
    ("scpp.verify", "verify_signed_enumeration", "verify"),
    ("scpp.verify", "verify_weight_consistency", "verify"),
    ("scpp.verify", "verify_schurid", "verify"),
    ("scpp.verify", "verify_square_reduction", "verify"),
    ("scpp.verify", "verify_specialization_bridge", "verify"),
    ("scpp.plane_partitions", "count_pp", "pp.count"),
    ("scpp.plane_partitions", "count_scpp", "pp.count"),
    ("scpp.plane_partitions", "count_scpp_signed", "pp.count"),
    ("scpp.plane_partitions", "count_scpp_middle_line", "pp.count"),
    ("scpp.plane_partitions", "check_move_graph", "pp.graph"),
    ("scpp.schur", "schur_tableau_sum", "schur"),
    ("scpp.pfaffian", "corollary_matrix", "pf.build"),
    ("scpp.pfaffian", "pfaffian", "pf.eval"),
    ("scpp.pfaffian", "exact_determinant", "pf.det"),
    ("scpp.products", "box_count", "products"),
    ("scpp.products", "sc_count", "products"),
    ("scpp.products", "middle_line_product", "products"),
    ("scpp.products", "signed_enumeration_product", "products"),
    ("scpp.products", "signed_enumeration_all_even", "products"),
)

# __rmul__ is a separate alias of __mul__, so it gets its own wrapper
METHOD_TARGETS = (
    ("scpp.polynomials", "MPoly", "__mul__", "poly.mul"),
    ("scpp.polynomials", "MPoly", "__rmul__", "poly.mul"),
    ("scpp.polynomials", "MPoly", "evaluate", "poly.eval"),
    ("scpp.polynomials", "MPoly", "digest", "poly.digest"),
)

LAYERS = ("cli", "verify", "pp", "schur", "poly", "pf", "products")


def _objects(args, result):
    # count_* return an int, or a SignedCount whose total is the object count
    return getattr(result, "total", result)


def _schur_info(args, result):
    shape, n = args[0], args[1]
    return [[part for part in shape if part], n, len(result.terms)]


def _mul_pairs(args, result):
    # |A|*|B| term pairs; multiplying by an int scales each of |A| terms once
    left, right = args[0], args[1]
    return len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)


INFO = {
    "pp.count": _objects,
    "pp.graph": lambda args, result: result.vertices,
    "schur": _schur_info,
    "pf.build": lambda args, result: result[0].dim,
    "poly.mul": _mul_pairs,
}


class Tracer:
    """Span store for one pass; ``op`` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.unobserved: list[str] = []

    def wrap(self, group: str, fn):
        name = f"{group}/{fn.__name__}"
        info = INFO.get(group)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "scpp" or name.startswith("scpp.")]
        for module_name, attr, group in FUNCTION_TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.unobserved.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(group, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, group in METHOD_TARGETS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.unobserved.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(group, original))


# ---------------------------------------------------------------------------
# analysis of one traced pass


def _group(span) -> str:
    return span[0].split("/", 1)[0]


def layer_metrics(spans: list[list], verify_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values only; units live in
    BENCHMARK.json).  Times and counts take only the outermost span of a
    group, so a layer that calls itself through a wrapped name is counted
    once."""
    groups = [_group(s) for s in spans]
    outermost = []
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
        while parent >= 0 and groups[parent] != groups[i]:
            parent = spans[parent][3]
        outermost.append(parent < 0)

    def top(group):
        return [s for s, g, o in zip(spans, groups, outermost) if g == group and o]

    def total_s(group):
        return sum(s[2] - s[1] for s in top(group))

    def self_s(group):
        return sum(
            (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if groups[i] == group
        )

    def info_sum(group):
        # a span whose call raised carries no info
        return sum(s[5] or 0 for s in top(group))

    schur = [s for s in top("schur") if s[5] is not None]
    shapes = [(tuple(s[5][0]), s[5][1]) for s in schur]
    terms = {(tuple(s[5][0]), s[5][1]): s[5][2] for s in schur}
    count_s = total_s("pp.count")
    objects = info_sum("pp.count")
    root_s = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return {
        "pp.count_s": count_s,
        "pp.count_calls": len(top("pp.count")),
        "pp.objects": objects,
        "pp.objects_per_s": objects / count_s if count_s > 0 else 0.0,
        "pp.graph_s": total_s("pp.graph"),
        "pp.graph_vertices": info_sum("pp.graph"),
        "schur.s": total_s("schur"),
        "schur.calls": len(schur),
        "schur.distinct": len(terms),
        "schur.reuse": (len(shapes) - len(terms)) / len(shapes) if shapes else 0.0,
        "schur.terms": sum(terms.values()),
        "poly.mul_s": total_s("poly.mul"),
        "poly.mul_calls": len(top("poly.mul")),
        "poly.mul_pairs": info_sum("poly.mul"),
        "poly.eval_s": total_s("poly.eval"),
        "poly.eval_calls": len(top("poly.eval")),
        "poly.digest_s": total_s("poly.digest"),
        "verify.self_s": self_s("verify"),
        "pf.eval_s": total_s("pf.eval"),
        "pf.det_s": total_s("pf.det"),
        "pf.build_s": total_s("pf.build"),
        "pf.dim_max": max((s[5] or 0 for s in top("pf.build")), default=0),
        "products.s": total_s("products"),
        "cli.self_s": self_s("cli"),
        "trace.unattributed_s": verify_s - root_s,
    }


def unobserved_layers(unobserved_targets: list[str]) -> list[str]:
    """Layers none of whose targets could be wrapped."""
    missing = set(unobserved_targets)
    layers = []
    for layer in LAYERS:
        names = [f"{m}.{a}" for m, a, g in FUNCTION_TARGETS if g.split(".")[0] == layer]
        names += [f"{m}.{c}.{a}" for m, c, a, g in METHOD_TARGETS if g.split(".")[0] == layer]
        if names and all(n in missing for n in names):
            layers.append(layer)
    return layers
