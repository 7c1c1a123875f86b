"""In-memory span tracer that wraps mpqc's public functions from outside.

`install` replaces the public functions of every loaded ``mpqc`` module, in
every namespace that binds them (re-exports, ``from x import y`` copies and
module-level dispatch dicts), and a fixed list of methods on ``Field``,
``Matrix`` and ``LinearCode`` at the class.  Each call appends one span
``[name, parent, start, end, work, error]`` to ``Tracer.spans``; nothing is
written until ``aggregate`` runs at the end.  The package itself is not
modified on disk and knows nothing about tracing.

Per-element field arithmetic (``Field.add``, ``Field.mul``, ...) runs about
10^8 times per workload and is deliberately not spanned.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

# Methods spanned at the class, as (module, class, method, span name).
CLASS_METHODS = [
    ("mpqc.gf", "Field", "__init__", "gf.field_build"),
    *(
        ("mpqc.matrix", "Matrix", m, "matrix." + m)
        for m in (
            "rref", "rank", "nullspace", "det_inverse", "det", "transpose",
            "submatrix", "vstack", "conjugate", "row_space_contains",
        )
    ),
    ("mpqc.matrix", "Matrix", "__matmul__", "matrix.matmul"),
    *(
        ("mpqc.code", "LinearCode", m, "code." + m)
        for m in (
            "from_generator", "full_space", "zero_code", "contains_word",
            "is_subcode_of", "euclidean_dual", "conjugate_code", "hermitian_dual",
            "is_hermitian_dual_containing", "codewords", "min_distance_exhaustive",
            "min_distance_by_supports", "is_mds",
        )
    ),
]


def _rref_cells(a):
    m = a["self"]
    return m.nrows * m.ncols


def _messages(a):
    c = a["self"]
    count = c.field.order**c.k
    return count if c.k and count <= a["budget"] else 0


def _masks(a):
    c = a["self"]
    return 1 << c.n if c.k and c.n <= 16 else 0


def _subsets(a):
    c = a["self"]
    count = math.comb(c.n, min(c.k, c.n - c.k))
    return count if 0 < c.k < c.n and count <= a["max_subsets"] else 0


def _containment_key(a):
    return ("hdc", hash(a["self"]))


def _subcode_key(a):
    return ("sub", hash(a["self"]), hash(a["other"]))


def _call_key(a):
    return tuple(sorted(a.items()))


# Work recorded per call, computed from the call's bound arguments before the
# span's clock starts: a number is summed, anything else is a key whose
# repeats within one process are counted.
WORK = {
    "matrix.rref": _rref_cells,
    "code.min_distance_exhaustive": _messages,
    "code.min_distance_by_supports": _masks,
    "code.is_mds": _subsets,
    "code.is_hermitian_dual_containing": _containment_key,
    "code.is_subcode_of": _subcode_key,
    "constructions.rs_dual_containing": _call_key,
    "constructions.extended_rs_dual_containing": _call_key,
    "constructions.negacyclic_mds_dual_containing": _call_key,
}


class Tracer:
    """Collects nested spans in memory for one process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock
        self._last_error: BaseException | None = None

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, self._clock
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is None:
                w = None
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                w = work(bound.arguments)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, w, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # the origin span gets the type name; enclosing spans it
                # propagates through are marked as such
                span[5] = "propagated" if exc is self._last_error else type(exc).__name__
                self._last_error = exc
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced


def _wrap_attr(tracer: Tracer, owner, attr: str, name: str):
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, WORK.get(name))))
    else:
        setattr(owner, attr, tracer.wrap(name, raw, WORK.get(name)))


def install(tracer: Tracer, package: str = "mpqc") -> None:
    """Span every public function of the loaded ``package`` modules.

    Call once per process, after the modules are imported and before any of
    them runs.
    """
    modules = [
        mod
        for key, mod in sorted(sys.modules.items())
        if key == package or key.startswith(package + ".")
    ]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, WORK.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    for modname, cls, attr, name in CLASS_METHODS:
        _wrap_attr(tracer, getattr(sys.modules[modname], cls), attr, name)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _new_stats() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "errors": {},
            "distinct": 0, "repeats": 0, "durations": []}


def aggregate(spans: list[list]) -> dict:
    """Per-name totals: calls, total_s, self_s, work, errors, repeats.

    ``self_s`` is each span's duration minus the part of it that its child
    spans cover.  ``total_s`` counts only spans with no ancestor of the same
    name, so recursion is not counted twice.  ``durations`` keeps those
    outermost durations for per-call statistics.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] >= 0:
            children.setdefault(s[1], []).append((s[2], s[3]))
    out: dict[str, dict] = {}
    for i, (name, parent, start, end, work, error) in enumerate(spans):
        st = out.get(name)
        if st is None:
            st = out[name] = {**_new_stats(), "_keys": set()}
        st["calls"] += 1
        dur = end - start
        st["self_s"] += dur - _covered(children.get(i, []), start, end)
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][1]
        if outermost:
            st["total_s"] += dur
            st["durations"].append(dur)
        if error is not None:
            st["errors"][error] = st["errors"].get(error, 0) + 1
        if isinstance(work, (int, float)):
            st["work"] += work
        elif work is not None:
            if work in st["_keys"]:
                if error is None:
                    st["repeats"] += 1
            else:
                st["_keys"].add(work)
                st["distinct"] += 1
    for st in out.values():
        del st["_keys"]
    return out


def merge(aggregates: list[dict]) -> dict:
    """Sum per-process aggregates; keys and caches are per process."""
    out: dict[str, dict] = {}
    for agg in aggregates:
        for name, st in agg.items():
            acc = out.setdefault(name, _new_stats())
            for key in ("calls", "total_s", "self_s", "work", "distinct", "repeats"):
                acc[key] += st[key]
            acc["durations"].extend(st["durations"])
            for kind, n in st["errors"].items():
                acc["errors"][kind] = acc["errors"].get(kind, 0) + n
    return out


_EMPTY = _new_stats()

CONSTRUCTIONS = ("rs_dual_containing", "extended_rs_dual_containing", "negacyclic_mds_dual_containing")
PRODUCT = ("matrix_product_code", "nested_chain_product", "character_product", "frr_distance_bound", "is_nsc")
SUITES = ("fields", "duals", "mpc", "negacyclic", "quantum")
COMMANDS = ("cmd_table1", "cmd_example", "cmd_build", "cmd_verify")


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from merged spans."""
    g = lambda name: agg.get(name, _EMPTY)  # noqa: E731
    m: dict[str, float] = {}
    fb = g("gf.field_build")
    m["gf.field_build.calls"] = fb["calls"]
    m["gf.field_build.self_s"] = fb["self_s"]
    rref = g("matrix.rref")
    m["matrix.rref.calls"] = rref["calls"]
    m["matrix.rref.cells"] = rref["work"]
    m["matrix.rref.self_s"] = rref["self_s"]
    for op in ("nullspace", "det_inverse", "matmul"):
        m[f"matrix.{op}.calls"] = g(f"matrix.{op}")["calls"]
        m[f"matrix.{op}.self_s"] = g(f"matrix.{op}")["self_s"]
    hdc, sub = g("code.is_hermitian_dual_containing"), g("code.is_subcode_of")
    m["code.containment.checks"] = hdc["calls"] + sub["calls"]
    m["code.containment.distinct"] = hdc["distinct"] + sub["distinct"]
    m["code.containment.self_s"] = hdc["self_s"] + sub["self_s"]
    fg = g("code.from_generator")
    m["code.from_generator.calls"] = fg["calls"]
    m["code.from_generator.self_s"] = fg["self_s"]
    for short, name, work in (
        ("exhaustive", "code.min_distance_exhaustive", "messages"),
        ("supports", "code.min_distance_by_supports", "masks"),
        ("is_mds", "code.is_mds", "subsets_bound"),
    ):
        m[f"code.{short}.calls"] = g(name)["calls"]
        m[f"code.{short}.{work}"] = g(name)["work"]
        m[f"code.{short}.self_s"] = g(name)["self_s"]
    m["code.budget_errors"] = sum(
        st["errors"].get("BudgetError", 0) for name, st in agg.items() if name.startswith("code.")
    )
    for fn in CONSTRUCTIONS:
        st = g(f"constructions.{fn}")
        m[f"constructions.{fn}.calls"] = st["calls"]
        m[f"constructions.{fn}.cache_hits"] = st["repeats"]
        m[f"constructions.{fn}.errors"] = sum(st["errors"].values())
        m[f"constructions.{fn}.self_s"] = st["self_s"]
    nc = g("negacyclic.negacyclic_code")
    m["negacyclic.negacyclic_code.calls"] = nc["calls"]
    m["negacyclic.negacyclic_code.self_s"] = nc["self_s"]
    for fn in PRODUCT:
        m[f"product.{fn}.calls"] = g(f"product.{fn}")["calls"]
        m[f"product.{fn}.self_s"] = g(f"product.{fn}")["self_s"]
    for fn in ("build_case", "build_chain"):
        st = g(f"quantum.{fn}")
        d = st["durations"]
        m[f"quantum.{fn}.calls"] = st["calls"]
        m[f"quantum.{fn}.total_s"] = st["total_s"]
        m[f"quantum.{fn}.median_s"] = statistics.median(d) if d else 0.0
        m[f"quantum.{fn}.max_s"] = max(d) if d else 0.0
    m["quantum.hermitian_construction.self_s"] = g("quantum.hermitian_construction")["self_s"]
    for suite in SUITES:
        m[f"verify.{suite}.total_s"] = g(f"verify.suite_{suite}")["total_s"]
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = g(f"cli.{cmd}")["self_s"]
    m["cli.emit.total_s"] = g("cli.emit")["total_s"]
    return m
