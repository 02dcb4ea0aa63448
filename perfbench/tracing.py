"""Layer spans recorded from outside the engine, for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :func:`install` wraps the
public entry points of every layer that serves a query and patches each
wrapper in *where the caller looks the name up*: on the class for methods,
and in every loaded ``repro`` module that bound a function by name (``from
repro.engine.stats import collect_stats`` copies the reference, so patching
only the defining module would miss that caller).  :meth:`Installation.uninstall`
puts every original back, and :func:`assert_uninstalled` proves it.

Three wrapper kinds keep the span count proportional to the work that is
interesting rather than to the row count:

* ``call``: one span per call.
* ``iter``: for functions returning an iterator (operator ``rows()``,
  ``PointSet.pairwise_within``).  The wrapper drains the iterator inside its
  own span and hands the caller an iterator over the drained list, so
  generator time is charged to the generator, not to the loop consuming it.
  Results are unchanged; an early-stopping consumer (``LIMIT``) would drain
  more than it needs, and no benchmark statement uses one.
* ``leaf``: hot per-point calls (R-tree insert and search).  No span of its
  own: time and call count are folded into the enclosing span's ``leaves``.

A span's self time is its duration minus the time of the spans (and leaves)
it encloses.  Spans stay in memory and are written out with :func:`write_spans`
when the run ends.  Each thread keeps its own stack, so the server's request
threads trace independently.  A process forked from a traced one (the
engine's worker pool) runs the wrappers as plain pass-throughs: pool workers
are not traced, and ``engine.sharded`` is one opaque span around the fan-out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import re
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

_MARK = "__perfbench_wrapper__"
_SGB_CLAUSE = re.compile(r"DISTANCE-(TO-)?(ANY|ALL)", re.IGNORECASE)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "self_s", "attrs", "leaves")

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end, self.self_s,
                self.attrs, self.leaves]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        span = cls()
        (span.id, span.parent, span.name, span.start, span.end, span.self_s,
         span.attrs, span.leaves) = row
        return span


class Tracer:
    """Per-thread span stacks plus the list of finished spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def active(self) -> bool:
        # A forked pool worker inherits the patched classes; it must not trace.
        return self.enabled and os.getpid() == self._pid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, leaf: bool = False,
             observe: Optional[Callable] = None):
        stack = self._stack()
        owner = None
        for frame in reversed(stack):
            if frame[0] is not None:
                owner = frame[0]
                break
        span = None
        if not leaf:
            span = Span()
            span.id = next(self._ids)
            span.parent = owner.id if owner is not None else 0
            span.name = name
            span.attrs = None
            span.leaves = None
        frame = [span, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self_s = duration - frame[1]
            if span is not None:
                span.start, span.end, span.self_s = start, end, self_s
                self.spans.append(span)
            elif owner is not None:
                if owner.leaves is None:
                    owner.leaves = {}
                entry = owner.leaves.setdefault(name, [0.0, 0])
                entry[0] += self_s
                entry[1] += 1
        if observe is not None and span is not None:
            span.attrs = observe(result, args)
        return result


def _make_wrapper(tracer: Tracer, original: Callable, name: str, kind: str,
                  observe: Optional[Callable]) -> Callable:
    if kind == "iter":
        def drain(*args, **kwargs):
            return list(original(*args, **kwargs))

        def wrapper(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            return iter(tracer.call(name, drain, args, kwargs, observe=observe))
    elif kind == "union_pairs":
        def wrapper(self, pairs):
            if not tracer.active():
                return original(self, pairs)
            # Materialise the edge iterable first, so that the caller's
            # generator expression (and the pairwise_within span beneath it)
            # is charged to the caller, not to Union-Find.
            pairs = list(pairs)
            return tracer.call(name, original, (self, pairs), {}, observe=observe)
    else:
        leaf = kind == "leaf"

        def wrapper(*args, **kwargs):
            if not tracer.active():
                return original(*args, **kwargs)
            return tracer.call(name, original, args, kwargs, leaf=leaf, observe=observe)
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__qualname__ = getattr(original, "__qualname__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    setattr(wrapper, _MARK, original)
    return wrapper


def _repro_modules() -> list:
    return [module for key, module in list(sys.modules.items())
            if module is not None and (key == "repro" or key.startswith("repro."))]


class Installation:
    """The patches one :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: List[tuple] = []

    def function(self, module_name: str, attr: str, name: str, kind: str = "call",
                 observe: Optional[Callable] = None) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _make_wrapper(self.tracer, original, name, kind, observe)
        for module in _repro_modules():
            namespace = vars(module)
            for key in [k for k, v in namespace.items() if v is original]:
                self._patches.append((module, key, original))
                setattr(module, key, wrapper)

    def method(self, cls: type, attr: str, name: str, kind: str = "call",
               observe: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, _make_wrapper(self.tracer, original, name, kind, observe))

    def methods_everywhere(self, base: type, attrs, name: str, kind: str = "call",
                           observe: Optional[Callable] = None) -> None:
        """Patch ``attrs`` on ``base`` and on every subclass that overrides them."""
        for cls in _with_subclasses(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    self.method(cls, attr, name, kind, observe)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A module imported while the wrappers were in place (the server
        # imports some routes lazily) bound a wrapper by name: unbind it too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if _is_wrapper(value):
                    setattr(module, key, getattr(value, _MARK))


def _with_subclasses(base: type) -> list:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _is_wrapper(value: object) -> bool:
    return callable(value) and hasattr(value, _MARK)


def assert_uninstalled() -> None:
    """Raise if any loaded ``repro`` module or class still holds a wrapper."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if _is_wrapper(value):
                raise AssertionError(f"{module.__name__}.{key} is still wrapped")
            if isinstance(value, type):
                for cls in _with_subclasses(value):
                    for attr, member in list(vars(cls).items()):
                        if _is_wrapper(member):
                            raise AssertionError(f"{cls.__qualname__}.{attr} is still wrapped")


# ---------------------------------------------------------------------------
# observers: counts recorded on the span where the work happens
# ---------------------------------------------------------------------------


def _observe_op(result, args) -> dict:
    sql = args[1] if len(args) > 1 else ""
    attrs = {
        "sgb": bool(_SGB_CLAUSE.search(sql)),
        "rows": len(result.rows),
        "rewrites": len(result.rewrites),
    }
    plan = result.plan
    if plan is not None:
        attrs.update(mode=plan.mode, est_rows=plan.est_rows, est_cost=plan.est_cost)
    return attrs


def _observe_rows(result, args) -> dict:
    return {"rows": len(result)}


def _observe_pairs(result, args) -> dict:
    return {"pairs": len(result)}


def _observe_groups(result, args) -> dict:
    return {"groups": len(result.groups)}


def _observe_union(result, args) -> dict:
    return {"edges": len(args[1]), "merges": result}


def _observe_cache(result, args) -> dict:
    return {"hits": int(result is not None), "misses": int(result is None)}


def install(tracer: Tracer) -> Installation:
    """Wrap every query-serving layer's public entry points."""
    # Import everything first: a function is patched only in modules that
    # are loaded when install() runs.
    for module_name in (
        "repro.minidb", "repro.minidb.exec.sgb", "repro.minidb.exec.join",
        "repro.minidb.exec.aggregate", "repro.minidb.exec.pushdown",
        "repro.minidb.exec.statics", "repro.minidb.plan.rewrite", "repro.core.api",
        "repro.core.sgb_all", "repro.core.sgb_any", "repro.core.fingerprint",
        "repro.dstruct.union_find", "repro.spatial", "repro.join", "repro.join.api",
        "repro.join.fused", "repro.join.sharded", "repro.join.knn_sharded",
        "repro.stream.session", "repro.engine.workers", "repro.engine.merge",
        "repro.storage.cache", "repro.server.app", "repro.server.routes.query",
    ):
        importlib.import_module(module_name)
    from repro.core.pointset import PointSet
    from repro.core.sgb_all import SGBAllGrouper
    from repro.core.sgb_any import SGBAnyGrouper
    from repro.dstruct.union_find import UnionFind
    from repro.minidb.database import Database
    from repro.minidb.exec.aggregate import HashAggregate
    from repro.minidb.exec.join import SimilarityJoin
    from repro.minidb.exec.operators import (
        HashJoin, NestedLoopJoin, PhysicalOperator, SeqScan, ValuesScan,
    )
    from repro.minidb.exec.sgb import SGBAggregate
    from repro.minidb.plan.planner import Planner
    from repro.minidb.table import Table
    from repro.server.protocol import Request
    from repro.spatial.base import SpatialIndex
    from repro.storage.cache import ResultCache
    from repro.stream.session import StreamingSGB

    inst = Installation(tracer)
    # statement root, sql, plan
    inst.method(Database, "execute", "op", observe=_observe_op)
    inst.function("repro.minidb.sql.parser", "parse_sql", "sql.parse")
    inst.method(Planner, "plan_select", "plan.plan")
    inst.function("repro.minidb.plan.rewrite", "optimize_plan", "plan.rewrite")
    # relational operators
    operator_layer = {
        SeqScan: "exec.scan", ValuesScan: "exec.scan",
        HashJoin: "exec.join", NestedLoopJoin: "exec.join", SimilarityJoin: "exec.join",
        HashAggregate: "exec.agg", SGBAggregate: "exec.sgb",
    }
    for cls in _with_subclasses(PhysicalOperator):
        if cls is not PhysicalOperator and "rows" in cls.__dict__:
            layer = operator_layer.get(cls, "exec.other")
            observe = _observe_rows if layer == "exec.scan" else None
            inst.method(cls, "rows", layer, kind="iter", observe=observe)
    inst.method(SimilarityJoin, "materialize", "exec.join")
    # grouping kernel and its data structures
    for grouper in (SGBAnyGrouper, SGBAllGrouper):
        inst.method(grouper, "add_batch", "core.group")
        inst.method(grouper, "finalize", "core.group", observe=_observe_groups)
    inst.methods_everywhere(PointSet, ("pairwise_within", "cross_within"), "core.pairwise",
                            kind="iter", observe=_observe_pairs)
    inst.function("repro.core.result", "canonicalize_groups", "core.canonicalize")
    inst.method(UnionFind, "union_pairs", "dstruct.union", kind="union_pairs",
                observe=_observe_union)
    inst.methods_everywhere(SpatialIndex, ("insert", "search", "search_many", "load",
                                           "bulk_load", "delete"),
                            "spatial.index", kind="leaf")
    # joins and streams
    inst.function("repro.join.api", "sim_join", "join.pairs")
    inst.function("repro.join.epsilon", "eps_join", "join.pairs")
    inst.function("repro.join.knn", "knn_join", "join.pairs")
    inst.function("repro.join.fused", "fused_join_group", "join.fused")
    inst.method(SGBAggregate, "_fused_join_rows", "join.fused", kind="iter")
    inst.method(StreamingSGB, "ingest", "stream.ingest")
    inst.method(StreamingSGB, "close", "stream.ingest")
    # physical planner and parallel engine
    inst.function("repro.engine.stats", "collect_stats", "engine.stats")
    for planner in ("plan_sgb_any", "plan_sgb_all", "plan_eps_join", "plan_knn_join",
                    "plan_stream_flush"):
        inst.function("repro.engine.cost", planner, "engine.cost")
    inst.function("repro.engine.workers", "sgb_any_sharded", "engine.sharded")
    inst.function("repro.minidb.exec.pushdown", "sgb_any_pushdown", "engine.sharded")
    inst.function("repro.join.sharded", "eps_join_sharded", "engine.sharded")
    inst.function("repro.join.knn_sharded", "knn_join_sharded", "engine.sharded")
    # result cache and content fingerprints
    inst.method(ResultCache, "get_grouping", "storage.cache", observe=_observe_cache)
    for attr in ("put_grouping", "get_pairs", "put_pairs"):
        inst.method(ResultCache, attr, "storage.cache")
    for attr in ("fingerprint_columns", "fingerprint_points"):
        inst.function("repro.core.fingerprint", attr, "storage.fingerprint")
    inst.function("repro.minidb.exec.statics", "trace_base_fingerprint",
                  "storage.fingerprint")
    # heap tables
    inst.method(Table, "insert_many", "table.insert")
    inst.method(Table, "point_stats", "table.stats")
    inst.method(Table, "point_fingerprint", "table.stats")
    # HTTP service JSON encoding and decoding
    inst.function("repro.server.jsonio", "query_result_payload", "server.json")
    inst.function("repro.server.jsonio", "decode_value", "server.json")
    inst.function("repro.server.protocol", "json_response", "server.json")
    inst.method(Request, "json", "server.json")
    return inst


def write_spans(spans: List[Span], path: str) -> None:
    """Write spans as JSON lines: id, parent, name, start, end, self_s, attrs, leaves."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_json()))
            handle.write("\n")


def read_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_json(json.loads(line)) for line in handle if line.strip()]


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name, leaves included under their own name."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        for name, (seconds, _count) in (span.leaves or {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals
