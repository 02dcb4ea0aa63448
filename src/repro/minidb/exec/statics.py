"""Static (pre-execution) statistics for EXPLAIN and the rewrite layer.

``EXPLAIN`` must show the cost planner's mode choice without running the
query, so the similarity operators trace their key/coordinate expressions
down the operator tree to a base table and read that table's cached
:meth:`~repro.minidb.table.Table.point_stats` summary.  The trace *derives*
statistics through the relational operators in between:

* ``Rename`` / ``TagRows`` / ``RestoreOrder`` — positional re-qualification,
  the child's summary passes through untouched;
* ``Project`` — bare column references map back onto child columns;
* ``Filter`` — range predicates on a traced column clip its bounding box and
  histogram; every other conjunct scales the count by its estimated
  selectivity (histogram mass for comparisons against constants, defaults
  otherwise);
* joins — the traced columns resolve to one side, whose summary is rescaled
  to the join's estimated output cardinality (histogram-overlap selectivity
  for equi and eps joins).

Anything else, or a key that is not a bare column reference, degrades to a
uniform synthetic summary at the subtree's estimated cardinality; the
planner then still has a count to reason from, just no skew information.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.exceptions import CatalogError
from repro.minidb.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.stats import PointStats
    from repro.minidb.exec.operators import PhysicalOperator
    from repro.minidb.table import Table

__all__ = [
    "estimated_subtree_rows",
    "estimate_filter_rows",
    "estimate_join_rows",
    "equi_join_selectivity",
    "predicate_selectivity",
    "trace_base_columns",
    "trace_base_fingerprint",
    "trace_point_stats",
    "trace_relation_stats",
]

#: Selectivity assumed for predicates the histograms cannot price
#: (function calls, OR trees over non-constant operands, ...).
_DEFAULT_SELECTIVITY = 0.25

#: Selectivity assumed for an equality against a constant when the column's
#: histogram is unavailable.
_DEFAULT_EQ_SELECTIVITY = 0.1


def estimated_subtree_rows(node: "PhysicalOperator") -> Optional[int]:
    """First cardinality estimate found walking down the left spine."""
    current: "Optional[PhysicalOperator]" = node
    while current is not None:
        estimate = current.estimated_rows()
        if estimate is not None:
            return estimate
        children = current.children()
        current = children[0] if children else None
    return None


def trace_base_fingerprint(
    node: "PhysicalOperator", exprs: Sequence[Expression]
) -> Optional[str]:
    """Base-table content fingerprint for ``exprs`` over ``node``, if exact.

    The table and columns come from :func:`trace_base_columns`; ``None``
    whenever the subtree is not provably identical to scanning base-table
    columns (callers then hash the column vectors they actually buffered).
    """
    traced = trace_base_columns(node, exprs)
    if traced is None:
        return None
    table, positions = traced
    try:
        return table.point_fingerprint(positions)
    except Exception:  # noqa: BLE001 - non-numeric column: hash the buffer
        return None


def trace_base_columns(
    node: "PhysicalOperator", exprs: Sequence[Expression]
) -> "Optional[Tuple[Table, List[int]]]":
    """The base table and column positions ``exprs`` read over ``node``.

    Unlike :func:`trace_point_stats` this trace is *strict*: it walks through
    ``Rename`` only (a positional re-qualification never changes the rows)
    and refuses ``Filter`` — a filtered scan produces a different point batch
    than the base table, so reusing the table's memoised digest there would
    poison the result cache.  Returns ``None`` whenever the subtree is not
    provably identical to scanning base-table columns.
    """
    from repro.minidb.exec.operators import Rename, SeqScan

    current = node
    refs: List[Expression] = list(exprs)
    while True:
        if not all(isinstance(e, ColumnRef) for e in refs):
            return None
        try:
            positions = [current.schema.index_of(e.name, e.qualifier) for e in refs]
        except CatalogError:
            return None
        if isinstance(current, SeqScan):
            return current.table, positions
        if not isinstance(current, Rename):
            return None
        child_schema = current.child.schema
        refs = [
            ColumnRef(
                child_schema.columns[p].name,
                child_schema.columns[p].qualifier,
            )
            for p in positions
        ]
        current = current.child


# ---------------------------------------------------------------------------
# predicate analysis
# ---------------------------------------------------------------------------


def _constant_number(expr: Expression) -> Optional[float]:
    """The numeric value of a constant operand, else ``None``."""
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)):
        if isinstance(expr.value, bool):
            return None
        return float(expr.value)
    return None


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _range_bound(
    conjunct: Expression,
) -> Optional[Tuple[ColumnRef, Optional[float], Optional[float]]]:
    """Decompose ``col <op> const`` / ``col BETWEEN a AND b`` into an interval.

    Returns ``(column, low, high)`` with ``None`` for an open side, or
    ``None`` when the conjunct is not a constant range predicate on a bare
    column.  Strict comparisons are priced like their inclusive forms — at
    histogram-bin granularity the boundary mass is noise.
    """
    if isinstance(conjunct, Between) and not conjunct.negated:
        low = _constant_number(conjunct.low)
        high = _constant_number(conjunct.high)
        if isinstance(conjunct.expr, ColumnRef) and low is not None and high is not None:
            return conjunct.expr, low, high
        return None
    if not isinstance(conjunct, BinaryOp):
        return None
    op = conjunct.op
    column, value = conjunct.left, _constant_number(conjunct.right)
    if value is None:
        value = _constant_number(conjunct.left)
        column = conjunct.right
        op = _FLIPPED.get(op, op if op == "=" else None)
    if value is None or not isinstance(column, ColumnRef) or op is None:
        return None
    if op in ("<", "<="):
        return column, None, value
    if op in (">", ">="):
        return column, value, None
    if op == "=":
        return column, value, value
    return None


def _column_stats(
    node: "PhysicalOperator", ref: ColumnRef
) -> "Optional[PointStats]":
    """One-dimensional derived statistics of a single column, if traceable."""
    return _derive_stats(node, [ref])


def predicate_selectivity(
    node: "PhysicalOperator", predicate: Expression
) -> float:
    """Estimated fraction of ``node``'s rows surviving ``predicate``.

    Conjuncts multiply (independence assumption).  Range and equality
    comparisons against constants read the referenced column's derived
    histogram; everything else falls back to fixed defaults.
    """
    from repro.minidb.plan.optimizer import split_conjuncts

    selectivity = 1.0
    for conjunct in split_conjuncts(predicate):
        selectivity *= _conjunct_selectivity(node, conjunct)
    return max(0.0, min(1.0, selectivity))


def _conjunct_selectivity(node: "PhysicalOperator", conjunct: Expression) -> float:
    bound = _range_bound(conjunct)
    if bound is None:
        if isinstance(conjunct, BinaryOp) and conjunct.op.upper() == "OR":
            return min(
                1.0,
                _conjunct_selectivity(node, conjunct.left)
                + _conjunct_selectivity(node, conjunct.right),
            )
        return _DEFAULT_SELECTIVITY
    column, low, high = bound
    stats = _column_stats(node, column)
    if stats is None or stats.count == 0:
        if low is not None and low == high:
            return _DEFAULT_EQ_SELECTIVITY
        return _DEFAULT_SELECTIVITY
    if low is not None and low == high:
        # Equality: the mass of the covering histogram bin bounds the match
        # fraction from above; never report harder than one-row selectivity.
        width = stats.bin_width(0)
        half = width / 2.0 if width > 0.0 else 0.0
        fraction = stats.range_fraction(0, low - half, high + half)
        return max(1.0 / max(1, stats.count), min(fraction, 1.0))
    return stats.range_fraction(0, low, high)


def equi_join_selectivity(
    left: "PhysicalOperator",
    right: "PhysicalOperator",
    left_keys: Sequence[Expression],
    right_keys: Sequence[Expression],
) -> float:
    """Estimated fraction of the cross product an equi-join keeps.

    Prices each key pair by the histogram-overlap selectivity at ``eps=0``
    (:meth:`~repro.engine.stats.PointStats.cross_pair_fraction` — the bins
    that could hold equal values), taking the most selective pair; key pairs
    without traceable histograms fall back to the equality default.
    """
    best = _DEFAULT_EQ_SELECTIVITY
    priced = False
    for left_key, right_key in zip(left_keys, right_keys):
        if not isinstance(left_key, ColumnRef) or not isinstance(right_key, ColumnRef):
            continue
        left_stats = _column_stats(left, left_key)
        right_stats = _column_stats(right, right_key)
        if left_stats is None or right_stats is None:
            continue
        if left_stats.count == 0 or right_stats.count == 0:
            return 0.0
        fraction = left_stats.cross_pair_fraction(right_stats, 0, 0.0)
        best = fraction if not priced else min(best, fraction)
        priced = True
    return max(0.0, min(1.0, best))


# ---------------------------------------------------------------------------
# cardinality estimates (the operators' estimated_rows hooks call these)
# ---------------------------------------------------------------------------


def estimate_filter_rows(node: "PhysicalOperator") -> Optional[int]:
    """Selectivity-scaled cardinality of a ``Filter`` node."""
    child_rows = estimated_subtree_rows(node.children()[0])
    if child_rows is None:
        return None
    selectivity = predicate_selectivity(node.children()[0], node.predicate)
    return int(round(child_rows * selectivity))


def estimate_join_rows(node: "PhysicalOperator") -> Optional[int]:
    """Estimated output cardinality of a Hash/NestedLoop/Similarity join."""
    from repro.minidb.exec.join import SimilarityJoin
    from repro.minidb.exec.operators import HashJoin, NestedLoopJoin

    left_rows = estimated_subtree_rows(node.left)
    right_rows = estimated_subtree_rows(node.right)
    if left_rows is None or right_rows is None:
        return None
    if isinstance(node, SimilarityJoin):
        if node.k is not None:
            return left_rows * min(int(node.k), right_rows)
        dims = len(node.left_exprs)
        left_stats = trace_point_stats(node.left, node.left_exprs, dims)
        right_stats = trace_point_stats(node.right, node.right_exprs, dims)
        return int(round(left_stats.estimated_join_pairs(right_stats, node.eps)))
    if isinstance(node, HashJoin):
        selectivity = equi_join_selectivity(
            node.left, node.right, node.left_keys, node.right_keys
        )
        if node.residual is not None:
            selectivity *= predicate_selectivity(node, node.residual)
        return int(round(left_rows * right_rows * selectivity))
    if isinstance(node, NestedLoopJoin):
        if node.condition is None:
            return left_rows * right_rows
        selectivity = 1.0
        from repro.minidb.plan.optimizer import split_conjuncts

        for conjunct in split_conjuncts(node.condition):
            equi = _cross_schema_equi(node, conjunct)
            if equi is not None:
                selectivity *= equi_join_selectivity(
                    node.left, node.right, [equi[0]], [equi[1]]
                )
            else:
                selectivity *= _DEFAULT_SELECTIVITY
        return int(round(left_rows * right_rows * selectivity))
    return None


def _cross_schema_equi(
    node: "PhysicalOperator", conjunct: Expression
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """``left_col = right_col`` across the two sides of a join, if so shaped."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    a, b = conjunct.left, conjunct.right
    if not (isinstance(a, ColumnRef) and isinstance(b, ColumnRef)):
        return None
    left_schema, right_schema = node.left.schema, node.right.schema
    if left_schema.has_column(a.name, a.qualifier) and right_schema.has_column(
        b.name, b.qualifier
    ):
        return a, b
    if left_schema.has_column(b.name, b.qualifier) and right_schema.has_column(
        a.name, a.qualifier
    ):
        return b, a
    return None


# ---------------------------------------------------------------------------
# derived point statistics
# ---------------------------------------------------------------------------


def trace_point_stats(
    node: "PhysicalOperator", exprs: Sequence[Expression], dims: int
) -> "PointStats":
    """Statistics for ``exprs`` evaluated over ``node``, without executing it."""
    from repro.engine.stats import synthetic_stats

    derived = _derive_stats(node, list(exprs))
    if derived is not None:
        return derived
    return synthetic_stats(estimated_subtree_rows(node) or 0, dims=dims)


def trace_relation_stats(
    node: "PhysicalOperator", exprs: Sequence[Expression]
) -> "Optional[PointStats]":
    """Like :func:`trace_point_stats` but ``None`` instead of synthetic.

    The rewrite layer uses this to tell *propagated* statistics apart from
    the synthetic fallback — a rule should only trust histogram shape when
    it came from real data.
    """
    return _derive_stats(node, list(exprs))


def _remap_positionally(
    schema, child_schema, refs: List[Expression]
) -> Optional[List[Expression]]:
    """Re-express ``refs`` against a positionally identical child schema."""
    try:
        positions = [schema.index_of(e.name, e.qualifier) for e in refs]
    except CatalogError:
        return None
    return [
        ColumnRef(
            child_schema.columns[p].name,
            child_schema.columns[p].qualifier,
        )
        for p in positions
    ]


def _derive_stats(
    node: "PhysicalOperator", refs: List[Expression]
) -> "Optional[PointStats]":
    """Walk the operator tree deriving a summary for the referenced columns."""
    from repro.minidb.exec.join import SimilarityJoin
    from repro.minidb.exec.operators import (
        Distinct,
        Filter,
        HashJoin,
        Limit,
        NestedLoopJoin,
        Project,
        Rename,
        RestoreOrder,
        SeqScan,
        Sort,
        TagRows,
    )

    if not all(isinstance(e, ColumnRef) for e in refs):
        return None
    if isinstance(node, SeqScan):
        try:
            positions = [node.schema.index_of(e.name, e.qualifier) for e in refs]
        except CatalogError:
            return None
        return node.table.point_stats(positions)
    if isinstance(node, Rename):
        remapped = _remap_positionally(node.schema, node.child.schema, refs)
        if remapped is None:
            return None
        return _derive_stats(node.child, remapped)
    if isinstance(node, RestoreOrder):
        try:
            positions = [node.schema.index_of(e.name, e.qualifier) for e in refs]
        except CatalogError:
            return None
        child_schema = node.child.schema
        remapped = [
            ColumnRef(
                child_schema.columns[node.output_positions[p]].name,
                child_schema.columns[node.output_positions[p]].qualifier,
            )
            for p in positions
        ]
        return _derive_stats(node.child, remapped)
    if isinstance(node, TagRows):
        # The rid column is appended, so existing references keep their
        # child positions; a reference to the rid itself is untraceable.
        try:
            positions = [node.schema.index_of(e.name, e.qualifier) for e in refs]
        except CatalogError:
            return None
        if any(p >= len(node.child.schema) for p in positions):
            return None
        return _derive_stats(node.child, refs)
    if isinstance(node, Project):
        try:
            positions = [node.schema.index_of(e.name, e.qualifier) for e in refs]
        except CatalogError:
            return None
        child_exprs = [node.expressions[p] for p in positions]
        if not all(isinstance(e, ColumnRef) for e in child_exprs):
            return None
        return _derive_stats(node.child, child_exprs)
    if isinstance(node, Filter):
        stats = _derive_stats(node.child, refs)
        if stats is None:
            return None
        return _apply_predicate(node, stats, refs)
    if isinstance(node, (Sort, Distinct)):
        return _derive_stats(node.child, refs)
    if isinstance(node, Limit):
        stats = _derive_stats(node.child, refs)
        if stats is None:
            return None
        return stats.scaled(min(stats.count, node.limit))
    if isinstance(node, (HashJoin, NestedLoopJoin, SimilarityJoin)):
        return _derive_join_stats(node, refs)
    return None


def _apply_predicate(
    node: "PhysicalOperator", stats: "PointStats", refs: List[Expression]
) -> "PointStats":
    """Clip/scale a derived summary by a Filter's predicate.

    Range conjuncts on a traced column clip that axis's bounding box and
    histogram; every other conjunct scales the whole summary by its
    estimated selectivity.
    """
    from repro.minidb.plan.optimizer import split_conjuncts

    schema = node.child.schema
    try:
        traced_positions = [schema.index_of(e.name, e.qualifier) for e in refs]
    except CatalogError:
        traced_positions = []
    for conjunct in split_conjuncts(node.predicate):
        bound = _range_bound(conjunct)
        axis: Optional[int] = None
        if bound is not None and traced_positions:
            column, low, high = bound
            try:
                position = schema.index_of(column.name, column.qualifier)
            except CatalogError:
                position = None
            if position in traced_positions:
                axis = traced_positions.index(position)
        if axis is not None and bound is not None:
            stats = stats.clipped(axis, bound[1], bound[2])
        else:
            selectivity = _conjunct_selectivity(node.child, conjunct)
            stats = stats.scaled(stats.count * selectivity)
        if stats.count == 0:
            break
    return stats


def _derive_join_stats(
    node: "PhysicalOperator", refs: List[Expression]
) -> "Optional[PointStats]":
    """Derive column statistics through a join: resolve the side, rescale."""
    n_left = len(node.left.schema)
    try:
        positions = [node.schema.index_of(e.name, e.qualifier) for e in refs]
    except CatalogError:
        return None
    if all(p < n_left for p in positions):
        side = node.left
        side_positions = positions
    elif all(p >= n_left for p in positions):
        side = node.right
        side_positions = [p - n_left for p in positions]
    else:
        return None
    side_schema = side.schema
    side_refs: List[Expression] = [
        ColumnRef(
            side_schema.columns[p].name,
            side_schema.columns[p].qualifier,
        )
        for p in side_positions
    ]
    stats = _derive_stats(side, side_refs)
    if stats is None:
        return None
    est_rows = estimate_join_rows(node)
    if est_rows is None:
        return stats
    return stats.scaled(est_rows)
