"""Columnar point-set abstraction backing the batched SGB execution path.

The SGB operators historically processed one ``Tuple[float, ...]`` at a time.
A :class:`PointSet` holds a whole batch of d-dimensional points in columnar
form and exposes batched primitives:

* :meth:`PointSet.components_within` — the connected components of the
  epsilon-neighbourhood graph, one label per point, by grid connectivity on
  the NumPy backend: clique cells take no pair checks, and neighbouring
  cells stop at the first witness pair.  This is the kernel behind the
  SGB-Any batch path, which therefore applies at most n - 1 unions per
  batch.
* :meth:`PointSet.pairwise_within` — every index pair within ``eps`` under a
  metric (the epsilon-neighbourhood edges), found with a uniform eps-grid so
  neither backend ever materialises the full O(n^2) distance matrix.  The
  consumers that need real pairs use it: SGB-All, the explicit-index
  ablation, and ``components_within`` past three dimensions.
* :meth:`PointSet.window_mask` — boolean membership mask for a window query.
* :meth:`PointSet.verify_within` — bulk exact-distance verification of index
  window hits against a probe point (the ``VerifyPoints`` step of Procedure
  8; the groupers route the equivalent check through
  ``SimilarityPredicate.similar_many``, which shares the same kernel).
* :meth:`PointSet.bbox` — minimum bounding rectangle of the batch.

``window_mask``/``verify_within``/``bbox`` are public building blocks for
external batch consumers (sharding, streaming — see ROADMAP) and share the
``pairwise_measures`` kernel with the predicate layer, so the eps decisions
agree bit-for-bit everywhere.

Two interchangeable backends exist: a NumPy array backend (used automatically
when ``numpy`` is importable) and a pure-Python list-of-tuples fallback, so
the library stays dependency-optional.  Both backends produce *bit-identical*
predicate decisions: the vectorised kernels accumulate coordinate terms in the
same order as the scalar loops in :mod:`repro.core.distance`.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric, within_eps
from repro.core.predicates import SimilarityPredicate
from repro.core.rectangle import Rect
from repro.exceptions import DimensionalityError, InvalidParameterError

try:  # NumPy is optional; the pure-Python backend covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend tests
    _np = None

Point = Tuple[float, ...]

__all__ = [
    "PointSet",
    "PythonPointSet",
    "NumpyPointSet",
    "HAVE_NUMPY",
    "ensure_finite",
    "is_empty_batch",
]


def ensure_finite(pt: "Sequence[float]") -> None:
    """Reject NaN/inf coordinates with a uniform, clear error."""
    for c in pt:
        if not math.isfinite(c):
            raise InvalidParameterError(
                f"point {tuple(pt)!r} has a non-finite coordinate; "
                "NaN and infinity are not valid point coordinates"
            )


def is_empty_batch(points: object) -> bool:
    """True when ``points`` is a sized container holding zero points.

    Both groupers use this to make a degenerate ``add_batch`` a strict no-op
    — no :class:`PointSet` normalisation, no index bookkeeping — before any
    backend dispatch happens.
    """
    try:
        return len(points) == 0  # type: ignore[arg-type]
    except TypeError:
        return False

HAVE_NUMPY = _np is not None

#: Row-block size bounding the memory of the vectorised pair search
#: (``_BLOCK * bucket_size`` distances at a time).
_BLOCK = 512

#: Above this dimensionality ``pairwise_within`` switches from the eps-grid
#: sweep to blocked brute force: the grid visits up to 3^d neighbour offsets
#: per cell, which explodes combinatorially while the cells stop pruning
#: anything (curse of dimensionality).
_PAIRWISE_GRID_MAX_DIMS = 6

#: Largest number of point pairs one vectorised witness test of
#: ``components_within`` evaluates at a time; the test stops at the first
#: chunk holding a pair within eps.
_WITNESS_PAIRS = 4096

#: ``components_within`` runs its connectivity grid up to this
#: dimensionality; beyond it the reach neighbourhood (5^d cells and more)
#: costs more than the eps-grid pair sweep it replaces.
_COMPONENTS_GRID_MAX_DIMS = 3

#: ``components_within`` falls back to the pair sweep once a coordinate
#: reaches this many cell sides from the origin: ``floor(x / side)`` must stay
#: within a tiny fraction of a cell of the true quotient for the reach
#: neighbourhood to be complete.
_GRID_MAX_CELLS = float(2**40)


def _validate_tuples(points: Iterable[Sequence[float]]) -> List[Point]:
    """Normalise to a list of float tuples, checking dims and finiteness."""
    out: List[Point] = []
    dims: Optional[int] = None
    isfinite = math.isfinite
    for p in points:
        pt = tuple(map(float, p))
        if len(pt) != dims:
            if dims is not None:
                raise DimensionalityError(
                    f"inconsistent point dimensionality: expected {dims}, got {len(pt)}"
                )
            dims = len(pt)
            if dims == 0:
                raise InvalidParameterError("points must have at least one dimension")
        if not all(map(isfinite, pt)):
            ensure_finite(pt)
        out.append(pt)
    return out


def _clean_float_array(points: Sequence[Sequence[float]]) -> "Any":
    """``points`` as an ``(n, d)`` float64 array, or ``None`` if not clean.

    One C-level conversion of the flattened coordinates instead of a
    per-coordinate ``float()`` loop.  Ragged or zero-width points, anything
    the conversion rejects, and non-finite values return ``None`` so
    :func:`_validate_tuples` raises its usual error.  NumPy converts every
    value it accepts exactly as ``float()`` does.
    """
    try:
        widths = set(map(len, points))
    except TypeError:
        return None
    if len(widths) != 1:
        return None
    (dims,) = widths
    if dims == 0:
        return None
    try:
        flat = _np.fromiter(
            itertools.chain.from_iterable(points), _np.float64, count=len(points) * dims
        )
    except (TypeError, ValueError, OverflowError):
        return None
    if not bool(_np.isfinite(flat).all()):
        return None
    return flat.reshape(len(points), dims)


class PointSet:
    """A batch of d-dimensional points stored column-friendly.

    Use the factories :meth:`from_any` / :meth:`from_columns` rather than the
    backend constructors; they auto-select the NumPy backend when available
    (``backend="python"`` forces the fallback, which the equivalence tests
    use to cross-check the two implementations).
    """

    # -- factories ---------------------------------------------------------

    @staticmethod
    def from_any(
        points: "PointSet | Sequence[Sequence[float]]",
        backend: Optional[str] = None,
    ) -> "PointSet":
        """Build a :class:`PointSet` from any reasonable point container.

        NumPy ``(n, d)`` arrays are adopted zero-copy when they are already
        ``float64``; other inputs are normalised once.  Non-finite coordinates
        (NaN / infinity) are rejected with :class:`InvalidParameterError`.
        """
        if isinstance(points, PointSet):
            if backend is None or points.backend == backend:
                return points
            if backend == "python":
                return PythonPointSet(points.to_tuples())
            return NumpyPointSet._from_validated_tuples(points.to_tuples())
        if backend is not None and backend not in ("python", "numpy"):
            raise InvalidParameterError(f"unknown PointSet backend: {backend!r}")
        use_numpy = HAVE_NUMPY if backend is None else backend == "numpy"
        if backend == "numpy" and not HAVE_NUMPY:
            raise InvalidParameterError("numpy backend requested but numpy is missing")
        if HAVE_NUMPY and isinstance(points, _np.ndarray):
            if points.ndim != 2:
                raise DimensionalityError(
                    f"point array must be 2-D (n, d), got shape {points.shape}"
                )
            if points.shape[0] > 0 and points.shape[1] == 0:
                raise InvalidParameterError("points must have at least one dimension")
            arr = _np.asarray(points, dtype=_np.float64)
            if arr.size and not bool(_np.isfinite(arr).all()):
                raise InvalidParameterError(
                    "point array has non-finite coordinates; "
                    "NaN and infinity are not valid point coordinates"
                )
            if use_numpy:
                return NumpyPointSet(arr)
            return PythonPointSet([tuple(row) for row in arr.tolist()])
        if use_numpy and isinstance(points, (list, tuple)) and points:
            arr = _clean_float_array(points)
            if arr is not None:
                return NumpyPointSet(arr)
        tuples = _validate_tuples(points)
        if use_numpy:
            return NumpyPointSet._from_validated_tuples(tuples)
        return PythonPointSet(tuples)

    @staticmethod
    def adopt_validated(
        tuples: "List[Point]", backend: Optional[str] = None
    ) -> "PointSet":
        """Adopt a list of already-validated float tuples without re-checking.

        For callers that hold tuples a previous :meth:`from_any` produced
        (the streaming window ring re-presents admitted points many times);
        skips the dimensionality/finiteness sweep that validation already
        performed.  Never hand this unvalidated data.
        """
        use_numpy = HAVE_NUMPY if backend is None else backend == "numpy"
        if use_numpy:
            if not HAVE_NUMPY:
                raise InvalidParameterError(
                    "numpy backend requested but numpy is missing"
                )
            return NumpyPointSet._from_validated_tuples(tuples)
        return PythonPointSet._from_validated(tuples)

    @staticmethod
    def concat(
        sets: "Sequence[PointSet]", backend: Optional[str] = None
    ) -> "PointSet":
        """Concatenate already-validated point sets without revalidation.

        The streaming window ring uses this to present several columnar
        epochs as one probe target; the members were validated when first
        admitted, so the concatenation is a pure structural merge (a single
        ``np.concatenate`` on the NumPy backend).
        """
        parts = [s for s in sets if len(s) > 0]
        if not parts:
            return PointSet.from_any([], backend=backend)
        dims = parts[0].dims
        for part in parts[1:]:
            if part.dims != dims:
                raise DimensionalityError(
                    f"cannot concat point sets of {dims} and {part.dims} dimensions"
                )
        if backend is None:
            backend = parts[0].backend
        if backend == "numpy":
            if not HAVE_NUMPY:
                raise InvalidParameterError(
                    "numpy backend requested but numpy is missing"
                )
            arrays = [
                part.array
                if isinstance(part, NumpyPointSet)
                else _np.asarray(part.to_tuples(), dtype=_np.float64)
                for part in parts
            ]
            return NumpyPointSet(arrays[0] if len(arrays) == 1 else _np.concatenate(arrays))
        out: List[Point] = []
        for part in parts:
            out.extend(part.to_tuples())
        return PythonPointSet._from_validated(out)

    @staticmethod
    def from_columns(
        columns: Sequence[Sequence[float]], backend: Optional[str] = None
    ) -> "PointSet":
        """Build a :class:`PointSet` from per-dimension column vectors."""
        if len(columns) == 0:
            raise InvalidParameterError("at least one column is required")
        n = len(columns[0])
        for col in columns[1:]:
            if len(col) != n:
                raise InvalidParameterError("columns must all have the same length")
        if HAVE_NUMPY and (backend is None or backend == "numpy"):
            arr = _np.column_stack(
                [_np.asarray(col, dtype=_np.float64) for col in columns]
            ) if n else _np.empty((0, len(columns)), dtype=_np.float64)
            if arr.size and not bool(_np.isfinite(arr).all()):
                raise InvalidParameterError(
                    "point columns have non-finite coordinates; "
                    "NaN and infinity are not valid point coordinates"
                )
            return NumpyPointSet(arr)
        return PointSet.from_any(list(zip(*columns)) if n else [], backend=backend)

    # -- abstract protocol -------------------------------------------------

    backend: str = ""

    def __len__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def dims(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def point(self, i: int) -> Point:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_tuples(self) -> List[Point]:  # pragma: no cover - overridden
        raise NotImplementedError

    def window_mask(self, rect: Rect) -> List[bool]:  # pragma: no cover
        raise NotImplementedError

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:  # pragma: no cover - overridden
        raise NotImplementedError

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:  # pragma: no cover - overridden
        raise NotImplementedError

    def components_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> List[int]:  # pragma: no cover - overridden
        """Label every point with its connected component of the eps-graph.

        ``labels[i]`` is the smallest index in point ``i``'s component, so
        the star edges ``(i, labels[i])`` form a spanning forest of the
        epsilon-neighbourhood graph: at most ``n - 1`` unions where the pair
        sweep of :meth:`pairwise_within` feeds one per verified pair.

        The kernel is grid connectivity (Gan & Tao, "DBSCAN Revisited",
        SIGMOD 2015).  Cells have side eps/sqrt(d) (L2), eps/d (L1) or eps
        (LINF), so any two points of a cell are within eps in exact
        arithmetic.  A cell counts as a clique only when the metric measure
        of its per-axis extent passes the same ``<= eps`` test the predicate
        applies: rounding is monotone, so that proves every member pair
        passes; a cell that fails has its own pairs verified.  Cells within
        reach are joined by their bounding boxes where those decide (box gap
        beyond eps: no pair; farthest corners within eps: every pair), and
        otherwise by a *witness pair*: any one pair within eps, searched in
        vectorised chunks of at most :data:`_WITNESS_PAIRS` pairs and only
        while the two sides are not yet connected.  Past
        :data:`_COMPONENTS_GRID_MAX_DIMS` dimensions, for coordinates too
        large for exact cell indices, and always on the pure-Python backend,
        the labels come from :meth:`pairwise_within`.  Either way they equal
        the components of the scalar predicate's eps-graph bit for bit.
        """
        raise NotImplementedError

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:  # pragma: no cover - overridden
        """Yield every ``(i, j)`` with ``self[i]`` within ``eps`` of ``other[j]``.

        The cross-set companion of :meth:`pairwise_within`: the same uniform
        eps-grid prunes the candidate pairs (falling back to blocked brute
        force past :data:`_PAIRWISE_GRID_MAX_DIMS` dimensions), and the same
        ``within_eps`` kernel makes the decisions, so the edge set agrees
        bit-for-bit with the scalar predicate.  This is the kernel behind the
        streaming subsystem's cross-epoch edge discovery: an arriving
        micro-batch (``other``) is joined against each older live epoch
        (``self``) without any per-tuple index probing.
        """
        raise NotImplementedError

    # -- shared conveniences ----------------------------------------------

    def __iter__(self) -> Iterator[Point]:
        for i in range(len(self)):
            yield self.point(i)

    def __getitem__(self, i: int) -> Point:
        return self.point(i)

    def bbox(self) -> Rect:
        """Return the minimum bounding rectangle of the set (non-empty only)."""
        if len(self) == 0:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect.from_points(self.to_tuples())

    @staticmethod
    def _check_eps(eps: float) -> float:
        eps = float(eps)
        if eps <= 0:
            raise InvalidParameterError(f"eps must be positive, got {eps}")
        return eps


class PythonPointSet(PointSet):
    """Pure-Python fallback backend: a list of float tuples."""

    backend = "python"

    def __init__(self, points: Sequence[Sequence[float]]) -> None:
        self._points: List[Point] = _validate_tuples(points)

    @classmethod
    def _from_validated(cls, tuples: List[Point]) -> "PythonPointSet":
        """Adopt already-validated tuples without re-checking them."""
        out = cls.__new__(cls)
        out._points = tuples
        return out

    def __len__(self) -> int:
        return len(self._points)

    @property
    def dims(self) -> int:
        return len(self._points[0]) if self._points else 0

    def point(self, i: int) -> Point:
        return self._points[i]

    def to_tuples(self) -> List[Point]:
        return list(self._points)

    def bbox(self) -> Rect:
        if not self._points:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect.from_points(self._points)

    def window_mask(self, rect: Rect) -> List[bool]:
        return [rect.contains_point(p) for p in self._points]

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        predicate = SimilarityPredicate(resolve_metric(metric), self._check_eps(eps))
        pt = tuple(float(c) for c in point)
        idxs = range(len(self._points)) if candidates is None else candidates
        return [i for i in idxs if predicate.similar(pt, self._points[i])]

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        predicate = SimilarityPredicate(resolve_metric(metric), eps)
        pts = self._points
        if not pts:
            return
        d = len(pts[0])
        if d > _PAIRWISE_GRID_MAX_DIMS:
            for i in range(len(pts)):
                pi = pts[i]
                for j in range(i + 1, len(pts)):
                    if predicate.similar(pi, pts[j]):
                        yield i, j
            return
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(pts):
            buckets.setdefault(tuple(math.floor(c / eps) for c in p), []).append(i)
        offsets = _half_space_offsets(d)
        for key, members in buckets.items():
            # Same-cell pairs.
            for a in range(len(members)):
                i = members[a]
                pi = pts[i]
                for b in range(a + 1, len(members)):
                    j = members[b]
                    if predicate.similar(pi, pts[j]):
                        yield i, j
            # Pairs with the lexicographically-greater neighbour cells.
            for off in offsets:
                other = buckets.get(tuple(k + o for k, o in zip(key, off)))
                if not other:
                    continue
                for i in members:
                    pi = pts[i]
                    for j in other:
                        if predicate.similar(pi, pts[j]):
                            yield i, j

    def components_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> List[int]:
        # Interpreted, the grid scan does not beat the eps-grid pair sweep;
        # the labels come from the sweep's edges.
        return _labels_from_pairs(len(self._points), self.pairwise_within(eps, metric))

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        predicate = SimilarityPredicate(resolve_metric(metric), eps)
        probes = PointSet.from_any(other, backend="python").to_tuples()
        pts = self._points
        if not pts or not probes:
            return
        if len(probes[0]) != len(pts[0]):
            raise DimensionalityError(
                f"cross_within dimensionality mismatch: {len(pts[0])} vs "
                f"{len(probes[0])}"
            )
        d = len(pts[0])
        if d > _PAIRWISE_GRID_MAX_DIMS:
            for j, pj in enumerate(probes):
                for i, pi in enumerate(pts):
                    if predicate.similar(pi, pj):
                        yield i, j
            return
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(pts):
            buckets.setdefault(tuple(math.floor(c / eps) for c in p), []).append(i)
        offsets = _neighbourhood_offsets(d)
        for j, pj in enumerate(probes):
            key = tuple(math.floor(c / eps) for c in pj)
            for off in offsets:
                members = buckets.get(tuple(k + o for k, o in zip(key, off)))
                if not members:
                    continue
                for i in members:
                    if predicate.similar(pts[i], pj):
                        yield i, j


class NumpyPointSet(PointSet):
    """NumPy-backed columnar backend (auto-selected when numpy imports)."""

    backend = "numpy"

    def __init__(self, array: "Any") -> None:
        if _np is None:  # pragma: no cover - guarded by the factory
            raise InvalidParameterError("numpy backend requested but numpy is missing")
        arr = _np.asarray(array, dtype=_np.float64)
        if arr.ndim != 2:
            raise DimensionalityError(
                f"point array must be 2-D (n, d), got shape {arr.shape}"
            )
        self._array = arr

    @classmethod
    def _from_validated_tuples(cls, tuples: List[Point]) -> "NumpyPointSet":
        if not tuples:
            return cls(_np.empty((0, 0), dtype=_np.float64))
        return cls(_np.asarray(tuples, dtype=_np.float64))

    @property
    def array(self) -> "Any":
        """The underlying ``(n, d)`` float64 array (shared, do not mutate)."""
        return self._array

    def __len__(self) -> int:
        return self._array.shape[0]

    @property
    def dims(self) -> int:
        return self._array.shape[1]

    def point(self, i: int) -> Point:
        return tuple(self._array[i].tolist())

    def to_tuples(self) -> List[Point]:
        return [tuple(row) for row in self._array.tolist()]

    def bbox(self) -> Rect:
        if self._array.shape[0] == 0:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect(
            tuple(self._array.min(axis=0).tolist()),
            tuple(self._array.max(axis=0).tolist()),
        )

    def window_mask(self, rect: Rect) -> "Any":
        if self._array.shape[0] == 0:
            return _np.zeros(0, dtype=bool)
        if len(rect.low) != self.dims:
            raise DimensionalityError("window/point-set dimensionality mismatch")
        low = _np.asarray(rect.low)
        high = _np.asarray(rect.high)
        return ((self._array >= low) & (self._array <= high)).all(axis=1)

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        if self._array.shape[0] == 0:
            return []
        probe = _np.asarray([tuple(float(c) for c in point)], dtype=_np.float64)
        if candidates is None:
            mask = within_eps(probe, self._array, metric, eps)[0]
            return _np.nonzero(mask)[0].tolist()
        cand = _np.asarray(list(candidates), dtype=_np.intp)
        if cand.size == 0:
            return []
        mask = within_eps(probe, self._array[cand], metric, eps)[0]
        return cand[mask].tolist()

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        arr = self._array
        n = arr.shape[0]
        if n < 2:
            return
        if arr.shape[1] > _PAIRWISE_GRID_MAX_DIMS:
            # Blocked brute force: rows [start, start+block) against every
            # later row; still vectorised, no 3^d offset enumeration.
            for start in range(0, n - 1, _BLOCK):
                sub = _np.arange(start, min(start + _BLOCK, n))
                mask = within_eps(arr[sub], arr, metric, eps)
                gi, gj = _np.nonzero(mask)
                gi = sub[gi]
                keep = gi < gj
                for i, j in zip(gi[keep].tolist(), gj[keep].tolist()):
                    yield i, j
            return
        cells = _np.floor(arr / eps).astype(_np.int64)
        uniq, inverse = _np.unique(cells, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        order = _np.argsort(inverse, kind="stable")
        counts = _np.bincount(inverse, minlength=uniq.shape[0])
        splits = _np.split(order, _np.cumsum(counts)[:-1])
        bucket_of = {tuple(c): idx for c, idx in zip(uniq.tolist(), splits)}
        offsets = _half_space_offsets(arr.shape[1])
        for key, members in bucket_of.items():
            yield from self._cell_pairs(members, members, eps, metric, same=True)
            for off in offsets:
                other = bucket_of.get(tuple(k + o for k, o in zip(key, off)))
                if other is not None:
                    yield from self._cell_pairs(members, other, eps, metric, same=False)

    def components_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> List[int]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        arr = self._array
        n, d = arr.shape
        if n < 2:
            return list(range(n))
        side = _cell_side(eps, metric, d)
        if (
            d > _COMPONENTS_GRID_MAX_DIMS
            or float(_np.abs(arr).max()) / side >= _GRID_MAX_CELLS
        ):
            return _labels_from_pairs(n, self.pairwise_within(eps, metric))
        cells = _np.floor(arr / side).astype(_np.int64)
        # One int64 key per cell: the per-axis ranks of its coordinates among
        # the occupied ones, in mixed radix.
        axes = [_np.unique(cells[:, k]) for k in range(d)]
        if math.prod(len(axis) for axis in axes) >= 2**62:
            return _labels_from_pairs(n, self.pairwise_within(eps, metric))
        strides = [1] * d
        for k in range(d - 2, -1, -1):
            strides[k] = strides[k + 1] * len(axes[k + 1])
        keys = _np.searchsorted(axes[0], cells[:, 0]) * strides[0]
        for k in range(1, d):
            keys += _np.searchsorted(axes[k], cells[:, k]) * strides[k]
        ukeys, first, inverse = _np.unique(keys, return_index=True, return_inverse=True)
        inverse = inverse.ravel()
        m = ukeys.shape[0]
        order = _np.argsort(inverse, kind="stable")
        counts = _np.bincount(inverse, minlength=m)
        starts = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
        by_cell = arr[order]
        lo = _np.minimum.reduceat(by_cell, starts, axis=0)
        hi = _np.maximum.reduceat(by_cell, starts, axis=0)
        limit = eps * eps if metric is Metric.L2 else eps
        a_nodes, b_nodes = _numpy_reach_pairs(cells[first], axes, strides, ukeys, metric)
        # Box gap beyond eps: no pair can be within eps.
        gap = _np.maximum(lo[b_nodes] - hi[a_nodes], lo[a_nodes] - hi[b_nodes])
        _np.maximum(gap, 0.0, out=gap)
        near = _row_measures(gap, metric) <= limit
        a_nodes = a_nodes[near]
        b_nodes = b_nodes[near]
        # Farthest corners within eps: every pair is within eps.
        far = _np.maximum(hi[b_nodes] - lo[a_nodes], hi[a_nodes] - lo[b_nodes])
        every_pair = _row_measures(far, metric) <= limit

        # Nodes 0..m-1 are the cells; a non-clique cell keeps node c for its
        # first component and appends one node per further component.
        node_of_point = inverse
        node_min = order[starts].tolist()
        non_clique = _np.nonzero(_row_measures(hi - lo, metric) > limit)[0].tolist()
        if non_clique:
            node_of_point = inverse.copy()
            cell_nodes: Dict[int, List[int]] = {}
            for c in non_clique:
                members = order[starts[c] : starts[c] + counts[c]]
                parts = _split_members(
                    members.tolist(), _verified_pairs(arr, members, eps, metric)
                )
                cell_nodes[c] = [c] + list(
                    range(len(node_min), len(node_min) + len(parts) - 1)
                )
                node_min.extend(part[0] for part in parts[1:])
                for node, part in zip(cell_nodes[c], parts):
                    node_of_point[part] = node
            # Lay the members out node by node, and expand the cell pairs
            # touching a split cell into node pairs.
            order = _np.argsort(node_of_point, kind="stable")
            counts = _np.bincount(node_of_point)
            starts = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
            a_nodes, b_nodes, every_pair = _expand_node_pairs(
                a_nodes, b_nodes, every_pair, cell_nodes
            )

        forest = _MinForest(node_min)
        union = forest.union
        for a, b in zip(a_nodes[every_pair].tolist(), b_nodes[every_pair].tolist()):
            union(a, b)
        unsure = ~every_pair
        _join_by_witness(
            forest, arr, a_nodes[unsure], b_nodes[unsure], order, starts, counts,
            eps, metric,
        )
        return _np.asarray(forest.labels())[node_of_point].tolist()

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        probes_ps = PointSet.from_any(other, backend="numpy")
        assert isinstance(probes_ps, NumpyPointSet)
        arr = self._array
        parr = probes_ps._array
        if arr.shape[0] == 0 or parr.shape[0] == 0:
            return
        if arr.shape[1] != parr.shape[1]:
            raise DimensionalityError(
                f"cross_within dimensionality mismatch: {arr.shape[1]} vs "
                f"{parr.shape[1]}"
            )
        if arr.shape[1] > _PAIRWISE_GRID_MAX_DIMS:
            # Blocked brute force over the probe rows.
            for start in range(0, parr.shape[0], _BLOCK):
                block = parr[start : start + _BLOCK]
                mask = within_eps(block, arr, metric, eps)
                pj, si = _np.nonzero(mask)
                for i, j in zip(si.tolist(), (pj + start).tolist()):
                    yield i, j
            return
        # Bucket this set on the eps-grid, group the probes by their cell, and
        # verify each probe cell against the 3^d neighbouring buckets.
        cells = _np.floor(arr / eps).astype(_np.int64)
        uniq, inverse = _np.unique(cells, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        order = _np.argsort(inverse, kind="stable")
        counts = _np.bincount(inverse, minlength=uniq.shape[0])
        splits = _np.split(order, _np.cumsum(counts)[:-1])
        bucket_of = {tuple(c): idx for c, idx in zip(uniq.tolist(), splits)}
        pcells = _np.floor(parr / eps).astype(_np.int64)
        puniq, pinverse = _np.unique(pcells, axis=0, return_inverse=True)
        pinverse = pinverse.ravel()
        porder = _np.argsort(pinverse, kind="stable")
        pcounts = _np.bincount(pinverse, minlength=puniq.shape[0])
        psplits = _np.split(porder, _np.cumsum(pcounts)[:-1])
        offsets = _neighbourhood_offsets(arr.shape[1])
        for key, probe_idx in zip(puniq.tolist(), psplits):
            # One verification call per probe cell: concatenate the Moore
            # neighbourhood's buckets instead of checking them one by one.
            neighbours = [
                bucket
                for off in offsets
                if (bucket := bucket_of.get(tuple(k + o for k, o in zip(key, off))))
                is not None
            ]
            if not neighbours:
                continue
            members = (
                neighbours[0] if len(neighbours) == 1 else _np.concatenate(neighbours)
            )
            candidates = arr[members]
            for start in range(0, probe_idx.shape[0], _BLOCK):
                sub = probe_idx[start : start + _BLOCK]
                mask = within_eps(parr[sub], candidates, metric, eps)
                pj, si = _np.nonzero(mask)
                gi = members[si]
                gj = sub[pj]
                for i, j in zip(gi.tolist(), gj.tolist()):
                    yield i, j

    def _cell_pairs(self, a_idx, b_idx, eps: float, metric: Metric, same: bool):
        """Yield the within-eps (i, j) pairs between two index buckets, blocked."""
        arr = self._array
        pb = arr[b_idx]
        for start in range(0, a_idx.shape[0], _BLOCK):
            sub = a_idx[start : start + _BLOCK]
            mask = within_eps(arr[sub], pb, metric, eps)
            ai, bi = _np.nonzero(mask)
            gi = sub[ai]
            gj = b_idx[bi]
            if same:
                keep = gi < gj
                gi = gi[keep]
                gj = gj[keep]
            for i, j in zip(gi.tolist(), gj.tolist()):
                yield i, j


def _neighbourhood_offsets(d: int) -> List[Tuple[int, ...]]:
    """All cell offsets in {-1,0,1}^d, origin included.

    ``cross_within`` joins two *distinct* point sets, so there is no pair
    symmetry to exploit: every probe cell must look at its full Moore
    neighbourhood in the other set's grid.
    """
    out: List[Tuple[int, ...]] = [()]
    for _ in range(d):
        out = [prefix + (o,) for prefix in out for o in (-1, 0, 1)]
    return out


def _half_space_offsets(d: int) -> List[Tuple[int, ...]]:
    """Neighbour-cell offsets in {-1,0,1}^d that are lexicographically positive.

    Visiting only the positive half-space means every unordered cell pair is
    scanned exactly once (the origin offset, handled separately, covers
    same-cell pairs).
    """
    out: List[Tuple[int, ...]] = []

    def recurse(prefix: Tuple[int, ...]) -> None:
        if len(prefix) == d:
            if any(prefix) and prefix > (0,) * d:
                out.append(prefix)
            return
        for o in (-1, 0, 1):
            recurse(prefix + (o,))

    recurse(())
    return out


# ---------------------------------------------------------------------------
# components_within helpers
# ---------------------------------------------------------------------------


def _cell_side(eps: float, metric: Metric, d: int) -> float:
    """Grid side at which every pair inside a cell is within eps (exactly)."""
    if metric is Metric.L2:
        return eps / math.sqrt(d)
    if metric is Metric.L1:
        return eps / d
    return eps


@functools.lru_cache(maxsize=None)
def _reach_offsets(d: int, metric: Metric) -> Tuple[Tuple[int, ...], ...]:
    """Lexicographically positive offsets of the cells a neighbour can be in.

    Two points ``o`` cells apart on an axis are at least ``|o| - 1`` sides
    apart there, so an offset is within reach when the metric measure of
    ``max(|o_k| - 1, 0)`` is at most eps in sides: sqrt(d) for L2 (reach
    ceil(sqrt(d)) per axis), d for L1, 1 for LINF.  Equality is kept, which
    also covers points exactly eps apart whose quotient ``x / side`` rounded
    up onto a cell boundary.
    """
    reach = 1 + (math.isqrt(d) if metric is Metric.L2 else d if metric is Metric.L1 else 1)
    out: List[Tuple[int, ...]] = [()]
    for _ in range(d):
        out = [prefix + (o,) for prefix in out for o in range(-reach, reach + 1)]
    kept = []
    for off in out:
        if off <= (0,) * d:
            continue
        gaps = [max(abs(o) - 1, 0) for o in off]
        if metric is Metric.L2:
            ok = sum(g * g for g in gaps) <= d
        elif metric is Metric.L1:
            ok = sum(gaps) <= d
        else:
            ok = max(gaps) <= 1
        if ok:
            kept.append(off)
    return tuple(kept)


def _numpy_reach_pairs(ucells, axes, strides, ukeys, metric: Metric):
    """Occupied cell pairs ``(a, b)`` one reach offset apart, each once (NumPy)."""
    d = ucells.shape[1]
    offsets = _np.asarray(_reach_offsets(d, metric), dtype=_np.int64)
    m = ucells.shape[0]
    chunk = max(1, (1 << 18) // offsets.shape[0])
    a_parts = []
    b_parts = []
    for start in range(0, m, chunk):
        sub = ucells[start : start + chunk]
        ok = _np.ones((sub.shape[0], offsets.shape[0]), dtype=bool)
        key = _np.zeros(ok.shape, dtype=_np.int64)
        for k in range(d):
            value = sub[:, k, None] + offsets[None, :, k]
            rank = _np.searchsorted(axes[k], value)
            _np.minimum(rank, axes[k].shape[0] - 1, out=rank)
            ok &= axes[k][rank] == value
            key += rank * strides[k]
        rows, cols = _np.nonzero(ok)
        key = key[rows, cols]
        slot = _np.searchsorted(ukeys, key)
        _np.minimum(slot, m - 1, out=slot)
        found = ukeys[slot] == key
        a_parts.append(rows[found] + start)
        b_parts.append(slot[found])
    return _np.concatenate(a_parts), _np.concatenate(b_parts)


def _row_measures(vectors: "Any", metric: Metric) -> "Any":
    """Per-row metric measure of ``(m, d)`` per-axis gaps (NumPy).

    The accumulation order of :func:`repro.core.distance.pairwise_measures`,
    so the ``<= eps`` decisions compare like ``within_eps``'s.
    """
    if metric is Metric.L2:
        acc = vectors[:, 0] * vectors[:, 0]
        for k in range(1, vectors.shape[1]):
            acc += vectors[:, k] * vectors[:, k]
        return acc
    acc = vectors[:, 0].copy()
    for k in range(1, vectors.shape[1]):
        if metric is Metric.L1:
            acc += vectors[:, k]
        else:
            _np.maximum(acc, vectors[:, k], out=acc)
    return acc


class _MinForest:
    """Union-Find whose roots are the members with the smallest label.

    ``mins[x]`` is node ``x``'s own label (its smallest point index); a
    union keeps the root with the smaller one, so every root carries its
    component's minimum and :meth:`labels` needs no second pass.
    """

    __slots__ = ("parent", "mins")

    def __init__(self, mins: List[int]) -> None:
        self.parent = list(range(len(mins)))
        self.mins = mins

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra = self.find(a)
        rb = self.find(b)
        if ra != rb:
            if self.mins[ra] < self.mins[rb]:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def labels(self) -> List[int]:
        find = self.find
        mins = self.mins
        return [mins[find(x)] for x in range(len(mins))]


def _labels_from_pairs(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """Component labels (smallest member index) of ``n`` points from edges."""
    forest = _MinForest(list(range(n)))
    for i, j in pairs:
        forest.union(i, j)
    return forest.labels()


def _split_members(
    members: List[int], pairs: Iterable[Tuple[int, int]]
) -> List[List[int]]:
    """Components of one non-clique cell, each ascending, in order of minimum."""
    position = {index: k for k, index in enumerate(members)}
    labels = _labels_from_pairs(
        len(members), ((position[a], position[b]) for a, b in pairs)
    )
    parts: Dict[int, List[int]] = {}
    for k, label in enumerate(labels):
        parts.setdefault(label, []).append(members[k])
    return list(parts.values())


def _pair_chunks(a_len: int, b_len: int) -> Iterator[Tuple[slice, slice]]:
    """Row/column slices covering an ``a x b`` block, at most the pair budget each."""
    cols = min(b_len, _WITNESS_PAIRS)
    rows = max(1, _WITNESS_PAIRS // cols)
    for c0 in range(0, b_len, cols):
        for r0 in range(0, a_len, rows):
            yield slice(r0, r0 + rows), slice(c0, c0 + cols)


def _verified_pairs(arr: "Any", members: "Any", eps: float, metric: Metric):
    """Every within-eps pair ``(i, j)``, ``i < j``, among one cell's members."""
    block = arr[members]
    out: List[Tuple[int, int]] = []
    n = members.shape[0]
    for rows, cols in _pair_chunks(n, n):
        ai, bi = _np.nonzero(within_eps(block[rows], block[cols], metric, eps))
        ai = ai + rows.start
        bi = bi + cols.start
        keep = ai < bi
        out.extend(zip(members[ai[keep]].tolist(), members[bi[keep]].tolist()))
    return out


def _expand_node_pairs(a_cells, b_cells, every_pair, cell_nodes):
    """Replace each cell pair touching a split cell by its node pairs."""
    split = _np.asarray(sorted(cell_nodes), dtype=a_cells.dtype)
    touched = _np.isin(a_cells, split) | _np.isin(b_cells, split)
    a_out = a_cells[~touched].tolist()
    b_out = b_cells[~touched].tolist()
    sure_out = every_pair[~touched].tolist()
    for a, b, sure in zip(
        a_cells[touched].tolist(), b_cells[touched].tolist(), every_pair[touched].tolist()
    ):
        for node_a in cell_nodes.get(a, (a,)):
            for node_b in cell_nodes.get(b, (b,)):
                a_out.append(node_a)
                b_out.append(node_b)
                sure_out.append(sure)
    return (
        _np.asarray(a_out, dtype=_np.intp),
        _np.asarray(b_out, dtype=_np.intp),
        _np.asarray(sure_out, dtype=bool),
    )


def _join_by_witness(
    forest: _MinForest, arr, a_nodes, b_nodes, order, starts, counts, eps, metric
) -> None:
    """Union the node pairs that hold a witness pair, testing unconnected ones.

    Node ``x``'s members are ``order[starts[x]:starts[x] + counts[x]]``.
    Pairs are tested in arrival order and skipped once already connected;
    small ones are batched into one vectorised test of at most
    :data:`_WITNESS_PAIRS` point pairs, larger ones are tested alone in
    chunks of that size, stopping at the first witness.
    """
    find = forest.find
    sizes = (counts[a_nodes] * counts[b_nodes]).tolist()
    batch_a: List[int] = []
    batch_b: List[int] = []
    batch_pairs = 0
    for a, b, size in zip(a_nodes.tolist(), b_nodes.tolist(), sizes):
        if find(a) == find(b):
            continue
        if size > _WITNESS_PAIRS:
            members_a = order[starts[a] : starts[a] + counts[a]]
            members_b = order[starts[b] : starts[b] + counts[b]]
            if _has_witness(arr, members_a, members_b, eps, metric):
                forest.union(a, b)
            continue
        if batch_pairs + size > _WITNESS_PAIRS:
            _union_witnessed(forest, arr, batch_a, batch_b, order, starts, counts, eps, metric)
            batch_a, batch_b, batch_pairs = [], [], 0
        batch_a.append(a)
        batch_b.append(b)
        batch_pairs += size
    if batch_a:
        _union_witnessed(forest, arr, batch_a, batch_b, order, starts, counts, eps, metric)


def _union_witnessed(forest, arr, a_list, b_list, order, starts, counts, eps, metric):
    """One vectorised witness test over every point pair of a batch of node pairs."""
    a = _np.asarray(a_list, dtype=_np.intp)
    b = _np.asarray(b_list, dtype=_np.intp)
    count_b = counts[b]
    sizes = counts[a] * count_b
    pair = _np.repeat(_np.arange(a.shape[0]), sizes)
    offset = _np.arange(pair.shape[0]) - _np.repeat(_np.cumsum(sizes) - sizes, sizes)
    width = count_b[pair]
    i = order[starts[a][pair] + offset // width]
    j = order[starts[b][pair] + offset % width]
    hit = _pairs_within(arr, i, j, eps, metric)
    for k in _np.unique(pair[hit]).tolist():
        forest.union(a_list[k], b_list[k])


def _pairs_within(arr, i, j, eps: float, metric: Metric):
    """Row-wise ``within_eps``: is ``arr[i[k]]`` within eps of ``arr[j[k]]``?"""
    measures = _row_measures(_np.abs(arr[i] - arr[j]), metric)
    return measures <= (eps * eps if metric is Metric.L2 else eps)


def _has_witness(arr: "Any", a: "Any", b: "Any", eps: float, metric: Metric) -> bool:
    """True when some point of ``a`` is within eps of some point of ``b``."""
    pa = arr[a]
    pb = arr[b]
    for rows, cols in _pair_chunks(pa.shape[0], pb.shape[0]):
        if within_eps(pa[rows], pb[cols], metric, eps).any():
            return True
    return False
