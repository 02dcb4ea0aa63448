"""Grid-connectivity kernel: ``PointSet.components_within`` vs the references.

The kernel must label points exactly like the connected components of the
scalar predicate's eps-graph.  Two oracles are used: the scalar
point-at-a-time SGB-Any path (``batch=False``) on data without exact-eps
ties, and the brute-force predicate graph, which is the definition and also
decides the rounding ties (the scalar path's LINF window shortcut is not
float-exact there, see ROADMAP).
"""

from __future__ import annotations

import math
import random

import pytest

import repro.core.pointset as pointset_module
from repro.core.distance import Metric
from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.core.predicates import SimilarityPredicate
from repro.core.sgb_any import SGBAnyGrouper, sgb_any_grouping
from repro.dstruct.union_find import UnionFind

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
METRICS = [Metric.L2, Metric.L1, Metric.LINF]


def _labels(groups, n):
    labels = [None] * n
    for members in groups:
        first = min(members)
        for i in members:
            labels[i] = first
    return labels


def scalar_labels(points, eps, metric):
    result = sgb_any_grouping(points, eps, metric=metric, batch=False)
    return _labels(result.groups, len(points))


def brute_labels(points, eps, metric):
    similar = SimilarityPredicate(metric, eps).similar
    uf = UnionFind(range(len(points)))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if similar(points[i], points[j]):
                uf.union(i, j)
    return _labels(uf.components().values(), len(points))


def clustered(rng, n, dims, spread=4.0, centres=6, jitter=0.4, offset=0.0):
    hubs = [
        tuple(offset + rng.uniform(-spread, spread) for _ in range(dims))
        for _ in range(centres)
    ]
    points = []
    for _ in range(n):
        hub = rng.choice(hubs)
        points.append(tuple(c + rng.gauss(0.0, jitter) for c in hub))
    return points


@pytest.mark.parametrize("backend", BACKENDS)
class TestMatchesScalarReference:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized(self, backend, metric, dims, seed):
        rng = random.Random(1000 * dims + seed)
        n = rng.choice([40, 90, 160])
        eps = rng.choice([0.15, 0.4, 0.9])
        points = clustered(rng, n, dims)
        labels = PointSet.from_any(points, backend=backend).components_within(
            eps, metric
        )
        assert labels == scalar_labels(points, eps, metric)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_dense_cells(self, backend, metric, dims, seed, monkeypatch):
        # Tight clusters fill the cells; the NumPy backend must take the
        # grid (the pure-Python one always answers from the pair sweep).
        sweeps = []
        real = pointset_module._labels_from_pairs

        def spy(n, pairs):
            sweeps.append(n)
            return real(n, pairs)

        monkeypatch.setattr(pointset_module, "_labels_from_pairs", spy)
        rng = random.Random(2000 * dims + seed)
        eps = rng.choice([0.2, 0.5])
        points = clustered(rng, 150, dims, jitter=eps / (3 * dims))
        labels = PointSet.from_any(points, backend=backend).components_within(
            eps, metric
        )
        assert labels == scalar_labels(points, eps, metric)
        assert (len(points) in sweeps) == (backend == "python")

    @pytest.mark.parametrize("metric", METRICS)
    def test_duplicates_and_negative_coordinates(self, backend, metric):
        rng = random.Random(7)
        base = clustered(rng, 30, 2, spread=3.0, offset=-5.0)
        points = base + base[:10] + [(-0.0, 0.0), (0.0, -0.0)]
        labels = PointSet.from_any(points, backend=backend).components_within(
            0.3, metric
        )
        assert labels == scalar_labels(points, 0.3, metric)
        for k in range(10):
            assert labels[30 + k] == labels[k]

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("eps", [1.0, 25.0])
    def test_coordinates_near_1e12(self, backend, metric, eps, monkeypatch):
        # eps=1 sits past the exact-cell-index bound (pair-sweep fallback);
        # eps=25 keeps the grid.
        sweeps = []
        real = pointset_module._labels_from_pairs

        def spy(n, pairs):
            sweeps.append(n)
            return real(n, pairs)

        monkeypatch.setattr(pointset_module, "_labels_from_pairs", spy)
        rng = random.Random(11)
        points = clustered(rng, 80, 2, spread=20 * eps, jitter=eps / 4, offset=1.5e12)
        labels = PointSet.from_any(points, backend=backend).components_within(
            eps, metric
        )
        assert labels == scalar_labels(points, eps, metric)
        assert (len(points) in sweeps) == (eps == 1.0 or backend == "python")

    def test_points_exactly_eps_apart_along_an_axis(self, backend):
        for metric in METRICS:
            points = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.5, 0.0), (0.0, -2.0)]
            labels = PointSet.from_any(points, backend=backend).components_within(
                2.0, metric
            )
            assert labels == [0, 0, 0, 3, 0]
            assert labels == scalar_labels(points, 2.0, metric)

    def test_points_exactly_eps_apart_along_a_diagonal(self, backend):
        # 3-4-5 for L2, 2+3 for L1, (5, 5) for LINF: all exact in binary.
        cases = {
            Metric.L2: [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (9.0, 12.5)],
            Metric.L1: [(0.0, 0.0), (2.0, 3.0), (4.0, 6.0), (6.0, 9.5)],
            Metric.LINF: [(0.0, 0.0), (5.0, 5.0), (10.0, 10.0), (15.0, 15.5)],
        }
        for metric, points in cases.items():
            labels = PointSet.from_any(points, backend=backend).components_within(
                5.0, metric
            )
            assert labels == [0, 0, 0, 3]
            assert labels == scalar_labels(points, 5.0, metric)
        points3 = [(0.0, 0.0, 0.0), (1.0, 2.0, 2.0), (2.0, 4.0, 4.0)]
        labels = PointSet.from_any(points3, backend=backend).components_within(
            3.0, Metric.L2
        )
        assert labels == [0, 0, 0]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_inputs(self, backend, n):
        points = [(0.0, 0.0), (0.5, 0.0)][:n]
        ps = PointSet.from_any(points, backend=backend)
        assert ps.components_within(1.0) == list(range(n)[:1]) * n
        assert ps.components_within(0.1) == list(range(n))


@pytest.mark.parametrize("backend", BACKENDS)
class TestMatchesPredicateGraph:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_rounding_ties_on_a_lattice(self, backend, metric, dims):
        # Multiples of eps/2 put many pairs at (rounded) distance eps.
        for seed in range(6):
            rng = random.Random(seed)
            eps = rng.choice([0.1, 0.3, 0.7])
            points = [
                tuple(rng.randint(-6, 6) * eps / 2 for _ in range(dims))
                for _ in range(40)
            ]
            labels = PointSet.from_any(points, backend=backend).components_within(
                eps, metric
            )
            assert labels == brute_labels(points, eps, metric)


@pytest.mark.skipif(not HAVE_NUMPY, reason="the grid kernel runs on the NumPy backend")
class TestGridInternals:
    @pytest.mark.parametrize("metric", METRICS)
    def test_forced_non_clique_cells(self, metric, monkeypatch):
        # Cell extents stay within one side under floor(x / side), so the
        # extent test cannot fail on real coordinates alone; widening the
        # side makes most dense cells fail it.  Coordinates near 1e11 keep
        # the pair decisions at the rounding edge.
        real_side = pointset_module._cell_side
        monkeypatch.setattr(
            pointset_module, "_cell_side", lambda eps, m, d: 3 * real_side(eps, m, d)
        )
        splits = []
        real_split = pointset_module._split_members

        def spy(members, pairs):
            parts = real_split(members, pairs)
            splits.append(len(parts))
            return parts

        monkeypatch.setattr(pointset_module, "_split_members", spy)
        rng = random.Random(5)
        points = clustered(rng, 150, 2, spread=3.0, jitter=0.2, offset=1e11)
        labels = PointSet.from_any(points, backend="numpy").components_within(
            0.2, metric
        )
        assert labels == brute_labels(points, 0.2, metric)
        assert labels == scalar_labels(points, 0.2, metric)
        assert splits and max(splits) > 1

    @pytest.mark.parametrize("budget", [64, pointset_module._WITNESS_PAIRS])
    @pytest.mark.parametrize("metric", METRICS)
    def test_no_witness_chunk_exceeds_the_pair_budget(self, metric, budget, monkeypatch):
        monkeypatch.setattr(pointset_module, "_WITNESS_PAIRS", budget)
        chunks = []
        real_block = pointset_module.within_eps
        real_rows = pointset_module._pairs_within

        def block_spy(probe, block, m, eps):
            chunks.append(probe.shape[0] * block.shape[0])
            return real_block(probe, block, m, eps)

        def rows_spy(arr, i, j, eps, m):
            chunks.append(i.shape[0])
            return real_rows(arr, i, j, eps, m)

        monkeypatch.setattr(pointset_module, "within_eps", block_spy)
        monkeypatch.setattr(pointset_module, "_pairs_within", rows_spy)
        rng = random.Random(3)
        # Dense blobs straddling cell boundaries: big cells whose boxes
        # neither rule a pair out nor guarantee every pair.
        points = clustered(rng, 1500, 2, spread=2.0, centres=4, jitter=0.3)
        labels = PointSet.from_any(points, backend="numpy").components_within(
            0.05, metric
        )
        assert chunks, "the witness path was not exercised"
        assert max(chunks) <= budget
        assert labels == scalar_labels(points, 0.05, metric)


@pytest.mark.parametrize("backend", BACKENDS)
def test_add_batch_applies_at_most_n_minus_1_unions(backend, monkeypatch):
    edges = []
    real = UnionFind.union_pairs

    def spy(self, pairs):
        pairs = list(pairs)
        edges.append(len(pairs))
        return real(self, pairs)

    monkeypatch.setattr(UnionFind, "union_pairs", spy)
    rng = random.Random(9)
    points = clustered(rng, 400, 2, jitter=0.2)
    grouper = SGBAnyGrouper(eps=0.3)
    grouper.add_batch(PointSet.from_any(points, backend=backend))
    assert sum(edges) == len(points) - grouper.group_count
    assert grouper.finalize().groups == sgb_any_grouping(points, 0.3, batch=False).groups


def test_cell_side_gives_cliques():
    # Any two points of one cell are within eps in exact arithmetic.
    for d in (1, 2, 3):
        assert pointset_module._cell_side(1.0, Metric.L2, d) == 1.0 / math.sqrt(d)
        assert pointset_module._cell_side(1.0, Metric.L1, d) == 1.0 / d
        assert pointset_module._cell_side(1.0, Metric.LINF, d) == 1.0
