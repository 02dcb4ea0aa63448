"""Supporting data structures: the Union-Find forest behind SGB-Any."""

from repro.dstruct.union_find import UnionFind

__all__ = ["UnionFind"]
