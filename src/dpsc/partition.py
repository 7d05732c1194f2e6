"""Hard partitions of item sets, plus the tab-separated interchange format.

A partition assigns every item id to exactly one cluster.  Cluster ids are
opaque: two partitions are equivalent iff they induce the same grouping,
which is what ``canonical()`` exposes.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DomainError


class Partition:
    """Immutable-by-convention mapping from item id to cluster id.

    Item ids within one partition must be mutually orderable (all strings
    or all ints, say); that keeps the canonical form well defined.
    """

    __slots__ = ("assignment", "_clusters")

    def __init__(self, assignment):
        self.assignment = dict(assignment)
        self._clusters = None

    @classmethod
    def from_clusters(cls, clusters):
        """Build from an iterable of item groups. Cluster ids are 0,1,..."""
        assignment = {}
        for cid, members in enumerate(clusters):
            members = list(members)
            if not members:
                raise DomainError("empty cluster in partition construction")
            for item in members:
                if item in assignment:
                    raise DomainError(f"item {item!r} appears in two clusters")
                assignment[item] = cid
        return cls(assignment)

    @property
    def n_items(self):
        return len(self.assignment)

    @property
    def n_clusters(self):
        return len(self.clusters())

    def items(self):
        return frozenset(self.assignment)

    def clusters(self):
        """cluster id -> frozenset of member item ids."""
        if self._clusters is None:
            by_cid = defaultdict(list)
            for item, cid in self.assignment.items():
                by_cid[cid].append(item)
            self._clusters = {cid: frozenset(m) for cid, m in by_cid.items()}
        return self._clusters

    def canonical(self):
        """Label-free form: clusters as sorted item tuples, ordered by
        their smallest member."""
        blocks = [tuple(sorted(m)) for m in self.clusters().values()]
        return tuple(sorted(blocks, key=lambda b: b[0]))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.assignment == other.assignment

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"Partition({self.n_items} items, {self.n_clusters} clusters)"


def write_partition_file(partition, path):
    """One ``item_id<TAB>cluster_id`` line per item, sorted by item id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for item in sorted(partition.assignment, key=str):
            fh.write(f"{item}\t{partition.assignment[item]}\n")


def read_partition_file(path):
    assignment = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected 'item<TAB>cluster', got {line!r}")
            item, cid = parts
            if item in assignment:
                raise DomainError(f"{path}:{lineno}: duplicate item id {item!r}")
            assignment[item] = cid
    if not assignment:
        raise DomainError(f"{path}: empty partition file")
    return Partition(assignment)
