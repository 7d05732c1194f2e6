import pytest

from dpsc.errors import DomainError
from dpsc.partition import Partition, read_partition_file, write_partition_file


def test_from_clusters_and_canonical():
    p = Partition.from_clusters([["b", "a"], ["c"]])
    assert p.n_items == 3
    assert p.n_clusters == 2
    assert p.canonical() == (("a", "b"), ("c",))


def test_relabeling_is_equivalent():
    p = Partition({"a": 0, "b": 0, "c": 1})
    q = Partition({"a": "x", "b": "x", "c": "y"})
    assert p.canonical() == q.canonical()
    assert p.canonical() != Partition({"a": 0, "b": 1, "c": 1}).canonical()


def test_duplicate_item_rejected():
    with pytest.raises(DomainError):
        Partition.from_clusters([["a"], ["a", "b"]])


def test_file_round_trip(tmp_path):
    p = Partition({"a": "x", "b": "x", "c": "y"})
    path = tmp_path / "part.tsv"
    write_partition_file(p, path)
    q = read_partition_file(path)
    assert q.canonical() == p.canonical()
    assert q.assignment == {"a": "x", "b": "x", "c": "y"}


def test_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tx\na\ty\n")
    with pytest.raises(DomainError, match="duplicate"):
        read_partition_file(bad)
    malformed = tmp_path / "mal.tsv"
    malformed.write_text("a x y z\n")
    with pytest.raises(DomainError, match="mal.tsv:1"):
        read_partition_file(malformed)
