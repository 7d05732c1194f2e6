import dataclasses
import math
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsc.errors import DomainError
from dpsc.metrics import (
    _matching_size,
    cluster_edit_distance,
    full_report,
    normalized_edit_score,
    pair_counts,
    precision_recall_f,
    rand_index,
    variation_of_information,
)
from dpsc.partition import Partition

from oracles import (
    bfs_edit_distance,
    enumerate_partitions,
    full_report_counter,
    matching_size_scipy,
    pair_counts_enumeration,
    vi_direct,
)

G_AB_C = Partition.from_clusters([["a", "b"], ["c"]])
H_A_BC = Partition.from_clusters([["a"], ["b", "c"]])
H_ABC = Partition.from_clusters([["a", "b", "c"]])


def random_partition(items, rng):
    labels = [rng.randrange(1, len(items) + 1) for _ in items]
    return Partition(dict(zip(items, labels)))


# ---------------------------------------------------------------- pair counts


def test_pair_counts_examples():
    pc = pair_counts(G_AB_C, H_A_BC)
    assert (pc.n11, pc.n00, pc.n10, pc.n01) == (0, 1, 1, 1)
    pc = pair_counts(G_AB_C, G_AB_C)
    assert (pc.n11, pc.n00, pc.n10, pc.n01) == (1, 2, 0, 0)
    pc = pair_counts(G_AB_C, H_ABC)
    assert (pc.n11, pc.n00, pc.n10, pc.n01) == (1, 0, 0, 2)


def test_pair_counts_match_enumeration_on_random_pairs():
    rng = random.Random(7)
    items = list("abcdefgh")
    for _ in range(60):
        g = random_partition(items, rng)
        h = random_partition(items, rng)
        pc = pair_counts(g, h)
        assert (pc.n11, pc.n00, pc.n10, pc.n01) == pair_counts_enumeration(g, h)
        assert pc.total == len(items) * (len(items) - 1) // 2


def test_pair_counts_errors():
    with pytest.raises(DomainError, match="different items"):
        pair_counts(G_AB_C, Partition({"a": 0, "b": 0, "z": 1}))
    single = Partition({"a": 0})
    with pytest.raises(DomainError, match="at least 2"):
        pair_counts(single, single)


# ----------------------------------------------------------------- rand index


def test_rand_index_examples():
    assert rand_index(G_AB_C, G_AB_C) == 1.0
    assert rand_index(G_AB_C, H_A_BC) == pytest.approx(1 / 3)
    assert rand_index(G_AB_C, H_ABC) == pytest.approx(1 / 3)


# -------------------------------------------------------- precision/recall/F


def test_prf_examples():
    p, r, f = precision_recall_f(G_AB_C, H_ABC)
    assert (p, r, f) == (pytest.approx(1 / 3), 1.0, pytest.approx(0.5))
    fine = Partition.from_clusters([["a"], ["b"], ["c"]])
    p, r, f = precision_recall_f(G_AB_C, fine)
    assert (p, r, f) == (1.0, 0.0, 0.0)
    assert precision_recall_f(G_AB_C, G_AB_C) == (1.0, 1.0, 1.0)


# -------------------------------------------------------- cluster edit dist


def test_ced_examples():
    g = Partition.from_clusters([["a", "b", "c", "d"]])
    h = Partition.from_clusters([["a", "b"], ["c", "d"]])
    assert cluster_edit_distance(g, g) == 0
    assert cluster_edit_distance(g, h) == 1  # one merge repairs the split
    assert cluster_edit_distance(h, g) == 2  # two moves repair the merge


def test_ced_merge_aware_tie_break():
    # Both hypothesis clusters tie between the two gold classes; mapping
    # them to distinct classes avoids a pointless merge.
    g = Partition.from_clusters([["a", "c"], ["b", "d"]])
    h = Partition.from_clusters([["a", "b"], ["c", "d"]])
    assert cluster_edit_distance(g, h) == 2
    assert bfs_edit_distance(g, h) == 2


def test_ced_matches_bfs_exhaustively_small():
    for n in (2, 3, 4):
        parts = enumerate_partitions(range(n))
        for g, h in product(parts, parts):
            assert cluster_edit_distance(g, h) == bfs_edit_distance(g, h)


# ------------------------------------------------------------------ NES


def test_nes_examples():
    g = Partition.from_clusters([["a", "b"], ["c", "d"]])
    h = Partition.from_clusters([["a", "b", "c", "d"]])
    assert normalized_edit_score(g, g) == 1.0
    assert normalized_edit_score(g, h) == pytest.approx(1 - (2 + 1) / 8)


def test_nes_symmetric():
    rng = random.Random(3)
    items = list("abcdef")
    for _ in range(40):
        g = random_partition(items, rng)
        h = random_partition(items, rng)
        assert normalized_edit_score(g, h) == pytest.approx(normalized_edit_score(h, g))


# ------------------------------------------------------------------- VI


def test_vi_examples():
    vi, nvi = variation_of_information(G_AB_C, G_AB_C)
    assert vi == 0.0 and nvi == 1.0
    g = Partition.from_clusters([["a", "b"], ["c", "d"]])
    h = Partition.from_clusters([["a", "c"], ["b", "d"]])
    vi, nvi = variation_of_information(g, h)
    assert vi == pytest.approx(2 * math.log(2))
    assert nvi == pytest.approx(0.0, abs=1e-12)


def test_vi_gold_vs_fine_from_entropy_oracle():
    fine = Partition.from_clusters([["a"], ["b"], ["c"]])
    vi, _ = variation_of_information(G_AB_C, fine)
    assert vi == pytest.approx(vi_direct(G_AB_C, fine), abs=1e-12)
    # h(fine) - h(gold) in closed form: (2/3) log 2
    assert vi == pytest.approx(2 / 3 * math.log(2))


def test_vi_triangle_inequality_small():
    parts = enumerate_partitions(range(4))
    vis = {}
    for a, b in product(range(len(parts)), repeat=2):
        vis[a, b] = variation_of_information(parts[a], parts[b])[0]
    for a, b, c in product(range(len(parts)), repeat=3):
        assert vis[a, c] <= vis[a, b] + vis[b, c] + 1e-12


def test_vi_zero_iff_equivalent():
    parts = enumerate_partitions(range(4))
    for a, b in product(parts, parts):
        vi, _ = variation_of_information(a, b)
        same = a.canonical() == b.canonical()
        assert (vi < 1e-12) == same
        assert (rand_index(a, b) == 1.0) == same


# ----------------------------------------------------------- invariances


def test_metrics_invariant_under_relabeling_and_reordering():
    rng = random.Random(11)
    items = list("abcdefg")
    for _ in range(25):
        g = random_partition(items, rng)
        h = random_partition(items, rng)
        perm = items[:]
        rng.shuffle(perm)
        g2 = Partition({i: f"g{g.assignment[i]}" for i in perm})
        h2 = Partition({i: (h.assignment[i], "x") for i in reversed(perm)})
        a, b = full_report(g, h), full_report(g2, h2)
        assert (a.ced_gh, a.ced_hg) == (b.ced_gh, b.ced_hg)
        for name in ("rand_index", "precision", "recall", "f_score", "nes", "vi", "nvi"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


def test_symmetry_of_ri_and_vi():
    rng = random.Random(5)
    items = list("abcdef")
    for _ in range(30):
        g = random_partition(items, rng)
        h = random_partition(items, rng)
        assert rand_index(g, h) == pytest.approx(rand_index(h, g))
        assert variation_of_information(g, h)[0] == pytest.approx(
            variation_of_information(h, g)[0]
        )


# ----------------------------------------------------------------- report


def test_full_report_perfect():
    rep = full_report(G_AB_C, G_AB_C)
    assert (rep.rand_index, rep.precision, rep.recall, rep.f_score) == (1, 1, 1, 1)
    assert (rep.ced_gh, rep.ced_hg) == (0, 0)
    assert (rep.nes, rep.vi, rep.nvi) == (1.0, 0.0, 1.0)


def test_full_report_consistent_with_parts():
    rng = random.Random(23)
    items = list("abcdefgh")
    for _ in range(20):
        g = random_partition(items, rng)
        h = random_partition(items, rng)
        rep = full_report(g, h)
        assert rep.rand_index == pytest.approx(rand_index(g, h))
        p, r, f = precision_recall_f(g, h)
        assert (rep.precision, rep.recall, rep.f_score) == (p, r, f)
        assert rep.ced_gh == cluster_edit_distance(g, h)
        assert rep.ced_hg == cluster_edit_distance(h, g)
        assert rep.nes == pytest.approx(normalized_edit_score(g, h))
        vi, nvi = variation_of_information(g, h)
        assert (rep.vi, rep.nvi) == (vi, nvi)
        assert rep.rand_index == pytest.approx(rand_index(g, h))
        assert 0 <= rep.ced_gh <= len(items) and 0 <= rep.ced_hg <= len(items)
        assert 0 <= rep.nes <= 1 and 0 <= rep.nvi <= 1
        assert 0 <= rep.vi <= math.log(len(items)) + 1e-12


# ------------------------------------------------------ property checks

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def partition_pairs(draw, max_items=300):
    """Two random partitions of the same items.  Each side draws its labels
    from 1..k values; a small k gives big clusters, k near n many small
    ones, and either way plenty of tied plurality overlaps."""
    n = draw(st.integers(2, max_items))
    items = [f"i{j}" for j in range(n)]

    def side():
        k = draw(st.integers(1, n))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        return Partition(dict(zip(items, labels)))

    return side(), side()


@st.composite
def oracle_pairs(draw, max_items=200):
    """Two partitions of the same items, each with its own item order: int
    or str item ids, and per side int or str cluster ids drawn as one
    cluster, all singletons, or labels from 1..k values (many tied
    plurality overlaps when k is small)."""
    n = draw(st.integers(2, max_items))
    items = list(range(n)) if draw(st.booleans()) else [f"i{j}" for j in range(n)]

    def side():
        kind = draw(st.sampled_from(["one", "singletons", "drawn"]))
        if kind == "one":
            labels = [7] * n
        elif kind == "singletons":
            labels = list(range(n))
        else:
            k = draw(st.integers(1, n))
            labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            labels = [f"c{lab}" for lab in labels]
        return Partition(dict(zip(draw(st.permutations(items)), labels)))

    return side(), side()


@settings(max_examples=200, deadline=None, database=None)
@given(oracle_pairs())
def test_full_report_bits_equal_the_counter_oracle(pair):
    g, h = pair
    got = {k: repr(v) for k, v in dataclasses.asdict(full_report(g, h)).items()}
    assert got == {k: repr(v) for k, v in full_report_counter(g, h).items()}


def relabeled_and_reordered(p, order, tag):
    return Partition({i: (tag, p.assignment[i]) for i in order})


@PROPERTY
@given(partition_pairs())
def test_full_report_equals_public_functions(pair):
    g, h = pair
    rep = full_report(g, h)
    assert rep.rand_index == rand_index(g, h)
    assert (rep.precision, rep.recall, rep.f_score) == precision_recall_f(g, h)
    assert rep.ced_gh == cluster_edit_distance(g, h)
    assert rep.ced_hg == cluster_edit_distance(h, g)
    assert rep.nes == normalized_edit_score(g, h)
    assert (rep.vi, rep.nvi) == variation_of_information(g, h)


@PROPERTY
@given(partition_pairs())
def test_pair_counts_and_vi_match_oracles(pair):
    g, h = pair
    pc = pair_counts(g, h)
    assert (pc.n11, pc.n00, pc.n10, pc.n01) == pair_counts_enumeration(g, h)
    vi, _ = variation_of_information(g, h)
    assert vi == pytest.approx(max(0.0, vi_direct(g, h)), abs=1e-9)


@PROPERTY
@given(partition_pairs())
def test_ced_bounds_and_identity(pair):
    g, h = pair
    n = g.n_items
    assert 0 <= cluster_edit_distance(g, h) <= n
    assert 0 <= cluster_edit_distance(h, g) <= n
    assert cluster_edit_distance(g, g) == 0
    assert cluster_edit_distance(g, relabeled_and_reordered(g, sorted(g.items()), "x")) == 0


@PROPERTY
@given(partition_pairs(), st.randoms(use_true_random=False))
def test_report_invariant_under_relabeling_and_reordering(pair, rnd):
    g, h = pair
    order = sorted(g.items())
    rnd.shuffle(order)
    a = full_report(g, h)
    b = full_report(relabeled_and_reordered(g, order, "g"),
                    relabeled_and_reordered(h, order[::-1], "h"))
    exact = ("rand_index", "precision", "recall", "f_score", "ced_gh", "ced_hg", "nes")
    assert [getattr(a, f) for f in exact] == [getattr(b, f) for f in exact]
    assert (a.vi, a.nvi) == (pytest.approx(b.vi, abs=1e-12), pytest.approx(b.nvi, abs=1e-12))


def test_ced_leaves_recursion_limit_alone():
    # 600 gold pairs and 600 hypothesis pairs shifted by one item: every
    # hypothesis cluster ties between two gold classes, and the tied
    # classes form one 1200-node cycle that a perfect matching covers.
    before = sys.getrecursionlimit()
    g = Partition({i: i // 2 for i in range(1200)})
    h = Partition({i: (i + 1) // 2 % 600 for i in range(1200)})
    assert cluster_edit_distance(g, h) == 600
    assert sys.getrecursionlimit() == before


@st.composite
def random_bipartite(draw):
    """Up to 12 left nodes with up to 6 right nodes each, drawn from a
    small pool, so lists repeat nodes and many lists are empty."""
    n_right = draw(st.integers(1, 12))
    return draw(st.lists(st.lists(st.integers(0, n_right - 1), max_size=6), max_size=12))


@st.composite
def alternating_chains(draw):
    """A path v0 - u0 - v1 - u1 - ... closed into a cycle or left open,
    with the left nodes in a drawn order and each list in a drawn order.
    The greedy start can take every edge one way round, leaving a single
    augmenting path through the whole chain."""
    m = draw(st.integers(1, 150))
    cands = [[i, i + 1] for i in range(m - 1)]
    cands.append([0] if draw(st.booleans()) else [m - 1, 0])
    cands = [vs[::-1] if draw(st.booleans()) else vs for vs in cands]
    return draw(st.permutations(cands))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(random_bipartite(), alternating_chains()))
def test_matching_size_matches_scipy(cands):
    assert _matching_size(cands) == matching_size_scipy(cands)
