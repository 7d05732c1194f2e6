"""Partition-comparison metrics.

Everything here scores a hypothesis clustering H against a gold clustering
G over the same item set: pair-counting metrics (Rand index, precision,
recall, F), the asymmetric cluster edit distance and its symmetric
normalized edit score, and the entropy-based variation of information.

Every score is read from one contingency table: the number of items in
each (gold cluster, hypothesis cluster) cell.  Pair counts and VI use its
cells and margins; each direction of the edit distance groups the cells by
the partition being edited.  ``full_report`` builds the table and its
margins once; the single-metric functions build them for themselves.  All
scores are invariant to cluster relabeling and item order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError
from .partition import Partition


@dataclass(frozen=True)
class PairCounts:
    """Unordered item pairs classified by same/different cluster membership.

    n11: same cluster in both; n00: different in both; n10: same in gold
    only; n01: same in hypothesis only.  The four counts always sum to
    N(N-1)/2.
    """

    n11: int
    n00: int
    n10: int
    n01: int

    @property
    def total(self):
        return self.n11 + self.n00 + self.n10 + self.n01

    @property
    def rand_index(self):
        return (self.n11 + self.n00) / self.total

    def precision_recall_f(self):
        """Pairwise precision/recall/F.

        Degenerate conventions: an all-singleton side has no positive
        decisions, so the corresponding ratio is defined as 1; F is 0 when
        P + R = 0.
        """
        p = self.n11 / (self.n11 + self.n01) if self.n11 + self.n01 > 0 else 1.0
        r = self.n11 / (self.n11 + self.n10) if self.n11 + self.n10 > 0 else 1.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return p, r, f


@dataclass(frozen=True)
class MetricReport:
    rand_index: float
    precision: float
    recall: float
    f_score: float
    ced_gh: int
    ced_hg: int
    nes: float
    vi: float
    nvi: float


def comparison_problem(gold: Partition, hyp: Partition):
    """Why the two partitions cannot be compared, or None if they can."""
    gi, hi = gold.assignment.keys(), hyp.assignment.keys()
    if gi != hi:
        missing = sorted(map(str, gi - hi))[:5]
        extra = sorted(map(str, hi - gi))[:5]
        return (
            f"partitions cover different items (missing from hypothesis: {missing}, "
            f"extra in hypothesis: {extra})"
        )
    if gold.n_items < 2:
        return "need at least 2 items to compare partitions"
    return None


def _contingency(gold, hyp):
    """Check that the partitions are comparable and count their joint
    membership: (gold cid, hyp cid) -> n items, filled in gold-item order."""
    problem = comparison_problem(gold, hyp)
    if problem:
        raise DomainError(problem)
    gold_of = gold.assignment
    return Counter(zip(gold_of.values(), map(hyp.assignment.__getitem__, gold_of)))


def _margins(table):
    """Cluster sizes of G and of H, in order of first appearance in the table."""
    sizes_g, sizes_h = Counter(), Counter()
    for (g, h), c in table.items():
        sizes_g[g] += c
        sizes_h[h] += c
    return sizes_g, sizes_h


def _same_pairs(sizes):
    return sum(c * (c - 1) // 2 for c in sizes)


def _pair_counts(table, margins, n):
    sizes_g, sizes_h = margins
    n11 = _same_pairs(table.values())
    n10 = _same_pairs(sizes_g.values()) - n11
    n01 = _same_pairs(sizes_h.values()) - n11
    n00 = n * (n - 1) // 2 - n11 - n10 - n01
    return PairCounts(n11=n11, n00=n00, n10=n10, n01=n01)


def _matching_size(cands):
    """Maximum bipartite matching size; cands[u] lists u's right nodes.

    Hopcroft-Karp: a greedy matching, then phases that each augment along
    a maximal set of disjoint shortest augmenting paths, O(E sqrt(V)) in
    all.  A phase labels the left nodes by BFS layer from the free ones and
    searches the layered graph depth first; the search keeps its own stack,
    so a long alternating path needs no recursion.
    """
    match_l = [None] * len(cands)  # left node -> its right node
    match_r = {}  # right node -> its left node
    for u, vs in enumerate(cands):
        for v in vs:
            if v not in match_r:
                match_r[v] = u
                match_l[u] = v
                break
    while True:
        roots = [u for u, v in enumerate(match_l) if v is None]
        layer = [-1] * len(cands)  # -1: not reached, or a dead end
        for u in roots:
            layer[u] = 0
        queue, shortest = list(roots), None
        for u in queue:  # BFS; grows while iterating
            if shortest is not None and layer[u] >= shortest:
                break
            for v in cands[u]:
                w = match_r.get(v)
                if w is None:
                    shortest = layer[u]
                elif layer[w] < 0:
                    layer[w] = layer[u] + 1
                    queue.append(w)
        if shortest is None:
            return len(match_r)
        nxt = [0] * len(cands)  # next candidate to try, per left node
        for root in roots:
            path = [root]
            while path:
                u = path[-1]
                vs = cands[u]
                if nxt[u] == len(vs):
                    layer[u] = -1
                    path.pop()
                    continue
                v = vs[nxt[u]]
                nxt[u] += 1
                w = match_r.get(v)
                if w is None:  # augment: each u on the path takes its last tried v
                    for u in path:
                        v = cands[u][nxt[u] - 1]
                        match_l[u] = v
                        match_r[v] = u
                    break
                if layer[u] < shortest and layer[w] == layer[u] + 1:
                    path.append(w)


def _edit_distance(cells, n):
    """CED from contingency cells ((target cid, source cid), count), where
    the source partition is the one being edited into the target."""
    best = {}  # source cid -> [largest overlap, target cids that reach it]
    for (t, s), c in cells:
        top = best.get(s)
        if top is None or c > top[0]:
            best[s] = [c, [t]]
        elif c == top[0]:
            top[1].append(t)
    moves = n - sum(c for c, _ in best.values())
    merges = len(best) - _matching_size([ties for _, ties in best.values()])
    return moves + merges


def _edit_distances(table, n):
    """(CED(G, H), CED(H, G))."""
    flipped = (((h, g), c) for (g, h), c in table.items())
    return _edit_distance(table.items(), n), _edit_distance(flipped, n)


def _nes(ced_gh, ced_hg, n):
    return 1.0 - (ced_gh + ced_hg) / (2.0 * n)


def _vi(table, margins, n):
    sizes_g, sizes_h = margins
    h_g = -sum(c / n * math.log(c / n) for c in sizes_g.values())
    h_h = -sum(c / n * math.log(c / n) for c in sizes_h.values())
    mi = sum(
        c / n * math.log(c * n / (sizes_g[g] * sizes_h[h]))
        for (g, h), c in table.items()
    )
    vi = max(0.0, h_g + h_h - 2.0 * mi)
    return vi, 1.0 - vi / math.log(n)


def pair_counts(gold: Partition, hyp: Partition) -> PairCounts:
    """Classify every unordered item pair by agreement between G and H."""
    table = _contingency(gold, hyp)
    return _pair_counts(table, _margins(table), gold.n_items)


def rand_index(gold: Partition, hyp: Partition) -> float:
    return pair_counts(gold, hyp).rand_index


def precision_recall_f(gold: Partition, hyp: Partition):
    """Pairwise precision/recall/F; see PairCounts.precision_recall_f."""
    return pair_counts(gold, hyp).precision_recall_f()


def cluster_edit_distance(gold: Partition, hyp: Partition) -> int:
    """Minimum move/merge operations turning H into G (splits disallowed).

    Each hypothesis cluster is mapped to the gold class it overlaps most;
    items outside the mapped class cost one move each, and k clusters
    mapped to the same class cost k-1 merges.  Among tied plurality
    classes the mapping is chosen to cover as many distinct gold classes
    as possible (a bipartite matching), which minimizes the merge count;
    moving a cluster off its plurality class can never do better, since a
    move costs at least the one merge it could save.
    """
    return _edit_distance(_contingency(gold, hyp).items(), gold.n_items)


def normalized_edit_score(gold: Partition, hyp: Partition) -> float:
    """1 - [CED(G,H) + CED(H,G)] / 2N; symmetric, in [0, 1]."""
    n = gold.n_items
    return _nes(*_edit_distances(_contingency(gold, hyp), n), n)


def variation_of_information(gold: Partition, hyp: Partition):
    """(VI, NVI): H(G) + H(H) - 2 I(G,H) in nats, and 1 - VI/log N."""
    table = _contingency(gold, hyp)
    return _vi(table, _margins(table), gold.n_items)


def full_report(gold: Partition, hyp: Partition) -> MetricReport:
    """All metrics for one (gold, hypothesis) pair, from one table and its
    margins."""
    n = gold.n_items
    table = _contingency(gold, hyp)
    # The edit distances run before the margins exist, so their temporaries
    # and the margins are never held at once (both grow with N).
    ced_gh, ced_hg = _edit_distances(table, n)
    margins = _margins(table)
    pc = _pair_counts(table, margins, n)
    p, r, f = pc.precision_recall_f()
    vi, nvi = _vi(table, margins, n)
    return MetricReport(
        rand_index=pc.rand_index,
        precision=p,
        recall=r,
        f_score=f,
        ced_gh=ced_gh,
        ced_hg=ced_hg,
        nes=_nes(ced_gh, ced_hg, n),
        vi=vi,
        nvi=nvi,
    )
