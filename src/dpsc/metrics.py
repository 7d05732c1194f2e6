"""Partition-comparison metrics.

Everything here scores a hypothesis clustering H against a gold clustering
G over the same item set: pair-counting metrics (Rand index, precision,
recall, F), the asymmetric cluster edit distance and its symmetric
normalized edit score, and the entropy-based variation of information.

Both partitions are first coded as int64 arrays in G's item order, each
numbering its clusters 0, 1, ... by first appearance (``label_codes``,
``aligned_codes``).  Every score is read from one contingency table of
those codes: the number of items in each (gold cluster, hypothesis
cluster) cell, built by one ``np.unique`` and kept in order of first
appearance, with the cluster sizes (``np.bincount``) as its margins.  Pair
counts and VI use the cells and margins.  Each direction of the edit
distance matches the clusters of the partition being edited to their tied
plurality targets: the Karp-Sipser degree-1 rule settles every cluster
with one such target, then every target that only one cluster ties to,
and Hopcroft-Karp sizes the matching of what is left.
``report_from_codes`` computes every metric from two code arrays, so a
caller that holds the codes (``dpsc score``) can drop the partitions; the
functions taking Partitions code them and read the same table.  All scores
are invariant to cluster relabeling and item order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

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


def label_codes(labels):
    """Int64 codes of a collection of cluster ids, numbered 0, 1, ... in
    order of first appearance."""
    index = dict(zip(dict.fromkeys(labels), count()))
    return np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))


def aligned_codes(gold: Partition, hyp: Partition):
    """H's cluster ids coded in G's item order; the items must be G's."""
    return label_codes(list(map(hyp.assignment.__getitem__, gold.assignment)))


def _coded(gold, hyp):
    """Check that the partitions are comparable and code both."""
    problem = comparison_problem(gold, hyp)
    if problem:
        raise DomainError(problem)
    return label_codes(gold.assignment.values()), aligned_codes(gold, hyp)


class _Table:
    """The contingency table of two code arrays over the same items: the
    cells as parallel arrays ``g``, ``h`` (cluster codes) and ``c`` (item
    counts), in order of first appearance, and the margins ``sizes_g`` and
    ``sizes_h``, in code order."""

    def __init__(self, g, h):
        self.n = len(g)
        self.sizes_g, self.sizes_h = np.bincount(g), np.bincount(h)
        kh = len(self.sizes_h)
        keys, first, counts = np.unique(g * kh + h, return_index=True, return_counts=True)
        order = first.argsort()
        self.g, self.h = np.divmod(keys[order], kh)
        self.c = counts[order]

    def pair_counts(self):
        n = self.n
        n11 = _same_pairs(self.c)
        n10 = _same_pairs(self.sizes_g) - n11
        n01 = _same_pairs(self.sizes_h) - n11
        n00 = n * (n - 1) // 2 - n11 - n10 - n01
        return PairCounts(n11=n11, n00=n00, n10=n10, n01=n01)

    def ced_gh(self):
        """CED(G, H): H edited into G."""
        return _edit_distance(self.g, self.h, self.c, len(self.sizes_g), len(self.sizes_h), self.n)

    def ced_hg(self):
        """CED(H, G): G edited into H."""
        return _edit_distance(self.h, self.g, self.c, len(self.sizes_h), len(self.sizes_g), self.n)

    def vi(self):
        """(VI, NVI).  Each term is ``c/n * math.log(...)``, added one at a
        time in cell or margin order, so no bit depends on numpy's pairwise
        summation.  The log ratios are products of item counts, exact while
        n^2 < 2^53."""
        n, g, h, c = self.n, self.g, self.h, self.c
        pg, ph = self.sizes_g / n, self.sizes_h / n
        h_g = -_running_sum(pg * _logs(pg))
        h_h = -_running_sum(ph * _logs(ph))
        mi = _running_sum(c / n * _logs(c * n / (self.sizes_g[g] * self.sizes_h[h])))
        vi = max(0.0, h_g + h_h - 2.0 * mi)
        return vi, 1.0 - vi / math.log(n)


def _same_pairs(sizes):
    return int((sizes * (sizes - 1) // 2).sum())


def _logs(x):
    """``math.log`` of every entry, taken once per distinct value (cluster
    sizes repeat, so there are few)."""
    values, where = np.unique(x, return_inverse=True)
    return np.fromiter(map(math.log, values.tolist()), float, len(values))[where]


def _running_sum(x):
    """Left-to-right float sum, one rounding per term."""
    return float(x.cumsum()[-1])


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


def _edit_distance(target, source, c, k_target, k_source, n):
    """CED from the contingency cells (target code, source code, count),
    where the source partition, with k_source clusters, is the one edited
    into the target, with k_target.  The tied plurality cells are the edges
    of the matching; the degree-1 rule settles them from the source side,
    then from the target side, the components that are paths or cycles
    are sized in closed form, and Hopcroft-Karp sizes the rest."""
    best = np.zeros(k_source, dtype=np.int64)
    np.maximum.at(best, source, c)
    tied = c == best[source]
    t, s = target[tied], source[tied]
    from_sources, keep = _degree_one(s, t, k_source, k_target)
    t, s = t[keep], s[keep]
    from_targets, keep = _degree_one(t, s, k_target, k_source)
    t, s = t[keep], s[keep]
    from_chains, keep = _paths_and_cycles(s, t, k_source)
    matched = from_sources + from_targets + from_chains
    matched += _matching_size(_grouped(s[keep], t[keep]))
    return (n - int(best.sum())) + (k_source - matched)


def _degree_one(a, b, ka, kb):
    """Karp-Sipser's degree-1 rule on the bipartite edges (a[i], b[i]): an
    a-node with one edge keeps it in some maximum matching, so every b-node
    that such an a-node reaches is matched (to one of them).  Returns how
    many b-nodes that matches and the mask of the edges that avoid them."""
    taken = np.zeros(kb, dtype=bool)
    taken[b[np.bincount(a, minlength=ka)[a] == 1]] = True
    return int(np.count_nonzero(taken)), ~taken[b]


def _paths_and_cycles(a, b, ka):
    """The components of the bipartite edges (a[i], b[i]), a-nodes below
    ``ka``, whose nodes all have degree at most 2 are paths and cycles, and
    a bipartite cycle is even: a component of v nodes matches floor(v / 2)
    pairs either way.  Returns how many pairs those components match and
    the mask of the edges of the others."""
    # The nodes with an edge, both sides numbered together.
    nodes, ends = np.unique(np.concatenate([a, b + ka]), return_inverse=True)
    u, v = ends[:len(a)], ends[len(a):]
    root = _components(u, v, len(nodes))
    branched = np.zeros(len(nodes), dtype=bool)
    branched[root[np.bincount(ends, minlength=len(nodes)) > 2]] = True
    size = np.bincount(root, minlength=len(nodes))
    return int((size[~branched] // 2).sum()), branched[root[u]]


def _components(u, v, nodes):
    """Each node's component, named by its least node, for the edges
    (u[i], v[i]): union-find with path halving."""
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in zip(u.tolist(), v.tolist()):
        x, y = find(x), find(y)
        if x != y:
            parent[max(x, y)] = min(x, y)
    return np.array([find(x) for x in range(nodes)], dtype=np.int64)


def _grouped(keys, values):
    """The values as one list per distinct key."""
    order = keys.argsort(kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    values = values[order].tolist()
    return [values[a:b] for a, b in zip(starts, starts[1:] + [len(values)])]


def _nes(ced_gh, ced_hg, n):
    return 1.0 - (ced_gh + ced_hg) / (2.0 * n)


def report_from_codes(g, h) -> MetricReport:
    """All metrics for G and H given as code arrays over the same items
    (``label_codes``/``aligned_codes``), at least 2 of them."""
    table = _Table(g, h)
    n = table.n
    pc = table.pair_counts()
    p, r, f = pc.precision_recall_f()
    ced_gh, ced_hg = table.ced_gh(), table.ced_hg()
    vi, nvi = table.vi()
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


def pair_counts(gold: Partition, hyp: Partition) -> PairCounts:
    """Classify every unordered item pair by agreement between G and H."""
    return _Table(*_coded(gold, hyp)).pair_counts()


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
    return _Table(*_coded(gold, hyp)).ced_gh()


def normalized_edit_score(gold: Partition, hyp: Partition) -> float:
    """1 - [CED(G,H) + CED(H,G)] / 2N; symmetric, in [0, 1]."""
    table = _Table(*_coded(gold, hyp))
    return _nes(table.ced_gh(), table.ced_hg(), table.n)


def variation_of_information(gold: Partition, hyp: Partition):
    """(VI, NVI): H(G) + H(H) - 2 I(G,H) in nats, and 1 - VI/log N."""
    return _Table(*_coded(gold, hyp)).vi()


def full_report(gold: Partition, hyp: Partition) -> MetricReport:
    """All metrics for one (gold, hypothesis) pair, from one table."""
    return report_from_codes(*_coded(gold, hyp))
