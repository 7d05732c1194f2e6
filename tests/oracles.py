"""Independent brute-force oracles used to pin expected test values.

Nothing in here may call the production code paths it checks: pair
classification is literal enumeration, edit distance is BFS over
operation sequences, a maximum bipartite matching is scipy's, entropies
come straight from the definitions, marginals are numeric quadrature,
k-means is Lloyd's algorithm a cluster at a time, and the multi-pair DP
precision refresh is its first numpy form (logaddexp sums, one array beta
draw), kept as the reference for the random stream.  The one harness,
chain_partition_tv, only sweeps a chain it is given and compares what it
visits with an oracle.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import combinations, product

import numpy as np

from dpsc.partition import Partition


def enumerate_partitions(items):
    """All set partitions of the given items, as Partition objects."""
    items = list(items)
    if not items:
        return []
    out = []

    def rec(i, blocks):
        if i == len(items):
            out.append([list(b) for b in blocks])
            return
        for b in blocks:
            b.append(items[i])
            rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return [Partition.from_clusters(bs) for bs in out]


def pair_counts_enumeration(gold: Partition, hyp: Partition):
    """(n11, n00, n10, n01) by checking every unordered item pair."""
    items = sorted(gold.items())
    n11 = n00 = n10 = n01 = 0
    for a, b in combinations(items, 2):
        same_g = gold.assignment[a] == gold.assignment[b]
        same_h = hyp.assignment[a] == hyp.assignment[b]
        if same_g and same_h:
            n11 += 1
        elif not same_g and not same_h:
            n00 += 1
        elif same_g:
            n10 += 1
        else:
            n01 += 1
    return n11, n00, n10, n01


def _canon(partition: Partition):
    return partition.canonical()


def _successors(canon_blocks):
    """States reachable in one move or one merge from a canonical form."""
    blocks = [list(b) for b in canon_blocks]
    out = set()
    # moves: any item to any other existing block or to a new singleton
    for bi, block in enumerate(blocks):
        for item in block:
            rest = [list(b) for b in blocks]
            rest[bi] = [x for x in block if x != item]
            base = [b for b in rest if b]
            for ti in range(len(base)):
                nxt = [list(b) for b in base]
                nxt[ti].append(item)
                out.add(Partition.from_clusters(nxt).canonical())
            if len(block) > 1:  # item to a brand-new cluster
                out.add(Partition.from_clusters(base + [[item]]).canonical())
    # merges: any two blocks
    for i, j in combinations(range(len(blocks)), 2):
        nxt = [list(b) for k, b in enumerate(blocks) if k not in (i, j)]
        nxt.append(blocks[i] + blocks[j])
        out.add(Partition.from_clusters(nxt).canonical())
    return out


def bfs_edit_distance(gold: Partition, hyp: Partition):
    """Shortest move/merge sequence turning hyp into gold (BFS)."""
    target = _canon(gold)
    start = _canon(hyp)
    if start == target:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, depth = queue.popleft()
        for nxt in _successors(state):
            if nxt == target:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    raise RuntimeError("edit-distance BFS exhausted the state space")


def matching_size_scipy(cands):
    """Maximum bipartite matching size by scipy's csgraph; cands[u] lists
    the (hashable) right nodes of left node u, repeats allowed."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    col = {}
    indices = [col.setdefault(v, len(col)) for vs in cands for v in vs]
    if not indices:
        return 0
    indptr = np.cumsum([0] + [len(vs) for vs in cands])
    graph = csr_array(
        (np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(len(cands), len(col))
    )
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def vi_direct(gold: Partition, hyp: Partition):
    """Variation of information straight from the entropy definitions."""
    items = sorted(gold.items())
    n = len(items)

    def blocks(p):
        out = {}
        for item in items:
            out.setdefault(p.assignment[item], set()).add(item)
        return list(out.values())

    gb, hb = blocks(gold), blocks(hyp)
    h_g = -sum(len(b) / n * math.log(len(b) / n) for b in gb)
    h_h = -sum(len(b) / n * math.log(len(b) / n) for b in hb)
    mi = 0.0
    for bg in gb:
        for bh in hb:
            inter = len(bg & bh)
            if inter:
                mi += inter / n * math.log(inter * n / (len(bg) * len(bh)))
    return h_g + h_h - 2 * mi


def gauss_cluster_marginal_quad(values, prior_mean, prior_var, precision, grid=8001, span=12.0):
    """log integral over the cluster center of prior x likelihood, by a
    trapezoid rule on a wide grid (1-D observations)."""
    values = np.asarray(values, float)
    lo = min(values.min(), prior_mean) - span
    hi = max(values.max(), prior_mean) + span
    p = np.linspace(lo, hi, grid)
    logprior = -0.5 * (math.log(2 * math.pi * prior_var) + (p - prior_mean) ** 2 / prior_var)
    loglik = sum(
        0.5 * (math.log(precision) - math.log(2 * math.pi)) - 0.5 * precision * (v - p) ** 2
        for v in values
    )
    logf = logprior + loglik
    m = logf.max()
    return m + math.log(np.trapezoid(np.exp(logf - m), p))


def three_point_posterior(values, alpha, prior_mean=0.0, prior_var=1.0, precision=1.0):
    """Exact posterior over the set partitions of a few 1-D points under a
    CRP(alpha) prior and a fixed-precision Gaussian with a Normal prior on
    each cluster center (center integrated out by quadrature)."""
    values = list(values)
    parts = enumerate_partitions(range(len(values)))
    logs = []
    for part in parts:
        lp = part.n_clusters * math.log(alpha)
        for members in part.clusters().values():
            lp += math.lgamma(len(members))
            lp += gauss_cluster_marginal_quad(
                [values[i] for i in sorted(members)], prior_mean, prior_var, precision
            )
        logs.append(lp)
    logs = np.array(logs)
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    return {parts[i].canonical(): probs[i] for i in range(len(parts))}


def rate_integrated_type_partition_posterior(residuals, alpha, grid=20001):
    """Exact posterior over the set partitions of a few items into types
    under a CRP(alpha) prior, each type's precision t ~ Gamma(1, rate b),
    the rate b itself under a Gamma(1, 1) prior, and item i's residual
    N(0, 1/t) (1-D).  Given b, the precision of a type whose n residuals
    have squared sum SS integrates out in closed form, to
    b Gamma(1 + n/2) / ((2 pi)^(n/2) (b + SS/2)^(1 + n/2)); b is integrated
    out by a trapezoid rule in log b."""
    v = np.linspace(-25.0, 6.0, grid)
    b = np.exp(v)
    log_prior = v - b  # the Gamma(1, 1) density of b, times db/dv = b

    def log_marginal(xs):  # on the grid of b
        n, ss = len(xs), sum(x * x for x in xs)
        head = math.lgamma(1 + n / 2) - n / 2 * math.log(2 * math.pi)
        return v + head - (1 + n / 2) * np.log(b + ss / 2)

    parts = enumerate_partitions(range(len(residuals)))
    logs = []
    for part in parts:
        blocks = list(part.clusters().values())
        logf = log_prior + len(blocks) * math.log(alpha)
        for members in blocks:
            logf = logf + math.lgamma(len(members)) + log_marginal([residuals[i] for i in members])
        top = logf.max()
        logs.append(top + math.log(np.trapezoid(np.exp(logf - top), v)))
    logs = np.array(logs)
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    return {parts[i].canonical(): probs[i] for i in range(len(parts))}


def chain_partition_tv(state, sweeps, oracle, step=None, labels=None):
    """Total-variation distance between the frequencies of the test
    partitions a chain state visits over ``sweeps`` sweeps (items keyed by
    position) and the ``oracle`` probabilities; audits the state at the end.
    When given, ``step(state)`` stands in for the sweep and
    ``labels(state)``, each item's block label by position, for the test
    partition."""
    index = {name: i for i, name in enumerate(state.ids)}
    counts = Counter()
    for _ in range(sweeps):
        if step is None:
            state.sweep()
        else:
            step(state)
        if labels is None:
            part = state.test_partition()
            key = Partition({index[i]: c for i, c in part.assignment.items()}).canonical()
        else:
            key = Partition(dict(enumerate(labels(state)))).canonical()
        counts[key] += 1
    state.check()
    return 0.5 * sum(abs(counts.get(k, 0) / sweeps - p) for k, p in oracle.items())


def precision_mixture_enumeration(pairs, shape, rate):
    """P(S = s), s = 0..M, for the multi-pair DP precision refresh, by
    literal enumeration of the 2^M binary indices i: index i integrates
    alpha^(s0 + S - 1) exp(-rate alpha) prod_{m: i_m = 0} n_m over alpha,
    with S = sum(i) and s0 = shape - M + sum(k)."""
    m = len(pairs)
    s0 = shape - m + sum(k for _, k in pairs)
    log_terms = {s: [] for s in range(m + 1)}
    for index in product((0, 1), repeat=m):
        s = sum(index)
        log_terms[s].append(
            math.lgamma(s0 + s)
            - (s0 + s) * math.log(rate)
            + sum(math.log(n) for (n, _), i in zip(pairs, index) if not i)
        )
    top = max(max(v) for v in log_terms.values())
    weights = np.array([sum(math.exp(x - top) for x in log_terms[s]) for s in range(m + 1)])
    return weights / weights.sum()


def precision_mixture_reference(pairs, shape, rate):
    """(shapes, weights) of the multi-pair DP precision mixture as the
    library first computed it: log e_j(n) by one np.logaddexp pass per
    pool, then numpy arrays of the M + 1 log weights."""
    m = len(pairs)
    s0 = shape + (sum(k for _, k in pairs) - m)
    log_e = np.full(m + 1, -np.inf)
    log_e[0] = 0.0
    for n, _ in pairs:
        log_e[1:] = np.logaddexp(log_e[1:], log_e[:-1] + math.log(n))
    log_w = np.concatenate(([0.0], np.cumsum(np.log((s0 + np.arange(m)) / rate))))
    log_w += log_e[::-1]
    w = np.exp(log_w - log_w.max())
    return s0 + np.arange(m + 1.0), w / w.sum()


def sample_precision_multi_reference(alpha_old, pairs, shape, rate, rng):
    """One multi-pair DP precision refresh as the library first drew it:
    one array beta call for every pool's auxiliary, the mixture weights
    from precision_mixture_reference, and S by searchsorted on their
    normalised running sums.  ``rate`` is the prior's 1/scale."""
    xs = rng.beta(alpha_old + 1.0, [n for n, _ in pairs])
    bhat = rate - float(np.log(xs).sum())
    shapes, weights = precision_mixture_reference(pairs, shape, bhat)
    cdf = np.cumsum(weights)
    s = int(np.searchsorted(cdf / cdf[-1], rng.random(), side="right"))
    alpha = float(rng.gamma(shapes[s], 1.0 / bhat))
    if alpha == 0.0:
        raise FloatingPointError("the DP precision draw underflowed to 0")
    return alpha


def lloyd(X, k, first, max_iters):
    """One Lloyd run, a cluster at a time; returns (labels, final wcss).
    Seeding is farthest-point from X[first]; the distances are one broadcast
    sum; every cluster's mean is X[members].mean, and a starved cluster,
    visited in turn, takes the point farthest from its assigned center under
    the labels as reseeded so far."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[first]
    mind2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = X[int(mind2.argmax())]
        mind2 = np.minimum(mind2, ((X - centers[j]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(max_iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                centers[j] = X[members].mean(axis=0)
            else:
                far = int(d2[np.arange(n), new_labels].argmax())
                centers[j] = X[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, wcss


def _left_sum(terms):
    """Float sum one term at a time (``sum`` on Python 3.11; later versions
    compensate)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def full_report_counter(gold: Partition, hyp: Partition):
    """Every MetricReport field as a dict, from a ``Counter`` contingency
    table filled in gold-item order and scalar Python loops over its cells
    and margins in order of first appearance (the VI terms, added in that
    order, fix its last bits); the edit distance's matching is scipy's."""
    n = gold.n_items
    table = Counter(zip(gold.assignment.values(), map(hyp.assignment.__getitem__, gold.assignment)))
    sizes_g, sizes_h = Counter(), Counter()
    for (g, h), c in table.items():
        sizes_g[g] += c
        sizes_h[h] += c

    def same_pairs(sizes):
        return sum(c * (c - 1) // 2 for c in sizes)

    n11 = same_pairs(table.values())
    n10 = same_pairs(sizes_g.values()) - n11
    n01 = same_pairs(sizes_h.values()) - n11
    n00 = n * (n - 1) // 2 - n11 - n10 - n01
    p = n11 / (n11 + n01) if n11 + n01 > 0 else 1.0
    r = n11 / (n11 + n10) if n11 + n10 > 0 else 1.0
    f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0

    def edit_distance(cells):  # ((target, source), count) -> CED
        best = {}
        for (t, s), c in cells:
            top = best.get(s)
            if top is None or c > top[0]:
                best[s] = [c, [t]]
            elif c == top[0]:
                top[1].append(t)
        moves = n - sum(c for c, _ in best.values())
        return moves + len(best) - matching_size_scipy([ties for _, ties in best.values()])

    ced_gh = edit_distance(table.items())
    ced_hg = edit_distance(((h, g), c) for (g, h), c in table.items())
    h_g = -_left_sum(c / n * math.log(c / n) for c in sizes_g.values())
    h_h = -_left_sum(c / n * math.log(c / n) for c in sizes_h.values())
    mi = _left_sum(
        c / n * math.log(c * n / (sizes_g[g] * sizes_h[h])) for (g, h), c in table.items()
    )
    vi = max(0.0, h_g + h_h - 2.0 * mi)
    return {
        "rand_index": (n11 + n00) / (n11 + n00 + n10 + n01),
        "precision": p,
        "recall": r,
        "f_score": f,
        "ced_gh": ced_gh,
        "ced_hg": ced_hg,
        "nes": 1.0 - (ced_gh + ced_hg) / (2.0 * n),
        "vi": vi,
        "nvi": 1.0 - vi / math.log(n),
    }
