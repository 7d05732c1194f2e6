"""Independent brute-force oracles used to pin expected test values.

Nothing in here may call the production code paths it checks: pair
classification is literal enumeration, edit distance is BFS over
operation sequences, entropies come straight from the definitions,
marginals are numeric quadrature, and k-means is Lloyd's algorithm a
cluster at a time.  The one harness, chain_partition_tv, only sweeps a
chain it is given and compares what it visits with an oracle.
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


def conditional_three_point_posterior(
    values, alpha, shape=1.0, rate=1.0, precision=1.0, tilt=True, grid=361, span=8.0
):
    """Exact posterior over the set partitions of a few 1-D points under the
    conditional type prior with one type frozen at ``precision``: a CRP(alpha)
    prior, N(0, 1) cluster centers, observations N(center, 1/precision), and
    the type's density Gamma(precision; shape, rate + S), with S the sum of
    squared differences over all center pairs.  The centers are integrated
    out on a product grid (rectangle rule; the integrand vanishes at the
    edges).  ``tilt=False`` drops the S-dependence, leaving the plain model
    of three_point_posterior."""
    values = list(values)
    p = np.linspace(min(values + [0.0]) - span, max(values + [0.0]) + span, grid)
    log_step = math.log(p[1] - p[0])

    def log_type_density(s):
        if not tilt:
            s = np.zeros_like(s)
        return shape * np.log(rate + s) - (rate + s) * precision

    def log_center(members):  # log prior x likelihood on the grid
        lp = -0.5 * (math.log(2 * math.pi) + p**2)
        for i in members:
            lp = lp + 0.5 * (math.log(precision / (2 * math.pi)) - precision * (values[i] - p) ** 2)
        return lp

    def logsumexp(x):
        top = np.max(x)
        return top + math.log(np.exp(x - top).sum())

    parts = enumerate_partitions(range(len(values)))
    logs = []
    for part in parts:
        blocks = [sorted(m) for m in part.clusters().values()]
        k = len(blocks)
        lg = [log_center(b) for b in blocks]
        lp = k * (math.log(alpha) + log_step) + sum(math.lgamma(len(b)) for b in blocks)
        if k == 1:
            lp += logsumexp(lg[0]) + float(log_type_density(np.zeros(1))[0])
        else:
            # Loop over the grid points of all but the last two centers.
            x, y = p[:, None], p[None, :]
            tail = lg[-2][:, None] + lg[-1][None, :]
            slices = []
            for lead in product(range(grid), repeat=k - 2):
                q = [p[i] for i in lead]
                s = (x - y) ** 2 + sum((a - b) ** 2 for a, b in combinations(q, 2))
                s = s + sum((a - x) ** 2 + (a - y) ** 2 for a in q)
                head = sum(g[i] for g, i in zip(lg, lead))
                slices.append(logsumexp(head + tail + log_type_density(s)))
            lp += logsumexp(np.array(slices))
        logs.append(lp)
    logs = np.array(logs)
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    return {parts[i].canonical(): probs[i] for i in range(len(parts))}


def type_partition_posterior(residuals, alpha, shape, rate, grid=20001):
    """Exact posterior over the set partitions of a few items into types
    under a CRP(alpha) prior, each type's precision t ~ Gamma(shape, rate)
    and item i's residual N(0, 1/t) (1-D), the precision integrated out by
    a trapezoid rule in log t."""
    u = np.linspace(-30.0, 8.0, grid)
    t = np.exp(u)
    log_prior = shape * math.log(rate) - math.lgamma(shape) + shape * u - rate * t

    def log_marginal(xs):
        logf = log_prior + sum(0.5 * (u - math.log(2 * math.pi)) - 0.5 * t * x**2 for x in xs)
        top = logf.max()
        return top + math.log(np.trapezoid(np.exp(logf - top), u))

    parts = enumerate_partitions(range(len(residuals)))
    logs = []
    for part in parts:
        blocks = list(part.clusters().values())
        lp = len(blocks) * math.log(alpha)
        for members in blocks:
            lp += math.lgamma(len(members)) + log_marginal([residuals[i] for i in members])
        logs.append(lp)
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
