"""Independent brute-force oracles used to pin expected test values.

Nothing in here may call the production code paths it checks: pair
classification is literal enumeration, edit distance is BFS over
operation sequences, entropies come straight from the definitions, and
marginals are numeric quadrature.
"""

from __future__ import annotations

import math
from collections import deque
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
