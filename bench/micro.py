"""L0 microbenchmarks at fixed shapes.

Each operation is timed in batches until ``min_time`` has passed; the
reported time per call is the median over batches.  Operation counts are
computed from the array shapes, not measured, and their metric names say
so (``_flop_computed``, ``_updates_computed``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from dpsc import gaussian
from dpsc.dp import GammaPrior, ObservationPair, sample_precision_multi

# Shapes: K centers of dimension 4 as in many-m1 (K = 16 / 130 / 520 are
# the cluster counts of small-m1, many-m1 and the 4.6k-item scale-up the
# roadmap names); pairwise sums at dimension 3 as in cond-m3; M pools for
# the multi-observation precision sampler (M=6 is the evaluate workload).
LOGLIK_K = (16, 130, 520)
LOGLIK_F = 4
PAIRWISE_K = (30, 400)
PAIRWISE_F = 3
PRECISION_M = (3, 6, 30)
PRECISION_GIBBS_ITERS = 200  # dpsc.dp.sample_precision_multi default
POSTERIOR_ROWS = 6


def time_per_call_s(fn, min_time=0.15, batches=7):
    """Median seconds per call of ``fn()`` over ``batches`` timed batches."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed * batches >= min_time or reps >= 1 << 20:
            break
        reps *= 2
    per_call = [elapsed / reps]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call)


def run_all(seed):
    rng = np.random.default_rng(seed)
    out = {}
    r = rng.normal(size=LOGLIK_F)
    t = rng.gamma(1.0, 1.0, LOGLIK_F)
    for k in LOGLIK_K:
        P = rng.normal(size=(k, LOGLIK_F))
        out[f"gaussian.data_loglik_rows_us.K{k}"] = 1e6 * time_per_call_s(
            lambda P=P: gaussian.data_loglik_rows(r, P, t)
        )
        # (r - P), its square, the product with t and the row sums.
        out[f"gaussian.data_loglik_rows_flop_computed.K{k}"] = 4 * k * LOGLIK_F
    for k in PAIRWISE_K:
        P = rng.normal(size=(k, PAIRWISE_F))
        out[f"gaussian.pairwise_sq_diff_sum_us.K{k}"] = 1e6 * time_per_call_s(
            lambda P=P: gaussian.pairwise_sq_diff_sum(P)
        )
        # The full K x K difference tensor, then square and sum the upper triangle.
        out[f"gaussian.pairwise_sq_diff_sum_flop_computed.K{k}"] = (
            k * k * PAIRWISE_F + k * (k - 1) * PAIRWISE_F
        )
    base = gaussian.PublicationBase.standard(LOGLIK_F)
    rs = rng.normal(size=(POSTERIOR_ROWS, LOGLIK_F))
    ts = rng.gamma(1.0, 1.0, (POSTERIOR_ROWS, LOGLIK_F))
    out["gaussian.posterior_sample_publication_us"] = 1e6 * time_per_call_s(
        lambda: gaussian.posterior_sample_publication(rs, ts, base, rng)
    )
    prior = GammaPrior()
    for m in PRECISION_M:
        sizes = rng.integers(80, 201, m)
        pairs = [ObservationPair(int(n), max(1, int(n) // 10)) for n in sizes]
        out[f"dp.sample_precision_multi_us.M{m}"] = 1e6 * time_per_call_s(
            lambda pairs=pairs: sample_precision_multi(1.0, pairs, prior, rng)
        )
        out[f"dp.sample_precision_multi_updates_computed.M{m}"] = PRECISION_GIBBS_ITERS * m
    return out
