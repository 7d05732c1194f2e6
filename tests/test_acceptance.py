"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single `criterion N: PASS` line (run with `-s` to see
them live); a failing assertion makes the corresponding criterion read
as FAIL in the pytest report, with the printed context attached.
"""

import math
import time
from collections import deque
from itertools import product

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import gammaln

from dpsc.baselines import KMeansConfig, coarse, fine, kmeans
from dpsc.cli import main
from dpsc.data import SynthConfig, save_dataset, standardize, synth_gaussian
from dpsc.dp import (
    GammaPrior,
    ObservationPair,
    crp_sample,
    expected_clusters,
    sample_precision_multi,
    sample_precision_single,
)
from dpsc.gaussian import (
    PublicationBase,
    TypeBase,
    marginal_loglik_new_publication,
    marginal_loglik_new_type,
    publication_posterior_params,
    type_posterior_params,
)
from dpsc.metrics import full_report, precision_recall_f
from dpsc.partition import Partition
from dpsc.sampler import ChainState, SamplerConfig, extract_prediction, run_chain

from oracles import (
    chain_partition_tv,
    enumerate_partitions,
    pair_counts_enumeration,
    three_point_posterior,
    vi_direct,
    _successors,
)
from test_sampler import tiny_dataset


def announce(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}", flush=True)


# --------------------------------------------------------------- criterion 1


def _all_pairs_distances(n):
    """BFS edit distances between every ordered pair of partitions of n items."""
    parts = [p.canonical() for p in enumerate_partitions(range(n))]
    succ = {p: _successors(p) for p in parts}
    dist = {}
    for start in parts:
        d = {start: 0}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for nxt in succ[state]:
                if nxt not in d:
                    d[nxt] = d[state] + 1
                    queue.append(nxt)
        dist[start] = d
    return parts, dist


def test_criterion_1_metric_oracle_equivalence():
    t0 = time.time()
    for n in (2, 3, 4, 5):
        parts = enumerate_partitions(range(n))
        canon, dist = _all_pairs_distances(n)
        for g in parts:
            for h in parts:
                rep = full_report(g, h)
                n11, n00, n10, n01 = pair_counts_enumeration(g, h)
                total = n * (n - 1) / 2
                assert abs(rep.rand_index - (n11 + n00) / total) <= 1e-12
                p = n11 / (n11 + n01) if n11 + n01 else 1.0
                r = n11 / (n11 + n10) if n11 + n10 else 1.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                assert abs(rep.precision - p) <= 1e-12
                assert abs(rep.recall - r) <= 1e-12
                assert abs(rep.f_score - f) <= 1e-12
                ced_gh = dist[h.canonical()][g.canonical()]
                ced_hg = dist[g.canonical()][h.canonical()]
                assert rep.ced_gh == ced_gh
                assert rep.ced_hg == ced_hg
                assert abs(rep.nes - (1 - (ced_gh + ced_hg) / (2 * n))) <= 1e-12
                vi = vi_direct(g, h)
                assert abs(rep.vi - vi) <= 1e-12
                assert abs(rep.nvi - (1 - vi / math.log(n))) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60
    announce(1, f"six metrics equal brute-force oracles on all pairs of <=5 items ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_table_conventions():
    rng = np.random.default_rng(0)
    for trial in range(20):
        labels = rng.integers(0, 4, size=12)
        items = [f"i{j}" for j in range(12)]
        gold = Partition(dict(zip(items, labels.tolist())))
        _, r_coarse, _ = precision_recall_f(gold, coarse(items))
        assert r_coarse == 1.0
        p_fine, r_fine, f_fine = precision_recall_f(gold, fine(items))
        assert p_fine == 1.0
        if gold.n_clusters < gold.n_items:
            assert r_fine == 0.0 and f_fine == 0.0
    p, r = 0.229, 1.0
    f = 2 * p * r / (p + r)
    assert abs(f - 0.372) < 0.001
    announce(2, "Coarse gives R=1, Fine gives P=1/R=0/F=0, F(.229, 1) = .372 within .001")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_crp_moments():
    t0 = time.time()
    n, draws = 500, 10_000
    details = []
    for alpha in (0.5, 1.0, 2.0):
        rng = np.random.default_rng(int(alpha * 100))
        counts = np.fromiter(
            (crp_sample(alpha, n, rng).n_clusters for _ in range(draws)), float, draws
        )
        mean, std = expected_clusters(alpha, n)
        assert abs(counts.mean() - mean) / mean < 0.02
        assert abs(counts.std() - std) / std < 0.05
        details.append(f"alpha={alpha}: {counts.mean():.2f}/{mean:.2f}")
    elapsed = time.time() - t0
    assert elapsed < 60
    announce(3, f"CRP cluster-count moments match exact sums ({'; '.join(details)}, {elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 4


def _gauss01(points=400):
    x, w = leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


def multi_pair_grid_posterior_mean(prior, pairs, hi=30.0, points=3000):
    """Literal oracle: alpha grid x exact sum over 2^M indicator configs,
    with each beta auxiliary marginalized by quadrature."""
    xs, ws = _gauss01()
    grid = np.linspace(1e-4, hi, points)
    logd = (prior.shape - 1.0) * np.log(grid) - prior.rate * grid
    for pair in pairs:
        q = np.array(
            [float((ws * xs**a * (1 - xs) ** (pair.n - 1)).sum()) for a in grid]
        )
        logd += (pair.k - 1.0) * np.log(grid) + np.log(q)
    ind_sum = np.zeros_like(grid)
    for config in product((0, 1), repeat=len(pairs)):
        term = np.ones_like(grid)
        for i, pair in zip(config, pairs):
            term = term * (grid if i else pair.n)
        ind_sum += term
    logd += np.log(ind_sum)
    w = np.exp(logd - logd.max())
    return float((grid * w).sum() / w.sum())


def test_criterion_4_appendix_precision_sampler():
    t0 = time.time()
    # (a) one observation pair: the indicator sampler against West's form
    prior = GammaPrior(shape=1.0, scale=1.0)
    n, k, draws = 50, 5, 20_000
    rng = np.random.default_rng(1)
    a = 1.0
    mean_single = np.mean(
        [a := sample_precision_single(a, n, k, prior, rng) for _ in range(draws)]
    )
    b = 1.0
    pair = [ObservationPair(n, k)]
    mean_multi = np.mean(
        [b := sample_precision_multi(b, pair, prior, rng) for _ in range(draws)]
    )
    assert abs(mean_multi - mean_single) / mean_single < 0.03

    # (b) three pairs against the 2-D grid-quadrature posterior
    prior3 = GammaPrior(shape=5.0, scale=1.0)
    pairs = [ObservationPair(10, 3), ObservationPair(20, 5), ObservationPair(15, 4)]
    target = multi_pair_grid_posterior_mean(prior3, pairs)
    # cross-check the literal oracle against a gammaln evaluation
    grid = np.linspace(1e-4, 30.0, 3000)
    logd = (prior3.shape - 1.0) * np.log(grid) - prior3.rate * grid
    for p in pairs:
        logd += p.k * np.log(grid) + gammaln(grid) - gammaln(grid + p.n)
    w = np.exp(logd - logd.max())
    assert target == pytest.approx(float((grid * w).sum() / w.sum()), rel=1e-6)

    rng = np.random.default_rng(2)
    c = 1.0
    mean3 = np.mean(
        [c := sample_precision_multi(c, pairs, prior3, rng) for _ in range(draws)]
    )
    assert abs(mean3 - target) / target < 0.05
    elapsed = time.time() - t0
    assert elapsed < 120
    announce(
        4,
        f"M=1 matches West sampler ({mean_multi:.3f} vs {mean_single:.3f}); "
        f"3-pair chain mean {mean3:.3f} vs grid {target:.3f} ({elapsed:.1f}s)",
    )


# --------------------------------------------------------------- criterion 5


def _norm_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def _gamma_pdf(t, shape, scale):
    if t <= 0:
        return 0.0
    return t ** (shape - 1) * math.exp(-t / scale) / (math.gamma(shape) * scale**shape)


def test_criterion_5_conjugate_algebra_vs_quadrature():
    t0 = time.time()
    checks = 0
    # publication posterior moments and the center-integrated marginal
    for sigma in (0.5, 1.0, 2.0):
        for t in (0.25, 1.0, 4.0):
            for r in (-2.0, 0.0, 1.5):
                base = PublicationBase(mean=[0.1], variance=sigma)

                def unnorm(p, r=r, t=t, sigma=sigma):
                    return _norm_pdf(p, 0.1, sigma) * _norm_pdf(r, p, 1.0 / t)

                z, _ = quad(unnorm, -40, 40, limit=200)
                m1, _ = quad(lambda p: p * unnorm(p), -40, 40, limit=200)
                m2, _ = quad(lambda p: p * p * unnorm(p), -40, 40, limit=200)
                mean, prec = publication_posterior_params([[r]], [[t]], base)
                assert mean[0] == pytest.approx(m1 / z, abs=1e-6)
                assert 1.0 / prec[0] == pytest.approx(m2 / z - (m1 / z) ** 2, abs=1e-6)
                got = marginal_loglik_new_publication([r], [t], base)
                assert got == pytest.approx(math.log(z), abs=1e-6)
                checks += 3
    # type posterior moments and the precision-integrated marginal
    for shape, scale in ((1.0, 1.0), (2.0, 0.5), (0.8, 1.5)):
        for delta in (0.0, 0.5, 2.0):
            base = TypeBase(shape=[shape], scale=[scale])

            def unnorm_t(t, d=delta, a=shape, b=scale):
                return _gamma_pdf(t, a, b) * _norm_pdf(d, 0.0, 1.0 / t)

            z, _ = quad(unnorm_t, 0, np.inf, limit=300)
            m1, _ = quad(lambda t: t * unnorm_t(t), 0, np.inf, limit=300)
            m2, _ = quad(lambda t: t * t * unnorm_t(t), 0, np.inf, limit=300)
            sh, rate = type_posterior_params([[delta]], [[0.0]], base)
            assert sh[0] / rate[0] == pytest.approx(m1 / z, abs=1e-6)
            assert sh[0] / rate[0] ** 2 == pytest.approx(m2 / z - (m1 / z) ** 2, abs=1e-6)
            got = marginal_loglik_new_type([delta], [0.0], base)
            assert got == pytest.approx(math.log(z), abs=1e-6)
            checks += 3
    elapsed = time.time() - t0
    assert elapsed < 60
    announce(5, f"{checks} conjugate quantities match quadrature within 1e-6 ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_exact_posterior_chain_check():
    t0 = time.time()
    values = [-1.2, 0.1, 0.9]
    oracle = three_point_posterior(values, alpha=1.0)
    sweeps = 100_000
    m1 = SamplerConfig(
        variant="m1", iterations=1, freeze_types=True, resample_alphas=False, seed=0,
    )
    tv1 = chain_partition_tv(ChainState(tiny_dataset(values), m1, np.random.default_rng(10)), sweeps, oracle)
    assert tv1 < 0.05
    m3 = SamplerConfig(
        variant="m3", iterations=1, freeze_types=True, resample_alphas=False,
        seed=0, conditional_type_prior=False,
    )
    tv3 = chain_partition_tv(ChainState(tiny_dataset(values), m3, np.random.default_rng(11)), sweeps, oracle)
    assert tv3 < 0.07
    elapsed = time.time() - t0
    assert elapsed < 300
    announce(6, f"partition frequencies vs enumeration: m1 TV={tv1:.4f}, m3 TV={tv3:.4f} ({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_end_to_end_synthetic_recovery():
    t0 = time.time()
    results = []
    for seed in range(5):
        ds = synth_gaussian(
            SynthConfig(4, 3, dim=2, min_class_size=50, max_class_size=50,
                        separation=5.0, seed=seed)
        )
        std, _ = standardize(ds)
        cfg = SamplerConfig(
            variant="m1", iterations=2000, burn_in=1000, n_chains=2, seed=seed,
            resample_alphas=True,
        )
        chains = [run_chain(std, cfg, i) for i in range(cfg.n_chains)]
        pred = extract_prediction(chains)
        gold = std.gold_partition()
        _, _, f = precision_recall_f(gold, pred)
        test_idx = std.indices("test")
        k = len({std.labels[i] for i in test_idx})
        km = kmeans(
            std.X[test_idx], KMeansConfig(k=k, seed=seed),
            ids=[std.ids[i] for i in test_idx],
        )
        _, _, f_km = precision_recall_f(gold, km)
        results.append((f, f_km))
    good = sum(1 for f, f_km in results if f >= 0.9 and f >= f_km - 0.05)
    elapsed = time.time() - t0
    assert good >= 4, f"only {good}/5 seeds passed: {results}"
    assert elapsed < 600
    announce(
        7,
        f"{good}/5 seeds with F >= 0.9 and >= kmeans - .05 "
        f"(F: {', '.join(f'{f:.3f}' for f, _ in results)}; {elapsed:.0f}s)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_distance_identity():
    from dpsc.data import squared_mean_distance

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(2, 9)), 3))
        b = rng.normal(size=(int(rng.integers(2, 9)), 3))
        ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        aa = ((a[:, None, :] - a[None, :, :]) ** 2).sum(-1)
        bb = ((b[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        direct = float(((a.mean(0) - b.mean(0)) ** 2).sum())
        worst = max(worst, abs(squared_mean_distance(ab, aa, bb) - direct))
    assert worst < 1e-9
    announce(8, f"distance-only mean identity holds on 50 random subset pairs (worst {worst:.1e})")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_cmd_run_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    ds = synth_gaussian(
        SynthConfig(2, 2, dim=2, min_class_size=6, max_class_size=8, separation=6.0, seed=5)
    )
    data = tmp_path / "data.csv"
    save_dataset(ds, data)
    flags = ["run", str(data), "--variant", "m1", "--chains", "4", "--iters", "40",
             "--burn-in", "10", "--seed", "3", "--resample-alpha"]

    outputs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        monkeypatch.setenv("DPSC_THREADS", threads)
        assert main(flags + ["-o", str(tmp_path / name)]) == 0
        outputs[name] = (
            (tmp_path / f"{name}.pred.tsv").read_bytes(),
            (tmp_path / f"{name}.chains.csv").read_bytes(),
        )
    assert outputs["a"] == outputs["b"], "repeated invocations differ"
    assert outputs["a"] == outputs["c"], "thread count changed the results"
    elapsed = time.time() - t0
    announce(9, f"cmd_run byte-identical across reruns and DPSC_THREADS in {{1,4}} ({elapsed:.1f}s)")
