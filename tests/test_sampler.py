import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsc.cli import main
from dpsc.data import Dataset, SynthConfig, standardize, synth_gaussian
from dpsc.dp import crp_sample
from dpsc.errors import ConfigError, DomainError
from dpsc import sampler
from dpsc.gaussian import (
    TypeBase,
    conditional_type_base,
    data_loglik,
    data_loglik_rows,
    marginal_loglik_new_publication,
    marginal_loglik_new_type,
    pairwise_sq_diff_sum,
    posterior_sample_publication,
    posterior_sample_type,
    publication_posterior_params,
    type_base_logpdf,
    type_posterior_params,
)
from dpsc.partition import Partition
from dpsc.sampler import (
    ChainState,
    SampleRecord,
    SamplerConfig,
    chain_rng,
    extract_prediction,
    run_chain,
    run_chains,
)

from oracles import (
    chain_partition_tv,
    conditional_three_point_posterior,
    rate_integrated_type_partition_posterior,
    three_point_posterior,
    type_partition_posterior,
)
from test_dp import precision_posterior_grid
from test_golden import GOLDEN, RUN_SUFFIXES, run_args


def tiny_dataset(values, split="test"):
    values = list(values)
    return Dataset(
        ids=[f"x{i}" for i in range(len(values))],
        X=np.array([[v] for v in values]),
        labels=[None] * len(values),
        split=[split] * len(values),
    )


def supervised_dataset(seed=0):
    ds = synth_gaussian(
        SynthConfig(3, 2, dim=2, min_class_size=8, max_class_size=12, separation=6.0, seed=seed)
    )
    std, _ = standardize(ds)
    return std


def frozen_config(**kw):
    base = dict(
        variant="m1",
        iterations=50,
        freeze_types=True,
        resample_alphas=False,
        seed=0,
    )
    base.update(kw)
    return SamplerConfig(**base)


# -------------------------------------------------------------------- init


def test_init_deterministic():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=10, seed=3)
    s1 = ChainState(ds, cfg, chain_rng(cfg, 0))
    s2 = ChainState(ds, cfg, chain_rng(cfg, 0))
    assert np.array_equal(s1.c, s2.c) and np.array_equal(s1.d, s2.d)
    assert s1.pubs.ids.tolist() == s2.pubs.ids.tolist()
    assert s1.pubs.vecs == pytest.approx(s2.pubs.vecs)


def test_init_structure():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=10, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    state.check()
    # Test items start as singletons; training clusters carry gold classes.
    n_test = len(ds.indices("test"))
    assert len(state.pubs) == len(state.train_cluster_ids) + n_test
    assert len(state.types) == 1
    for i in ds.indices("train"):
        assert state.c[i] == state.train_label_to_cid[ds.labels[i]]


def test_init_zero_test_items():
    ds = synth_gaussian(SynthConfig(2, 1, dim=1, min_class_size=5, max_class_size=5, seed=1))
    ds = Dataset(
        ids=[ds.ids[i] for i in ds.indices("train")],
        X=ds.X[ds.indices("train")],
        labels=[ds.labels[i] for i in ds.indices("train")],
        split=["train"] * len(ds.indices("train")),
    )
    cfg = SamplerConfig(variant="m1", iterations=4, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(4):
        state.sweep()
    state.check()
    assert state.test_partition().n_items == 0


def test_check_audits_the_parameter_store():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    state.check()
    state.pubs.counts[-1] += 1.0  # count no longer that of the items in c
    with pytest.raises(AssertionError):
        state.check()
    state.pubs.counts[-1] -= 1.0
    state.check()
    cfg = SamplerConfig(variant="m3", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    state.check()
    pubs = state.pubs
    assert len(pubs) > 1
    # Each cache alone, built after a write through the store drops both:
    # a vector written past the store leaves it stale, and check() sees it.
    for build in (pubs.moments, pubs.type_prior):
        pubs.set(slice(None), pubs.vecs)
        build()
        state.check()
        pubs.vecs[0] += 1.0
        with pytest.raises(AssertionError):
            state.check()


def test_c_members_gives_the_items_of_each_cluster():
    # The benchmark's traced sampler reads a cluster's items from c_members.
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    assert len(state.pubs) > 1
    for k, count in zip(state.pubs.ids.tolist(), state.pubs.counts.tolist()):
        items = state.c_members[k]
        assert len(items) == count
        assert items.tolist() == [i for i in range(state.N) if state.c[i] == k]


def test_unsupervised_with_alpha_resampling_rejected():
    ds = tiny_dataset([0.0, 1.0])
    cfg = SamplerConfig(variant="m1", iterations=5, resample_alphas=True)
    with pytest.raises(ConfigError, match="resample_alphas"):
        ChainState(ds, cfg, np.random.default_rng(0))


def test_m1_score_ignores_the_conditional_type_prior():
    # The conditional type prior belongs to m3; an m1 chain neither samples
    # nor scores under it, whatever the flag says.
    ds = supervised_dataset(seed=2)
    states = []
    for conditional in (True, False):
        cfg = SamplerConfig(variant="m1", iterations=4, seed=1,
                            conditional_type_prior=conditional)
        state = ChainState(ds, cfg, chain_rng(cfg, 0))
        for _ in range(4):
            state.sweep()
        states.append(state)
    on, off = states
    assert len(on.pubs) > 1
    assert np.array_equal(on.c, off.c) and np.array_equal(on.d, off.d)
    assert on.joint_log_score() == off.joint_log_score()


def test_config_validation_collects_everything():
    cfg = SamplerConfig(variant="m9", iterations=0, aux_samples=0, n_chains=0)
    problems = cfg.validate()
    assert len(problems) >= 4


# ------------------------------------------------------------- indicators


def test_training_assignments_never_change():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m2", iterations=5, seed=1, share_train_test=True)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    pinned = state.c[ds.indices("train")].copy()
    for _ in range(5):
        state.sweep()
        state.check()
    assert np.array_equal(state.c[ds.indices("train")], pinned)


def test_tiny_alpha_always_joins_existing_cluster():
    ds = tiny_dataset([0.0, 0.1, -0.1, 0.05])
    state = ChainState(ds, frozen_config(), np.random.default_rng(0))
    state.alpha_p = 1e-12
    for _ in range(30):
        state.sweep()
    assert len(state.pubs) == 1


def test_share_train_test_controls_candidates():
    ds = supervised_dataset()
    shared = SamplerConfig(variant="m1", iterations=8, seed=2, share_train_test=True)
    state = ChainState(ds, shared, chain_rng(shared, 0))
    for _ in range(8):
        state.sweep()
    # With sharing on, at least some test item should sit in a train cluster
    # (train and test blobs overlap after standardization for this layout).
    test_idx = ds.indices("test")
    own = SamplerConfig(variant="m1", iterations=8, seed=2, share_train_test=False)
    state2 = ChainState(ds, own, chain_rng(own, 0))
    for _ in range(8):
        state2.sweep()
    in_train2 = [int(state2.c[i]) in state2.train_cluster_ids for i in test_idx]
    assert not any(in_train2)


def test_tiny_alpha_t_keeps_single_type():
    ds = supervised_dataset(seed=4)
    cfg = SamplerConfig(variant="m1", iterations=10, seed=0, resample_alphas=False)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    state.alpha_t = 1e-12
    for _ in range(10):
        state.sweep()
    assert len(state.types) == 1


def test_alpha_refreshes_condition_alpha_p_on_the_training_pair_and_alpha_t_on_n_t():
    # With c and d held fixed, repeated refreshes average to the grid
    # posterior mean of alpha_p given (n_train, k_train) alone (a cut) and of
    # alpha_t given (N, T).  The pairs of the other pool, (N, K) for alpha_p
    # and (n_train, T) for alpha_t, give means far outside the tolerance.
    state = ChainState(supervised_dataset(), SamplerConfig(seed=0), np.random.default_rng(3))
    state.d = np.arange(state.N) % 6
    state.types = sampler._Rows(state.d, np.ones((6, state.F)))
    state.check()
    n_train, k_train = state.train_pair
    draws = []
    for _ in range(20_000):
        state._resample_alphas()
        draws.append((state.alpha_p, state.alpha_t))
    cases = zip(np.mean(draws, axis=0), [(n_train, k_train), (state.N, 6)],
                [(state.N, len(state.pubs)), (n_train, 6)])
    for mean, pair, other in cases:
        want, _, _ = precision_posterior_grid(sampler.ALPHA_PRIOR, [pair])
        wrong, _, _ = precision_posterior_grid(sampler.ALPHA_PRIOR, [other])
        assert abs(wrong / want - 1.0) > 0.1
        assert mean == pytest.approx(want, rel=0.05)


def test_pick_and_pick_rows_draw_the_same_index():
    # _pick is _pick_rows' rule on one row: the same index for the same
    # uniform, with underflowed (zero) weights and with u at its largest,
    # 1 - 2**-53, where u times the total is just below the last running sum.
    rng = np.random.default_rng(12)
    top = 1.0 - 2.0**-53
    assert top < 1.0 and np.nextafter(top, 1.0) == 1.0
    for length in range(1, 201):
        for underflow in (False, True):
            logw = rng.normal(0.0, 3.0, length)
            if underflow:  # every other weight, the last included, is exp(-2000) = 0
                logw[-1::-2] = -2000.0
            zero = np.exp(logw - logw.max()) == 0.0
            assert zero.any() == (underflow and length > 1)
            us = np.concatenate([rng.random(20), [0.0, top]])
            rows = sampler._pick_rows(np.tile(logw, (len(us), 1)), us)
            for u, row in zip(us, rows.tolist()):
                i = sampler._pick(logw, u)
                assert i == row and 0 <= i < length and not zero[i]


class _GivenTable(sampler._PassTable):
    """An exponentiated pass table over given log-likelihoods: ``ll`` holds
    an item per row and a column per row of a store whose counts are
    ``counts``; ``new`` holds each item's new-row log weight."""

    def __init__(self, ll, new, counts, rng):
        self.ll = ll
        labels = np.repeat(np.arange(len(counts)), counts)
        store = sampler._Rows(labels, np.zeros(len(counts)))
        super().__init__(store, 0, range(len(ll)), new, labels, rng, exponentiate=True)

    def _loglik(self, i, row):
        return self.ll[i:, self.store.ids[row:]]


@settings(max_examples=300, deadline=None, database=None)
@given(
    k=st.integers(1, 40),
    items=st.integers(1, 5),
    level=st.sampled_from([0.0, -1e6, 1e6]),
    spread=st.sampled_from([0.5, 30.0, 800.0, 1e6]),
    neg_inf=st.sampled_from([0.0, 0.3, 1.0]),
    dead=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_pick_is_picks_index_or_defers(k, items, level, spread, neg_inf, dead, seed):
    # Log-likelihoods of magnitude up to about 1e6, some -inf, spread wide
    # enough that weights underflow, over rows of which some are emptied
    # (they stay at count 0): at u = 0, u = 1 - 2**-53, at random, and at
    # every running sum of _pick over its total and the floats next to it,
    # the certified pick is _pick's index or None, never another.
    rng = np.random.default_rng(seed)
    ll = level + rng.normal(0.0, spread, (items, k))
    ll[rng.random(ll.shape) < neg_inf] = -np.inf
    counts = rng.integers(1, 6, k)
    table = _GivenTable(ll, level + rng.normal(0.0, spread, items), counts, rng)
    for key in np.flatnonzero(rng.random(k) < dead).tolist():
        for _ in range(counts[key]):
            table.store.detach(key)
    top = 1.0 - 2.0**-53
    certified = 0
    for n in range(items):
        logw = table.weights(n)
        acc = np.exp(logw - logw.max()).cumsum()
        edges = acc[:-1] / acc[-1]
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        for u in [0.0, top, *rng.random(20), *near[(near >= 0.0) & (near < 1.0)]]:
            table.u[n] = table.ul[n] = u
            got = table._certified(n)
            assert got is None or got == sampler._pick(logw, u)
            certified += got is not None
    # Far from every edge, the pick is made, unless the row's weights left
    # after the emptied rows fall below the floor.
    assert certified or spread > 30.0 or dead


@pytest.mark.parametrize("rounding", [None, math.inf, 0.0], ids=["default", "inf", "zero"])
def test_certified_pick_bound_keeps_a_chain_bytes(rounding, tmp_path, monkeypatch):
    # large.csv starts every test item alone, so the first sweeps delete and
    # open many rows.  With the rounding bound at +inf every pick falls back
    # to _pick; at 0 only a target on a running sum or a total below _FLOOR
    # does.  Both runs write the default run's bytes, the large-m1 goldens,
    # and the default run falls back on under 1% of its picks.
    monkeypatch.setenv("DPSC_THREADS", "1")
    if rounding is not None:
        monkeypatch.setattr(sampler, "_ROUNDING", rounding)
    picks = []
    certified = sampler._PassTable._certified

    def counted(self, i):
        sel = certified(self, i)
        picks.append(sel is None)
        return sel

    monkeypatch.setattr(sampler._PassTable, "_certified", counted)
    prefix = tmp_path / "large-m1"
    assert main(run_args("large-m1", prefix)) == 0
    for suffix in RUN_SUFFIXES:
        got = Path(f"{prefix}{suffix}").read_bytes()
        assert got == (GOLDEN / f"large-m1{suffix}").read_bytes(), suffix
    fallbacks = sum(picks)
    assert len(picks) > 2000
    if rounding == math.inf:
        assert fallbacks == len(picks)
    else:
        assert fallbacks < 0.01 * len(picks)


class _CheckedTable(ChainState):
    """Compares every c update's log weights with per-item formulas: the
    existing clusters' always, the closed-form new cluster's for m1/m2 (m3
    draws its new-cluster candidates, so they are not recomputed).  m3
    reads them through _c_candidates; m1/m2 pick from the exponentiated
    weights and read them only on the log-space fallback, so their table
    (_CheckedPassTable) reads them for the check on every move."""

    compared = 0

    def _c_candidates(self, n, orphan):
        cand, logw, news = super()._c_candidates(n, orphan)
        assert self._table is not None
        r, t = self.X[n], self.types[int(self.d[n])]
        rows = self.pubs.rows(cand)
        with np.errstate(divide="ignore"):  # an emptied row: weight 0
            want = np.log(self.pubs.counts[rows]) + data_loglik_rows(r, self.pubs.vecs[rows], t)
        if news is None:
            want = np.append(
                want, math.log(self.alpha_p) + marginal_loglik_new_publication(r, t, self.pub_base)
            )
        # Batched products may round the last bit differently.
        np.testing.assert_allclose(logw[:len(want)], want, rtol=1e-14, atol=0.0)
        type(self).compared += 1
        return cand, logw, news


class _CheckedPassTable(sampler._ClusterTable):
    def move(self, n, key):
        # The weights the fallback would read, checked on a copy of the state
        # with n detached (the move detaches it only if it leaves its row).
        probe = copy.deepcopy(self.state)
        probe.pubs.detach(key)
        probe._c_candidates(n, None)
        return super().move(n, key)


@pytest.mark.parametrize(
    "variant,share",
    [("m1", False), ("m1", True), ("m2", False), ("m3", False), ("m3", True)],
)
def test_indicator_pass_table_matches_per_item_weights(variant, share, monkeypatch):
    monkeypatch.setattr(sampler, "_ClusterTable", _CheckedPassTable)
    ds = synth_gaussian(
        SynthConfig(3, 30, dim=3, min_class_size=2, max_class_size=5, separation=5.0, seed=3)
    )
    ds, _ = standardize(ds)
    cfg = SamplerConfig(variant=variant, iterations=6, seed=2, share_train_test=share)
    _CheckedTable.compared = 0
    state = _CheckedTable(ds, cfg, chain_rng(cfg, 0))
    first_unused = state.pubs.next_id
    for _ in range(6):
        state.sweep()
        state.check()
    # Every c update checked, over more than one block, with centers
    # deleted (all test items start alone) and, for m1/m2, opened mid-pass.
    # Under m3's conditional prior a new center's tilt against this many
    # centers is so low that none opens.
    n_test = len(ds.indices("test"))
    assert _CheckedTable.compared == 6 * n_test and n_test > sampler.TABLE_BLOCK
    assert state.pubs.next_id > first_unused or variant == "m3"


def test_indicator_pass_table_is_scoped_to_the_pass():
    ds = supervised_dataset(seed=5)
    cfg = SamplerConfig(variant="m1", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    state.sweep()
    assert state._table is None

    class Boom(RuntimeError):
        pass

    def fail(n):
        raise Boom(n)

    state.sample_c = fail
    with pytest.raises(Boom):
        state.sweep()
    assert state._table is None
    del state.sample_c
    state.check()

    # A pass that raises after a row emptied leaves it at count 0 until the
    # pass compacts the store: the raise comes at the first update that
    # finds one, and the store holds no emptied row afterwards.
    fresh = ChainState(ds, cfg, chain_rng(cfg, 0))  # every test item alone
    update = fresh.sample_c

    def fail_after_emptying(n):
        emptied = int((fresh.pubs.counts == 0.0).sum())
        if emptied:
            raise Boom(emptied)
        update(n)

    fresh.sample_c = fail_after_emptying
    with pytest.raises(Boom) as raised:
        fresh.sweep()
    assert raised.value.args[0] > 0
    assert fresh._table is None
    fresh.check()

    # Direct calls read current values: alpha_p changed after the pass.
    state.alpha_p *= 7.0
    n = int(ds.indices("test")[0])
    state.pubs.detach(int(state.c[n]))
    state._table = sampler._ClusterTable(state, [n])
    cand, logw, news = state._c_candidates(n, None)
    r, t = state.X[n], state.types[int(state.d[n])]
    want = [
        math.log(state.pubs.counts[state.pubs.row(int(cid))]) + data_loglik(r, state.pubs[int(cid)], t)
        for cid in cand
    ]
    want.append(math.log(state.alpha_p) + marginal_loglik_new_publication(r, t, state.pub_base))
    assert news is None
    assert np.asarray(logw) == pytest.approx(want, rel=1e-12)


def _sequential_d_pass(state):
    """The d pass as a plain sequential scan fed the batched pass's
    uniforms: per item, detach (deleting a type that empties at once), weigh
    each type by its count and data_loglik and a new type by alpha_t and
    marginal_loglik_new_type, pick by running sums, then join or open.  It
    reads the state's type prior object, so an opened type's draw sees the
    same bits."""
    u = state.rng.random(state.N)
    base, _ = state._type_prior()
    types = state.types
    for n in range(state.N):
        types.detach(int(state.d[n]))
        types.compact()
        r, p = state.X[n], state.pubs[int(state.c[n])]
        logw = [math.log(k) + data_loglik(r, p, t) for k, t in zip(types.counts, types.vecs)]
        logw.append(math.log(state.alpha_t) + marginal_loglik_new_type(r, p, base))
        acc = np.cumsum(np.exp(np.array(logw) - max(logw)))
        sel = int(np.searchsorted(acc, u[n] * acc[-1], side="right"))
        if sel < len(types):
            state.d[n] = types.join(sel)
        else:
            state.d[n] = types.open(posterior_sample_type(r[None], p[None], base, state.rng))


PASS_CASES = [
    ("m1", False, False), ("m1", True, False), ("m2", False, False), ("m2", True, False),
    ("m3", False, True), ("m3", True, True), ("m3", False, False), ("m3", True, False),
]


def pass_dataset():
    ds = synth_gaussian(
        SynthConfig(3, 30, dim=3, min_class_size=2, max_class_size=5, separation=5.0, seed=3)
    )
    return standardize(ds)[0]


def assert_same_pass(a, b):
    """The same indicators, rows and vectors, and the same draws consumed."""
    for x, y in ((a.c, b.c), (a.d, b.d), (a.pubs.ids, b.pubs.ids), (a.pubs.vecs, b.pubs.vecs),
                 (a.types.ids, b.types.ids), (a.types.vecs, b.types.vecs)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert a.rng.random() == b.rng.random()


@pytest.mark.parametrize("variant,share,conditional", PASS_CASES)
def test_batched_d_pass_matches_the_sequential_scan(variant, share, conditional):
    ds = pass_dataset()
    # alpha_t = 20: most items move, so the pass scans only when made to
    # (its widest window, whatever its history); alpha_t = 2: few move, and
    # the pass scans by its own rule.
    for alpha_t, moves in ((20.0, 0), (2.0, None)):
        cfg = SamplerConfig(variant=variant, seed=4, share_train_test=share,
                            resample_alphas=False, conditional_type_prior=conditional)
        state = ChainState(ds, cfg, chain_rng(cfg, 0))
        state.alpha_t = alpha_t
        most_types = moved = opened = scanned = 0
        for _ in range(12):
            state.sweep()
            batched, sequential = copy.deepcopy(state), copy.deepcopy(state)
            if moves is not None:
                batched.d_moves = moves
            scanned += sampler._window(state.N, batched.d_moves) > 0
            batched._d_pass()
            _sequential_d_pass(sequential)
            assert_same_pass(batched, sequential)
            batched.check()
            most_types = max(most_types, len(state.types), len(batched.types))
            moved += int((batched.d != state.d).sum())
            opened += batched.types.next_id - state.types.next_id
            state = batched
        assert scanned > 0 and moved > 0 and opened > 0
        assert most_types > 10 or alpha_t < 20.0


def _type_prior_change(state, phi):
    """How much adding a center at phi raises the log density of the types
    under the conditional prior, from a fresh pair sum."""
    P = state.pubs.vecs
    s_pair = pairwise_sq_diff_sum(P)
    before = conditional_type_base(state.type_base, s_pair)
    after = conditional_type_base(state.type_base, s_pair + ((P - phi) ** 2).sum(axis=0))
    return sum(type_base_logpdf(t, after) - type_base_logpdf(t, before) for t in state.types.vecs)


def _sequential_c_pass(state):
    """The c pass as a plain sequential scan fed the batched pass's draws: for
    m3, aux_samples base draws per test item, then one uniform per test item.
    Per item: detach, deleting a cluster that empties at once; weigh each
    candidate cluster by its count and data_loglik; weigh a new cluster by
    alpha_p and marginal_loglik_new_publication (m1/m2), or each auxiliary
    candidate by alpha_p / aux_samples, data_loglik and, under the
    conditional prior, the change its center makes to the types' log prior
    (a singleton's orphaned center replaces the last candidate); pick by
    running sums; then join or open."""
    test, base, pubs = state.test_indices, state.pub_base, state.pubs
    m, lo = state.config.aux_samples, state.first_candidate
    if state.variant == "m3":
        z = state.rng.standard_normal((len(test), m, state.F))
        news = base.mean + math.sqrt(base.variance) * z
    u = state.rng.random(len(test))
    for i, n in enumerate(test.tolist()):
        orphan = pubs.detach(int(state.c[n]))
        pubs.compact()
        r, t = state.X[n], state.types[int(state.d[n])]
        logw = [math.log(k) + data_loglik(r, p, t) for k, p in zip(pubs.counts[lo:], pubs.vecs[lo:])]
        if state.variant != "m3":
            logw.append(math.log(state.alpha_p) + marginal_loglik_new_publication(r, t, base))
        else:
            cands = news[i] if orphan is None else np.vstack([news[i][:-1], orphan])
            for phi in cands:
                w = math.log(state.alpha_p / m) + data_loglik(r, phi, t)
                logw.append(w + _type_prior_change(state, phi) if state.conditional else w)
        acc = np.cumsum(np.exp(np.array(logw) - max(logw)))
        sel = int(np.searchsorted(acc, u[i] * acc[-1], side="right"))
        k = len(pubs) - lo
        if sel < k:
            state.c[n] = pubs.join(lo + sel)
        elif state.variant == "m3":
            state.c[n] = pubs.open(cands[sel - k])
        else:
            state.c[n] = pubs.open(posterior_sample_publication(r[None], t[None], base, state.rng))


@pytest.mark.parametrize("variant,share,conditional", PASS_CASES)
def test_batched_c_pass_matches_the_sequential_scan(variant, share, conditional):
    ds = pass_dataset()
    cfg = SamplerConfig(variant=variant, seed=4, share_train_test=share,
                        resample_alphas=False, conditional_type_prior=conditional)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    moved = opened = deleted = 0
    for _ in range(12):
        state.sweep()
        sequential = copy.deepcopy(state)
        _sequential_c_pass(sequential)
        # The pass's own history, then its widest window: here most items
        # move, so only the second scans.
        for moves in (state.c_moves, 0):
            batched = copy.deepcopy(state)
            batched.c_moves = moves
            batched._c_pass()
            assert_same_pass(batched, copy.deepcopy(sequential))
            batched.check()
        moved += int((batched.c != state.c).sum())
        opened += batched.pubs.next_id - state.pubs.next_id
        deleted += len(state.pubs) + batched.pubs.next_id - state.pubs.next_id - len(batched.pubs)
        state = batched
    # Under m3's conditional prior a new center's tilt against this many
    # centers is so low that none opens.
    assert moved > 0 and deleted > 0 and (opened > 0 or conditional)


@pytest.mark.parametrize("variant,conditional", [("m1", False), ("m3", True), ("m3", False)])
def test_pass_window_does_not_change_the_result(variant, conditional):
    # From one state, each pass with its stored move count at None (no
    # history: no scan), 0 (the widest window), a middling count (a narrow
    # window) and every item (no scan) gives the same bytes.
    cfg = SamplerConfig(variant=variant, seed=6, resample_alphas=False,
                        conditional_type_prior=conditional)
    state = ChainState(pass_dataset(), cfg, chain_rng(cfg, 0))
    state.alpha_t = 2.0
    windows = set()
    for _ in range(8):
        state.sweep()
        for name, items in (("c", len(state.test_indices)), ("d", state.N)):
            first = None
            for moves in (None, 0, items // 8, items):
                s = copy.deepcopy(state)
                setattr(s, name + "_moves", moves)
                getattr(s, "_" + name + "_pass")()
                windows.add(sampler._window(items, moves))
                if first is None:
                    first = s
                else:
                    assert_same_pass(s, copy.deepcopy(first))
    assert 0 in windows and sampler.TABLE_BLOCK in windows and len(windows) == 3


def test_scalar_d_update_matches_per_item_formula():
    ds = supervised_dataset(seed=6)
    cfg = SamplerConfig(variant="m1", iterations=4, seed=1)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    state.alpha_t = 5.0
    for _ in range(4):
        state.sweep()
    state.alpha_t *= 3.0
    for n in (0, int(ds.indices("test")[-1])):
        state.types.detach(int(state.d[n]))
        tids, logw = state.types.ids, sampler._TypeTable(state, [n]).weights(n)
        r, p = state.X[n], state.pubs[int(state.c[n])]
        rest = np.delete(state.d, n)  # every item's type but the detached n's
        want = [
            math.log(np.count_nonzero(rest == k)) + data_loglik(r, p, state.types[int(k)])
            for k in tids
        ]
        want.append(math.log(state.alpha_t) + marginal_loglik_new_type(r, p, state.type_base))
        assert len(tids) >= 1
        assert logw == pytest.approx(want, rel=1e-12)
        state.types.join(state.types.row(int(tids[0])))
        state.d[n] = int(tids[0])
    state.check()


# ------------------------------------------------------ exact posterior


def test_m1_matches_enumeration_posterior():
    values = [-1.2, 0.1, 0.9]
    state = ChainState(tiny_dataset(values), frozen_config(), np.random.default_rng(1))
    oracle = three_point_posterior(values, alpha=1.0)
    tv = chain_partition_tv(state, 20_000, oracle)
    assert tv < 0.05


def test_m3_matches_enumeration_posterior_with_plain_densities():
    values = [-1.2, 0.1, 0.9]
    cfg = frozen_config(variant="m3", conditional_type_prior=False)
    state = ChainState(tiny_dataset(values), cfg, np.random.default_rng(2))
    oracle = three_point_posterior(values, alpha=1.0)
    tv = chain_partition_tv(state, 20_000, oracle)
    assert tv < 0.07


# Stress settings: few candidates, off-centre data.  30k sweeps, seed 5;
# each bound is one the m1 reference meets.


@pytest.mark.parametrize(
    "values,settings",
    [([2.5, 2.9, -2.6], dict()), ([-1.2, 0.1, 0.9], dict(aux_samples=1))],
)
def test_m3_stress_settings_match_enumeration_posterior(values, settings):
    cfg = frozen_config(variant="m3", conditional_type_prior=False, **settings)
    state = ChainState(tiny_dataset(values), cfg, np.random.default_rng(5))
    tv = chain_partition_tv(state, 30_000, three_point_posterior(values, alpha=1.0))
    assert tv < 0.01


def test_conditional_oracle_without_tilt_is_the_plain_posterior():
    values = [-1.2, 0.1, 0.9]
    plain = three_point_posterior(values, alpha=1.0)
    untilted = conditional_three_point_posterior(values, alpha=1.0, tilt=False)
    assert max(abs(untilted[k] - p) for k, p in plain.items()) < 1e-9


# The third case puts off-centre points at two center candidates, where the
# tilted joint differs from the plain posterior by up to 0.13.
@pytest.mark.parametrize(
    "settings",
    [{}, dict(candidate_count=2, aux_samples=1), dict(candidate_count=2, values=[2.5, 2.9, -2.6])],
)
def test_conditional_m3_matches_tilted_joint(settings, monkeypatch):
    # The frozen type is the identity, so its conditional prior density,
    # Gamma(1; 1, 1 + S), is all that ties the partition to the tilt.
    settings = dict(settings)
    values = settings.pop("values", [-1.2, 0.1, 0.9])
    if "candidate_count" in settings:
        monkeypatch.setattr(sampler, "CANDIDATE_COUNT", settings.pop("candidate_count"))
    cfg = frozen_config(variant="m3", conditional_type_prior=True, **settings)
    state = ChainState(tiny_dataset(values), cfg, np.random.default_rng(5))
    tv = chain_partition_tv(state, 30_000, conditional_three_point_posterior(values, alpha=1.0))
    assert tv < 0.02


def test_conditional_m3_type_partition_matches_enumeration():
    # With the clusters and centers held fixed, the type refreshes and the
    # d updates sample the type partition of a DP mixture whose base is the
    # shifted gamma Gamma(1, 1 + S), here S = 0.9^2.
    values = [-1.2, 0.1, 0.9]
    cfg = SamplerConfig(variant="m3", iterations=1, resample_alphas=False, seed=0)
    state = ChainState(tiny_dataset(values), cfg, np.random.default_rng(5))
    state._install_clusters([0, 1, 1], [[-0.5], [0.4]])
    residuals = [-0.7, -0.3, 0.5]
    oracle = type_partition_posterior(residuals, alpha=1.0, shape=1.0, rate=1.0 + 0.9**2)

    def step(s):
        s._resample_types()
        s._d_pass()

    tv = chain_partition_tv(state, 30_000, oracle, step=step, labels=lambda s: s.d.tolist())
    assert tv < 0.02


def test_m2_type_partition_matches_enumeration_under_the_rate_hyperprior():
    # With the clusters and centers held fixed, the rate step, the type
    # refreshes and the d updates sample the type partition of a DP mixture
    # whose base Gamma(1, b) has its rate b under Gamma(1, 1).  At these
    # residuals the oracle is 0.0996 in TV from the one with b fixed at 1,
    # so a chain that held b fixed would miss the bound.
    values = [-7.0, -3.0, 5.0]
    cfg = SamplerConfig(variant="m2", iterations=1, resample_alphas=False, seed=0)
    state = ChainState(tiny_dataset(values), cfg, np.random.default_rng(5))
    state._install_clusters([0, 1, 1], [[0.0], [0.0]])
    oracle = rate_integrated_type_partition_posterior(values, alpha=1.0)

    def step(s):
        s._resample_type_rate()
        s._resample_types()
        s._d_pass()

    tv = chain_partition_tv(state, 30_000, oracle, step=step, labels=lambda s: s.d.tolist())
    assert tv < 0.02


JOINT_TRAIN = [0, 0, 0, 1, 1, 2]  # the training items' clusters
JOINT_TEST = 8  # test items, kept out of the training clusters


def _joint_statistics(c, d, centers, types, X, rate):
    """The statistics of one joint draw, given each item's cluster id c,
    type id d, center, type vector and data X: K_test, T, whether the first
    two test items share a cluster, whether the first training and first
    test item share a type, and the first test item's center coordinate,
    log type and standardized squared residual in dimension 0; then, for m2
    (``rate`` given), the type base's rate b_0."""
    n = len(JOINT_TRAIN)
    stats = [len(set(c[n:].tolist())), len(set(d.tolist())), c[n] == c[n + 1], d[0] == d[n],
             centers[n, 0], math.log(types[n, 0]), types[n, 0] * (X[n, 0] - centers[n, 0]) ** 2]
    if rate is not None:
        stats.append(rate[0])
    return stats


def _joint_prior_draw(variant, rng, F=2):
    """A direct draw of the model with alpha_p = alpha_t = 1: the test
    partition from CRP(1) over the test items, d from CRP(1) over all
    items, centers from N(0, I), and types from Gamma(1, 1), or for m2 each
    dimension's rate b_f from Gamma(1, 1) and then the types from Gamma(1,
    rate b_f); then X given them.  Returns its statistics and X."""
    test = crp_sample(1.0, JOINT_TEST, rng).assignment
    c = np.array(JOINT_TRAIN + [max(JOINT_TRAIN) + 1 + test[i] for i in range(JOINT_TEST)])
    types = crp_sample(1.0, len(c), rng).assignment
    d = np.array([types[i] for i in range(len(c))])
    centers = rng.standard_normal((c.max() + 1, F))[c]
    rate = rng.gamma(1.0, 1.0, F) if variant == "m2" else None
    tvecs = rng.gamma(1.0, 1.0 / (1.0 if rate is None else rate), (d.max() + 1, F))[d]
    X = centers + rng.standard_normal(centers.shape) / np.sqrt(tvecs)
    return _joint_statistics(c, d, centers, tvecs, X, rate), X


@pytest.mark.parametrize("variant", ["m1", "m2"])
def test_whole_sweeps_pass_the_joint_distribution_test(variant):
    # Geweke (2004), "Getting it right": direct draws of (state, X) from the
    # model, against a chain that alternates a whole sweep with a fresh X
    # drawn from its current state.  Both draw from the joint, so each
    # statistic's means agree.  The chain's statistics read the X its sweep
    # conditioned on.  z is the difference of the means over the root sum
    # of squares of their standard errors, the chain's from 50 batch means
    # of 5,000 sweeps less the first 10%.  alpha is fixed at 1, types free.
    rng = np.random.default_rng(1)
    direct = np.array([_joint_prior_draw(variant, rng)[0] for _ in range(20_000)], dtype=float)
    data_rng = np.random.default_rng(3)
    _, X = _joint_prior_draw(variant, data_rng)
    n_train = len(JOINT_TRAIN)
    ds = Dataset(ids=[f"x{i}" for i in range(len(X))], X=X,
                 labels=[f"g{k}" for k in JOINT_TRAIN] + [None] * JOINT_TEST,
                 split=["train"] * n_train + ["test"] * JOINT_TEST)
    cfg = SamplerConfig(variant=variant, resample_alphas=False)
    state = ChainState(ds, cfg, np.random.default_rng(2))
    chain = []
    for _ in range(5_000):
        state.sweep()
        pubs, types = state.pubs, state.types
        P, T = pubs.vecs[pubs.rows(state.c)], types.vecs[types.rows(state.d)]
        rate = state.type_base.rate if variant == "m2" else None
        chain.append(_joint_statistics(state.c, state.d, P, T, state.X, rate))
        state.X = P + data_rng.standard_normal(P.shape) / np.sqrt(T)
    chain = np.array(chain[500:], dtype=float)
    batches = chain.reshape(50, -1, chain.shape[1]).mean(axis=1)
    se = np.sqrt(direct.var(axis=0, ddof=1) / len(direct) + batches.var(axis=0, ddof=1) / 50)
    z = (chain.mean(axis=0) - direct.mean(axis=0)) / se
    assert np.abs(z).max() <= 4.0, z.round(2).tolist()


# -------------------------------------------------- auxiliary candidates


def test_aux_candidate_counts_follow_singleton_rule():
    ds = tiny_dataset([0.0, 0.5, 1.0, 1.5])
    cfg = frozen_config(variant="m3", conditional_type_prior=False, aux_samples=8)
    state = ChainState(ds, cfg, np.random.default_rng(3))
    # Item 0 sits alone: its parameter is one of the M candidates, the last
    # (Neal 2000, Algorithm 8).
    state._install_clusters([0, 1, 1, 1], [[0.0], [1.0]])
    orphan = state.pubs.detach(int(state.c[0]))
    assert orphan is not None
    state._table = sampler._ClusterTable(state, [0])
    cand, logw, news = state._c_candidates(0, orphan)
    assert len(news) == 8
    assert len(logw) == len(cand) + 8
    assert news[-1] == pytest.approx(orphan)
    # Item 1 shares its cluster: all candidates are fresh.
    orphan = state.pubs.detach(int(state.c[1]))
    assert orphan is None
    state._table = sampler._ClusterTable(state, [1])
    cand, logw, news = state._c_candidates(1, None)
    assert len(news) == 8


def test_conditional_c_weights_follow_the_joint_score():
    # Under the conditional type prior, joining an existing cluster and
    # opening one at a new candidate differ in log weight as the joint score
    # does, less the candidate's base log density and log M (it was drawn
    # from the base and holds alpha / M of the new-cluster mass).
    ds = supervised_dataset(seed=5)
    cfg = SamplerConfig(variant="m3", iterations=3, seed=2)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    assert len(state.pubs) > 2
    n = int(ds.indices("test")[0])
    orphan = state.pubs.detach(int(state.c[n]))
    state._table = sampler._ClusterTable(state, [n])
    cand, logw, news = state._c_candidates(n, orphan)
    assert len(news) == cfg.aux_samples

    def score(move):
        s = copy.deepcopy(state)
        s.c[n] = move(s.pubs)
        return s.joint_log_score()

    first = len(state.pubs) - len(cand)
    for j in range(len(cand)):
        joined = score(lambda pubs: pubs.join(first + j))
        for i, phi in enumerate(news):
            opened = score(lambda pubs: pubs.open(phi))
            log_base = -0.5 * (state.F * math.log(2 * math.pi) + phi @ phi)
            want = opened - joined - log_base - math.log(cfg.aux_samples)
            assert logw[len(cand) + i] - logw[j] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("variant", ["m1", "m3"])
def test_batched_refreshes_match_per_row_posteriors(variant):
    # One draw for all rows equals per-row conjugate draws from the same
    # stream; the posterior sums are added in another order, so to rounding.
    ds = supervised_dataset(seed=8)
    cfg = SamplerConfig(variant=variant, seed=2, resample_alphas=False,
                        conditional_type_prior=False)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    state.alpha_t = 20.0
    for _ in range(3):
        state.sweep()
    assert len(state.types) > 1 and len(state.pubs) > 2
    rng = copy.deepcopy(state.rng)
    want = []
    for k in state.pubs.ids:
        idx = np.flatnonzero(state.c == k)
        ts = state.types.vecs[state.types.rows(state.d[idx])]
        mean, prec = publication_posterior_params(state.X[idx], ts, state.pub_base)
        want.append(rng.normal(mean, np.sqrt(1.0 / prec)))
    state._resample_publications()
    np.testing.assert_allclose(state.pubs.vecs, want, rtol=1e-12, atol=1e-12)
    want = []
    for k in state.types.ids:
        idx = np.flatnonzero(state.d == k)
        ps = state.pubs.vecs[state.pubs.rows(state.c[idx])]
        shape, rate = type_posterior_params(state.X[idx], ps, state.type_base)
        want.append(rng.gamma(shape, 1.0 / rate))
    state._resample_types()
    np.testing.assert_allclose(state.types.vecs, want, rtol=1e-12, atol=0.0)
    assert state.rng.random() == rng.random()
    state.check()


def test_conditional_type_refresh_is_the_shifted_gamma_posterior():
    # Each type's refresh is an exact draw from Gamma(a + n/2, rate + S + q/2):
    # n and q its members' count and squared residuals, S the centers' pair
    # sum, a = rate = 1 for m3's standard base.
    ds = supervised_dataset(seed=5)
    cfg = SamplerConfig(variant="m3", iterations=4, seed=3)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(4):
        state.sweep()
    P = state.pubs.vecs
    s = sum((P[i] - P[j]) ** 2 for i in range(len(P)) for j in range(i + 1, len(P)))
    params = []
    for k in state.types.ids:
        members = np.flatnonzero(state.d == k)
        q = sum((state.X[m] - state.pubs[int(state.c[m])]) ** 2 for m in members)
        params.append((1.0 + len(members) / 2, 1.0 + s + q / 2))
    draws = []
    for _ in range(20_000):
        state._resample_types()
        draws.append(state.types.vecs.copy())
    draws = np.array(draws)
    for k, (a, b) in enumerate(params):
        mean, var = a / b, a / b**2
        assert (np.abs(draws[:, k].mean(axis=0) - mean) < 5 * np.sqrt(var / len(draws))).all()
        np.testing.assert_allclose(draws[:, k].var(axis=0), var, rtol=0.1)
    state.check()


def test_aux_total_new_mass_converges_to_marginal():
    # Averaged over candidate draws, the summed new-cluster weight is an
    # unbiased estimate of alpha * integral G0(p) F(r | p, t) dp.
    ds = tiny_dataset([0.4, -0.3, 1.1])
    cfg = frozen_config(variant="m3", conditional_type_prior=False, aux_samples=256)
    state = ChainState(ds, cfg, np.random.default_rng(4))
    n = 0
    orphan = state.pubs.detach(int(state.c[n]))
    closed = state.alpha_p * math.exp(
        marginal_loglik_new_publication(state.X[n], state.types[0], state.pub_base)
    )
    masses = []
    for _ in range(600):
        state._table = sampler._ClusterTable(state, [n])
        _, logw, news = state._c_candidates(n, None)
        masses.append(np.exp(logw[-len(news):]).sum())
    assert np.mean(masses) == pytest.approx(closed, rel=0.02)


def test_m1_new_type_weight_matches_closed_form_marginal():
    # The cached fast path in the d update must agree with the closed-form
    # compound marginal (itself pinned against quadrature elsewhere).
    from dpsc.gaussian import marginal_loglik_new_type

    ds = supervised_dataset(seed=9)
    cfg = SamplerConfig(variant="m1", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    n = int(ds.indices("test")[0])
    state.types.detach(int(state.d[n]))
    logw = sampler._TypeTable(state, [n]).weights(n)
    expected = math.log(state.alpha_t) + marginal_loglik_new_type(
        state.X[n], state.pubs[int(state.c[n])], state.type_base
    )
    assert logw[-1] == pytest.approx(expected, abs=1e-9)


def test_conditional_m3_new_type_weight_is_the_shifted_gamma_marginal():
    # Under the conditional prior a new type's precisions are integrated out
    # under Gamma(a, rate + S), S the centers' pair sum; a = rate = 1 here.
    ds = supervised_dataset(seed=9)
    cfg = SamplerConfig(variant="m3", iterations=3, seed=0)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(3):
        state.sweep()
    P = state.pubs.vecs
    s = sum((P[i] - P[j]) ** 2 for i in range(len(P)) for j in range(i + 1, len(P)))
    shifted = TypeBase(shape=np.ones(state.F), scale=1.0 / (1.0 + s))
    for n in (0, int(ds.indices("test")[-1])):
        state.types.detach(int(state.d[n]))
        tids, logw = state.types.ids, sampler._TypeTable(state, [n]).weights(n)
        expected = math.log(state.alpha_t) + marginal_loglik_new_type(
            state.X[n], state.pubs[int(state.c[n])], shifted
        )
        assert logw[-1] == pytest.approx(expected, abs=1e-9)
        state.types.join(0)
        state.d[n] = int(tids[0])
    state.check()


def test_conditional_m3_centers_need_a_drawn_candidate(monkeypatch):
    # A conditional center's candidates are itself and CANDIDATE_COUNT - 1
    # conjugate draws, so with one candidate no center could move; with two,
    # every center does.
    assert sampler.CANDIDATE_COUNT >= 2
    monkeypatch.setattr(sampler, "CANDIDATE_COUNT", 2)
    # Two training clusters a short way apart, so the tilt is mild.
    ds = Dataset(
        ids=["a0", "a1", "b0", "b1"],
        X=np.array([[0.0], [0.2], [0.5], [0.7]]),
        labels=["a", "a", "b", "b"],
        split=["train"] * 4,
    )
    state = ChainState(ds, frozen_config(variant="m3"), np.random.default_rng(0))
    before = state.pubs.vecs.copy()
    for _ in range(20):
        state.sweep()
    assert (state.pubs.vecs != before).all()
    state.check()


# ------------------------------------------------------------- scoring


def test_joint_score_invariant_to_cluster_ids():
    ds = tiny_dataset([0.0, 0.1, 2.0])
    cfg = frozen_config()
    state = ChainState(ds, cfg, np.random.default_rng(6))
    for _ in range(5):
        state.sweep()
    before = state.joint_log_score()
    # Relabel one cluster id; grouping unchanged.
    old = int(state.pubs.ids[-1])
    new = old + 57
    centers = state.pubs.vecs  # ascending ids: old stays last
    state._install_clusters(np.where(state.c == old, new, state.c), centers)
    assert state.joint_log_score() == pytest.approx(before, abs=1e-9)


def test_joint_score_decreases_when_item_moves_to_far_mean():
    ds = tiny_dataset([0.0, 0.05, 5.0, 5.05])
    cfg = frozen_config()
    state = ChainState(ds, cfg, np.random.default_rng(7))
    state._install_clusters([0, 0, 1, 1], [[0.0], [5.0]])
    good = state.joint_log_score()
    state._install_clusters([0, 1, 1, 1], [[0.0], [5.0]])
    assert state.joint_log_score() < good


def test_joint_score_ratios_match_independent_formula():
    # The score is the log of the CRP-EPPF times base densities times the
    # likelihood; ratios between two explicit states must match a from-
    # scratch evaluation of that product.
    values = [-0.8, 0.2, 1.4]
    ds = tiny_dataset(values)
    cfg = frozen_config()

    def independent(groups, pubs):
        alpha, n = 1.0, len(values)
        lp = len(groups) * math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + n)
        lp += sum(math.lgamma(len(g)) for g in groups)
        # type side: one type holding all n items
        lp += math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + n) + math.lgamma(n)
        for mean in pubs:
            lp += -0.5 * (math.log(2 * math.pi) + mean**2)
        lp += -0.5 * math.log(2 * math.pi) - 1.0 - math.log(1.0)  # Gamma(1,1) at t=1
        for g, mean in zip(groups, pubs):
            for i in g:
                lp += -0.5 * (math.log(2 * math.pi) + (values[i] - mean) ** 2)
        return lp

    def materialize(groups, pubs):
        state = ChainState(ds, cfg, np.random.default_rng(8))
        c = np.empty(len(values), dtype=int)
        for j, g in enumerate(groups):
            c[g] = j
        state._install_clusters(c, [[m] for m in pubs])
        return state.joint_log_score()

    sa = materialize([[0, 1, 2]], [0.3])
    sb = materialize([[0], [1, 2]], [-0.5, 0.9])
    ia = independent([[0, 1, 2]], [0.3])
    ib = independent([[0], [1, 2]], [-0.5, 0.9])
    assert sa - sb == pytest.approx(ia - ib, abs=1e-9)

    # m2: two states that differ only in the type base's rate b.  Each type
    # has the Gamma(1, b) density b exp(-b t), and b the Gamma(1, 1)
    # density exp(-b).
    cfg = SamplerConfig(variant="m2", iterations=1, resample_alphas=False)
    state = ChainState(ds, cfg, np.random.default_rng(8))
    types = state.types.vecs[:, 0].tolist()

    def rate_terms(b):
        return sum(math.log(b) - b * t for t in types) - b

    before = state.joint_log_score()
    state._set_type_base(TypeBase(shape=np.ones(1), scale=np.array([0.25])))
    assert state.joint_log_score() - before == pytest.approx(
        rate_terms(4.0) - rate_terms(1.0), abs=1e-9
    )



@pytest.mark.parametrize(
    "sizes",
    [
        np.arange(1.0, 10_001.0),
        np.arange(0.5, 5_000.5, 1.0),
        np.exp(np.random.default_rng(7).uniform(math.log(1e-3), math.log(1e6), 10_000)),
    ],
    ids=["integers", "half-integers", "log-uniform"],
)
def test_eppf_matches_scipy_gammaln(sizes):
    from scipy.special import gammaln

    state = ChainState(supervised_dataset(), frozen_config(), np.random.default_rng(0))
    for alpha in np.exp(np.random.default_rng(5).uniform(math.log(1e-3), math.log(1e6), 8)):
        for s in (sizes, state.pubs.counts):
            terms = np.concatenate([
                [len(s) * np.log(alpha), gammaln(alpha), -gammaln(alpha + state.N)], gammaln(s)
            ])
            # to 1e-14 of the magnitude of the terms summed
            got = state._eppf(alpha, s)
            assert abs(got - terms.sum()) <= 1e-14 * max(1.0, np.abs(terms).sum())


# ----------------------------------------------------------- chain runs


def test_run_chain_deterministic_and_counts():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=30, burn_in=10, seed=4, n_chains=1)
    r1 = run_chain(ds, cfg, 0)
    r2 = run_chain(ds, cfg, 0)
    assert len(r1) == 20
    assert [rec.joint_log_score for rec in r1] == [rec.joint_log_score for rec in r2]
    assert all(r1[i].test_partition == r2[i].test_partition for i in range(len(r1)))
    r3 = run_chain(ds, cfg, 1)
    assert [rec.joint_log_score for rec in r3] != [rec.joint_log_score for rec in r1]


def test_run_chains_parallel_matches_serial():
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m1", iterations=12, burn_in=4, seed=5, n_chains=3)
    calls = []
    serial = run_chains(ds, cfg, max_workers=1, meanwhile=lambda: calls.append("serial"))
    parallel = run_chains(ds, cfg, max_workers=3, meanwhile=lambda: calls.append("pool"))
    assert [[r.joint_log_score for r in ch] for ch in serial] == [
        [r.joint_log_score for r in ch] for ch in parallel
    ]
    assert calls == ["serial", "pool"]


def test_run_chains_without_pool_calls_meanwhile_after_the_chains(monkeypatch):
    ds = supervised_dataset()
    events = []
    # A failed chain ends the run before ``meanwhile``.
    with pytest.raises(RuntimeError, match="^chain 0: variant must be one of"):
        run_chains(ds, SamplerConfig(variant="m9", iterations=2, n_chains=2), max_workers=1,
                   meanwhile=lambda: events.append("meanwhile"))
    assert events == []
    monkeypatch.setattr("dpsc.sampler.run_chain", lambda d, c, i: events.append(i) or [])
    assert run_chains(ds, SamplerConfig(n_chains=2), max_workers=1,
                      meanwhile=lambda: events.append("meanwhile")) == [[], []]
    assert events == [0, 1, "meanwhile"]


def test_run_chains_pool_names_the_failed_chain():
    # The config travels to every worker, where ChainState rejects it.
    ds = supervised_dataset()
    cfg = SamplerConfig(variant="m9", iterations=2, n_chains=2)
    with pytest.raises(RuntimeError, match="^chain 0: variant must be one of"):
        run_chains(ds, cfg, max_workers=2)


def test_score_trend_on_separated_data():
    ds = supervised_dataset(seed=3)
    cfg = SamplerConfig(variant="m1", iterations=120, burn_in=0, seed=6, n_chains=1)
    records = run_chain(ds, cfg, 0)
    scores = [r.joint_log_score for r in records]
    q = len(scores) // 4
    assert np.median(scores[-q:]) >= np.median(scores[:q])


def test_m2_and_m3_run_and_hold_invariants():
    ds = supervised_dataset(seed=5)
    for variant in ("m2", "m3"):
        cfg = SamplerConfig(variant=variant, iterations=6, burn_in=2, seed=7)
        state = ChainState(ds, cfg, chain_rng(cfg, 0))
        for _ in range(6):
            state.sweep()
            state.check()
        assert np.isfinite(state.joint_log_score())


# ------------------------------------------------------------ prediction


def _record(score, iteration, part):
    return SampleRecord(
        iteration=iteration,
        test_partition=part,
        joint_log_score=score,
        n_publications=1,
        n_types=1,
    )


def test_extract_prediction_single_and_ties():
    pa = Partition({"a": 0})
    pb = Partition({"a": 1})
    assert extract_prediction([[_record(-5.0, 1, pa)]]) is pa
    # Equal scores: earliest (chain, iteration) wins.
    chains = [[_record(-1.0, 7, pa)], [_record(-1.0, 2, pb)]]
    assert extract_prediction(chains) is pa
    chains = [[_record(-1.0, 7, pa), _record(-0.5, 8, pb)]]
    assert extract_prediction(chains) is pb
    with pytest.raises(DomainError):
        extract_prediction([[]])


def test_map_recovery_on_three_points():
    # The best-scoring record should recover the modal partition of the
    # enumeration posterior in most seeded runs.
    values = [-2.0, -1.8, 2.0]
    ds = tiny_dataset(values)
    oracle = three_point_posterior(values, alpha=1.0)
    target = max(oracle, key=oracle.get)
    hits = 0
    for seed in range(20):
        cfg = frozen_config(iterations=400, burn_in=100, seed=seed, n_chains=1)
        records = run_chain(ds, cfg, 0)
        pred = extract_prediction([records])
        key = Partition(
            {ds.ids.index(i): c for i, c in pred.assignment.items()}
        ).canonical()
        hits += key == target
    assert hits >= 19  # 0.95 of the seeded runs


# ------------------------------------------------------------------ CDP


def test_cdp_runs_on_test_items_with_one_frozen_type():
    from dpsc.baselines import cdp_preset

    ds = synth_gaussian(SynthConfig(2, 2, dim=2, min_class_size=6, max_class_size=6, seed=11))
    # As dpsc run does: every item a test item, and no labels.
    ds = Dataset(
        ids=list(ds.ids), X=ds.X.copy(), labels=[None] * ds.n_items, split=["test"] * ds.n_items
    )
    cfg = cdp_preset()
    cfg.iterations, cfg.burn_in, cfg.n_chains, cfg.seed = 40, 10, 1, 3
    records = run_chain(ds, cfg, 0)
    assert len(records) == 30
    assert all(r.test_partition.items() == frozenset(ds.ids) for r in records)
    assert all(r.n_types == 1 for r in records)
    state = ChainState(ds, cfg, chain_rng(cfg, 0))
    for _ in range(10):
        state.sweep()
    assert state.alpha_p == 1.0
    assert state.types.ids.tolist() == [0]
    assert state.types[0] == pytest.approx(np.ones(2))
