"""Gibbs samplers for supervised clustering under a Dirichlet process prior.

A chain state tracks, per item, a cluster indicator c and a type indicator
d, plus the active cluster centers ("publications"), the active precision
vectors ("reference types"), and the two DP precisions.  Training items
keep their gold cluster forever; test items are resampled.  Three
variants:

- m1: fully conjugate updates (closed-form new-cluster marginals, exact
  posterior draws for active parameters).
- m2: as m1, but the gamma base over precisions is refitted to the
  current within-cluster variances at the start of every sweep.  The
  refit reads the state, so m2 is an empirical-Bayes scheme and not
  posterior-exact by design.
- m3: auxiliary-candidate c updates (Neal 2000, Algorithm 8) and, by
  default, the conditional type prior that ties precisions to the
  distances between centers: a gamma whose rate is shifted by the centers'
  pairwise squared-difference sums.  Types are exact conjugate draws under
  it, and the d update is m1's with it as the new-type prior; a center
  takes one retained-candidate step among conjugate draws under it, and is
  an exact draw when it is off.

All choice probabilities are computed in log space and normalized by max
subtraction.

Chain state layout.  Each Dirichlet process keeps its bookkeeping in one
row store (``ChainState.pubs`` for the clusters, ``ChainState.types`` for
the types): one matrix of parameter vectors, the id of each row, its
member count as a float, the member set of each id and the next unused
id.  The type store also caches, per row, 0.5 * sum(log t), the constant
of data_loglik_rows and the per-dimension terms of the new-cluster
marginal, recomputed whenever a type vector is written; the center store
caches the centers' pairwise_sq_diff_sum and the conditional type prior it
gives (m3), the sum kept up to date when a center is added or removed and
recomputed after one is written.  Both indicator
updates run the same CRP step on their store (Neal 2000, Algorithms 2
and 8): ``detach`` takes the item out and drops a row that emptied, then
the item ``join``s an existing row or ``open``s a new one.  An update
reads contiguous slices: the candidate clusters are the trailing rows
(all rows when test items may join training clusters, which are never
emptied and so stay in the leading rows), and the refreshes and the joint
score map items to rows with one searchsorted.

Rows are kept in ascending id order: ids only grow, a new row is appended
and a deleted one closes its gap.  Training cluster ids follow the first
appearance of each label, so ascending id order is also the order in
which clusters were created.  That order is the candidate order of every
update and the order of every refresh loop, so it fixes which candidate a
uniform draw selects and hence the whole random stream; changing it
changes every chain.  The refreshes read each row's members from its
member set, whose iteration order fixes the summation order of the
posterior statistics.

The indicator pass.  Between the refreshes and the precision draws, a
sweep updates c and then d of each item in turn.  Every variant's c
updates read a table filled ahead (``_ClusterTable``): each test item's
log-likelihood against each candidate center and its closed-form
new-cluster log weight, which m1/m2 use and m3 replaces by its auxiliary
candidates.  This is exact because nothing those numbers read changes
during the pass: no center or type vector is written (rows are only
opened and deleted), an item's type at its c update is still its type at
the start of the pass, and alpha_p and both bases stay fixed.  The table
is filled in blocks of test items, lives for one pass only and is dropped
when the pass ends, also when it ends in an exception; a c update called
outside a sweep fills a table of its own from the current state.  The d
update works in Python floats, as one to three types make numpy calls
cost more than their arithmetic.  Both give the weights of the per-item
formulas, which may differ from them in the last bit (a batched product
or libm instead of numpy's exp and log can round differently), so a
uniform picks the same candidate unless it falls within those few ulps of
a boundary.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaln

from .data import Dataset
from .dp import GammaPrior, sample_precision_single
from .errors import ConfigError, DomainError
from .gaussian import (
    LOG_2PI,
    PublicationBase,
    TypeBase,
    adapt_type_base,
    conditional_type_base,
    data_loglik_rows,
    loglik_const,
    marginal_loglik_new_publication,  # unused; bench/workloads.py rebinds it here by name
    new_publication_loglik_rows,
    new_publication_terms,
    new_type_loglik,
    new_type_terms,
    pairwise_sq_diff_sum,
    posterior_sample_publication,
    posterior_sample_type,
    publication_base_logpdf,
    type_base_logpdf,
)
from .partition import Partition

VARIANTS = ("m1", "m2", "m3")
ALPHA_PRIOR = GammaPrior()  # gamma prior on both DP precisions


@dataclass
class SamplerConfig:
    variant: str = "m1"
    iterations: int = 2000
    burn_in: int | None = None  # default: iterations // 2
    aux_samples: int = 8  # m3 new-parameter candidates, a singleton's own among them
    candidate_count: int = 32  # m3 conditional centers: retained center + conjugate draws
    share_train_test: bool = False
    resample_alphas: bool = True
    alpha_p: float = 1.0  # initial DP precision over clusters
    alpha_t: float = 1.0  # initial DP precision over types
    n_chains: int = 2
    seed: int = 0
    freeze_types: bool = False  # keep a single identity type, skip d updates
    ignore_labels: bool = False  # treat every item as test (unsupervised)
    conditional_type_prior: bool = True  # m3 only: tie precisions to center distances

    def resolved_burn_in(self):
        return self.iterations // 2 if self.burn_in is None else self.burn_in

    def validate(self, dataset: Dataset | None = None):
        """Every problem with this configuration, as human-readable strings."""
        errors = []
        if self.variant not in VARIANTS:
            errors.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.iterations < 1:
            errors.append(f"iterations must be >= 1, got {self.iterations}")
        if self.burn_in is not None and not (0 <= self.burn_in < self.iterations):
            errors.append(
                f"burn_in must satisfy 0 <= burn_in < iterations, got {self.burn_in}"
            )
        if self.aux_samples < 1:
            errors.append(f"aux_samples must be >= 1, got {self.aux_samples}")
        # A conditional m3 center's candidates are itself and candidate_count - 1
        # draws, so it needs at least one draw to move.
        least = 2 if self.variant == "m3" and self.conditional_type_prior else 1
        if self.candidate_count < least:
            errors.append(f"candidate_count must be >= {least}, got {self.candidate_count}")
        if self.n_chains < 1:
            errors.append(f"n_chains must be >= 1, got {self.n_chains}")
        if self.seed < 0:
            errors.append(f"seed must be a non-negative integer, got {self.seed}")
        if self.alpha_p <= 0 or self.alpha_t <= 0:
            errors.append("initial alpha values must be positive")
        if dataset is not None and self.resample_alphas:
            has_train = not self.ignore_labels and any(s == "train" for s in dataset.split)
            if not has_train:
                errors.append(
                    "resample_alphas needs labeled training data to form an (n, k) "
                    "observation; disable it for unsupervised runs"
                )
        return errors


@dataclass(frozen=True)
class SampleRecord:
    iteration: int
    test_partition: Partition
    joint_log_score: float
    n_publications: int
    n_types: int


# From this many candidates on, _pick finds the drawn index with one
# searchsorted on the cumulative weights instead of a Python loop.  Per
# draw, loop against searchsorted: 1.8 / 3.2 us at 20 candidates, 3.9 / 3.3
# at 40, 5.6 / 3.3 at 100, 13.4 / 4.1 at 200 (numpy 2.4, one core).
PICK_SEARCH_MIN = 40
TABLE_BLOCK = 64  # test items per block of the c-update table


def _scan(w, u):
    """First index whose running sum of the weights ``w`` exceeds ``u``;
    the last index if none does (``u`` may reach the total, which is summed
    in another order)."""
    acc = 0.0
    for i, wi in enumerate(w):
        acc += wi
        if u < acc:
            return i
    return len(w) - 1


def _search(w, u):
    """_scan by one searchsorted: cumsum adds in the same order as the
    loop, so the running sums, and the index, are the same."""
    return min(int(w.cumsum().searchsorted(u, side="right")), len(w) - 1)


def _pick(logw, rng):
    """Index drawn from unnormalized log weights (max-subtracted)."""
    w = np.exp(logw - logw.max())
    u = rng.random() * w.sum()
    return _search(w, u) if len(w) >= PICK_SEARCH_MIN else _scan(w.tolist(), u)


def _pick_few(logw, rng):
    """_pick for a short list of log weights, in Python floats."""
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    total = 0.0
    for wi in w:
        total += wi
    return _scan(w, rng.random() * total)


def _pair_terms(cands, others):
    """Per-dimension squared differences of each candidate row to all the
    rows of ``others``, summed: a center's share of pairwise_sq_diff_sum."""
    return ((cands[:, None, :] - others[None, :, :]) ** 2).sum(axis=1)


class _Rows(Mapping):
    """One Dirichlet process's active rows: parameter vectors keyed by id,
    as the rows of ``vecs`` in ascending id order, with each row's member
    count (a float) in ``counts``, each id's member set in ``members`` and
    the next unused id in ``next_id``.  The ids are kept both as an array
    (``ids``) and as a list (``id_list``), which finds one row faster.
    Reads as a read-only mapping from id to vector."""

    def __init__(self, labels, vecs):
        self.members = {int(k): set() for k in np.unique(labels)}
        for i, k in enumerate(labels.tolist()):
            self.members[k].add(i)
        self.id_list = list(self.members)
        self.ids = np.array(self.id_list, dtype=np.int64)
        self.vecs = np.array(vecs, dtype=float).reshape(len(self.ids), -1)
        self.counts = np.array([len(m) for m in self.members.values()], dtype=float)
        self.next_id = int(self.ids[-1]) + 1
        self._changed()

    def _changed(self, vec=None, sign=0.0):
        """Called after a vector is written, or after the (1, F) ``vec`` is
        added (``sign`` 1) or removed (-1)."""

    def row(self, key):
        return bisect_left(self.id_list, key)

    def rows(self, keys):
        return self.ids.searchsorted(keys)

    def set(self, row, vec):
        self.vecs[row] = vec
        self._changed()

    def detach(self, n, key):
        """Take item n out of row ``key``.  Returns the row's vector if that
        emptied it (the row is deleted), else None."""
        members = self.members[key]
        members.discard(int(n))
        row = self.row(key)
        if members:
            self.counts[row] -= 1.0
            return None
        del self.members[key]
        del self.id_list[row]
        vec = self.vecs[row]
        self.ids = np.delete(self.ids, row)
        self.vecs = np.delete(self.vecs, row, axis=0)
        self.counts = np.delete(self.counts, row)
        self._changed(vec[None, :], -1.0)
        return vec

    def join(self, n, row):
        """Put item n in an existing row; returns the row's id."""
        key = int(self.ids[row])
        self.members[key].add(int(n))
        self.counts[row] += 1.0
        return key

    def open(self, n, vec):
        """A new last row, under the next unused id, holding item n; returns
        the id."""
        key = self.next_id
        self.next_id += 1
        self.members[key] = {int(n)}
        self.id_list.append(key)
        self.ids = np.append(self.ids, key)
        self.vecs = np.vstack([self.vecs, vec])
        self.counts = np.append(self.counts, 1.0)
        self._changed(self.vecs[-1:], 1.0)
        return key

    def groups(self):
        """(row, member indices) for every row, in ascending id order."""
        for row, members in enumerate(self.members.values()):
            yield row, np.fromiter(members, dtype=np.int64, count=len(members))

    def __getitem__(self, key):
        row = self.row(key)
        if row == len(self.ids) or self.ids[row] != key:
            raise KeyError(key)
        return self.vecs[row]

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self):
        return len(self.ids)


class _CenterRows(_Rows):
    """Cluster centers, plus their pairwise_sq_diff_sum and m3's conditional
    type prior.  The sum is computed on first use after a center is
    written; adding or removing a center adds or subtracts that center's
    pair terms (O(K F) instead of O(K^2 F); an added center's pair with
    itself is 0).  The prior, conditional_type_base of ``type_base``
    (fixed: m3 never refits it) with its new_type_terms, is rebuilt on
    first use after the centers change."""

    def __init__(self, labels, vecs, type_base):
        self.type_base = type_base
        super().__init__(labels, vecs)

    def _changed(self, vec=None, sign=0.0):
        self._prior = None
        if vec is None:
            self._pair_sq = None
        elif self._pair_sq is not None:
            self._pair_sq = self._pair_sq + sign * _pair_terms(vec, self.vecs)[0]

    def pair_sq(self):
        if self._pair_sq is None:
            self._pair_sq = pairwise_sq_diff_sum(self.vecs)
        return self._pair_sq

    def type_prior(self):
        if self._prior is None:
            prior = conditional_type_base(self.type_base, self.pair_sq())
            self._prior = prior, new_type_terms(prior)
        return self._prior


class _TypeRows(_Rows):
    """Precision vectors plus per-row terms that depend on the vector and
    the center base only: ``half_logsum`` (0.5 * sum(log t)),
    ``ll_const`` (loglik_const(t)) and ``new_var``/``new_head``
    (new_publication_terms(t, pub_base)), and the vectors and
    ``half_logsum`` as lists for the scalar d update (``vec_list``,
    ``half_logsum_list``).  Every write recomputes them for all rows; there
    are few types and they change at most once a sweep each."""

    def __init__(self, labels, vecs, pub_base):
        self.pub_base = pub_base
        super().__init__(labels, vecs)

    def terms(self, t):
        var, head = new_publication_terms(t, self.pub_base)
        return 0.5 * np.log(t).sum(), loglik_const(t), var, head

    def _changed(self, vec=None, sign=0.0):
        terms = [self.terms(t) for t in self.vecs]
        self.half_logsum, self.ll_const, self.new_var, self.new_head = (
            np.array(column) for column in zip(*terms)
        )
        self.vec_list = self.vecs.tolist()
        self.half_logsum_list = self.half_logsum.tolist()


class _ClusterTable:
    """The c-update log weights of one indicator pass, without the log
    counts, computed ahead in blocks of test items.

    Nothing they read changes during the pass: no center or type vector is
    written, an item's type at its c update is its type at the start of the
    pass (its d update comes after), and alpha_p and both bases are fixed.
    So when the first item of a block of ``TABLE_BLOCK`` test items is
    updated, one batched product gives every item of the block its
    data_loglik_rows against each candidate center, a column per center id,
    and column 0 gets its log alpha_p + new-cluster marginal (m1/m2's
    new-cluster weight; m3 ignores it).  A center opened later gets its
    column, for the rest of the block, when an item first reads it; a
    deleted one drops out of the lookup by id."""

    def __init__(self, state):
        self.state = state
        self.pos = {n: i for i, n in enumerate(state.test_indices.tolist())}
        self.start = self.stop = 0

    def weights(self, n):
        """Test item n's log-likelihood against each candidate center, in
        row order, then its new-cluster log weight (a new array)."""
        i = self.pos[n]
        if not self.start <= i < self.stop:
            self._fill(i)
        row = i - self.start
        if self.state.pubs.ids is not self.seen:
            self._index(row)
        return self.buf[row, self.cols]

    def _fill(self, i):
        st = self.state
        lo = st.first_candidate
        items = st.test_indices[i:i + TABLE_BLOCK]
        k = st.types.rows(st.d[items])
        self.R, self.k, self.const = st.X[items], k, st.types.ll_const[k]
        self.tvecs = st.types.vecs  # replaced, not written, when a type opens or goes
        self.ids = st.pubs.ids[lo:]
        # Room for a center opened by each item of the block.
        self.buf = np.empty((len(items), 1 + len(self.ids) + len(items)))
        self.buf[:, 0] = np.log(st.alpha_p) + new_publication_loglik_rows(
            self.R, st.types.new_var[k], st.types.new_head[k], st.pub_base
        )
        self.buf[:, 1:1 + len(self.ids)] = self._loglik(0, st.pubs.vecs[lo:])
        self.top = self.ids[-1] if len(self.ids) else -1
        self.start, self.stop = i, i + len(items)
        self.seen = None

    def _index(self, row):
        """Map the current candidate centers to columns, after a center was
        opened or deleted; an opened one first gets its column."""
        pubs = self.state.pubs
        ids = pubs.ids[self.state.first_candidate:]
        fresh = len(ids) - int(ids.searchsorted(self.top, side="right"))
        if fresh:
            col = 1 + len(self.ids)
            self.buf[row:, col:col + fresh] = self._loglik(row, pubs.vecs[-fresh:])
            self.ids = np.concatenate([self.ids, ids[-fresh:]])
            self.top = self.ids[-1]
        self.cols = np.append(1 + self.ids.searchsorted(ids), 0)
        self.seen = pubs.ids

    def _loglik(self, row, P):
        """data_loglik_rows of the block's items from ``row`` on against the
        rows of P: one matrix-vector product per type, over the rows of all
        its items at once."""
        if not len(P):  # every candidate center was deleted
            return np.empty((len(self.R) - row, 0))
        # (r - P)**2 of item after item; subtracting P from repeated rows is
        # much faster than broadcasting r across P.
        D = np.repeat(self.R[row:], len(P), axis=0).reshape(-1, *P.shape)
        D -= P
        D *= D
        k = self.k[row:]
        types = np.unique(k)
        dots = np.empty(D.shape[:2])
        for t in types:
            same = k == t if len(types) > 1 else slice(None)
            dots[same] = (D[same].reshape(-1, P.shape[1]) @ self.tvecs[t]).reshape(-1, len(P))
        return self.const[row:, None] - 0.5 * dots


class ChainState:
    """Full latent state of one MCMC chain."""

    def __init__(self, dataset: Dataset, config: SamplerConfig, rng):
        problems = config.validate(dataset)
        if problems:
            raise ConfigError("; ".join(problems))
        self.config = config
        self.variant = config.variant
        self.rng = rng
        self.X = np.asarray(dataset.X, float)
        self.ids = list(dataset.ids)
        self.N, self.F = self.X.shape
        self.frozen_types = config.freeze_types
        self.conditional = config.variant == "m3" and config.conditional_type_prior

        if config.ignore_labels:
            self.is_test = np.ones(self.N, dtype=bool)
        else:
            self.is_test = np.array([s == "test" for s in dataset.split])
        self.test_indices = np.flatnonzero(self.is_test)
        self._table = None  # a _ClusterTable during an indicator pass

        self.pub_base = PublicationBase.standard(self.F)
        self._set_type_base(TypeBase.standard(self.F))

        # Training items are pinned to their gold classes for good; the
        # classes take ids 0, 1, ... in order of first appearance.
        train_idx = np.flatnonzero(~self.is_test)
        train_labels = list(dict.fromkeys(dataset.labels[i] for i in train_idx))
        self.train_label_to_cid = {lab: cid for cid, lab in enumerate(train_labels)}
        self.train_cluster_ids = frozenset(self.train_label_to_cid.values())
        k_train = len(train_labels)
        # The c-update candidates are the center rows from this one on.
        self.first_candidate = 0 if config.share_train_test else k_train
        k = k_train + len(self.test_indices)
        c = np.empty(self.N, dtype=np.int64)
        c[train_idx] = [self.train_label_to_cid[dataset.labels[i]] for i in train_idx]
        c[self.test_indices] = np.arange(k_train, k)
        self._install_clusters(c, np.tile(self.pub_base.mean, (k, 1)))
        self.d = np.zeros(self.N, dtype=np.int64)

        self.alpha_p = config.alpha_p
        self.alpha_t = config.alpha_t
        self.train_pair = (len(train_idx), k_train)
        self._init_params()

    # The benchmark's traced sampler (bench/workloads.py) reads these two.
    @property
    def c_members(self):
        return self.pubs.members

    @property
    def next_c(self):
        return self.pubs.next_id

    # ------------------------------------------------------------------
    # initialization

    def _install_clusters(self, c, centers):
        """Set every item's cluster id and, in ascending id order, the
        center of each distinct id."""
        self.c = np.array(c, dtype=np.int64)
        self.pubs = _CenterRows(self.c, centers, self.type_base)

    def _set_type_base(self, base):
        """Install a type base and precompute the new-type marginal's
        base-only terms (saves a gammaln pair per item update)."""
        self.type_base = base
        self._new_type_terms = new_type_terms(base)

    def _init_params(self):
        if self.frozen_types:
            t0 = np.ones(self.F)
        else:
            base = self.type_base
            t0 = self.rng.gamma(base.shape, base.scale)
        self.types = _TypeRows(self.d, [t0], self.pub_base)
        self._resample_publications()
        if not self.frozen_types:
            self._resample_types()

    # ------------------------------------------------------------------
    # parameter refreshes

    def _type_prior(self):
        """The prior of every type and its new_type_terms: the type base, or
        under m3's conditional prior the base with its rate shifted by the
        centers' pair sum."""
        if self.conditional:
            return self.pubs.type_prior()
        return self.type_base, self._new_type_terms

    def _center_tilt(self, d_sq, s_base):
        """Log factor by which adding a center multiplies the product of the
        types' conditional priors, for each row of ``d_sq``: that center's
        squared differences to the centers whose pair sum is ``s_base``."""
        base = self.type_base
        lift = np.log1p(d_sq / (base.rate + s_base)) @ base.shape
        return len(self.types) * lift - d_sq @ self.types.vecs.sum(axis=0)

    def _resample_publications(self):
        """Exact conjugate draw of every center.  Under the conditional type
        prior, with other centers present, a center instead takes one
        retained-candidate step: its current value and candidate_count - 1
        conjugate draws, one picked by the tilt (the conditional's ratio to
        the conjugate posterior), which leaves the conditional invariant
        (Tjelmeland 2004; Andrieu, Doucet & Holenstein 2010)."""
        pubs = self.pubs
        tilted = self.conditional and len(pubs) > 1
        if tilted:
            s_pair = pubs.pair_sq()
            size = (self.config.candidate_count - 1, self.F)
        t_rows = self.types.rows(self.d)
        for row, idx in pubs.groups():
            rs, ts = self.X[idx], self.types.vecs[t_rows[idx]]
            if not tilted:
                pubs.set(row, posterior_sample_publication(rs, ts, self.pub_base, self.rng))
                continue
            draws = posterior_sample_publication(rs, ts, self.pub_base, self.rng, size)
            cands = np.vstack([pubs.vecs[row], draws])
            d_sq = _pair_terms(cands, np.delete(pubs.vecs, row, axis=0))
            s_rest = s_pair - d_sq[0]  # the running pair sum without this center
            sel = _pick(self._center_tilt(d_sq, s_rest), self.rng)
            s_pair = s_rest + d_sq[sel]
            pubs.set(row, cands[sel])

    def _resample_types(self):
        """Exact conjugate draw of every type under its prior."""
        base, _ = self._type_prior()
        c_rows = self.pubs.rows(self.c)
        for row, idx in self.types.groups():
            ps = self.pubs.vecs[c_rows[idx]]
            self.types.set(row, posterior_sample_type(self.X[idx], ps, base, self.rng))

    # ------------------------------------------------------------------
    # indicator updates

    def _c_candidates(self, n, orphan):
        """Existing-cluster ids plus log weights for resampling c_n; the
        trailing entries belong to new-cluster candidates.  The existing
        candidates are the trailing rows of the center store, weighted by
        their log counts plus the pass table's log-likelihoods (a table of
        its own outside a sweep).  m1/m2 take the table's new-cluster
        weight; m3 replaces it by its auxiliary candidates."""
        lo = self.first_candidate
        pubs = self.pubs
        logw = (self._table or _ClusterTable(self)).weights(n)
        logw[:-1] += np.log(pubs.counts[lo:])
        if self.variant != "m3":
            return pubs.ids[lo:], logw, None
        # aux_samples candidates (Neal 2000, Algorithm 8): fresh base draws,
        # then a singleton's orphaned center.
        base = self.pub_base
        m = self.config.aux_samples - (orphan is not None)
        news = self.rng.normal(base.mean, np.sqrt(base.variance), (m, self.F))
        if orphan is not None:
            news = np.vstack([news, orphan[None, :]])
        k = self.types.row(int(self.d[n]))
        new = np.log(self.alpha_p / len(news)) + data_loglik_rows(
            self.X[n], news, self.types.vecs[k], self.types.ll_const[k]
        )
        if self.conditional:
            # A new cluster adds a center, which shifts every type's prior.
            new += self._center_tilt(_pair_terms(news, pubs.vecs), pubs.pair_sq())
        return pubs.ids[lo:], np.concatenate([logw[:-1], new]), news

    def sample_c(self, n):
        """Reassign test item n to an existing cluster or a fresh one."""
        if not self.is_test[n]:
            raise DomainError(f"item {n} is a training item; its cluster is pinned")
        pubs = self.pubs
        cand, logw, news = self._c_candidates(n, pubs.detach(n, int(self.c[n])))
        sel = _pick(logw, self.rng)
        if sel < len(cand):
            # The candidates are the trailing rows of the store.
            self.c[n] = pubs.join(n, len(pubs.ids) - len(cand) + sel)
        elif news is not None:
            self.c[n] = pubs.open(n, news[sel - len(cand)])
        else:
            r, t = self.X[n], self.types[int(self.d[n])]
            pub = posterior_sample_publication(r[None, :], t[None, :], self.pub_base, self.rng)
            self.c[n] = pubs.open(n, pub)

    def _d_candidates(self, n):
        """Existing-type ids plus log weights, as a list, for resampling
        d_n; the last weight is a new type's, with its precisions integrated
        out under the types' prior.  Computed in Python floats: with one to
        three types, a numpy call per term costs more than its arithmetic."""
        p = self.pubs.vecs[self.pubs.row(int(self.c[n]))]
        types = self.types
        d2 = [(a - b) ** 2 for a, b in zip(self.X[n].tolist(), p.tolist())]
        head = 0.5 * self.F * LOG_2PI
        logw = []
        for t, half_logsum, count in zip(
            types.vec_list, types.half_logsum_list, types.counts.tolist()
        ):
            dot = 0.0
            for a, b in zip(t, d2):
                dot += a * b
            logw.append(math.log(count) + half_logsum - 0.5 * dot - head)
        _, terms = self._type_prior()
        logw.append(math.log(self.alpha_t) + new_type_loglik(d2, terms))
        return types.ids, logw

    def sample_d(self, n):
        """Reassign item n's reference type (training items included)."""
        types = self.types
        types.detach(n, int(self.d[n]))
        tids, logw = self._d_candidates(n)
        sel = _pick_few(logw, self.rng)
        if sel < len(tids):
            self.d[n] = types.join(n, sel)
        else:
            r, p = self.X[n], self.pubs[int(self.c[n])]
            base, _ = self._type_prior()
            self.d[n] = types.open(n, posterior_sample_type(r[None, :], p[None, :], base, self.rng))

    # ------------------------------------------------------------------
    # sweeps and scoring

    def _resample_alphas(self):
        n_tr, k_tr = self.train_pair
        self.alpha_p = sample_precision_single(self.alpha_p, n_tr, k_tr, ALPHA_PRIOR, self.rng)
        if not self.frozen_types:
            self.alpha_t = sample_precision_single(
                self.alpha_t, self.N, len(self.types), ALPHA_PRIOR, self.rng
            )

    def sweep(self):
        """One full iteration over parameters, indicators, and precisions."""
        if self.variant == "m2" and not self.frozen_types:
            self._set_type_base(adapt_type_base(self.X, self.c, self.pubs))
        self._resample_publications()
        if not self.frozen_types:
            self._resample_types()
        self._table = _ClusterTable(self)
        try:
            for n in range(self.N):
                if self.is_test[n]:
                    self.sample_c(n)
                if not self.frozen_types:
                    self.sample_d(n)
        finally:
            self._table = None
        if self.config.resample_alphas:
            self._resample_alphas()

    def _eppf(self, alpha, sizes):
        lp = len(sizes) * np.log(alpha) + gammaln(alpha) - gammaln(alpha + self.N)
        return float(lp + sum(gammaln(s) for s in sizes))

    def joint_log_score(self):
        """Unnormalized log posterior density at the current state."""
        lp = self._eppf(self.alpha_p, self.pubs.counts.tolist())
        lp += self._eppf(self.alpha_t, self.types.counts.tolist())
        for pub in self.pubs.vecs:
            lp += publication_base_logpdf(pub, self.pub_base)
        type_prior, _ = self._type_prior()
        for tvec in self.types.vecs:
            lp += type_base_logpdf(tvec, type_prior)
        p_items = self.pubs.vecs[self.pubs.rows(self.c)]
        t_items = self.types.vecs[self.types.rows(self.d)]
        lp += float(
            0.5 * (np.log(t_items) - LOG_2PI - t_items * (self.X - p_items) ** 2).sum()
        )
        return lp

    def test_partition(self) -> Partition:
        return Partition({self.ids[i]: int(self.c[i]) for i in self.test_indices})

    def check(self):
        """Structural invariant audit (used by tests; cheap, not exhaustive)."""
        for store, labels in ((self.pubs, self.c), (self.types, self.d)):
            members = store.members
            # One row per member set, ids strictly ascending, counts exact.
            assert store.ids.tolist() == store.id_list == list(members)
            assert (np.diff(store.ids) > 0).all() and store.ids[-1] < store.next_id
            assert store.vecs.shape == (len(members), self.F)
            assert store.counts.tolist() == [float(len(m)) for m in members.values()]
            assert all(members.values())
            assert sum(len(m) for m in members.values()) == self.N
            for key, m in members.items():
                assert all(labels[i] == key for i in m)
        k_train = len(self.train_cluster_ids)
        assert self.pubs.ids[:k_train].tolist() == list(range(k_train))
        # The cached per-type terms, bit for bit against a recomputation.
        fresh = zip(*(self.types.terms(t) for t in self.types.vecs))
        cached = (self.types.half_logsum, self.types.ll_const, self.types.new_var,
                  self.types.new_head)
        assert all(c.tobytes() == np.array(f).tobytes() for c, f in zip(cached, fresh))
        assert self.types.vec_list == self.types.vecs.tolist()
        # The running pair sum, to rounding, and the prior built from it.
        pubs = self.pubs
        if pubs._pair_sq is not None:
            fresh = pairwise_sq_diff_sum(pubs.vecs)
            assert np.allclose(pubs._pair_sq, fresh, rtol=1e-9, atol=1e-9 * (1.0 + fresh.max()))
        if pubs._prior is not None:
            want = conditional_type_base(self.type_base, pubs._pair_sq)
            assert pubs._prior[0].scale.tobytes() == want.scale.tobytes()
            assert pubs._prior[1] == new_type_terms(want)
        assert self.alpha_p > 0 and self.alpha_t > 0
        assert np.isfinite(self.pubs.vecs).all()
        assert np.isfinite(self.types.vecs).all() and (self.types.vecs > 0).all()


def chain_rng(config: SamplerConfig, chain_index: int):
    """Per-chain generator: seed XOR chain index, the documented convention."""
    return np.random.default_rng(config.seed ^ chain_index)


def run_chain(dataset: Dataset, config: SamplerConfig, chain_index: int):
    """Run one chain; returns a record per post-burn-in iteration."""
    state = ChainState(dataset, config, chain_rng(config, chain_index))
    burn = config.resolved_burn_in()
    records = []
    for it in range(1, config.iterations + 1):
        state.sweep()
        if it > burn:
            score = state.joint_log_score()
            if not np.isfinite(score):
                raise RuntimeError(f"non-finite joint score at iteration {it}")
            records.append(
                SampleRecord(
                    iteration=it,
                    test_partition=state.test_partition(),
                    joint_log_score=score,
                    n_publications=len(state.pubs),
                    n_types=len(state.types),
                )
            )
    return records


def default_workers():
    env = os.environ.get("DPSC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"DPSC_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _in_chain_order(results):
    """Call each chain's result thunk in chain order; a failure is re-raised
    naming its chain."""
    out = []
    for i, result in enumerate(results):
        try:
            out.append(result())
        except Exception as exc:
            raise RuntimeError(f"chain {i}: {exc}") from exc
    return out


def run_chains(dataset: Dataset, config: SamplerConfig, max_workers=None):
    """All chains, optionally in parallel; results identical either way."""
    if max_workers is None:
        max_workers = default_workers()
    workers = max(1, min(max_workers, config.n_chains))
    if workers == 1:
        return _in_chain_order(
            partial(run_chain, dataset, config, i) for i in range(config.n_chains)
        )
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_chain, dataset, config, i) for i in range(config.n_chains)
        ]
        return _in_chain_order(f.result for f in futures)


def extract_prediction(per_chain_records) -> Partition:
    """The test partition of the highest-scoring record; ties go to the
    earliest (chain, iteration)."""
    best = None
    for records in per_chain_records:
        for rec in records:
            if best is None or rec.joint_log_score > best.joint_log_score:
                best = rec
    if best is None:
        raise DomainError("no sample records to extract a prediction from")
    return best.test_partition
