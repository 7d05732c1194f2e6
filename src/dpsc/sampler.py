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
member count as a float and the next unused id.  Which items a row holds
is read from the indicator arrays c and d.  The center store alone
caches something: the centers' pairwise_sq_diff_sum, updated by one
center's terms when a center is added or removed and recomputed after the
vectors are written, and the conditional type prior it gives (m3).  Both
indicator updates run the same CRP step on their store (Neal 2000,
Algorithms 2 and 8): ``detach`` takes the item out and drops a row that
emptied, then the item ``join``s an existing row or ``open``s a new one.
An update reads contiguous slices: the candidate clusters are the
trailing rows (all rows when test items may join training clusters,
which are never emptied and so stay in the leading rows), and the
refreshes and the joint score map items to rows with one searchsorted.

Rows are kept in ascending id order: ids only grow, a new row is appended
and a deleted one closes its gap.  Training cluster ids follow the first
appearance of each label, so ascending id order is also the order in
which clusters were created.  That order is the candidate order of every
update and the order of every refresh's draws, so it fixes which candidate
a uniform draw selects and hence the whole random stream; changing it
changes every chain.  The refreshes sum each row's posterior statistics
with one bincount over the items, in ascending item order.

The indicator pass.  Between the refreshes and the precision draws, a
sweep updates c of every test item in turn (the c pass), then d of every
item in turn (the d pass); each update conditions on the current rest of
the state, so this is a systematic-scan Gibbs sampler.  Each pass reads
its weights from one table filled ahead (``_PassTable``): each item's
log-likelihood against every candidate row of one store, a column per row
id, its new-row log weights in the leading columns, and the pass's uniform
for each item, drawn at once.  A row opened during the pass gets its column
when the table is next read, and a deleted one drops out of the lookup.
A c table (``_ClusterTable``), one for each block of test items, holds
the candidate centers and m1/m2's closed-form new-cluster weight, or m3's
auxiliary candidates: aux_samples fresh base draws per item, drawn up
front because they do not depend on the state.  This is exact because nothing those numbers read changes
during the c pass: no center or type vector is written (rows are only
opened and deleted), no d changes, and alpha_p and both bases stay fixed.
Under the conditional prior, an auxiliary candidate's weight also carries
the tilt of the center it would add, which reads the centers; it is
recomputed, for the items read from there on, after a cluster opens or
closes.  Once the c pass is done, every item's cluster, every center,
alpha_t and the types' prior are fixed for the d pass, so its table
(``_TypeTable``) holds every item's log-likelihood against each type from
one product.

Both passes follow one scan rule (``_PassTable.scan``): the picks of a
window of items are evaluated at once, under the current counts with each
item taken out of its own row, and the single-item update (``sample_c``,
``sample_d``) runs only at the first item that moves (an item alone in its
row always does); the scan resumes after it.  An item that stays leaves
the state as it found it, and every value a table holds is computed the
same way whichever window reads it, so the result is the sequential
scan's with the same uniforms, bit for bit, for any window.  A pass sizes
its window from its own previous pass: twice the mean gap between the
items that moved, at most TABLE_BLOCK, and no scan (the single-item update
of every item) when that gap is under 4 items or there is no previous
pass, because evaluating a window costs about as much as a few
single-item updates.  Every draw, of one row of weights or of many, takes
the first index whose running sum exceeds the uniform times the last
running sum (``_pick``, ``_pick_rows``).  The tables live for one pass
only and are dropped when it ends, also when it ends in an exception; an
update called outside a sweep fills a table of its own from the current
state.  The tables give the weights of the per-item formulas, which may
differ from them in the last bit (a batched product can round
differently), so a uniform picks the same candidate unless it falls
within those few ulps of a boundary.
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
    log_gamma,
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
    publication_posterior_from_sums,
    type_posterior_from_sums,
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
            has_train = any(s == "train" for s in dataset.split)
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


TABLE_BLOCK = 64  # the widest scan window, and a table's room for opened rows
TABLE_CELLS = 1 << 14  # items times centers a c table may reach past TABLE_BLOCK items


def _pick(logw, u):
    """Index drawn by the uniform ``u`` from unnormalized log weights: the
    first whose running sum of the max-subtracted weights exceeds u times
    their total, the last running sum.  As u < 1, some running sum always
    does, and it is never one of a zero weight."""
    acc = np.exp(logw - logw.max()).cumsum()
    return int(acc.searchsorted(u * acc[-1], side="right"))


def _pick_rows(logw, u):
    """_pick of each row of the log weights ``logw`` by its uniform in
    ``u``."""
    acc = np.exp(logw - logw.max(axis=1, keepdims=True)).cumsum(axis=1)
    return (acc > u[:, None] * acc[:, -1:]).argmax(axis=1)


def _row_sums(rows, values, k):
    """Sums of the rows of ``values`` over the items of each of k groups,
    ``rows`` giving each item's group: one bincount, which adds each sum in
    ascending item order."""
    F = values.shape[1]
    flat = (rows[:, None] * F + np.arange(F)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=k * F).reshape(k, F)


def _pair_terms(cands, others):
    """Per-dimension squared differences of each candidate row to all the
    rows of ``others``, summed: a center's share of pairwise_sq_diff_sum."""
    return ((cands[:, None, :] - others[None, :, :]) ** 2).sum(axis=1)


class _Rows(Mapping):
    """One Dirichlet process's active rows: parameter vectors keyed by id,
    as the rows of ``vecs`` in ascending id order, with each row's member
    count (a float) in ``counts`` and the next unused id in ``next_id``.
    The ids are kept both as an array (``ids``) and as a list
    (``id_list``), which finds one row faster.  Which items a row holds is
    read from the indicator array, not kept here.  Reads as a read-only
    mapping from id to vector."""

    def __init__(self, labels, vecs):
        self.ids, counts = np.unique(labels, return_counts=True)
        self.id_list = self.ids.tolist()
        self.vecs = np.array(vecs, dtype=float).reshape(len(self.ids), -1)
        self.counts = counts.astype(float)
        self.next_id = self.id_list[-1] + 1
        self._changed()

    def _changed(self, row=None, removed=None):
        """Called after vectors are written (no arguments), after row
        ``row`` is added, or after it is removed, ``removed`` its vector."""

    def row(self, key):
        return bisect_left(self.id_list, key)

    def rows(self, keys):
        return self.ids.searchsorted(keys)

    def set(self, row, vec):
        """Write the vector of one row, or of every row (``row`` a slice)."""
        self.vecs[row] = vec
        self._changed()

    def detach(self, key):
        """Take one item out of row ``key``.  Returns the row's vector if
        that emptied it (the row is deleted), else None."""
        row = self.row(key)
        if self.counts[row] > 1.0:
            self.counts[row] -= 1.0
            return None
        del self.id_list[row]
        vec = self.vecs[row]
        self.ids = np.delete(self.ids, row)
        self.vecs = np.delete(self.vecs, row, axis=0)
        self.counts = np.delete(self.counts, row)
        self._changed(row, vec)
        return vec

    def join(self, row):
        """Put one item in an existing row; returns the row's id."""
        self.counts[row] += 1.0
        return self.id_list[row]

    def open(self, vec):
        """A new last row, under the next unused id, holding one item;
        returns the id."""
        key = self.next_id
        self.next_id += 1
        self.id_list.append(key)
        self.ids = np.append(self.ids, key)
        self.vecs = np.vstack([self.vecs, vec])
        self.counts = np.append(self.counts, 1.0)
        self._changed(len(self.ids) - 1)
        return key

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

    def _changed(self, row=None, removed=None):
        self._prior = None
        if row is None:
            self._pair_sq = None
        elif self._pair_sq is not None:
            vec, sign = (self.vecs[row], 1.0) if removed is None else (removed, -1.0)
            self._pair_sq = self._pair_sq + sign * _pair_terms(vec[None, :], self.vecs)[0]

    def pair_sq(self):
        if self._pair_sq is None:
            self._pair_sq = pairwise_sq_diff_sum(self.vecs)
        return self._pair_sq

    def type_prior(self):
        if self._prior is None:
            prior = conditional_type_base(self.type_base, self.pair_sq())
            self._prior = prior, new_type_terms(prior)
        return self._prior


class _Members:
    """The items under each id of an indicator array: ``[key]`` gives them
    in ascending order."""

    def __init__(self, labels):
        self.labels = labels

    def __getitem__(self, key):
        return np.flatnonzero(self.labels == key)


def _window(items, moves):
    """The scan window of a pass over ``items`` items whose previous pass
    moved ``moves`` of them (None before the first): twice the mean gap
    between moves, at most TABLE_BLOCK.  0, a single-item update of every
    item with no scan, when that gap is under 4 items or unknown: a scan
    costs a few single-item updates, so it pays only where few items move.
    Any window gives the same result."""
    gap = 0 if moves is None else items // (moves + 1)
    return min(TABLE_BLOCK, 2 * gap) if gap >= 4 else 0


class _PassTable:
    """The log-likelihoods of some items against every candidate row of one
    row store, computed ahead for one indicator pass: a column per row id,
    and in the first ``m`` columns each item's log weights for a new row
    (m1/m2 and the d pass weigh one, m3's c pass its auxiliary candidates).
    It also holds the pass's uniform for each item.

    Nothing a column reads changes during its pass, so a column is computed
    once.  A row opened since the table was last read gets its column, for
    the items from the reading one on, at that read (earlier items are not
    read again); a deleted row drops out of the lookup by id.  The columns
    of the rows present at construction are computed there, so every
    column is computed over the same items whichever items the pass reads.
    Subclasses supply the columns, ``_loglik``."""

    def __init__(self, store, lo, items, new, labels, rng):
        """The candidates are the rows of ``store`` from row ``lo`` on; ``new``
        holds each of ``items``' new-row log weights, a row per item, and
        ``labels`` is the indicator array the pass updates."""
        self.store, self.lo, self.labels = store, lo, labels
        self.items = np.asarray(items)
        self.pos = dict(zip(self.items.tolist(), range(len(self.items))))
        new = np.asarray(new, dtype=float).reshape(len(self.pos), -1)
        self.m = new.shape[1]
        # Room for some opened rows before the buffer grows.
        room = min(len(self.pos), TABLE_BLOCK)
        self.buf = np.empty((len(self.pos), self.m + len(store) - lo + room))
        self.buf[:, :self.m] = new
        self.ids = np.empty(0, dtype=np.int64)  # the id of each column from m on
        self.seen = None  # the store's ids at the last read
        self.u = rng.random(len(self.pos))
        self._map(0)

    def _map(self, i):
        """Map the candidate rows to columns, if the store's rows changed
        since the last read; a row opened since first gets its column, from
        table row i on, the buffer growing if it is full."""
        store = self.store
        if store.ids is self.seen:
            return
        ids = store.ids[self.lo:]
        top = self.ids[-1] if len(self.ids) else -1
        fresh = len(ids) - int(ids.searchsorted(top, side="right"))
        if fresh:
            col = self.m + len(self.ids)
            if col + fresh > self.buf.shape[1]:
                grown = np.empty((len(self.buf), 2 * (col + fresh)))
                grown[:, :col] = self.buf[:, :col]
                self.buf = grown
            self.buf[i:, col:col + fresh] = self._loglik(i, len(store) - fresh)
            self.ids = np.concatenate([self.ids, ids[-fresh:]])
        self.cols = np.concatenate([self.m + self.ids.searchsorted(ids), np.arange(self.m)])
        self.seen = store.ids

    def _read(self, i, j):
        """Table rows i to j - 1 under the store's current rows: each
        candidate row's column, in row order, then the new-row columns (a
        new array)."""
        self._map(i)
        return self.buf[i:j].take(self.cols, axis=1)

    def weights(self, n):
        """Item n's log weights under the store's counts: each candidate
        row's, in row order, then the new-row ones (a new array)."""
        i = self.pos[n]
        logw = self._read(i, i + 1)[0]
        logw[:-self.m] += np.log(self.store.counts[self.lo:])
        return logw

    def uniform(self, n):
        """Item n's uniform for its pick."""
        return self.u[self.pos[n]]

    def scan(self, i, window):
        """The first table row from i on whose item's update would move it;
        the number of rows if there is none.  The picks of each ``window``
        items are evaluated at once, under the current counts with each
        item's own row less that item: the weights its single-item update
        gives it, as long as no item before it moved.  An item alone in its
        row weighs that row 0, so it always moves."""
        end = len(self.u)
        ids = self.store.ids[self.lo:]
        # Each row's log count, and its log count less one item, then 0 (the
        # log of 1) for the new-row columns.
        counts = np.concatenate([self.store.counts[self.lo:], np.ones(self.m)])
        with_own = np.log(counts)
        counts[:len(ids)] -= 1.0
        with np.errstate(divide="ignore"):  # a zero count: weight 0
            without = np.log(counts)
        cols = np.arange(len(counts))
        while i < end:
            j = min(i + window, end)
            own = ids.searchsorted(self.labels[self.items[i:j]])
            logw = self._read(i, j)
            logw += np.where(cols == own[:, None], without, with_own)
            moved = _pick_rows(logw, self.u[i:j]) != own
            k = int(moved.argmax())
            if moved[k]:
                return i + k
            i = j
        return end

    def run(self, update, window):
        """update(n) of each of the table's items in turn, or, with a scan
        window, only of those the scan finds move: an item that stays leaves
        the state as it found it, so the result is the same.  Returns how
        many items moved."""
        items = self.items.tolist()
        before = self.labels[self.items]
        if not window:
            for n in items:
                update(n)
        else:
            i = self.scan(0, window)
            while i < len(items):
                update(items[i])
                i = self.scan(i + 1, window)
        return int((self.labels[self.items] != before).sum())


class _ClusterTable(_PassTable):
    """The c-update log-likelihoods of a block of test items, and in the
    new-row columns m1/m2's log alpha_p + new-cluster marginal, or m3's
    auxiliary candidates (Neal 2000, Algorithm 8): for each item,
    aux_samples fresh base draws (``news``), each weighted alpha_p /
    aux_samples times its likelihood and, under the conditional prior, the
    tilt of the center it would add.

    Nothing they read changes during the pass but the tilt: no center or
    type vector is written, no d changes (the d pass comes after), and
    alpha_p and both bases are fixed.  The tilt reads the centers, which
    change when a cluster opens or closes; it is recomputed at the next
    read, for the items read from there on."""

    def __init__(self, state, items):
        types = state.types
        k = types.rows(state.d[items])
        self.R, self.k, self.const = state.X[items], k, loglik_const(types.vecs)[k]
        self.tvecs = types.vecs  # replaced, not written, when a type opens or goes
        self.state = state
        if state.variant != "m3":
            var, head = new_publication_terms(types.vecs[k], state.pub_base)
            new = np.log(state.alpha_p) + new_publication_loglik_rows(
                self.R, var, head, state.pub_base
            )
        else:
            base, m = state.pub_base, state.config.aux_samples
            z = state.rng.standard_normal((len(k), m, state.F))
            self.news = base.mean + math.sqrt(base.variance) * z
            D = self.R[:, None, :] - self.news
            D *= D
            self.untilted = math.log(state.alpha_p / m) + self.const[:, None] - 0.5 * (
                D * self.tvecs[k][:, None, :]
            ).sum(axis=2)
            new = self.untilted
        super().__init__(state.pubs, state.first_candidate, items, new, state.c, state.rng)
        if state.conditional:
            # The running pair sum, computed before any update deletes a center,
            # so that every read sees the same sums whichever items it covers.
            state.pubs.pair_sq()
            self.tilted, self.tilt_ids = 0, state.pubs.ids

    def _tilt(self, i, j):
        """Make the new-candidate weights of table rows i to j - 1 carry the
        tilt under the current centers, recomputing from i on if the
        centers changed since the last tilt."""
        pubs = self.store
        if pubs.ids is not self.tilt_ids:
            self.tilted, self.tilt_ids = i, pubs.ids
        a = self.tilted
        if a < j:
            news = self.news[a:j].reshape(-1, self.state.F)
            tilt = self.state._center_tilt(_pair_terms(news, pubs.vecs), pubs.pair_sq())
            self.buf[a:j, :self.m] = self.untilted[a:j] + tilt.reshape(j - a, self.m)
            self.tilted = j

    def _read(self, i, j):
        if self.state.conditional:
            self._tilt(i, j)
        return super()._read(i, j)

    def _loglik(self, i, row):
        """data_loglik_rows of the table's items from i on against the
        centers from ``row`` on: one matrix-vector product per type, over
        the rows of all its items at once."""
        P = self.store.vecs[row:]
        # (r - P)**2 of item after item; subtracting P from repeated rows is
        # much faster than broadcasting r across P.
        D = np.repeat(self.R[i:], len(P), axis=0).reshape(-1, *P.shape)
        D -= P
        D *= D
        k = self.k[i:]
        types = np.unique(k)
        dots = np.empty(D.shape[:2])
        for t in types:
            same = k == t if len(types) > 1 else slice(None)
            dots[same] = (D[same].reshape(-1, P.shape[1]) @ self.tvecs[t]).reshape(-1, len(P))
        return self.const[i:, None] - 0.5 * dots


class _TypeTable(_PassTable):
    """The d-update log-likelihoods of some items, and in column 0 their log
    alpha_t + new-type marginal.

    Nothing they read changes while the types are updated: every item's
    cluster, every center and type vector, alpha_t and the types' prior are
    fixed.  So one product gives every item its data_loglik_rows against
    each type, and one new_type_loglik call its new-type weight."""

    def __init__(self, state, items):
        pubs = state.pubs
        D = state.X[items] - pubs.vecs[pubs.rows(state.c[items])]
        self.D2 = D * D
        _, terms = state._type_prior()
        new = math.log(state.alpha_t) + new_type_loglik(self.D2, terms)
        super().__init__(state.types, 0, items, new, state.d, state.rng)

    def _loglik(self, i, row):
        """data_loglik_rows of the items from i on against the types from
        ``row`` on, from one product."""
        T = self.store.vecs[row:]
        return loglik_const(T) - 0.5 * (self.D2[i:] @ T.T)


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

        self.is_test = np.array([s == "test" for s in dataset.split])
        self.test_indices = np.flatnonzero(self.is_test)
        self.test_ids = [self.ids[i] for i in self.test_indices.tolist()]
        self._table = None  # a _ClusterTable during the c pass
        self._type_table = None  # a _TypeTable during the d pass
        # The items each pass moved in the last sweep; they size its scan.
        # Every item starts in one type, so the first d pass scans as if
        # none had moved.
        self.c_moves, self.d_moves = None, 0

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
        """Read-only view: ``[key]`` gives the items of cluster ``key``."""
        return _Members(self.c)

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
        base-only terms (saves a log-gamma pair per item update)."""
        self.type_base = base
        self._new_type_terms = new_type_terms(base)

    def _init_params(self):
        if self.frozen_types:
            t0 = np.ones(self.F)
        else:
            base = self.type_base
            t0 = self.rng.gamma(base.shape, base.scale)
        self.types = _Rows(self.d, [t0])
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
        # Sums over each row rather than products, so that a row's bits do not
        # depend on how many rows are computed with it.
        lift = (np.log1p(d_sq / (base.rate + s_base)) * base.shape).sum(axis=1)
        return len(self.types) * lift - (d_sq * self.types.vecs.sum(axis=0)).sum(axis=1)

    def _resample_publications(self):
        """Exact conjugate draw of every center, all in one call.  Under the
        conditional type prior, with other centers present, each center
        instead takes one retained-candidate step in turn: its current value
        and candidate_count - 1 conjugate draws, one picked by the tilt (the
        conditional's ratio to the conjugate posterior), which leaves the
        conditional invariant (Tjelmeland 2004; Andrieu, Doucet & Holenstein
        2010)."""
        pubs = self.pubs
        rows, k = pubs.rows(self.c), len(pubs)
        ts = self.types.vecs[self.types.rows(self.d)]
        mean, prec = publication_posterior_from_sums(
            _row_sums(rows, ts, k), _row_sums(rows, ts * self.X, k), self.pub_base
        )
        sd = np.sqrt(1.0 / prec)
        if not (self.conditional and k > 1):
            pubs.set(slice(None), self.rng.normal(mean, sd))
            return
        s_pair = pubs.pair_sq()
        size = (self.config.candidate_count - 1, self.F)
        for row in range(k):
            cands = np.vstack([pubs.vecs[row], self.rng.normal(mean[row], sd[row], size)])
            d_sq = _pair_terms(cands, np.delete(pubs.vecs, row, axis=0))
            s_rest = s_pair - d_sq[0]  # the running pair sum without this center
            sel = _pick(self._center_tilt(d_sq, s_rest), self.rng.random())
            s_pair = s_rest + d_sq[sel]
            pubs.set(row, cands[sel])

    def _resample_types(self):
        """Exact conjugate draw of every type under its prior, all in one
        call."""
        base, _ = self._type_prior()
        types = self.types
        D = self.X - self.pubs.vecs[self.pubs.rows(self.c)]
        sq = _row_sums(types.rows(self.d), D * D, len(types))
        shape, rate = type_posterior_from_sums(types.counts[:, None], sq, base)
        types.set(slice(None), self.rng.gamma(shape, 1.0 / rate))

    # ------------------------------------------------------------------
    # indicator updates

    def _c_candidates(self, n, orphan):
        """Existing-cluster ids plus log weights for resampling c_n; the
        trailing entries belong to new-cluster candidates.  The existing
        candidates are the trailing rows of the center store, weighted by
        their log counts plus the pass table's log-likelihoods (a table of
        its own outside a sweep).  m1/m2 take the table's new-cluster
        weight, m3 its auxiliary candidates, of which a singleton's orphaned
        center takes the last one's place (Neal 2000, Algorithm 8)."""
        table = self._table or _ClusterTable(self, [n])
        cand, logw = self.pubs.ids[self.first_candidate:], table.weights(n)
        if self.variant != "m3":
            return cand, logw, None
        news = table.news[table.pos[n]]
        if orphan is not None:
            news = np.vstack([news[:-1], orphan])
            own = data_loglik_rows(self.X[n], orphan[None], self.types[int(self.d[n])])
            logw[-1] = math.log(self.alpha_p / len(news)) + own[0]
            if self.conditional:
                # Against the centers without the orphan, as the table's tilt.
                d_sq = _pair_terms(orphan[None], self.pubs.vecs)
                logw[-1] += self._center_tilt(d_sq, self.pubs.pair_sq())[0]
        return cand, logw, news

    def sample_c(self, n):
        """Reassign test item n to an existing cluster or a fresh one, by the
        uniform the pass table holds for it."""
        if not self.is_test[n]:
            raise DomainError(f"item {n} is a training item; its cluster is pinned")
        table = self._table
        if table is None:  # outside a sweep: a table of its own
            self._table = _ClusterTable(self, [n])
            try:
                return self.sample_c(n)
            finally:
                self._table = None
        pubs = self.pubs
        cand, logw, news = self._c_candidates(n, pubs.detach(int(self.c[n])))
        sel = _pick(logw, table.uniform(n))
        if sel < len(cand):
            # The candidates are the trailing rows of the store.
            self.c[n] = pubs.join(len(pubs.ids) - len(cand) + sel)
        elif news is not None:
            self.c[n] = pubs.open(news[sel - len(cand)])
        else:
            r, t = self.X[n], self.types[int(self.d[n])]
            pub = posterior_sample_publication(r[None, :], t[None, :], self.pub_base, self.rng)
            self.c[n] = pubs.open(pub)

    def sample_d(self, n):
        """Reassign item n's reference type (training items included), by
        the uniform the pass table holds for it."""
        types = self.types
        types.detach(int(self.d[n]))
        table = self._type_table or _TypeTable(self, [n])
        sel = _pick(table.weights(n), table.uniform(n))
        if sel < len(types):
            self.d[n] = types.join(sel)
        else:
            r, p = self.X[n], self.pubs[int(self.c[n])]
            base, _ = self._type_prior()
            self.d[n] = types.open(posterior_sample_type(r[None, :], p[None, :], base, self.rng))

    def _c_pass(self):
        """sample_c of every test item in turn, from a pass table for each
        block of items: TABLE_BLOCK, or as many more as keep the table
        within TABLE_CELLS cells, which bounds its memory at large K."""
        test, moves = self.test_indices, 0
        window = _window(len(test), self.c_moves)
        size = max(TABLE_BLOCK, TABLE_CELLS // len(self.pubs))
        try:
            for i in range(0, len(test), size):
                self._table = _ClusterTable(self, test[i:i + size])
                moves += self._table.run(self.sample_c, window)
        finally:
            self._table = None
        self.c_moves = moves

    def _d_pass(self):
        """sample_d of every item in turn, from one pass table."""
        self._type_table = _TypeTable(self, np.arange(self.N))
        try:
            self.d_moves = self._type_table.run(self.sample_d, _window(self.N, self.d_moves))
        finally:
            self._type_table = None

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
        self._c_pass()
        if not self.frozen_types:
            self._d_pass()
        if self.config.resample_alphas:
            self._resample_alphas()

    def _eppf(self, alpha, sizes):
        """The log EPPF of rows of the given sizes (a float array).  The
        log-gamma terms of the sizes, by ``math.lgamma``, are added in order
        by a running sum, not a pairwise sum, which fixes the score's last
        bits."""
        lp = len(sizes) * np.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + self.N)
        return float(lp + log_gamma(sizes).cumsum()[-1])

    def joint_log_score(self):
        """Unnormalized log posterior density at the current state.  The
        base densities of the centers, then of the types, join the total in
        row order by a running sum, as in _eppf."""
        lp = self._eppf(self.alpha_p, self.pubs.counts)
        lp += self._eppf(self.alpha_t, self.types.counts)
        type_prior, _ = self._type_prior()
        rows = (
            publication_base_logpdf(self.pubs.vecs, self.pub_base),
            type_base_logpdf(self.types.vecs, type_prior),
        )
        lp = float(np.concatenate([[lp], *rows]).cumsum()[-1])
        p_items = self.pubs.vecs[self.pubs.rows(self.c)]
        t_items = self.types.vecs[self.types.rows(self.d)]
        lp += float(
            0.5 * (np.log(t_items) - LOG_2PI - t_items * (self.X - p_items) ** 2).sum()
        )
        return lp

    def test_partition(self) -> Partition:
        return Partition(zip(self.test_ids, self.c[self.test_indices].tolist()))

    def check(self):
        """Structural invariant audit (used by tests; cheap, not exhaustive)."""
        for store, labels in ((self.pubs, self.c), (self.types, self.d)):
            # One row per label in use, in ascending id order, counts exact.
            ids, counts = np.unique(labels, return_counts=True)
            assert store.ids.tolist() == store.id_list == ids.tolist()
            assert store.vecs.shape == (len(ids), self.F)
            assert store.counts.tolist() == counts.tolist()
            assert ids[-1] < store.next_id
        k_train = len(self.train_cluster_ids)
        assert self.pubs.ids[:k_train].tolist() == list(range(k_train))
        # The running pair sum, to rounding, and the prior built from it.
        pubs = self.pubs
        if pubs._pair_sq is not None:
            fresh = pairwise_sq_diff_sum(pubs.vecs)
            assert np.allclose(pubs._pair_sq, fresh, rtol=1e-9, atol=1e-9 * (1.0 + fresh.max()))
        if pubs._prior is not None:
            want = conditional_type_base(self.type_base, pubs._pair_sq)
            assert pubs._prior[0].scale.tobytes() == want.scale.tobytes()
            terms = zip(pubs._prior[1], new_type_terms(want))
            assert all(np.array(c).tobytes() == np.array(f).tobytes() for c, f in terms)
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


def run_chains(dataset: Dataset, config: SamplerConfig, max_workers=None, meanwhile=None):
    """All chains, optionally in parallel; results identical either way.

    ``meanwhile``, if given, is called once in this process: while the
    pool's workers run the chains (after every worker has started, so no
    thread it might start is alive at a fork), or after the chains when
    they run here.
    """
    if max_workers is None:
        max_workers = default_workers()
    workers = max(1, min(max_workers, config.n_chains))
    if workers == 1:
        per_chain = _in_chain_order(
            partial(run_chain, dataset, config, i) for i in range(config.n_chains)
        )
        if meanwhile is not None:
            meanwhile()
        return per_chain
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_chain, dataset, config, i) for i in range(config.n_chains)
        ]
        if meanwhile is not None:
            meanwhile()
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
