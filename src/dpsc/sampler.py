"""Gibbs samplers for supervised clustering under a Dirichlet process prior.

A chain state tracks, per item, a cluster indicator c and a type indicator
d, plus the active cluster centers ("publications"), the active precision
vectors ("reference types"), and the two DP precisions.  Training items
keep their gold cluster forever; test items are resampled.  Three
variants:

- m1: fully conjugate updates (closed-form new-cluster marginals, exact
  posterior draws for active parameters).
- m2: m1 with a hierarchical rate: the gamma base over precisions is
  Gamma(1, rate b_f) per dimension, each b_f under a Gamma(1, 1)
  hyperprior (RATE_PRIOR), and every sweep starts with the exact
  conjugate draw of b given the types.  The joint score carries the
  hyperprior's density.  With b integrated out a type's precision t has
  the prior (1 + t)^-2, so the posterior is improper when k >= 3 items tied
  in every dimension sit in a type of their own: their likelihood grows as
  t^((k - 1)/2), and the chain can drift to ever larger precisions.
- m3: auxiliary-candidate c updates (Neal 2000, Algorithm 8) and, by
  default, the conditional type prior that ties precisions to the
  distances between centers: a gamma whose rate is shifted by the centers'
  pairwise squared-difference sums, K times their scatter about their
  mean.  Types are exact conjugate draws under it, and the d update is
  m1's with it as the new-type prior; a center takes one
  retained-candidate step among conjugate draws under it, and is an exact
  draw when it is off.

Both DP precisions start at ALPHA_START.  With resample_alphas, alpha_t
is refreshed from (N, T) and alpha_p from the training pair (n_train,
k_train) alone: alpha_p is a cut (Plummer 2015), as the sampled test
partition never feeds back into it, while the joint score rates it by
one EPPF over all N items.

Every choice is the one a uniform makes from running sums of the
exponentiated log weights, normalized by max subtraction (``_pick``).

Chain state layout.  Each Dirichlet process keeps its bookkeeping in one
row store (``ChainState.pubs`` for the clusters, ``ChainState.types`` for
the types): one matrix of parameter vectors, the id of each row, its
member count as a float and the next unused id.  Which items a row holds
is read from the indicator arrays c and d.  The center store alone
caches something (m3): the centers' center_moments and the conditional
type prior, read from the rows that hold items, both dropped on any change
and rebuilt on first use.  Both indicator updates run the same CRP step on
their store (Neal 2000, Algorithms 2 and 8): ``detach`` takes the item out,
leaving a row that emptied at count 0, then the item ``join``s an existing
row or ``open``s a new one.  ``compact`` deletes the rows at count 0; each
pass calls it once its table is dropped, so outside a pass every row holds
items.  An update reads contiguous slices: the candidate clusters are the
trailing rows (all rows when test items may join training clusters, which
are never emptied and so stay in the leading rows), and the refreshes and
the joint score map items to rows with one searchsorted.

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
log-likelihood against every candidate row of one store, its new-row log
weights beside them, and the pass's uniform for each item, drawn at once.
While the table lives, its column j is the store's j-th candidate row: no
row is deleted until the table is dropped, so a row the pass empties keeps
its column at count 0, where it weighs exp(-inf) = 0 and is never drawn,
and a row opened during the pass is appended and gets the next column when
the table is next read.  A zero weight adds exactly 0 to every running
sum, so the draws are those of the store without the emptied rows.  A c
table (``_ClusterTable``), one for each block of test items, holds the
candidate centers and m1/m2's closed-form new-cluster weight, or m3's
auxiliary candidates: aux_samples fresh base draws per item, drawn up
front because they do not depend on the state.
This is exact because nothing those numbers read changes during the c
pass: no center or type vector is written (rows are only opened and
emptied), no d changes, and alpha_p and both bases stay fixed.  Under the
conditional prior, an auxiliary candidate's weight also carries the tilt
of the center it would add, which reads the centers, so every read adds
it under the current ones.  m1/m2's c table also holds its weights
exponentiated once, against each item's largest log weight, so a
single-item update multiplies them by the store's counts and searches
their running sums.  It keeps that index only where a rounding bound
(Higham 1993) shows that _pick on the item's log weights gives the same
one, and runs _pick elsewhere, so every pick is _pick's, bit for bit.
Once the c pass is done, every item's cluster, every center,
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
of every item) when that gap is under 4 items (8 for m1/m2's c pass,
whose single-item updates are cheaper) or there is no previous pass,
because evaluating a window costs about as much as a few single-item
updates.  Every draw, of one row of weights or of many, takes
the first index whose running sum exceeds the uniform times the last
running sum (``_pick``, ``_pick_rows``); the exponentiated pick keeps only
that same index.  The tables live for one pass (a c table for one
block) only and are dropped when it ends, with the store compacted, also
when it ends in an exception, so the single-item updates run only inside
their pass.  The tables give the
weights of the per-item formulas, which may differ from them in the last
bit (a batched product can round differently), so a uniform picks the
same candidate unless it falls within those few ulps of a boundary.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
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
    center_moments,
    center_shares,
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
RATE_PRIOR = GammaPrior()  # m2: gamma prior on each dimension's type-base rate
ALPHA_START = 1.0  # both DP precisions before the first refresh
CANDIDATE_COUNT = 32  # m3 conditional centers: retained center + conjugate draws


@dataclass
class SamplerConfig:
    variant: str = "m1"
    iterations: int = 2000
    burn_in: int | None = None  # default: iterations // 2
    aux_samples: int = 8  # m3 new-parameter candidates, a singleton's own among them
    share_train_test: bool = False
    resample_alphas: bool = True
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
        if self.n_chains < 1:
            errors.append(f"n_chains must be >= 1, got {self.n_chains}")
        if self.seed < 0:
            errors.append(f"seed must be a non-negative integer, got {self.seed}")
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
# The exponentiated pick (_PassTable._certified): its rounding bound per unit
# of the log scale and of the column count, the least total it accepts, and
# the largest exponentiated weight a table keeps.
_ROUNDING = 32 * np.finfo(float).eps
_FLOOR = 2.0**-969
_HUGE = 2.0**512
_SPAN = 512 * math.log(2.0)  # log _HUGE
SCAN_GAP = 4  # the least mean gap between moves at which a pass scans (_window)
EXP_SCAN_GAP = 8  # the same for m1/m2's c pass, whose single-item updates cost less


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


def _same_bits(got, want):
    """Whether two sequences of numbers or arrays hold the same bits."""
    pairs = zip(got, want, strict=True)
    return all(np.array(a).tobytes() == np.array(b).tobytes() for a, b in pairs)


class _Rows:
    """One Dirichlet process's active rows: parameter vectors keyed by id,
    as the rows of ``vecs`` in ascending id order, with each row's member
    count (a float) in ``counts`` and the next unused id in ``next_id``.
    The ids are kept both as an array (``ids``) and as a list
    (``id_list``), which finds one row faster.  Which items a row holds is
    read from the indicator array, not kept here.  A row emptied by
    ``detach`` stays, at count 0, until ``compact`` deletes it.  ``[key]``
    gives the vector of id ``key``."""

    def __init__(self, labels, vecs):
        self.ids, counts = np.unique(labels, return_counts=True)
        self.id_list = self.ids.tolist()
        self.vecs = np.array(vecs, dtype=float).reshape(len(self.ids), -1)
        self.counts = counts.astype(float)
        self.next_id = self.id_list[-1] + 1
        self._changed()

    def _changed(self):
        """Called after a vector is written or a row is added or emptied."""

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
        that emptied it, else None; an emptied row stays, at count 0, until
        ``compact``."""
        row = self.row(key)
        self.counts[row] -= 1.0
        if self.counts[row]:
            return None
        self._changed()
        return self.vecs[row]

    def compact(self):
        """Delete the rows at count 0."""
        keep = self.counts > 0.0
        if not keep.all():
            self.ids, self.vecs, self.counts = self.ids[keep], self.vecs[keep], self.counts[keep]
            self.id_list = self.ids.tolist()

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
        self._changed()
        return key

    def __getitem__(self, key):
        row = self.row(key)
        if row == len(self.ids) or self.ids[row] != key:
            raise KeyError(key)
        return self.vecs[row]

    def __len__(self):
        return len(self.ids)


class _CenterRows(_Rows):
    """Cluster centers, plus their center_moments and m3's conditional type
    prior (conditional_type_base of ``type_base``, which m3 never changes,
    and of their pairwise_sq_diff_sum, with its new_type_terms); both are
    dropped on any change to the centers and rebuilt on first use from the
    centers of the rows above count 0."""

    def __init__(self, labels, vecs, type_base):
        self.type_base = type_base
        super().__init__(labels, vecs)

    def _changed(self):
        self._moments = self._prior = None

    def moments(self):
        if self._moments is None:
            self._moments = center_moments(self.vecs[self.counts > 0.0])
        return self._moments

    def type_prior(self):
        if self._prior is None:
            live = self.vecs[self.counts > 0.0]
            prior = conditional_type_base(self.type_base, pairwise_sq_diff_sum(live))
            self._prior = prior, new_type_terms(prior)
        return self._prior


class _Members:
    """The items under each id of an indicator array: ``[key]`` gives them
    in ascending order."""

    def __init__(self, labels):
        self.labels = labels

    def __getitem__(self, key):
        return np.flatnonzero(self.labels == key)


def _window(items, moves, least=SCAN_GAP):
    """The scan window of a pass over ``items`` items whose previous pass
    moved ``moves`` of them (None before the first): twice the mean gap
    between moves, at most TABLE_BLOCK.  0, a single-item update of every
    item with no scan, when that gap is under ``least`` items or unknown: a
    scan costs a few single-item updates, so it pays only where few items
    move.  Any window gives the same result.

    ``least`` is SCAN_GAP where a single-item update reads log weights, and
    EXP_SCAN_GAP for m1/m2's c pass, whose single-item updates read
    exponentiated weights at about half the cost.  On the benchmark's
    small-m1 steady state (10-sweep blocks, 40 alternating rounds on 2
    shared CPUs, seeds 1, 3, 5, 7, 9 and 15), 8 in place of 4 gave 1.00 to
    1.17 times the sweeps per second, 6 gave 1.00 to 1.09 and 16 gave 0.998
    to 1.18; many-m1's c pass, whose gap is under 2, runs no scan either
    way."""
    gap = 0 if moves is None else items // (moves + 1)
    return min(TABLE_BLOCK, 2 * gap) if gap >= least else 0


class _PassTable:
    """The log-likelihoods of some items against every candidate row of one
    row store, computed ahead for one indicator pass, and in the ``m``
    columns after them each item's log weights for a new row (m1/m2 and the
    d pass weigh one, m3's c pass its auxiliary candidates).  It also holds
    the pass's uniform for each item.

    The candidates are the store's rows from row ``lo`` on, and while the
    table lives its column j is store row lo + j: the pass deletes no row
    until the table is dropped (an emptied row stays, at count 0, and
    weighs 0), and a row it opens is appended.  A row opened since the
    table was last read gets the next column, the new-row columns moving
    up one, for the items from the reading one on, at that read (earlier
    items are not read again).  Nothing a column reads changes during its
    pass, so it is computed once; the columns of the rows present at
    construction are computed there, so every column is computed over the
    same items whichever items the pass reads.  Subclasses supply the
    columns, ``_loglik``.

    With ``exponentiate`` (m1/m2's c pass: one new-row weight, fixed), the
    table also keeps every weight exponentiated once, against its item's
    largest log weight at construction (``top``; an opened row's column is
    exponentiated against the same maximum), and each item's ``slack`` in
    the rounding bound, which follows the largest finite |log weight| the
    table has held.  ``move`` picks from them where ``_certified`` vouches
    for the index, else by _pick on the log weights.  An item with a weight
    that is not finite or is past _HUGE once exponentiated (kept as 0) has
    an infinite slack: it always takes the log-space rule."""

    def __init__(self, store, lo, items, new, labels, rng, exponentiate):
        """The candidates are the rows of ``store`` from row ``lo`` on; ``new``
        holds each of ``items``' new-row log weights, a row per item, and
        ``labels`` is the indicator array the pass updates."""
        self.store, self.lo, self.labels = store, lo, labels
        self.items = np.asarray(items)
        self.pos = dict(zip(self.items.tolist(), range(len(self.items))))
        new = np.asarray(new, dtype=float).reshape(len(self.pos), -1)
        self.m = new.shape[1]
        self.filled = k = len(store) - lo  # the row columns computed
        # Room for some opened rows before the buffers grow.
        self.buf = np.empty((len(self.pos), k + self.m + min(len(self.pos), TABLE_BLOCK)))
        self.buf[:, :k] = self._loglik(0, lo)
        self.buf[:, k:k + self.m] = new
        self.u = rng.random(len(self.pos))
        self.ew = None
        if exponentiate:
            L = self.buf[:, :k + 1]
            self.top = L.max(axis=1)
            E, self.slack = self._exponentiate(0, L)
            self.ew = np.empty_like(self.buf)
            self.ew[:, :k] = E[:, :k]
            self.w = np.empty(self.buf.shape[1])  # scratch
            self.new_w, self.ul = E[:, k].tolist(), self.u.tolist()

    def _exponentiate(self, i, L):
        """exp(L - top) for the table rows from i on, whose log weights are
        the rows of ``L``, and the least slack of each of those rows that
        covers L.  An entry that is not finite or past _HUGE is set to 0,
        and its row's slack to inf."""
        with np.errstate(invalid="ignore", over="ignore"):  # -inf, inf or nan
            E = np.exp(L - self.top[i:, None])
        lo, hi = float(L.min()), float(L.max())
        bad = ()
        if not (math.isfinite(lo) and math.isfinite(hi) and hi - self.top[i:].min() < _SPAN):
            finite = L[np.isfinite(L)]  # -inf weighs 0 in both rules, exactly
            lo, hi = float(finite.min(initial=0.0)), float(finite.max(initial=0.0))
            over = ~(E <= _HUGE)
            E[over] = 0.0
            bad = np.flatnonzero(over.any(axis=1)).tolist()
        slack = [_ROUNDING * (max(hi, -lo) + math.log(len(self.labels)) + self.m + 1)] * len(E)
        for row in bad:
            slack[row] = math.inf
        return E, slack

    def _grow(self, i):
        """Give each row opened since the last read its column, from table
        row i on, the buffers doubling their room if they are full."""
        k, end, m = self.filled, len(self.store.counts) - self.lo, self.m
        if end == k:
            return
        if end + m > self.buf.shape[1]:
            pad = ((0, 0), (0, 2 * (end + m) - self.buf.shape[1]))
            self.buf = np.pad(self.buf, pad)
            if self.ew is not None:
                self.ew, self.w = np.pad(self.ew, pad), np.empty(self.buf.shape[1])
        self.buf[:, end:end + m] = self.buf[:, k:k + m]  # the new-row columns stay last
        L = self._loglik(i, self.lo + k)
        self.buf[i:, k:end] = L
        if self.ew is not None:
            self.ew[i:, k:end], slack = self._exponentiate(i, L)
            self.slack[i:] = map(max, self.slack[i:], slack)
        self.filled = end

    def _read(self, i, j):
        """Table rows i to j - 1: each candidate row's column, in row
        order, then the new-row columns (a new array)."""
        self._grow(i)
        return self.buf[i:j, :self.filled + self.m].copy()

    def weights(self, n):
        """Item n's log weights under the store's counts: each candidate
        row's, in row order, then the new-row ones (a new array)."""
        i = self.pos[n]
        logw = self._read(i, i + 1)[0]
        with np.errstate(divide="ignore"):  # an emptied row weighs 0
            logw[:-self.m] += np.log(self.store.counts[self.lo:])
        return logw

    def uniform(self, n):
        """Item n's uniform for its pick."""
        return self.u[self.pos[n]]

    def move(self, n, key):
        """Take item n out of row ``key`` and put it in the row its uniform
        picks, by the store's detach and join; returns that row's id, or
        None when the pick is a new row, which the caller opens.  The pick is
        _certified's where the table is exponentiated and that vouches for
        one, else _pick's on the item's log weights; the two are the same."""
        i = self.pos[n]
        self.store.detach(key)
        pick = None if self.ew is None else self._certified(i)
        if pick is None:
            pick = _pick(self.weights(n), self.u[i])
        if pick == self.filled:
            return None
        return self.store.join(self.lo + pick)

    def _certified(self, i):
        """The index _pick would draw for table row i from its weights
        (``filled`` for the new row), read from the exponentiated weights;
        None where they cannot vouch for it.

        Their running sums, by row columns in row order, the new row last
        (an emptied row adds exactly 0, so the first sum past the target is
        never one), give an index.  It counts only when the total is at
        least _FLOOR and the target, u times the total, lies farther than
        tol = _ROUNDING * (L + n + 1) times the total from both of its
        neighbouring sums: n is the number of columns, the table's row
        columns and its new-row one, and L the table's largest finite |log
        weight| so far plus the log of the item count, which bounds every
        log count (``slack`` holds the part of tol that does not grow with
        the row columns).

        Why, with eps = 2**-52, taking numpy's exp and log within 2 ulps:
        both rules draw from the exact weights c_k e^l_k, l_k a column's log
        weight and c_k its count, up to a common factor.  _pick's exp
        argument l_k + log c_k - max is off by at most 3.5 eps L (the log,
        and roundings of a sum of size up to L and of a difference up to
        2L), so its weights are within a relative 3.5 eps L + 2 eps of
        exact; here l_k - top is off by eps L, and with exp and the product
        by c_k a weight is within eps L + 2.5 eps.  A running sum of n
        nonnegative terms is within (n - 1) eps / 2 of exact, relative to
        the total (Higham 1993, "The accuracy of floating point
        summation"), and u times the total adds eps / 2.  So a target
        farther than 9 eps (L + n + 1) times the total from both of its
        neighbouring sums here lies on the same side of each running sum in
        _pick, to first order in eps L; _ROUNDING is 32 eps, which leaves a
        factor 3.5 for the higher orders.  A weight that underflows is off
        by at most its count times 2**-1074 absolutely, under 2**-105 of a
        total of at least _FLOOR per item counted; _pick's largest weight
        is 1.  With 32 eps L near 1, tol passes the total and nothing
        counts."""
        self._grow(i)
        k = self.filled
        acc = np.multiply(self.ew[i, :k], self.store.counts[self.lo:], out=self.w[:k])
        np.add.accumulate(acc, out=acc)
        # Finite: no weight is past _HUGE, nor a count or n past 2**53.  The
        # item's own row is a column, so k >= 1.
        total = acc.item(-1) + self.new_w[i]
        if total >= _FLOOR:
            target = self.ul[i] * total
            j = int(acc.searchsorted(target, side="right"))
            below = acc.item(j - 1) if j else 0.0
            above = acc.item(j) if j < k else total
            tol = (self.slack[i] + _ROUNDING * k) * total
            if target - below > tol and above - target > tol:
                return j
        return None

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
        # log of 1) for the new-row columns.  An emptied row weighs 0, and
        # is no item's own.
        counts = np.concatenate([self.store.counts[self.lo:], np.ones(self.m)])
        with np.errstate(divide="ignore", invalid="ignore"):
            with_own = np.log(counts)
            counts[:len(ids)] -= 1.0
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
    aux_samples times its likelihood.

    Nothing they read changes during the pass: no center or type vector is
    written, no d changes (the d pass comes after), and alpha_p and both
    bases are fixed.  Under the conditional prior each read adds the tilt
    of the center a candidate would add, under the current centers.
    ``exponentiate`` is for m1/m2 only."""

    def __init__(self, state, items, exponentiate=False):
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
            new = math.log(state.alpha_p / m) + self.const[:, None] - 0.5 * (
                D * self.tvecs[k][:, None, :]
            ).sum(axis=2)
        super().__init__(state.pubs, state.first_candidate, items, new, state.c, state.rng,
                         exponentiate)

    def _read(self, i, j):
        logw = super()._read(i, j)
        if self.state.conditional:
            news = self.news[i:j].reshape(-1, self.state.F)
            tilt = self.state._center_tilt(news, self.store.moments())
            logw[:, -self.m:] += tilt.reshape(j - i, self.m)
        return logw

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
        super().__init__(state.types, 0, items, new, state.d, state.rng, exponentiate=False)

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
        self._table = None  # a _ClusterTable during the c pass, a _TypeTable during the d pass
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

        self.alpha_p = self.alpha_t = ALPHA_START
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

    def _center_tilt(self, cands, moments):
        """Log factor by which adding a center multiplies the product of the
        types' conditional priors, for each row of ``cands``, given the
        present centers' center_moments: the row's center_shares add to
        their pair sum K * scatter."""
        k, _, _, scatter = moments
        share = center_shares(cands, moments)
        base = self.type_base
        # Sums over each row rather than products, so that a row's bits do not
        # depend on how many rows are computed with it.
        lift = (np.log1p(share / (base.rate + k * scatter)) * base.shape).sum(axis=1)
        return len(self.types) * lift - (share * self.types.vecs.sum(axis=0)).sum(axis=1)

    def _resample_publications(self):
        """Exact conjugate draw of every center, all in one call.  Under the
        conditional type prior, with other centers present, each center
        instead takes one retained-candidate step in turn: its current value
        and CANDIDATE_COUNT - 1 conjugate draws, one picked by the tilt (the
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
        size = (CANDIDATE_COUNT - 1, self.F)
        for row in range(k):
            cands = np.vstack([pubs.vecs[row], self.rng.normal(mean[row], sd[row], size)])
            others = center_moments(np.delete(pubs.vecs, row, axis=0))
            sel = _pick(self._center_tilt(cands, others), self.rng.random())
            pubs.set(row, cands[sel])

    def _resample_type_rate(self):
        """m2's exact conjugate draw of the type base's rate b_f in each
        dimension f, given the types t_j: under the base Gamma(shape, rate
        b_f) and b_f ~ RATE_PRIOR, b_f | types ~ Gamma(RATE_PRIOR.shape +
        T * shape, RATE_PRIOR.rate + sum_j t_jf)."""
        base, types = self.type_base, self.types.vecs
        shape = RATE_PRIOR.shape + len(types) * base.shape
        b = self.rng.gamma(shape, 1.0 / (RATE_PRIOR.rate + types.sum(axis=0)))
        self._set_type_base(TypeBase(shape=base.shape, scale=1.0 / b))

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
        their log counts plus the pass table's log-likelihoods.  m1/m2 take
        the table's new-cluster weight, m3 its auxiliary candidates, of which
        a singleton's orphaned center takes the last one's place (Neal 2000,
        Algorithm 8)."""
        table = self._table
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
                logw[-1] += self._center_tilt(orphan[None], self.pubs.moments())[0]
        return cand, logw, news

    def sample_c(self, n):
        """Reassign test item n to an existing cluster or a fresh one, by the
        uniform the pass table holds for it.  m1/m2 go through the table's
        move: in a pass with no scan it picks from the weights exponentiated
        against the item's largest log weight, where the rounding bound of
        _PassTable._certified vouches for the index, and by _pick on the
        log weights elsewhere and in a pass that scans.  m3 picks by _pick
        of _c_candidates' weights."""
        table, pubs = self._table, self.pubs
        if self.variant != "m3":
            key = table.move(n, int(self.c[n]))
            if key is None:
                r, t = self.X[n], self.types[int(self.d[n])]
                pub = posterior_sample_publication(r[None, :], t[None, :], self.pub_base, self.rng)
                key = pubs.open(pub)
            self.c[n] = key
            return
        orphan = pubs.detach(int(self.c[n]))
        cand, logw, news = self._c_candidates(n, orphan)
        sel = _pick(logw, table.uniform(n))
        if sel < len(cand):
            self.c[n] = pubs.join(self.first_candidate + sel)
        else:
            self.c[n] = pubs.open(news[sel - len(cand)])

    def sample_d(self, n):
        """Reassign item n's reference type (training items included), by
        the table's move with the uniform it holds for the item."""
        key = self._table.move(n, int(self.d[n]))
        if key is None:
            r, p = self.X[n], self.pubs[int(self.c[n])]
            base, _ = self._type_prior()
            key = self.types.open(posterior_sample_type(r[None, :], p[None, :], base, self.rng))
        self.d[n] = key

    def _c_pass(self):
        """sample_c of every test item in turn, from a pass table for each
        block of items: TABLE_BLOCK, or as many more as keep the table
        within TABLE_CELLS cells, which bounds its memory at large K.
        m1/m2's tables exponentiate their weights when every item takes a
        single-item update (no scan); a scan leaves few, which _pick makes
        for less than the exponentiation costs."""
        test, moves = self.test_indices, 0
        fast = self.variant != "m3"
        window = _window(len(test), self.c_moves, EXP_SCAN_GAP if fast else SCAN_GAP)
        size = max(TABLE_BLOCK, TABLE_CELLS // len(self.pubs))
        exponentiate = fast and not window
        try:
            for i in range(0, len(test), size):
                self._table = _ClusterTable(self, test[i:i + size], exponentiate)
                moves += self._table.run(self.sample_c, window)
                self.pubs.compact()
        finally:
            self._table = None
            self.pubs.compact()
        self.c_moves = moves

    def _d_pass(self):
        """sample_d of every item in turn, from one pass table."""
        self._table = _TypeTable(self, np.arange(self.N))
        try:
            self.d_moves = self._table.run(self.sample_d, _window(self.N, self.d_moves))
        finally:
            self._table = None
            self.types.compact()

    # ------------------------------------------------------------------
    # sweeps and scoring

    def _resample_alphas(self):
        """Refresh alpha_p from the training pair (n_train, k_train) alone, a
        cut: the sampled test partition does not feed back into it, though
        joint_log_score rates it by the EPPF over all N items.  Refresh
        alpha_t from (N, T)."""
        n_tr, k_tr = self.train_pair
        self.alpha_p = sample_precision_single(self.alpha_p, n_tr, k_tr, ALPHA_PRIOR, self.rng)
        if not self.frozen_types:
            self.alpha_t = sample_precision_single(
                self.alpha_t, self.N, len(self.types), ALPHA_PRIOR, self.rng
            )

    def sweep(self):
        """One full iteration over parameters, indicators, and precisions."""
        if self.variant == "m2" and not self.frozen_types:
            self._resample_type_rate()
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
        row order by a running sum, as in _eppf.  m2 adds RATE_PRIOR's log
        density of the type base's rate, less its constant."""
        lp = self._eppf(self.alpha_p, self.pubs.counts)
        lp += self._eppf(self.alpha_t, self.types.counts)
        if self.variant == "m2":
            b = self.type_base.rate
            lp += float(((RATE_PRIOR.shape - 1.0) * np.log(b) - RATE_PRIOR.rate * b).sum())
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
        # The cached moments and prior, bit for bit those of the centers.
        pubs = self.pubs
        if pubs._moments is not None:
            assert _same_bits(pubs._moments, center_moments(pubs.vecs))
        if pubs._prior is not None:
            prior, terms = pubs._prior
            want = conditional_type_base(self.type_base, pairwise_sq_diff_sum(pubs.vecs))
            assert _same_bits((prior.shape, prior.scale, *terms),
                              (want.shape, want.scale, *new_type_terms(want)))

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
