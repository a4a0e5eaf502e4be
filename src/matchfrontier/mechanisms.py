"""Baseline matching mechanisms and the Birkhoff-von-Neumann decomposition.

Agents are addressed by side and index; in priority orders, workers are
0..n-1 and firms are n..n+m-1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .prefs import BOTTOM, EnumerationCapError, PreferenceProfile, profile_ranks

MARGINAL_TOL = 1e-9

# Exact RSD's largest market, n+m agents in all.  18! < 2**53, so every
# pair count and (n+m)! is an exact float64 integer, and the one division
# gives the correctly rounded share.  int64 would hold 20!, but the counts
# could then pass 2**53.
RSD_CAP = 18


class InvalidMatchingError(ValueError):
    """A matching or marginal matrix violates its invariants."""


class Proposing(Enum):
    WORKERS = "workers"
    FIRMS = "firms"


@dataclass(frozen=True)
class DeterministicMatching:
    pairs: frozenset  # of (worker index, firm index); unmatched agents implicit
    n: int
    m: int

    def __post_init__(self):
        ws = [w for w, _ in self.pairs]
        fs = [f for _, f in self.pairs]
        if len(set(ws)) != len(ws) or len(set(fs)) != len(fs):
            raise InvalidMatchingError("agent matched more than once")
        if any(not (0 <= w < self.n and 0 <= f < self.m) for w, f in self.pairs):
            raise InvalidMatchingError("pair index out of range")

    def worker_partner(self, w: int) -> int:
        """Matched firm index or BOTTOM."""
        for ww, f in self.pairs:
            if ww == w:
                return f
        return BOTTOM

    def firm_partner(self, f: int) -> int:
        for w, ff in self.pairs:
            if ff == f:
                return w
        return BOTTOM

    def to_marginals(self) -> "RandomizedMatching":
        r = np.zeros((self.n, self.m))
        for w, f in self.pairs:
            r[w, f] = 1.0
        return RandomizedMatching(r)


@dataclass(frozen=True)
class RandomizedMatching:
    """n x m marginal match probabilities; weakly doubly stochastic."""

    r: np.ndarray

    def validate(self) -> None:
        if self.r.ndim != 2:
            raise InvalidMatchingError("marginal matrix must be 2-D")
        if np.any(self.r < -MARGINAL_TOL) or np.any(self.r > 1 + MARGINAL_TOL):
            raise InvalidMatchingError("marginals outside [0, 1]")
        if np.any(self.r.sum(axis=1) > 1 + MARGINAL_TOL):
            raise InvalidMatchingError("worker row sum exceeds 1")
        if np.any(self.r.sum(axis=0) > 1 + MARGINAL_TOL):
            raise InvalidMatchingError("firm column sum exceeds 1")

    @property
    def n(self) -> int:
        return self.r.shape[0]

    @property
    def m(self) -> int:
        return self.r.shape[1]


def da_rows(ranks, proposing: Proposing = Proposing.WORKERS) -> np.ndarray:
    """Deferred acceptance on R rows at once, from the `profile_ranks` of R
    n x m profiles: held[r, c] is the proposer that receiver c of row r
    holds at the end, or -1.

    Each round, every proposer with an untried acceptable partner proposes
    to the best of them (a held proposer re-proposes to its holder); each
    receiver keeps the proposer it ranks best among those it accepts, and
    every other proposer moves on.  DA's outcome does not depend on the
    order of proposals (Gale & Shapley 1962), so this is the outcome of
    proposing one at a time."""
    rank_w, cut_w, rank_f, cut_f = ranks
    if proposing is Proposing.WORKERS:
        rank_p, cut_p, rank_r, cut_r = rank_w, cut_w, rank_f, cut_f
    else:
        rank_p, cut_p, rank_r, cut_r = rank_f, cut_f, rank_w, cut_w
    C, P = rank_p.shape[1], rank_r.shape[1]
    R = rank_p.shape[0] // P
    rejected = P + 1  # a receiver's score of a proposer it does not accept
    # choice[r*P + p, t]: proposer p's partner ranked t, or C once its
    # acceptable partners run out; receiver C rejects everyone
    choice = np.full((R * P, C + 1), C)
    choice[:, :C] = np.where(np.arange(C) < cut_p, rank_p.argsort(axis=1), C)
    # score[r, c, p]: receiver c's rank of proposer p
    score = np.full((R, C + 1, P), rejected)
    score[:, :C] = np.where(rank_r < cut_r, rank_r, rejected).reshape(R, C, P)
    choice, score = choice.ravel(), score.ravel()
    row, proposer = np.arange(R)[:, None], np.arange(P)
    choice_at = (row * P + proposer) * (C + 1)  # + tried
    score_at = row * (C + 1) * P + proposer     # + target * P
    receiver_at = row * (C + 1)                 # + target
    tried = np.zeros((R, P), dtype=np.int64)
    while True:
        target = choice[choice_at + tried]
        s = score[score_at + target * P]
        at = receiver_at + target
        best = np.full(R * (C + 1), rejected)
        np.minimum.at(best, at, s)
        kept = (s == best[at]) & (s < rejected)
        moves = (target < C) & ~kept
        if not moves.any():
            break
        tried += moves
    held = np.full((R, C + 1), -1, dtype=np.int64)
    r, p = np.nonzero(kept)
    held[r, target[r, p]] = p
    return held[:, :C]


def da_marginals(ranks, proposing: Proposing = Proposing.WORKERS) -> np.ndarray:
    """(R, n, m) 0/1 marginals of `da_rows` on R rows."""
    held = da_rows(ranks, proposing)
    n, m = ranks[2].shape[1], ranks[0].shape[1]
    r = np.zeros((held.shape[0], n, m))
    rows, receiver = np.nonzero(held >= 0)
    proposer = held[rows, receiver]
    if proposing is Proposing.WORKERS:
        r[rows, proposer, receiver] = 1.0
    else:
        r[rows, receiver, proposer] = 1.0
    return r


def da(profile: PreferenceProfile, proposing: Proposing = Proposing.WORKERS
       ) -> DeterministicMatching:
    """Deferred acceptance: a one-row `da_rows` call.  The output is stable
    w.r.t. the reported profile."""
    n, m = profile.n, profile.m
    r = da_marginals(profile_ranks([profile], n, m), proposing)[0]
    return DeterministicMatching(frozenset(map(tuple, np.argwhere(r).tolist())), n, m)


def rsd_exact_rows(ranks) -> np.ndarray:
    """Exact RSD marginals (R, n, m) of R rows at once, from the
    `profile_ranks` of R n x m profiles: the share of the (n+m)! priority
    orders under which each pair forms.

    A pass depends only on the state (agents yet to act, agents
    unmatched): the next actor is any agent yet to act, and a matched
    agent's later turn is a no-op.  A forward pass runs level by level,
    over the states of every row with k agents yet to act.  When agent a
    takes the first of the k turns ((k-1)! orders) and forms (a, b), the
    pair's count gains weight*(k-1)!; a and b both leave "to act", and the
    successor state gains weight*(k-1)!/|todo'|!, one order of its agents
    standing for that many orders of the k-1 agents after a.  Equal (row,
    todo, unmatched) states are merged after each level.  Weights and
    counts are int64 integers of at most RSD_CAP! < 2**53, so the one
    division by (n+m)! at the end gives the same bits as counting over
    every order."""
    rank_w, cut_w, rank_f, cut_f = ranks
    m, n = rank_w.shape[1], rank_f.shape[1]
    A = n + m
    if A > RSD_CAP:
        raise EnumerationCapError(
            f"exact RSD is limited to n+m <= {RSD_CAP} agents (n+m={A})")
    R = rank_w.shape[0] // n
    # partners[r, a, t]: agent id of agent a's partner ranked t; the slots
    # past its cut hold A, a stand-in for "nobody" that is always unmatched
    partners = np.full((R, A, max(n, m) + 1), A, dtype=np.int64)
    partners[:, :n, :m] = np.where(np.arange(m) < cut_w, rank_w.argsort(axis=1) + n,
                                   A).reshape(R, n, m)
    partners[:, n:, :n] = np.where(np.arange(n) < cut_f, rank_f.argsort(axis=1),
                                   A).reshape(R, m, n)
    pair, keep, popcount, factorial = _rsd_tables(n, m)
    agents, everyone = np.arange(A), (1 << A) - 1
    # one state per key, row << 2A+1 | todo << A+1 | 1 << A | free: bit A
    # marks the stand-in A as unmatched
    key = np.arange(R, dtype=np.int64) << 2 * A + 1 | everyone << A + 1 | 1 << A | everyone
    weight = np.ones(R, dtype=np.int64)
    counts = np.zeros((R, n * m + 1), dtype=np.int64)  # last column: no pair formed
    for k in range(A, 0, -1):
        todo = key >> A + 1 & everyone
        level = popcount[todo] == k
        rest_key, rest_weight = key[~level], weight[~level]
        key, todo, weight = key[level], todo[level], weight[level]
        state, a = np.nonzero(todo[:, None] >> agents & 1)  # each agent yet to act
        key, weight = key[state], weight[state] * factorial[k - 1]
        row = key >> 2 * A + 1
        lists = partners[row, a]
        open_ = key[:, None] >> lists & 1
        b = lists[np.arange(len(a)), open_.argmax(axis=1)]  # A when a takes nobody
        np.add.at(counts, (row, pair[a, b]), weight)
        key = key & keep[a, b]
        sub_todo = popcount[key >> A + 1 & everyone]
        weight //= factorial[sub_todo]
        live = sub_todo > 0
        key = np.concatenate([rest_key, key[live]])
        weight = np.concatenate([rest_weight, weight[live]])
        if not key.size:
            break
        order = key.argsort()
        key, weight = key[order], weight[order]
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        key, weight = key[starts], np.add.reduceat(weight, starts)
    return counts[:, :-1].reshape(R, n, m) / factorial[A]


@functools.cache
def _rsd_tables(n: int, m: int):
    """Tables over (actor a, pick b), b = n+m for no pick: the column
    w*m + f of the pair formed (n*m for none), and the mask that keeps the
    key bits that a's move leaves in place: a leaves "to act", and a pair
    leaves both "to act" and "unmatched".  Then the bits set in each mask
    of the n+m agents, and k! for k = 0..n+m."""
    A = n + m
    a, b = np.arange(A)[:, None], np.arange(A + 1)
    pair = np.where(b < A, np.minimum(a, b) * m + np.maximum(a, b) - n, n * m)
    matched = np.where(b < A, 1 << a | 1 << b, 0)
    keep = ~((1 << a | matched) << A + 1 | matched)
    popcount = np.zeros(1 << A, dtype=np.int64)
    for bit in range(A):
        popcount[1 << bit:2 << bit] = popcount[:1 << bit] + 1
    factorial = np.array([math.factorial(k) for k in range(A + 1)])
    tables = pair, keep, popcount, factorial
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def rsd_exact(profile: PreferenceProfile) -> RandomizedMatching:
    """Exact RSD marginals: the share of the (n+m)! priority orders under
    which each pair forms.  A one-row `rsd_exact_rows` call: it counts the
    orders level by level over the states (agents yet to act, agents
    unmatched) in int64 and divides once by (n+m)!, so the result is
    bitwise equal to enumerating every order.  Markets of more than
    RSD_CAP agents raise EnumerationCapError."""
    return RandomizedMatching(
        rsd_exact_rows(profile_ranks([profile], profile.n, profile.m))[0])


@dataclass(frozen=True)
class BvnDecomposition:
    components: tuple  # of (weight, DeterministicMatching)

    def reconstruct(self) -> np.ndarray:
        return sum(weight * matching.to_marginals().r for weight, matching in self.components)


def bvn_decompose(rm: RandomizedMatching) -> BvnDecomposition:
    """Decompose a weakly doubly stochastic marginal matrix into a convex
    combination of deterministic matchings.

    Classical Birkhoff extraction on the residual's doubly stochastic
    extension [[r, diag gw], [diag gf, r^T]]: rows are the workers, then
    the firms' unmatched slots; columns the firms, then the workers'
    unmatched slots; the r^T block carries no mass (inf).  Each step takes
    a perfect matching of its support by augmenting paths, at the least
    mass among the used pairs and slots, which zeroes one of the
    nm + n + m entries.  What is left when the pairs run out becomes one
    empty-matching component.
    """
    rm.validate()
    n, m = rm.n, rm.m
    support_tol = 1e-12
    gw = np.clip(1.0 - rm.r.sum(axis=1), 0.0, 1.0)  # unmatched margins
    gf = np.clip(1.0 - rm.r.sum(axis=0), 0.0, 1.0)
    mass = np.block([[np.clip(rm.r, 0.0, 1.0), np.diag(gw)],
                     [np.diag(gf), np.full((m, n), np.inf)]])
    r = mass[:n, :m]  # a view

    components = []
    total = 0.0
    while np.any(r > support_tol):
        live = mass > support_tol
        # an agent with no pair left may stand on its exhausted slot
        live[:n, m:] |= np.diag(~live[:n, :m].any(axis=1))
        live[n:, :m] |= np.diag(~live[:n, :m].any(axis=0))
        rows = _perfect_matching([[c for c, on in enumerate(row) if on] for row in live.tolist()])
        used = (rows, np.arange(n + m))
        delta = mass[used].min()  # finite: each firm column holds a pair or a slot
        if delta <= 0.0:
            raise InvalidMatchingError("degenerate extraction step")
        mass[used] = np.maximum(mass[used] - delta, 0.0)
        r[r < support_tol] = 0.0
        pairs = [(rows[f], f) for f in range(m) if rows[f] < n]
        components.append((delta, DeterministicMatching(frozenset(pairs), n, m)))
        total += delta

    if 1.0 - total > MARGINAL_TOL:
        components.append((1.0 - total, DeterministicMatching(frozenset(), n, m)))
    else:
        # absorb float dust so weights sum to exactly 1
        weight, matching = components[-1]
        components[-1] = (weight + (1.0 - total), matching)
    return BvnDecomposition(tuple(components))


def _perfect_matching(adj) -> list:
    """Kuhn's augmenting paths: rows[c] is the row matched to column c in
    a perfect matching of the square bipartite graph whose row u links to
    the columns adj[u].  The recursion is at most len(adj) deep."""
    rows = [-1] * len(adj)

    def augment(u, seen):
        for c in adj[u]:
            if c not in seen:
                seen.add(c)
                if rows[c] < 0 or augment(rows[c], seen):
                    rows[c] = u
                    return True
        return False

    for u in range(len(adj)):
        if not augment(u, set()):
            raise InvalidMatchingError("no perfect cover on positive support")
    return rows


class MechanismKind(Enum):
    WDA = "wda"
    FDA = "fda"
    RSD = "rsd"


class LiftedMechanism:
    """Uniform profile -> RandomizedMatching interface over the baselines."""

    # the DA and exact-RSD kernels read each order's partners up to its cut
    # only, so two reports with the same acceptable prefix give
    # bitwise-equal marginals
    reads_prefixes_only = True

    def __init__(self, kind: MechanismKind):
        self.kind = kind
        self.label = kind.value

    def evaluate(self, profile: PreferenceProfile) -> RandomizedMatching:
        if self.kind is MechanismKind.WDA:
            return da(profile, Proposing.WORKERS).to_marginals()
        if self.kind is MechanismKind.FDA:
            return da(profile, Proposing.FIRMS).to_marginals()
        return rsd_exact(profile)

    def evaluate_many(self, profiles) -> list:
        """`evaluate` of profiles of one market shape, as one kernel call."""
        if not profiles:
            return []
        ranks = profile_ranks(profiles, profiles[0].n, profiles[0].m)
        if self.kind is MechanismKind.RSD:
            r = rsd_exact_rows(ranks)
        else:
            proposing = Proposing.WORKERS if self.kind is MechanismKind.WDA \
                else Proposing.FIRMS
            r = da_marginals(ranks, proposing)
        return [RandomizedMatching(x) for x in r]


# ---------------------------------------------------------------------------
# Matching sidecar format: one line per profile, pairs as w<i>:f<j> tokens
# separated by spaces, w<i>:_ for an unmatched worker.

def format_matching(matching: DeterministicMatching) -> str:
    tokens = []
    for w in range(matching.n):
        f = matching.worker_partner(w)
        tokens.append(f"w{w + 1}:_" if f == BOTTOM else f"w{w + 1}:f{f + 1}")
    return " ".join(tokens)


def parse_matching(line: str, n: int, m: int) -> DeterministicMatching:
    pairs = []
    for token in line.split():
        left, _, right = token.partition(":")
        w = int(left[1:]) - 1
        if right != "_":
            pairs.append((w, int(right[1:]) - 1))
    return DeterministicMatching(frozenset(pairs), n, m)
