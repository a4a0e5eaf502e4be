"""Brute-force ground truth: matching enumeration, blocking pairs, stable
sets, deferred acceptance one proposal round at a time, RSD by enumerating
priority orders, and black-box FOSD auditing.

Everything here is written in deliberately plain nested-loop style and
shares no arithmetic with the metrics module, so the two can check each
other.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .prefs import (BOTTOM, AgentId, PreferenceProfile, Side,
                    enumerate_misreports)
from .mechanisms import DeterministicMatching, Proposing, RandomizedMatching

MAX_ENUM_SIDE = 5


class BlockingKind(Enum):
    MUTUAL_ENVY = "mutual_envy"
    WORKER_IR_VIOLATION = "worker_ir_violation"
    FIRM_IR_VIOLATION = "firm_ir_violation"


@dataclass(frozen=True)
class BlockingPair:
    worker: int
    firm: int
    kind: BlockingKind


def enumerate_matchings(n: int, m: int) -> list:
    """Every matching, including partial and empty ones."""
    if n > MAX_ENUM_SIDE or m > MAX_ENUM_SIDE:
        raise ValueError(f"market {n}x{m} exceeds enumeration cap {MAX_ENUM_SIDE}")
    matchings = []
    for k in range(min(n, m) + 1):
        for ws in itertools.combinations(range(n), k):
            for fs in itertools.permutations(range(m), k):
                matchings.append(DeterministicMatching(frozenset(zip(ws, fs)), n, m))
    return matchings


def find_blocking_pairs(matching: DeterministicMatching,
                        profile: PreferenceProfile) -> list:
    """All blocking pairs plus IR violations; empty iff the matching is
    stable and individually rational."""
    found = []
    for w in range(profile.n):
        for f in range(profile.m):
            partner_f = matching.worker_partner(w)
            partner_w = matching.firm_partner(f)
            if partner_f == f:
                # matched pair: IR check on both ends
                if profile.workers[w].prefers(BOTTOM, f):
                    found.append(BlockingPair(w, f, BlockingKind.WORKER_IR_VIOLATION))
                if profile.firms[f].prefers(BOTTOM, w):
                    found.append(BlockingPair(w, f, BlockingKind.FIRM_IR_VIOLATION))
                continue
            # prefers() handles the unmatched case: partner BOTTOM means
            # "wants f" reduces to acceptability
            w_wants = profile.workers[w].prefers(f, partner_f)
            f_wants = profile.firms[f].prefers(w, partner_w)
            if w_wants and f_wants:
                found.append(BlockingPair(w, f, BlockingKind.MUTUAL_ENVY))
    return found


def exhaustive_stable_set(profile: PreferenceProfile) -> list:
    """All stable, individually rational matchings."""
    return [mu for mu in enumerate_matchings(profile.n, profile.m)
            if not find_blocking_pairs(mu, profile)]


def da_by_rounds(profile: PreferenceProfile, proposing: Proposing = Proposing.WORKERS
                 ) -> DeterministicMatching:
    """Deferred acceptance with Python lists.  Each round the free
    proposers, in ascending index order, propose to the first partner left
    on their lists; each receiver keeps the best acceptable candidate and
    strikes itself from every other candidate's list."""
    if proposing is Proposing.WORKERS:
        prop_orders, recv_orders = profile.workers, profile.firms
    else:
        prop_orders, recv_orders = profile.firms, profile.workers
    np_, nr = len(prop_orders), len(recv_orders)

    remaining = [list(o.acceptable()) for o in prop_orders]
    # receiver -> {acceptable proposer: rank}; only the acceptable prefix counts
    rank = [{c: i for i, c in enumerate(o.acceptable())} for o in recv_orders]
    held = [None] * nr  # receiver -> tentatively accepted proposer
    free = list(range(np_))
    while True:
        proposals = {}  # receiver -> list of proposers this round
        for p in free:
            if remaining[p]:
                proposals.setdefault(remaining[p][0], []).append(p)
        if not proposals:
            break
        for recv, props in sorted(proposals.items()):
            candidates = props + ([held[recv]] if held[recv] is not None else [])
            acceptable = [c for c in candidates if c in rank[recv]]
            best = min(acceptable, key=rank[recv].__getitem__) if acceptable else None
            for c in candidates:
                if c != best:
                    remaining[c].remove(recv)
            held[recv] = best
        free = [p for p in range(np_) if p not in held]
        if not free:
            break

    if proposing is Proposing.WORKERS:
        pairs = frozenset((w, f) for f, w in enumerate(held) if w is not None)
    else:
        pairs = frozenset((w, f) for w, f in enumerate(held) if f is not None)
    return DeterministicMatching(pairs, profile.n, profile.m)


def rsd_by_enumeration(profile: PreferenceProfile) -> RandomizedMatching:
    """RSD marginals by running serial dictatorship under every one of the
    (n+m)! priority orders (workers 0..n-1, firms n..n+m-1) and averaging."""
    n, m = profile.n, profile.m
    w_pref = [list(o.acceptable()) for o in profile.workers]
    f_pref = [list(o.acceptable()) for o in profile.firms]
    counts = np.zeros((n, m), dtype=np.float64)
    for priority in itertools.permutations(range(n + m)):
        matched_w = [False] * n
        matched_f = [False] * m
        for agent in priority:
            if agent < n:
                if matched_w[agent]:
                    continue
                for f in w_pref[agent]:
                    if not matched_f[f]:
                        counts[agent, f] += 1.0
                        matched_w[agent] = True
                        matched_f[f] = True
                        break
            else:
                f = agent - n
                if matched_f[f]:
                    continue
                for w in f_pref[f]:
                    if not matched_w[w]:
                        counts[w, f] += 1.0
                        matched_w[w] = True
                        matched_f[f] = True
                        break
    return RandomizedMatching(counts / math.factorial(n + m))


def _cumulative(r, side: Side, index: int, true_order, threshold: int) -> float:
    """Probability mass on partners the true order ranks weakly above the
    threshold (threshold included)."""
    total = 0.0
    if side is Side.WORKER:
        for f in range(r.shape[1]):
            if f == threshold or true_order.prefers(f, threshold):
                total += r[index, f]
    else:
        for w in range(r.shape[0]):
            if w == threshold or true_order.prefers(w, threshold):
                total += r[w, index]
    return total


def fosd_audit(mech, profile: PreferenceProfile) -> dict:
    """Per-agent worst-case FOSD gain over all misreports and acceptable
    thresholds.  Zero everywhere iff no enumerated misreport first-order
    stochastically defeats truth on this profile."""
    gains = {}
    r_truth = mech.evaluate(profile).r
    for agent in profile.agents():
        true_order = profile.order_of(agent)
        size = profile.m if agent.side is Side.WORKER else profile.n
        best = 0.0
        thresholds = list(true_order.acceptable())
        if thresholds:
            for misreport in enumerate_misreports(agent.side, size):
                r_mis = mech.evaluate(profile.with_order(agent, misreport)).r
                for threshold in thresholds:
                    gain = (_cumulative(r_mis, agent.side, agent.index, true_order, threshold)
                            - _cumulative(r_truth, agent.side, agent.index, true_order, threshold))
                    if gain > best:
                        best = gain
        gains[agent] = best
    return gains
