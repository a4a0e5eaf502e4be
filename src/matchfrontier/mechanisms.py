"""Baseline matching mechanisms and the Birkhoff-von-Neumann decomposition.

Agents are addressed by side and index; in priority orders, workers are
0..n-1 and firms are n..n+m-1.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import networkx as nx
import numpy as np

from .prefs import BOTTOM, PreferenceProfile, format_profile

MARGINAL_TOL = 1e-9

# Markets of more than DEFAULT_RSD_CAP agents in all get Monte-Carlo RSD.
# rsd_exact's memoized count would handle 5x5 too, but moving those markets
# to exact RSD would change LiftedMechanism's outputs.
DEFAULT_RSD_CAP = 8


class InvalidMatchingError(ValueError):
    """A matching or marginal matrix violates its invariants."""


class EnumerationCapError(ValueError):
    """Exact RSD refused: the market has more agents than the cap."""


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

    def unmatched_workers(self) -> np.ndarray:
        """Derived margins g_{w,bottom} = 1 - row sums."""
        return 1.0 - self.r.sum(axis=1)

    def unmatched_firms(self) -> np.ndarray:
        return 1.0 - self.r.sum(axis=0)


def da(profile: PreferenceProfile, proposing: Proposing = Proposing.WORKERS
       ) -> DeterministicMatching:
    """Deferred acceptance.  Proposers iterate in ascending index order each
    round; rejection shrinks the proposer's remaining list, so termination
    is guaranteed.  Output is stable w.r.t. the reported profile."""
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


def _partner_lists(profile: PreferenceProfile) -> list:
    """Each agent's acceptable partners as agent ids, most preferred first."""
    n = profile.n
    return ([[n + f for f in o.acceptable()] for o in profile.workers]
            + [list(o.acceptable()) for o in profile.firms])


def _pick(partners: list, free: int):
    """The first of `partners` whose bit is set in the mask `free`, or None."""
    for b in partners:
        if free >> b & 1:
            return b
    return None


def _serial_pass(partners: list, priority, n: int) -> list:
    """Serial dictatorship over agent ids: each agent, in priority order,
    takes its first still unmatched partner.  Returns (worker, firm) pairs."""
    free = (1 << len(partners)) - 1  # bit a set while agent a is unmatched
    pairs = []
    for agent in priority:
        if not free >> agent & 1:
            continue
        b = _pick(partners[agent], free)
        if b is not None:
            free &= ~(1 << agent | 1 << b)
            pairs.append((agent, b - n) if agent < n else (b, agent - n))
    return pairs


def serial_dictatorship_round(profile: PreferenceProfile, priority
                              ) -> DeterministicMatching:
    """One serial-dictatorship pass: each agent, in priority order, takes its
    most preferred remaining acceptable partner (final once made)."""
    n, m = profile.n, profile.m
    if sorted(priority) != list(range(n + m)):
        raise ValueError("priority must be a permutation of all n+m agents")
    pairs = _serial_pass(_partner_lists(profile), [int(a) for a in priority], n)
    return DeterministicMatching(frozenset(pairs), n, m)


def rsd_exact(profile: PreferenceProfile) -> RandomizedMatching:
    """Exact RSD marginals: the share of the (n+m)! priority orders under
    which each pair forms.

    A pass depends only on the state (agents yet to act, agents unmatched):
    the next actor is any agent yet to act, and a matched agent's later turn
    is a no-op.  `orders` counts, for each pair, how many orders of the k
    agents yet to act form it, memoized per state within this call.  The
    counts are exact integers, so the one division by (n+m)! at the end
    gives the same bits as counting over every order."""
    n, m = profile.n, profile.m
    if n + m > DEFAULT_RSD_CAP:
        raise EnumerationCapError(
            f"exact RSD is limited to n+m <= {DEFAULT_RSD_CAP} agents (n+m={n + m});"
            " use rsd_monte_carlo")
    partners = _partner_lists(profile)
    fact = [math.factorial(k) for k in range(n + m + 1)]
    memo = {}

    def orders(todo: int, free: int) -> list:
        key = todo << (n + m) | free
        counts = memo.get(key)
        if counts is not None:
            return counts
        k = todo.bit_count()
        counts = [0] * (n * m)
        for a in range(n + m):  # a takes the first turn in (k-1)! orders
            if not todo >> a & 1:
                continue
            b = _pick(partners[a], free)
            if b is None:
                sub_todo, sub_free = todo & ~(1 << a), free
            else:
                gone = ~(1 << a | 1 << b)
                sub_todo, sub_free = todo & gone, free & gone
                w, f = (a, b - n) if a < n else (b, a - n)
                counts[w * m + f] += fact[k - 1]
            if sub_todo:
                # each order of sub_todo stands for this many orders of the
                # k-1 agents after a: b's turn, if still to come, is a no-op
                scale = fact[k - 1] // fact[sub_todo.bit_count()]
                for i, c in enumerate(orders(sub_todo, sub_free)):
                    if c:
                        counts[i] += scale * c
        memo[key] = counts
        return counts

    everyone = (1 << (n + m)) - 1
    counts = np.array(orders(everyone, everyone), dtype=np.float64)
    return RandomizedMatching(counts.reshape(n, m) / fact[n + m])


def rsd_monte_carlo(profile: PreferenceProfile, samples: int,
                    rng: np.random.Generator) -> RandomizedMatching:
    """Empirical RSD marginals over `samples` sampled priority orders.
    Estimates are clipped into [0, 1] per entry and never renormalized."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, m = profile.n, profile.m
    partners = _partner_lists(profile)
    counts = np.zeros((n, m), dtype=np.float64)
    for _ in range(samples):
        for w, f in _serial_pass(partners, rng.permutation(n + m).tolist(), n):
            counts[w, f] += 1.0
    return RandomizedMatching(np.clip(counts / samples, 0.0, 1.0))


@dataclass(frozen=True)
class BvnDecomposition:
    components: tuple  # of (weight, DeterministicMatching)

    def reconstruct(self) -> np.ndarray:
        n = self.components[0][1].n
        m = self.components[0][1].m
        acc = np.zeros((n, m))
        for weight, matching in self.components:
            acc += weight * matching.to_marginals().r
        return acc


def bvn_decompose(rm: RandomizedMatching) -> BvnDecomposition:
    """Decompose a weakly doubly stochastic marginal matrix into a convex
    combination of deterministic matchings.

    Classical Birkhoff extraction with per-agent slack: every worker is
    covered either by a positive pair or by its unmatched margin (and
    likewise for firms), so each step admits a perfect cover of the real
    agents on the positive support.  The residual after all pairs are
    exhausted becomes one empty-matching component.
    """
    rm.validate()
    n, m = rm.n, rm.m
    r = np.clip(rm.r.copy(), 0.0, 1.0)
    gw = np.clip(rm.unmatched_workers(), 0.0, 1.0)
    gf = np.clip(rm.unmatched_firms(), 0.0, 1.0)

    support_tol = 1e-12
    components = []
    total = 0.0
    while np.any(r > support_tol):
        # Edge weight = number of real agents the edge covers, so a
        # max-weight matching covers every worker and firm (a full
        # fractional cover exists, hence an integral one).
        graph = nx.Graph()
        graph.add_nodes_from([("w", w) for w in range(n)] + [("bw", w) for w in range(n)])
        graph.add_nodes_from([("f", f) for f in range(m)] + [("bf", f) for f in range(m)])
        for w in range(n):
            for f in range(m):
                if r[w, f] > support_tol:
                    graph.add_edge(("w", w), ("f", f), weight=2)
        for w in range(n):
            if gw[w] > support_tol or r[w].sum() <= support_tol:
                graph.add_edge(("w", w), ("bw", w), weight=1)
        for f in range(m):
            if gf[f] > support_tol or r[:, f].sum() <= support_tol:
                graph.add_edge(("bf", f), ("f", f), weight=1)
        matching = dict(nx.max_weight_matching(graph))
        matching.update({v: k for k, v in matching.items()})

        pairs = []
        slack_w, slack_f = [], []
        for w in range(n):
            mate = matching.get(("w", w))
            if mate is None:
                raise InvalidMatchingError("no perfect cover on positive support")
            if mate[0] == "f":
                pairs.append((w, mate[1]))
            else:
                slack_w.append(w)
        for f in range(m):
            mate = matching.get(("f", f))
            if mate is None:
                raise InvalidMatchingError("no perfect cover on positive support")
            if mate[0] == "bf":
                slack_f.append(f)

        used = [r[w, f] for w, f in pairs]
        used += [gw[w] for w in slack_w] + [gf[f] for f in slack_f]
        delta = min(used)
        if delta <= 0.0:
            raise InvalidMatchingError("degenerate extraction step")
        for w, f in pairs:
            r[w, f] -= delta
            if r[w, f] < support_tol:
                r[w, f] = 0.0
        for w in slack_w:
            gw[w] = max(gw[w] - delta, 0.0)
        for f in slack_f:
            gf[f] = max(gf[f] - delta, 0.0)
        components.append((delta, DeterministicMatching(frozenset(pairs), n, m)))
        total += delta

    if 1.0 - total > MARGINAL_TOL:
        components.append((1.0 - total, DeterministicMatching(frozenset(), n, m)))
    else:
        # absorb float dust so weights sum to exactly 1
        weight, matching = components[-1]
        components[-1] = (weight + (1.0 - total), matching)
    return BvnDecomposition(tuple(components))


class MechanismKind(Enum):
    WDA = "wda"
    FDA = "fda"
    RSD = "rsd"


class LiftedMechanism:
    """Uniform profile -> RandomizedMatching interface over the baselines."""

    def __init__(self, kind: MechanismKind, mc_samples: int = 200_000):
        self.kind = kind
        self.label = kind.value
        self.mc_samples = mc_samples

    def reads_prefixes_only(self, profile: PreferenceProfile) -> bool:
        """Whether `evaluate`'s outcome on this market depends on each
        order's acceptable prefix alone, so that two reports with the same
        prefix give bitwise-equal marginals.  True for DA, which reads
        `acceptable()` and ranks among acceptable partners, and for exact
        RSD, which reads `_partner_lists`.  False for Monte-Carlo RSD: its
        sampler is seeded from `format_profile`, which also spells out the
        order of unacceptable partners."""
        return self.kind is not MechanismKind.RSD or profile.n + profile.m <= DEFAULT_RSD_CAP

    def evaluate(self, profile: PreferenceProfile) -> RandomizedMatching:
        if self.kind is MechanismKind.WDA:
            return da(profile, Proposing.WORKERS).to_marginals()
        if self.kind is MechanismKind.FDA:
            return da(profile, Proposing.FIRMS).to_marginals()
        if self.reads_prefixes_only(profile):
            return rsd_exact(profile)
        # deterministic per profile: seed the sampler from the profile text
        digest = hashlib.sha256(format_profile(profile).encode()).digest()
        key = [int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little")]
        rng = np.random.Generator(np.random.Philox(key=key))
        return rsd_monte_carlo(profile, self.mc_samples, rng)


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
