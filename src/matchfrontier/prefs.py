"""Preference orders, profiles, the evenly-spaced utility encoding, and
sampling distributions for two-sided matching markets.

Workers rank firms, firms rank workers, and every order also ranks the
"stay unmatched" option (``BOTTOM``).  Agents listed after BOTTOM are
unacceptable.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Sentinel for the unmatched option inside a ranking.  Real partners are
# non-negative indices into the opposite side.
BOTTOM = -1

# Factorial cap for misreport enumeration: (size+1)! orders, refuse above this.
ENUM_CAP = 6


class Side(Enum):
    WORKER = "worker"
    FIRM = "firm"


@dataclass(frozen=True)
class AgentId:
    side: Side
    index: int


def require_at_least(config, least: int, *fields) -> None:
    """Raise a ValueError naming the first of `config`'s fields below `least`."""
    for field in fields:
        if getattr(config, field) < least:
            raise ValueError(f"{field} must be at least {least}, got {getattr(config, field)}")


class EnumerationCapError(ValueError):
    """An enumeration refused: misreport orders or exact RSD's priority
    orders would exceed their cap."""


@dataclass(frozen=True)
class PreferenceOrder:
    """Strict ranking over opposite-side indices plus BOTTOM, best first."""

    ranking: tuple

    def __post_init__(self):
        if BOTTOM not in self.ranking:
            raise ValueError("ranking must include BOTTOM")
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError("ranking contains duplicates")

    @property
    def size(self) -> int:
        """Number of real partners ranked (length minus the BOTTOM slot)."""
        return len(self.ranking) - 1

    def validate(self, size: int) -> None:
        if self.size != size:
            raise ValueError(f"order ranks {self.size} partners, expected {size}")
        if set(self.ranking) != set(range(size)) | {BOTTOM}:
            raise ValueError("ranking is not a permutation of partners + BOTTOM")

    def rank_of(self, x: int) -> int:
        return self.ranking.index(x)

    def prefers(self, a: int, b: int) -> bool:
        """True iff a is strictly preferred to b (BOTTOM allowed for either)."""
        return self.rank_of(a) < self.rank_of(b)

    def is_acceptable(self, j: int) -> bool:
        return self.rank_of(j) < self.rank_of(BOTTOM)

    def acceptable(self) -> tuple:
        """Acceptable partners, best first."""
        cut = self.rank_of(BOTTOM)
        return self.ranking[:cut]

    def unacceptable(self) -> tuple:
        cut = self.rank_of(BOTTOM)
        return self.ranking[cut + 1:]


@dataclass(frozen=True)
class PreferenceProfile:
    workers: tuple  # n PreferenceOrder over firms
    firms: tuple    # m PreferenceOrder over workers

    @property
    def n(self) -> int:
        return len(self.workers)

    @property
    def m(self) -> int:
        return len(self.firms)

    def validate(self) -> None:
        for order in self.workers:
            order.validate(self.m)
        for order in self.firms:
            order.validate(self.n)

    def order_of(self, agent: AgentId) -> PreferenceOrder:
        if agent.side is Side.WORKER:
            return self.workers[agent.index]
        return self.firms[agent.index]

    def with_order(self, agent: AgentId, order: PreferenceOrder) -> "PreferenceProfile":
        """Copy of the profile with one agent's order replaced."""
        if agent.side is Side.WORKER:
            workers = self.workers[:agent.index] + (order,) + self.workers[agent.index + 1:]
            return PreferenceProfile(workers, self.firms)
        firms = self.firms[:agent.index] + (order,) + self.firms[agent.index + 1:]
        return PreferenceProfile(self.workers, firms)

    def agents(self):
        """All agents, workers first."""
        for w in range(self.n):
            yield AgentId(Side.WORKER, w)
        for f in range(self.m):
            yield AgentId(Side.FIRM, f)


@dataclass(frozen=True)
class EncodedProfile:
    """Evenly-spaced utility matrices: p is worker-side, q is firm-side.

    p[w, j] is worker w's encoded utility for firm j (in units of 1/m);
    q[i, f] is firm f's encoded utility for worker i (in units of 1/n).
    Positive entries are acceptable partners; the utility of staying
    unmatched is the implicit zero.
    """

    p: np.ndarray  # (n, m)
    q: np.ndarray  # (n, m)


def rank_arrays(orders, size: int):
    """The one profile encoder's pass over the orders: rank[i, x] is
    partner x's position in order i (BOTTOM counted), cut[i, 0] the
    position of BOTTOM.  Every order must rank `size` partners."""
    try:
        rankings = np.array([order.ranking for order in orders],
                            dtype=np.int64).reshape(len(orders), size + 1)
    except ValueError:
        for order in orders:
            order.validate(size)  # names both sizes
        raise
    position = rankings.argsort(axis=1)  # position[i, x + 1] of value x
    rankings.sort(axis=1)
    if (rankings != np.arange(BOTTOM, size)).any():
        raise ValueError("ranking is not a permutation of partners + BOTTOM")
    return position[:, 1:], position[:, :1]


def encode_ranks(rank, cut, size: int) -> np.ndarray:
    """Encoded utility rows from rank arrays.  The partner at position t
    among the `size` real partners (best first) gets (size - t - u)/size if
    acceptable and (size - 1 - t - u)/size otherwise, where u counts
    unacceptable partners (the indicator-sum definition); both equal
    (cut - rank)/size."""
    return (cut - rank) / size


def profile_ranks(profiles, n: int, m: int):
    """The rank arrays of n x m profiles: of the workers' orders, (B*n, m)
    and (B*n, 1), then of the firms' orders, (B*m, n) and (B*m, 1)."""
    rank_w, cut_w = rank_arrays([o for p in profiles for o in p.workers], m)
    rank_f, cut_f = rank_arrays([o for p in profiles for o in p.firms], n)
    return rank_w, cut_w, rank_f, cut_f


def encode_arrays(profiles, n: int, m: int):
    """Encodings P and Q, both (B, n, m), of n x m profiles, and the
    `profile_ranks` they come from."""
    B = len(profiles)
    rank_w, cut_w, rank_f, cut_f = profile_ranks(profiles, n, m)
    P = encode_ranks(rank_w, cut_w, m).reshape(B, n, m)
    Q = encode_ranks(rank_f, cut_f, n).reshape(B, m, n).transpose(0, 2, 1)
    return P, np.ascontiguousarray(Q), (rank_w, cut_w, rank_f, cut_f)


def encode(profile: PreferenceProfile) -> EncodedProfile:
    P, Q, _ = encode_arrays([profile], profile.n, profile.m)
    return EncodedProfile(p=P[0], q=Q[0])


def enumerate_misreports(side: Side, size: int) -> list:
    """All (size+1)! strict orders over the opposite side plus BOTTOM, in
    deterministic lexicographic order (partners ascending, BOTTOM last in
    the base sequence)."""
    if size + 1 > ENUM_CAP:
        raise EnumerationCapError(
            f"enumerating {math.factorial(size + 1)} orders exceeds cap {ENUM_CAP}!"
            f" (size+1={size + 1})")
    base = list(range(size)) + [BOTTOM]
    return [PreferenceOrder(perm) for perm in itertools.permutations(base)]


class DistributionKind(Enum):
    UNCORRELATED = "uncorrelated"
    CORRELATED = "correlated"


@dataclass(frozen=True)
class DistributionConfig:
    kind: DistributionKind
    n: int
    m: int
    p_corr: float = 0.0
    p_trunc: float = 0.2
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 1, "n", "m")
        if self.kind is DistributionKind.UNCORRELATED and self.p_corr != 0.0:
            raise ValueError("p_corr must be 0 for uncorrelated preferences")
        if not (0.0 <= self.p_corr <= 1.0 and 0.0 <= self.p_trunc <= 1.0):
            raise ValueError("p_corr and p_trunc must lie in [0, 1]")


def philox(seed: int, word: int) -> np.random.Generator:
    """A Philox generator keyed on the two u64 words (seed, word)."""
    # uint64: as a plain list, a seed of 2**63 or more passes through float64
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def profile_stream(seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one profile index.

    Philox keyed on (seed, lane:index) so profiles can be generated in any
    order, or in parallel, with bitwise-reproducible results.
    """
    return philox(seed, ((lane & 0xFFFF) << 48) | (index & 0xFFFFFFFFFFFF))


def sample_order(size: int, p_trunc: float, rng: np.random.Generator) -> PreferenceOrder:
    """Uniform permutation of the opposite side with BOTTOM last; with
    probability p_trunc, BOTTOM moves to a uniform position that leaves at
    least one partner unacceptable (relative order preserved)."""
    perm = [int(x) for x in rng.permutation(size)]
    if p_trunc > 0.0 and rng.random() < p_trunc:
        cut = int(rng.integers(0, size))  # number of partners kept acceptable
        ranking = perm[:cut] + [BOTTOM] + perm[cut:]
    else:
        ranking = perm + [BOTTOM]
    return PreferenceOrder(tuple(ranking))


def sample_profile(cfg: DistributionConfig, rng: np.random.Generator) -> PreferenceProfile:
    """Draw one profile.  Draw order is fixed: worker orders, firm orders,
    then (correlated case) the two common orders and one replacement coin
    per agent, workers first."""
    workers = [sample_order(cfg.m, cfg.p_trunc, rng) for _ in range(cfg.n)]
    firms = [sample_order(cfg.n, cfg.p_trunc, rng) for _ in range(cfg.m)]
    if cfg.kind is DistributionKind.CORRELATED:
        common_w = sample_order(cfg.m, cfg.p_trunc, rng)
        common_f = sample_order(cfg.n, cfg.p_trunc, rng)
        workers = [common_w if rng.random() < cfg.p_corr else o for o in workers]
        firms = [common_f if rng.random() < cfg.p_corr else o for o in firms]
    return PreferenceProfile(tuple(workers), tuple(firms))


def sample_profiles(cfg: DistributionConfig, count: int, lane: int = 0) -> list:
    """`count` profiles on independent streams 0..count-1."""
    return [sample_profile(cfg, profile_stream(cfg.seed, i, lane)) for i in range(count)]


# ---------------------------------------------------------------------------
# Profile text format: one profile per line, agents separated by ';', sides
# separated by '|', entries as f<j>/w<i> tokens (1-based) with '_' for BOTTOM.
# Example 2x2 line:  f1,f2,_;f2,_,f1|w1,w2,_;w2,w1,_

def _format_order(order: PreferenceOrder, prefix: str) -> str:
    return ",".join("_" if x == BOTTOM else f"{prefix}{x + 1}" for x in order.ranking)


def format_profile(profile: PreferenceProfile) -> str:
    left = ";".join(_format_order(o, "f") for o in profile.workers)
    right = ";".join(_format_order(o, "w") for o in profile.firms)
    return f"{left}|{right}"


def _parse_order(text: str, prefix: str) -> PreferenceOrder:
    entries = []
    for token in text.split(","):
        token = token.strip()
        index = token[len(prefix):] if token.startswith(prefix) else ""
        if token == "_":
            entries.append(BOTTOM)
        elif index.isdecimal() and int(index) >= 1:
            entries.append(int(index) - 1)
        else:
            raise ValueError(f"bad token {token!r}, expected {prefix}<k> (k from 1) or _")
    return PreferenceOrder(tuple(entries))


def parse_profile(line: str) -> PreferenceProfile:
    left, sep, right = line.partition("|")
    if not sep:
        raise ValueError("profile line missing '|' side separator")
    workers = tuple(_parse_order(t, "f") for t in left.split(";"))
    firms = tuple(_parse_order(t, "w") for t in right.split(";"))
    profile = PreferenceProfile(workers, firms)
    profile.validate()
    return profile


def write_profiles(path, profiles, header: str = "") -> None:
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for profile in profiles:
            fh.write(format_profile(profile) + "\n")


def read_profiles(path) -> list:
    """The profiles of a profile file; a malformed line raises a ValueError
    prefixed with `path:lineno:`."""
    profiles = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                profiles.append(parse_profile(line))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
    return profiles
