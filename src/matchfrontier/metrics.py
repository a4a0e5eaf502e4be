"""Quantitative evaluation of randomized matchings and mechanisms:
stability violation, IR violation, FOSD regret, welfare, similarity to
deferred acceptance, and normalized entropy."""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .prefs import (EncodedProfile, PreferenceProfile, Side, encode_many,
                    enumerate_misreports, profile_ranks)
from .mechanisms import LiftedMechanism, Proposing, RandomizedMatching, da, da_many
from .net import NetworkMechanism


@dataclass(frozen=True)
class EvalReport:
    stv: float
    rgt: float
    irv: float
    welfare_per_agent: float
    sim: float
    entropy: float
    profiles_evaluated: int


def _check_dims(r: RandomizedMatching, enc: EncodedProfile) -> None:
    if r.r.shape != enc.p.shape:
        raise ValueError(f"marginal shape {r.r.shape} != encoding shape {enc.p.shape}")


def stv_pair(r: RandomizedMatching, enc: EncodedProfile, w: int, f: int) -> float:
    """Stability violation of one (worker, firm) pair: the product of the
    firm-side and worker-side envy masses."""
    _check_dims(r, enc)
    g_bot_f = 1.0 - r.r[:, f].sum()
    g_w_bot = 1.0 - r.r[w, :].sum()
    firm_side = (r.r[:, f] * np.maximum(enc.q[w, f] - enc.q[:, f], 0.0)).sum() \
        + g_bot_f * max(enc.q[w, f], 0.0)
    worker_side = (r.r[w, :] * np.maximum(enc.p[w, f] - enc.p[w, :], 0.0)).sum() \
        + g_w_bot * max(enc.p[w, f], 0.0)
    return firm_side * worker_side


def stv_batch(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-profile average stability violation, 1/2 (1/m + 1/n) times the
    sum of stv_pair over all pairs, for marginals r and encodings p, q,
    all (B, n, m)."""
    n, m = p.shape[1:]
    g_bot_f = 1.0 - r.sum(axis=1)             # (B, m)
    g_w_bot = 1.0 - r.sum(axis=2)             # (B, n)
    # firm_side[w, f] = sum_w' r[w', f] * max(q[w, f] - q[w', f], 0) + g_bot_f[f] * max(q[w, f], 0)
    dq = np.maximum(q[:, :, None, :] - q[:, None, :, :], 0.0)    # (B, w, w', f)
    firm_side = np.einsum("baf,bwaf->bwf", r, dq) + g_bot_f[:, None, :] * np.maximum(q, 0.0)
    dp = np.maximum(p[:, :, :, None] - p[:, :, None, :], 0.0)    # (B, w, f, f')
    worker_side = np.einsum("bwg,bwfg->bwf", r, dp) + g_w_bot[:, :, None] * np.maximum(p, 0.0)
    return 0.5 * (1.0 / m + 1.0 / n) * (firm_side * worker_side).sum(axis=(1, 2))


def stv_profile(r: RandomizedMatching, enc: EncodedProfile) -> float:
    """Average stability violation of one profile."""
    _check_dims(r, enc)
    return float(stv_batch(r.r[None], enc.p[None], enc.q[None])[0])


def irv_batch(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-profile individual-rationality violation: probability mass on
    unacceptable partners, weighted by how deep below the unmatched option
    they sit, for marginals r and encodings p, q, all (B, n, m)."""
    n, m = p.shape[1:]
    return ((r * np.maximum(-q, 0.0)).sum(axis=(1, 2)) / (2 * m)
            + (r * np.maximum(-p, 0.0)).sum(axis=(1, 2)) / (2 * n))


def irv_profile(r: RandomizedMatching, enc: EncodedProfile) -> float:
    """Individual-rationality violation of one profile."""
    _check_dims(r, enc)
    return float(irv_batch(r.r[None], enc.p[None], enc.q[None])[0])


def threshold_sets(rank_w, cut_w, rank_f, cut_f, n: int, m: int):
    """Prefix-set indicators ind (B, n+m, TH, n, m) and their validity
    (B, n+m, TH), TH = max(n, m), agents workers first, from the
    `profile_ranks` of B profiles.  Slot t of an agent is valid below its
    cut: its threshold is the partner ranked t, and its prefix set every
    partner ranked at or above t."""
    B, A, TH = rank_w.shape[0] // n, n + m, max(n, m)
    rank_w, cut_w = rank_w.reshape(B, n, m), cut_w.reshape(B, n, 1)
    rank_f, cut_f = rank_f.reshape(B, m, n), cut_f.reshape(B, m, 1)
    slots = np.arange(TH)
    valid_w = slots < cut_w                          # (B, n, TH)
    valid_f = slots < cut_f                          # (B, m, TH)
    ind_w = (rank_w[:, :, None, :] <= slots[:, None]) & valid_w[..., None]
    ind_f = (rank_f[:, :, None, :] <= slots[:, None]) & valid_f[..., None]
    ind = np.zeros((B, A, TH, n, m))
    workers, firms = np.arange(n), np.arange(m)
    # the two advanced indices are split by a slice, so their axis leads
    ind[:, workers, :, workers, :] = ind_w.transpose(1, 0, 2, 3)
    ind[:, n + firms, :, :, firms] = ind_f.transpose(1, 0, 2, 3)
    return ind, np.concatenate([valid_w, valid_f], axis=1)


def cumulative_prob(r, ind):
    """Mass that K reports' marginals r (B, A, K, n, m) put on each of the
    TH prefix sets ind (B, A, TH, n, m) of A agents: (B, A, K, TH).  A
    size-1 agent or report axis of r broadcasts."""
    return np.einsum("bakwf,batwf->bakt", r, ind)


def fosd_search(r_truth, r_var, ind, valid, n: int, m: int, Kw: int, Kf: int):
    """Per (profile, agent), workers first: the index of the best report
    in its side's table (-1 when truth wins), its threshold slot, and its
    FOSD gain (0 when truth wins), from the truthful marginals (B, n, m)
    and the reports' (B, n*Kw + m*Kf, n, m): each worker's Kw rows, then
    each firm's Kf; ind and valid come from `threshold_sets`."""
    B, A, TH = valid.shape
    cum_truth = cumulative_prob(r_truth[:, None, None], ind)[:, :, 0]  # (B, A, TH)
    best_k = np.full((B, A), -1, dtype=np.int64)
    best_th = np.zeros((B, A), dtype=np.int64)
    best_gain = np.zeros((B, A))
    # a side's variant rows start at offset * Kw: 0 for workers, n * Kw for firms
    for offset, count, K in ((0, n, Kw), (n, m, Kf)):
        agents = slice(offset, offset + count)
        r_side = r_var[:, offset * Kw:offset * Kw + count * K].reshape(B, count, K, n, m)
        cum = cumulative_prob(r_side, ind[:, agents])  # (B, count, K, TH)
        # max over valid thresholds of (cum_mis - cum_truth); ties resolved by
        # argmax order: misreport table order first, threshold order second
        diff = cum - cum_truth[:, agents, None, :]
        diff = np.where(valid[:, agents, None, :], diff, -np.inf)
        flat = diff.reshape(B, count, -1)
        arg = np.argmax(flat, axis=2)
        top = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
        positive = top > 0.0
        best_gain[:, agents] = np.where(positive, top, 0.0)
        best_k[:, agents] = np.where(positive, arg // TH, -1)
        best_th[:, agents] = np.where(positive, arg % TH, 0)
    return best_k, best_th, best_gain


@functools.cache
def _prefix_misreports(side: Side, size: int) -> tuple:
    """The first misreport of each acceptable prefix, in enumeration order.
    The empty prefix is one of them: under RSD another picker can still
    take an agent who accepts nobody."""
    first = {}
    for order in enumerate_misreports(side, size):
        first.setdefault(order.acceptable(), order)
    return tuple(first.values())


def regret_gains(mech, profile: PreferenceProfile,
                 r_truth: RandomizedMatching | None = None) -> np.ndarray:
    """Per-agent max FOSD gain over misreports and the true order's
    acceptable thresholds, floored at 0, workers then firms.  `r_truth`
    is the mechanism's outcome on the profile, evaluated here when not
    given.  DA and exact RSD read acceptable prefixes only, so each side's
    table holds one misreport per acceptable prefix (the empty one
    included); every other mechanism gets all (size+1)! misreports.  The
    truth's own prefix slot and every slot of an agent with no acceptable
    partner reuse `r_truth`.  The other slots' profiles go to the lifted
    mechanism's `evaluate_many` in one call, or one `mech.evaluate` each
    for every other mechanism."""
    n, m = profile.n, profile.m
    if r_truth is None:
        r_truth = mech.evaluate(profile)
    prefixes = isinstance(mech, LiftedMechanism) and mech.reads_prefixes_only(profile)
    table = _prefix_misreports if prefixes else enumerate_misreports
    tables = {Side.WORKER: table(Side.WORKER, m), Side.FIRM: table(Side.FIRM, n)}
    slots, variants = [], []  # per slot: index into variants, or -1 for r_truth
    for agent in profile.agents():
        truth = profile.order_of(agent).acceptable()
        for report in tables[agent.side]:
            if not truth or (prefixes and report.acceptable() == truth):
                slots.append(-1)
            else:
                slots.append(len(variants))
                variants.append(profile.with_order(agent, report))
    outcomes = mech.evaluate_many(variants) if prefixes \
        else [mech.evaluate(variant) for variant in variants]
    r_var = np.array([r_truth.r if i < 0 else outcomes[i].r for i in slots])
    ind, valid = threshold_sets(*profile_ranks([profile], n, m), n, m)
    _, _, gains = fosd_search(r_truth.r[None], r_var[None], ind, valid,
                              n, m, len(tables[Side.WORKER]), len(tables[Side.FIRM]))
    return gains[0]


def regret_profile(mech, profile: PreferenceProfile,
                   r_truth: RandomizedMatching | None = None) -> float:
    """Two-sided average regret: 1/2 (worker mean + firm mean) of
    `regret_gains`."""
    gains = regret_gains(mech, profile, r_truth)
    return float(0.5 * (np.mean(gains[:profile.n]) + np.mean(gains[profile.n:])))


def welfare_profile(r: RandomizedMatching, enc: EncodedProfile) -> float:
    """Expected welfare per agent under the evenly-spaced utilities of the
    true profile; unmatched agents contribute zero."""
    _check_dims(r, enc)
    n, m = enc.p.shape
    return float((r.r * (enc.p + enc.q)).sum() / (n + m))


def similarity(r: RandomizedMatching, profile: PreferenceProfile,
               matchings=None) -> float:
    """Agreement with deferred acceptance: mass placed on a DA matching's
    pairs divided by that matching's size, best of the two proposing sides.
    Sides with empty DA matchings are skipped; 1 if both are empty.
    `matchings` are the profile's worker- and firm-proposing DA matchings,
    computed here when not given."""
    if matchings is None:
        matchings = [da(profile, proposing) for proposing in Proposing]
    scores = []
    for matching in matchings:
        if matching.pairs:
            mass = sum(r.r[w, f] for w, f in matching.pairs)
            scores.append(mass / len(matching.pairs))
    return float(max(scores)) if scores else 1.0


def entropy(r: RandomizedMatching) -> float:
    """Normalized entropy per agent, including the unmatched margins."""
    n, m = r.n, r.m
    if n <= 1 or m <= 1:
        warnings.warn("entropy undefined for single-agent sides; returning 0")
        return 0.0

    def plogp(x):
        x = np.clip(x, 0.0, 1.0)
        return np.where(x > 0.0, x * np.log2(np.maximum(x, 1e-300)), 0.0)

    worker_rows = np.concatenate([r.r, r.unmatched_workers()[:, None]], axis=1)
    firm_cols = np.concatenate([r.r, r.unmatched_firms()[None, :]], axis=0)
    h_workers = -plogp(worker_rows).sum() / np.log2(m)
    h_firms = -plogp(firm_cols).sum() / np.log2(n)
    return float(h_workers / (2 * n) + h_firms / (2 * m))


def evaluate(mech, profiles) -> EvalReport:
    """Arithmetic means of all per-profile metrics over a profile set.
    Each profile's truthful outcome is evaluated once and shared by every
    metric; regret comes from `regret_profile`, and similarity reads DA
    matchings computed for all profiles at once.  For a network, stability
    violation and regret come from the batched training search.  It runs
    the same `fosd_search`, but its tables drop the reports that accept
    nobody: the network's mask gives those all-zero marginals, which never
    gain."""
    if not profiles:
        raise ValueError("profile list is empty")
    stv = rgt = marginals = None
    if isinstance(mech, NetworkMechanism):
        from .train import evaluate_network, misreport_tables  # train imports metrics
        stv, rgt, marginals = evaluate_network(mech.params, mech.dims, profiles,
                                               misreport_tables(mech.dims))
        stv, rgt = stv.tolist(), rgt.tolist()
    matchings = zip(*(da_many(profiles, proposing) for proposing in Proposing))
    stv_sum = rgt_sum = irv_sum = wel_sum = sim_sum = ent_sum = 0.0
    for idx, (profile, enc, da_pair) in enumerate(zip(profiles, encode_many(profiles),
                                                      matchings)):
        try:
            r = mech.evaluate(profile) if marginals is None \
                else RandomizedMatching(marginals[idx])
            stv_sum += stv_profile(r, enc) if stv is None else stv[idx]
            irv_sum += irv_profile(r, enc)
            wel_sum += welfare_profile(r, enc)
            sim_sum += similarity(r, profile, da_pair)
            ent_sum += entropy(r)
            rgt_sum += regret_profile(mech, profile, r) if rgt is None else rgt[idx]
        except Exception as err:
            raise RuntimeError(f"evaluation failed at profile {idx}") from err
    count = len(profiles)
    return EvalReport(stv=stv_sum / count, rgt=rgt_sum / count, irv=irv_sum / count,
                      welfare_per_agent=wel_sum / count, sim=sim_sum / count,
                      entropy=ent_sum / count, profiles_evaluated=count)
