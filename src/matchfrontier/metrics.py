"""Quantitative evaluation of randomized matchings and mechanisms:
stability violation, IR violation, FOSD regret, welfare, similarity to
deferred acceptance, and normalized entropy."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .prefs import (BOTTOM, AgentId, EncodedProfile, PreferenceProfile, Side,
                    encode_many, enumerate_misreports)
from .mechanisms import LiftedMechanism, Proposing, RandomizedMatching, da
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


def irv_profile(r: RandomizedMatching, enc: EncodedProfile) -> float:
    """Individual-rationality violation: probability mass on unacceptable
    partners, weighted by how deep below the unmatched option they sit."""
    _check_dims(r, enc)
    n, m = enc.p.shape
    return float((r.r * np.maximum(-enc.q, 0.0)).sum() / (2 * m)
                 + (r.r * np.maximum(-enc.p, 0.0)).sum() / (2 * n))


def cumulative_prob(r: RandomizedMatching, order, agent: AgentId,
                    threshold: int) -> float:
    """Mass the agent receives on partners ranked weakly above the
    threshold under `order` (the top-k cumulative, threshold included)."""
    above = order.ranking[:order.ranking.index(threshold) + 1]
    if BOTTOM in above:
        raise ValueError(f"threshold {threshold} is unacceptable under the given order")
    marginal = r.r[agent.index, :] if agent.side is Side.WORKER else r.r[:, agent.index]
    total = 0.0
    for x in range(marginal.shape[0]):
        if x in above:
            total += marginal[x]
    return float(total)


def _prefix_misreports(side: Side, size: int, truth_prefix: tuple) -> list:
    """The first misreport of each acceptable prefix other than
    `truth_prefix`, in enumeration order.  The empty prefix is one of them:
    under RSD another picker can still take an agent who accepts nobody."""
    seen = {truth_prefix}
    kept = []
    for order in enumerate_misreports(side, size):
        prefix = order.acceptable()
        if prefix not in seen:
            seen.add(prefix)
            kept.append(order)
    return kept


def regret_agent(mech, profile: PreferenceProfile, agent: AgentId,
                 r_truth: RandomizedMatching | None = None) -> float:
    """Max FOSD cumulative gain for one agent over its misreports and all
    acceptable thresholds, floored at 0.  Thresholds and prefix sets come
    from the agent's true order; `r_truth` is the mechanism's outcome on
    the profile, evaluated here when not given.  For DA and exact RSD it
    evaluates one misreport per acceptable prefix (the empty one included)
    and skips the truth's own prefix, since their outcome depends on the
    prefixes alone; every other mechanism gets all (size+1)! misreports."""
    order = profile.order_of(agent)
    thresholds = list(order.acceptable())
    if not thresholds:
        return 0.0
    size = profile.m if agent.side is Side.WORKER else profile.n
    if r_truth is None:
        r_truth = mech.evaluate(profile)
    truth_cum = {t: cumulative_prob(r_truth, order, agent, t) for t in thresholds}
    if isinstance(mech, LiftedMechanism) and mech.reads_prefixes_only(profile):
        misreports = _prefix_misreports(agent.side, size, order.acceptable())
    else:
        misreports = enumerate_misreports(agent.side, size)
    best = 0.0
    for misreport in misreports:
        r_mis = mech.evaluate(profile.with_order(agent, misreport))
        for t in thresholds:
            gain = cumulative_prob(r_mis, order, agent, t) - truth_cum[t]
            best = max(best, gain)
    return best


def regret_profile(mech, profile: PreferenceProfile,
                   r_truth: RandomizedMatching | None = None) -> float:
    """Two-sided average regret: 1/2 (worker mean + firm mean).  The
    truthful outcome `r_truth` is evaluated once, when not given, and
    shared by every agent."""
    if r_truth is None:
        r_truth = mech.evaluate(profile)
    worker_mean = np.mean([regret_agent(mech, profile, AgentId(Side.WORKER, w), r_truth)
                           for w in range(profile.n)])
    firm_mean = np.mean([regret_agent(mech, profile, AgentId(Side.FIRM, f), r_truth)
                         for f in range(profile.m)])
    return float(0.5 * (worker_mean + firm_mean))


def welfare_profile(r: RandomizedMatching, enc: EncodedProfile) -> float:
    """Expected welfare per agent under the evenly-spaced utilities of the
    true profile; unmatched agents contribute zero."""
    _check_dims(r, enc)
    n, m = enc.p.shape
    return float((r.r * (enc.p + enc.q)).sum() / (n + m))


def similarity(r: RandomizedMatching, profile: PreferenceProfile) -> float:
    """Agreement with deferred acceptance: mass placed on a DA matching's
    pairs divided by that matching's size, best of the two proposing sides.
    Sides with empty DA matchings are skipped; 1 if both are empty."""
    scores = []
    for proposing in (Proposing.WORKERS, Proposing.FIRMS):
        matching = da(profile, proposing)
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
    metric; regret comes from `regret_profile`.  For a network, stability
    violation and regret come from the batched training search, which
    enumerates the same misreports."""
    if not profiles:
        raise ValueError("profile list is empty")
    stv = rgt = marginals = None
    if isinstance(mech, NetworkMechanism):
        from .train import evaluate_network, misreport_tables  # train imports metrics
        stv, rgt, marginals = evaluate_network(mech.params, mech.dims, profiles,
                                               misreport_tables(mech.dims))
        stv, rgt = stv.tolist(), rgt.tolist()
    stv_sum = rgt_sum = irv_sum = wel_sum = sim_sum = ent_sum = 0.0
    for idx, (profile, enc) in enumerate(zip(profiles, encode_many(profiles))):
        try:
            r = mech.evaluate(profile) if marginals is None \
                else RandomizedMatching(marginals[idx])
            stv_sum += stv_profile(r, enc) if stv is None else stv[idx]
            irv_sum += irv_profile(r, enc)
            wel_sum += welfare_profile(r, enc)
            sim_sum += similarity(r, profile)
            ent_sum += entropy(r)
            rgt_sum += regret_profile(mech, profile, r) if rgt is None else rgt[idx]
        except Exception as err:
            raise RuntimeError(f"evaluation failed at profile {idx}") from err
    count = len(profiles)
    return EvalReport(stv=stv_sum / count, rgt=rgt_sum / count, irv=irv_sum / count,
                      welfare_per_agent=wel_sum / count, sim=sim_sum / count,
                      entropy=ent_sum / count, profiles_evaluated=count)
