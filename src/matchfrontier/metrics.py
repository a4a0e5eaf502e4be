"""Quantitative evaluation of randomized matchings and mechanisms:
stability violation, IR violation, FOSD regret, welfare, similarity to
deferred acceptance, and normalized entropy."""
from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .prefs import (EncodedProfile, PreferenceProfile, Side, encode_arrays,
                    enumerate_misreports)
from .mechanisms import Proposing, RandomizedMatching, da, da_marginals

# profiles per block of the evaluation pass.  It bounds the memory of the
# misreport variants (a network's 3x3 block is 13,824 variant rows, 14
# forward parts).  A block's truth forward has one row per profile, and BLAS
# gives other bits for at most 50 rows, so another block size can change a
# network's evaluated numbers in the last place.
_EVAL_BLOCK = 128


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


def stv_terms(r: np.ndarray, p: np.ndarray, q: np.ndarray):
    """stv's scale 1/2 (1/m + 1/n) and, per pair, the firm-side and
    worker-side envy masses whose product is the pair's stability violation
    (`reference_stv_pair` in tests/conftest.py), for marginals r and
    encodings p, q, all (B, n, m), with the weights the sides are linear in
    r through: dq (B, w, w', f), max(q, 0), dp (B, w, f, f'), max(p, 0)."""
    n, m = p.shape[1:]
    g_bot_f = 1.0 - r.sum(axis=1)             # (B, m)
    g_w_bot = 1.0 - r.sum(axis=2)             # (B, n)
    # firm_side[w, f] = sum_w' r[w', f] * max(q[w, f] - q[w', f], 0) + g_bot_f[f] * max(q[w, f], 0)
    dq = np.maximum(q[:, :, None, :] - q[:, None, :, :], 0.0)    # (B, w, w', f)
    q_pos = np.maximum(q, 0.0)
    firm_side = np.einsum("baf,bwaf->bwf", r, dq) + g_bot_f[:, None, :] * q_pos
    dp = np.maximum(p[:, :, :, None] - p[:, :, None, :], 0.0)    # (B, w, f, f')
    p_pos = np.maximum(p, 0.0)
    worker_side = np.einsum("bwg,bwfg->bwf", r, dp) + g_w_bot[:, :, None] * p_pos
    return 0.5 * (1.0 / m + 1.0 / n), firm_side, worker_side, (dq, q_pos, dp, p_pos)


def stv_batch(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-profile average stability violation, 1/2 (1/m + 1/n) times the
    sum of the pairs' envy products, for marginals r and encodings p, q,
    all (B, n, m)."""
    scale, firm_side, worker_side, _ = stv_terms(r, p, q)
    return scale * (firm_side * worker_side).sum(axis=(1, 2))


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


def side_weights(n: int, m: int) -> np.ndarray:
    """Per-agent regret weights: each side averaged, the sides halved."""
    return np.concatenate([np.full(n, 1.0 / (2 * n)), np.full(m, 1.0 / (2 * m))])


def welfare_batch(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-profile expected welfare per agent under the true profile's
    encodings p, q, for marginals r, all (B, n, m); unmatched agents get 0."""
    n, m = p.shape[1:]
    return (r * (p + q)).sum(axis=(1, 2)) / (n + m)


def similarity_batch(r: np.ndarray, *matchings: np.ndarray) -> np.ndarray:
    """Per-profile agreement with deferred acceptance: the mass marginals r
    (B, n, m) put on a DA matching's pairs over its size, best of the 0/1
    `matchings` (B, n, m); empty matchings are skipped, 1 if all are."""
    best = np.full(r.shape[0], -np.inf)
    for d in matchings:
        size = d.sum(axis=(1, 2))
        score = (r * d).sum(axis=(1, 2)) / np.maximum(size, 1.0)
        best = np.where(size > 0, np.maximum(best, score), best)
    return np.where(best > -np.inf, best, 1.0)


def similarity(r: RandomizedMatching, profile: PreferenceProfile) -> float:
    """Agreement of one profile's marginals with its DA matchings."""
    matchings = (da(profile, p).to_marginals().r[None] for p in Proposing)
    return float(similarity_batch(r.r[None], *matchings)[0])


def _plogp(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return np.where(x > 0.0, x * np.log2(np.maximum(x, 1e-300)), 0.0)


def entropy_batch(r: np.ndarray) -> np.ndarray:
    """Per-profile normalized entropy per agent of marginals r (B, n, m),
    including the unmatched margins."""
    B, n, m = r.shape
    if n <= 1 or m <= 1:
        warnings.warn("entropy undefined for single-agent sides; returning 0")
        return np.zeros(B)
    worker_rows = np.concatenate([r, 1.0 - r.sum(axis=2, keepdims=True)], axis=2)
    firm_cols = np.concatenate([r, 1.0 - r.sum(axis=1, keepdims=True)], axis=1)
    h_workers = -_plogp(worker_rows).sum(axis=(1, 2)) / np.log2(m)
    h_firms = -_plogp(firm_cols).sum(axis=(1, 2)) / np.log2(n)
    return h_workers / (2 * n) + h_firms / (2 * m)


@functools.cache
def _prefix_misreports(side: Side, size: int) -> tuple:
    """The first misreport of each acceptable prefix, in enumeration order.
    The empty prefix is one of them: under RSD another picker can still
    take an agent who accepts nobody."""
    first = {}
    for order in enumerate_misreports(side, size):
        first.setdefault(order.acceptable(), order)
    return tuple(first.values())


def _evaluated_marginals(mech, profiles, indices):
    """`report_marginals` from `evaluate`, profile by profile, of n x m
    profiles at `indices` of the caller's list.  Where the mechanism's
    `reads_prefixes_only` holds (DA, RSD), a side's table holds one
    misreport per acceptable prefix, the empty one included, and a
    profile's variants are one `evaluate_many` call; otherwise it holds all
    (size+1)! misreports, one `evaluate` each.  The truth's own prefix and
    every report of an agent accepting nobody reuse the truth."""
    n, m = profiles[0].n, profiles[0].m
    prefixes = getattr(mech, "reads_prefixes_only", False)
    table = _prefix_misreports if prefixes else enumerate_misreports
    tables = {Side.WORKER: table(Side.WORKER, m), Side.FIRM: table(Side.FIRM, n)}
    truths, variants = [], []
    for idx, profile in zip(indices, profiles):
        try:
            r_truth = mech.evaluate(profile).r
            slots, reports = [], []  # per slot: index into reports, or -1 for the truth
            for agent in profile.agents():
                truth = profile.order_of(agent).acceptable()
                for report in tables[agent.side]:
                    if not truth or (prefixes and report.acceptable() == truth):
                        slots.append(-1)
                    else:
                        slots.append(len(reports))
                        reports.append(profile.with_order(agent, report))
            outcomes = mech.evaluate_many(reports) if prefixes \
                else [mech.evaluate(report) for report in reports]
        except Exception as err:
            raise RuntimeError(f"evaluation failed at profile {idx}") from err
        truths.append(r_truth)
        variants.append([r_truth if i < 0 else outcomes[i].r for i in slots])
    return (np.array(truths), np.array(variants),
            (len(tables[Side.WORKER]), len(tables[Side.FIRM])))


def _block(mech, profiles, n: int, m: int, indices):
    """Encodings P, Q and rank arrays of n x m profiles, the truthful
    marginals r (B, n, m) and each agent's FOSD gain (B, n+m), from the
    mechanism's own `report_marginals` if it has one."""
    P, Q, ranks = encode_arrays(profiles, n, m)
    own = getattr(mech, "report_marginals", None)
    r, r_var, (Kw, Kf) = own(P, Q) if own else _evaluated_marginals(mech, profiles, indices)
    ind, valid = threshold_sets(*ranks, n, m)
    _, _, gains = fosd_search(r, r_var, ind, valid, n, m, Kw, Kf)
    return P, Q, ranks, r, gains


_MEANS = ("stv", "rgt", "irv", "welfare_per_agent", "sim", "entropy")


def profile_metrics(mech, profiles) -> dict:
    """Per-profile arrays, in profile order, of every averaged `EvalReport`
    field, from blocks of up to _EVAL_BLOCK profiles of one market shape:
    each block's truthful and variant marginals give every field."""
    if not profiles:
        raise ValueError("profile list is empty")
    shapes = [(p.n, p.m) for p in profiles]
    arrays = np.empty((len(_MEANS), len(profiles)))
    for n, m in sorted(set(shapes)):
        group = [i for i, shape in enumerate(shapes) if shape == (n, m)]
        for start in range(0, len(group), _EVAL_BLOCK):
            indices = group[start:start + _EVAL_BLOCK]
            P, Q, ranks, r, gains = _block(mech, [profiles[i] for i in indices],
                                           n, m, indices)
            arrays[:, indices] = (
                stv_batch(r, P, Q), (gains * side_weights(n, m)).sum(axis=1),
                irv_batch(r, P, Q),
                welfare_batch(r, P, Q),
                similarity_batch(r, *(da_marginals(ranks, p) for p in Proposing)),
                entropy_batch(r))
    return dict(zip(_MEANS, arrays))


def regret_gains(mech, profile: PreferenceProfile) -> np.ndarray:
    """Per-agent max FOSD gain over misreports and the true order's
    acceptable thresholds, floored at 0, workers then firms: the pass's
    regret on one profile."""
    return _block(mech, [profile], profile.n, profile.m, [0])[4][0]


def evaluate(mech, profiles) -> EvalReport:
    """Means of `profile_metrics` over a profile set, each summed in
    profile order (np.mean's pairwise sum can differ in the last bit)."""
    means = {name: functools.reduce(operator.add, values.tolist(), 0.0) / len(profiles)
             for name, values in profile_metrics(mech, profiles).items()}
    return EvalReport(**means, profiles_evaluated=len(profiles))
