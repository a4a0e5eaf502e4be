"""Training: minibatch assembly, defeating-misreport search, the tradeoff
loss, the SGD loop and checkpointing.

The loss is lambda * stability violation + (1 - lambda) * a regret
surrogate.  Per agent, the surrogate fixes both the defeating misreport
and the threshold at which it wins (recomputed from scratch every
iteration at current parameters); only the marginal probabilities flow
gradients, through the loss's closed-form gradient and `net.forward_vjp`.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff, metrics, net
from .autodiff import NumericError, OptimizerState, Tape, adam_step, backward, lr_schedule
from .metrics import fosd_search, side_weights, threshold_sets
from .net import (NetworkDims, NetworkMechanism, NumericOverflowError, _variant_inputs,
                  init_params, misreport_tables, network_input)
from .prefs import (DistributionConfig, encode_arrays, profile_stream, require_at_least,
                    sample_profile, sample_profiles)

TRAIN_LANE = 1
HELDOUT_LANE = 2


@dataclass(frozen=True)
class TrainConfig:
    """Every field is required: the defaults live in cli's settings table."""
    lam: float
    dims: NetworkDims
    dist: DistributionConfig
    batch_size: int
    iterations: int
    base_lr: float
    lr_milestones: tuple
    weight_decay: float
    eval_every: int
    test_size: int
    checkpoint_path: str
    log_path: str

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lambda must lie in [0, 1]")
        for key in ("base_lr", "weight_decay"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{key} must be finite and at least 0, got {value}")
        # 0 is valid: no iterations, the last one the only eval point, no held-out set
        require_at_least(self, 0, "iterations", "eval_every", "test_size")
        require_at_least(self, 1, "batch_size")


# ---------------------------------------------------------------------------
# Batch layout

class _Batch:
    """Dense arrays for one batch of profiles plus threshold indicators.

    Agent axis: workers 0..n-1 then firms n..n+m-1.  Threshold axis is the
    agent's acceptable partners, best first, padded with invalid slots.
    """

    def __init__(self, profiles, dims: NetworkDims):
        self.profiles = profiles
        self.P, self.Q, ranks = encode_arrays(profiles, dims.n, dims.m)
        self.ind, self.thr_valid = threshold_sets(*ranks, dims.n, dims.m)
        self.X = network_input(self.P, self.Q, dims)


def _search_defeating(params, dims: NetworkDims, batch: _Batch, variants, r_truth):
    """Per (profile, agent): best misreport index (-1 when truth wins), the
    winning threshold slot, and the gain (0 when truth wins), from
    `metrics.fosd_search` over the network's marginals of every variant.
    `variants` is the batch's _variant_inputs; `r_truth` holds the
    caller's marginals (B, n, m) of the batch's truthful inputs."""
    Xv, (Kw, Kf) = variants
    r_var = net.forward_batch(params, dims, Xv).reshape(len(batch.profiles), -1,
                                                        dims.n, dims.m)
    return fosd_search(r_truth, r_var, batch.ind, batch.thr_valid, dims.n, dims.m, Kw, Kf)


# ---------------------------------------------------------------------------
# Tape forward and loss

def _forward_tape(tape: Tape, param_nodes, dims: NetworkDims, x: np.ndarray):
    """The network's marginals as one tape node: net's own kernel forward,
    whose parents are the parameter leaves and whose backprop is
    net.forward_vjp."""
    params = [(weight.value, bias.value) for weight, bias in param_nodes]
    saved = []
    r = net._forward_rows(params, dims, x, saved)

    def backprop(g):
        grads = net.forward_vjp(params, dims, saved, g)
        return [grad for group in grads for grad in group]

    return autodiff.Node(tape, r, [leaf for group in param_nodes for leaf in group], backprop)


def _defeat_inputs(batch: _Batch, dims: NetworkDims, variants, best_k, best_th):
    """Per (profile, agent): the variant row of the agent's chosen
    misreport (the truth inputs where truth wins, best_k < 0), and the
    prefix-set indicator of the chosen threshold (zero where truth wins)."""
    n, m = dims.n, dims.m
    B = len(batch.profiles)
    Xv, (Kw, Kf) = variants
    chosen = best_k >= 0
    start = np.concatenate([np.arange(n) * Kw, n * Kw + np.arange(m) * Kf])
    rows = np.arange(B)[:, None] * (n * Kw + m * Kf) + start + np.maximum(best_k, 0)
    X_def = np.where(chosen[:, :, None], Xv[rows], batch.X[:, None, :])
    ind_sel = np.take_along_axis(batch.ind, best_th[:, :, None, None, None], axis=2)[:, :, 0]
    ind_sel = np.where(chosen[:, :, None, None], ind_sel, 0.0)
    return X_def, ind_sel


def _loss_node(r_t, r_d, batch: _Batch, ind_sel, lam: float):
    """The loss lam * stv + (1 - lam) * rgt as one tape node over the truth
    and defeat marginals, (B, n, m) and (B * (n+m), n, m), with its stv and
    rgt.  Its backprop is closed-form: stv's two envy sides are linear in
    r_t, and the surrogate is linear in both where a defeat gain is > 0."""
    B, n, m = r_t.value.shape
    scale, firm_side, worker_side, (dq, q_pos, dp, p_pos) = \
        metrics.stv_terms(r_t.value, batch.P, batch.Q)
    stv = (scale * (firm_side * worker_side).sum(axis=(1, 2))).sum() / B
    # regret surrogate at the fixed defeating report and threshold
    cum_d = (r_d.value.reshape(B, n + m, n, m) * ind_sel).sum(axis=(2, 3))
    cum_t = (r_t.value[:, None] * ind_sel).sum(axis=(2, 3))
    gain = cum_d - cum_t
    weights = side_weights(n, m)
    rgt = (np.where(gain > 0.0, gain, 0.0) * weights).sum(axis=1).sum() / B

    def backprop(g):
        s = g * lam / B * scale
        firm_g, worker_g = s * worker_side, s * firm_side
        defeat_g = (g * (1.0 - lam) / B * weights * (gain > 0.0))[:, :, None, None] * ind_sel
        # r_t's terms are summed in this order (regret, worker envy, firm
        # envy, worker and firm unmatched) so the desk gradients keep their bits
        return (-defeat_g.sum(axis=1)
                + (worker_g[:, :, :, None] * dp).sum(axis=2)
                + (firm_g[:, :, None, :] * dq).sum(axis=1)
                - (worker_g * p_pos).sum(axis=2)[:, :, None]
                - (firm_g * q_pos).sum(axis=1)[:, None, :],
                defeat_g.reshape(r_d.value.shape))

    loss = autodiff.Node(r_t.tape, stv * lam + rgt * (1.0 - lam), (r_t, r_d), backprop)
    return loss, float(stv), float(rgt)


def _loss_from_batch(params, dims: NetworkDims, batch: _Batch, lam: float, tables):
    """The loss on a batch as (tape, loss, param_nodes), its defeating
    reports searched at the current parameters."""
    tape = Tape()
    param_nodes = [(tape.leaf(w), tape.leaf(bias)) for w, bias in params]
    # the one truth forward: the search reads the tape node's values, which
    # are _forward_rows' own, so forward_batch's for up to net._FORWARD_PART rows
    r_t = _forward_tape(tape, param_nodes, dims, batch.X)
    variants = _variant_inputs(batch.X, dims, tables)
    best_k, best_th, _ = _search_defeating(params, dims, batch, variants, r_t.value)
    X_def, ind_sel = _defeat_inputs(batch, dims, variants, best_k, best_th)
    r_d = _forward_tape(tape, param_nodes, dims, X_def.reshape(-1, X_def.shape[2]))
    loss, _, _ = _loss_node(r_t, r_d, batch, ind_sel, lam)
    return tape, loss, param_nodes


def _heldout_stv_rgt(params, dims: NetworkDims, profiles):
    arrays = metrics.profile_metrics(NetworkMechanism(params, dims), profiles)
    return float(arrays["stv"].mean()), float(arrays["rgt"].mean())


@dataclass
class TrainResult:
    params: list
    log: list           # rows of (iteration, loss, heldout stv, heldout rgt, lr)
    heldout_stv: float
    heldout_rgt: float


def train(config: TrainConfig, progress=None) -> TrainResult:
    """Run the SGD loop: fresh minibatch every iteration, defeating-report
    search at current parameters, Adam step with the halving schedule.
    Every eval_every-th iteration and the last one are eval points: each
    evaluates the held-out set, logs a row whose loss is the mean over the
    iterations since the previous row, and checkpoints (a run of zero
    iterations checkpoints its initial parameters).  A numeric failure
    aborts with the last good checkpoint on disk."""
    dims, dist = config.dims, config.dist
    tables = misreport_tables(dims)
    params = init_params(dims, seed=dist.seed)
    state = OptimizerState.for_params(params, lr=config.base_lr,
                                      weight_decay=config.weight_decay)
    heldout = sample_profiles(dist, config.test_size, lane=HELDOUT_LANE) \
        if config.test_size > 0 else None

    log = []
    loss_window = []

    def checkpoint():
        if config.checkpoint_path:
            net.save_checkpoint(config.checkpoint_path, params, dims,
                                config.lam, dist.seed)

    def write_log():
        if config.log_path:
            with open(config.log_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["iter", "loss", "stv", "rgt", "lr"])
                writer.writerows(log)

    stv = rgt = math.nan
    for it in range(config.iterations):
        state.lr = lr_schedule(config.base_lr, it, config.lr_milestones)
        profiles = [sample_profile(dist, profile_stream(dist.seed, it * config.batch_size + j,
                                                        lane=TRAIN_LANE))
                    for j in range(config.batch_size)]
        try:
            tape, loss, param_nodes = _loss_from_batch(params, dims, _Batch(profiles, dims),
                                                       config.lam, tables)
            backward(tape, loss)
            grads = [(w.grad, b.grad) for w, b in param_nodes]
            params, state = adam_step(state, params, grads)
            # nodes and tape reference each other; break the cycle so the
            # iteration's activations and gradients are freed now, not at
            # the next full garbage collection
            tape.nodes.clear()
        except (NumericError, NumericOverflowError):
            write_log()
            raise
        loss_window.append(float(loss.value))

        done = it + 1
        if done == config.iterations or (config.eval_every and done % config.eval_every == 0):
            if heldout is not None:
                stv, rgt = _heldout_stv_rgt(params, dims, heldout)
            mean_loss = float(np.mean(loss_window))
            loss_window = []
            log.append((done, mean_loss, stv, rgt, state.lr))
            write_log()
            checkpoint()
            if progress:
                progress(done, mean_loss, stv, rgt)

    if not config.iterations:
        if heldout is not None:
            stv, rgt = _heldout_stv_rgt(params, dims, heldout)
        write_log()
        checkpoint()
    return TrainResult(params=params, log=log, heldout_stv=stv, heldout_rgt=rgt)
