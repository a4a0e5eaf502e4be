"""The matching network: encoded profile in, weakly doubly stochastic and
individually rational marginal matrix out.

The forward pass is a pure function of explicit parameters.  Scores are
softplus-squashed, zeroed where either side of a pair reports the other
unacceptable (read off the encoded input itself), normalized
column-wise on the (n+1) x m tensor and row-wise on the n x (m+1) tensor,
and combined with an elementwise min.  `forward_vjp` differentiates it
from what the forward kernel saved, for the training loss.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .prefs import (PreferenceProfile, Side, encode_arrays, encode_ranks,
                    enumerate_misreports, philox, rank_arrays, require_at_least)
from .mechanisms import RandomizedMatching

LEAKY_SLOPE = 0.01

# forward_batch splits its rows into ceil(rows / _FORWARD_PART) near-equal
# parts, each at least half this size, so a part's activations stay in cache
# (0.5 MB per layer at J=64).  The outputs do not depend on the split while every part
# exceeds BLAS's small-matrix path (OpenBLAS 0.3.31: over 50 rows at J=64,
# over 30 at J=256), whose sums run in another order.
_FORWARD_PART = 1024


class NumericOverflowError(ArithmeticError):
    """Non-finite activation during a forward pass."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite activation at layer {layer}")
        self.layer = layer


@dataclass(frozen=True)
class NetworkDims:
    n: int
    m: int
    R: int  # hidden layers
    J: int  # units per hidden layer

    def __post_init__(self):
        require_at_least(self, 1, "n", "m", "R", "J")

    @property
    def input_width(self) -> int:
        return 2 * self.n * self.m

    @property
    def output_width(self) -> int:
        return (self.n + 1) * self.m + self.n * (self.m + 1)


def layer_shapes(dims: NetworkDims) -> list:
    """(weight shape, bias shape) per layer, hidden layers then output."""
    shapes = [((dims.J, dims.input_width), (dims.J,))]
    shapes += [((dims.J, dims.J), (dims.J,))] * (dims.R - 1)
    shapes.append(((dims.output_width, dims.J), (dims.output_width,)))
    return shapes


def init_params(dims: NetworkDims, seed: int) -> list:
    """Fan-in-scaled uniform weights, zero biases."""
    rng = philox(seed, 0x6E6574)
    params = []
    for (w_shape, b_shape) in layer_shapes(dims):
        bound = np.sqrt(1.0 / w_shape[1])
        params.append((rng.uniform(-bound, bound, size=w_shape), np.zeros(b_shape)))
    return params


def network_input(P: np.ndarray, Q: np.ndarray, dims: NetworkDims) -> np.ndarray:
    """The network's input rows (B, 2nm): the encodings P and Q, both
    (B, n, m), of B profiles side by side.  The profiles must have the
    network's shape."""
    if P.shape[1:] != (dims.n, dims.m):
        raise ValueError(f"a {dims.n}x{dims.m} network cannot evaluate "
                         f"{P.shape[1]}x{P.shape[2]} profiles")
    B = P.shape[0]
    return np.concatenate([P.reshape(B, -1), Q.reshape(B, -1)], axis=1)


def acceptable_pairs(x: np.ndarray, n: int, m: int) -> np.ndarray:
    """(B, n, m) bool: which pairs of the input rows x (B, 2nm) both sides
    report acceptable, the pairs whose encoded utilities are both > 0."""
    nm = n * m
    return ((x[:, :nm] > 0.0) & (x[:, nm:] > 0.0)).reshape(-1, n, m)


def forward_batch(params, dims: NetworkDims, x: np.ndarray) -> np.ndarray:
    """Batched forward pass: x is (B, 2nm); returns marginal matrices
    (B, n, m).  Each output row depends on its input row alone, so the
    caller runs its share of the parts and the `_helpers` threads the rest;
    an overflow raises from the first part that has one."""
    rows = x.shape[0]
    if rows <= _FORWARD_PART:
        return _forward_rows(params, dims, x)
    parts = -(-rows // _FORWARD_PART)
    bounds = [rows * i // parts for i in range(parts + 1)]
    slices = list(zip(bounds[:-1], bounds[1:]))
    pool, threads = _helpers() or (None, 0)
    own = parts // min(parts, threads + 1)  # the caller's share, rounded down
    futures = [pool.submit(_forward_rows, params, dims, x[a:b]) for a, b in slices[own:]]
    try:
        out = [_forward_rows(params, dims, x[a:b]) for a, b in slices[:own]]
    finally:
        # no part outlives the call, even when the caller's own share raised
        wait(futures)
    return np.concatenate(out + [future.result() for future in futures])


@functools.cache
def _helpers():
    """(pool, threads): the threads that run forward_batch's parts beside
    the caller, one per further CPU the process may use, made at the first
    split.  None, and every part runs on the caller, on one CPU or where
    numpy's OpenBLAS cannot be pinned to one thread: its own threads spin
    for work and fight the helpers for the CPUs (unpinned, the desk search
    forward was no faster split than whole)."""
    threads = len(os.sched_getaffinity(0)) - 1 if hasattr(os, "sched_getaffinity") else 0
    if threads < 1 or not _pin_blas_to_one_thread():
        return None
    return ThreadPoolExecutor(threads, thread_name_prefix="forward"), threads


# a forked child inherits the cached pool but none of its threads, and would
# wait forever on its first split: it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers.cache_clear)


def _pin_blas_to_one_thread() -> bool:
    """Sets the OpenBLAS that numpy loaded to one thread, for the whole
    process; False where neither known setter is found."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return False
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    return False


def _forward_rows(params, dims: NetworkDims, x: np.ndarray, saved=None) -> np.ndarray:
    """forward_batch's kernel on one part of its rows.  A `saved` list is
    filled with what forward_vjp reads: every layer's input (x first), the
    output scores before softplus, the masked scores and their two sums."""
    n, m = dims.n, dims.m
    # matmul cannot write into its operand: two ping-pong buffers, or one per
    # hidden layer when every layer's input is saved; one more for ReLU
    count = 2 if saved is None else len(params) - 1
    bufs = [np.empty((x.shape[0], dims.J)) for _ in range(count + 1)]
    h = x
    for layer, (weight, bias) in enumerate(params[:-1]):
        if saved is not None:
            saved.append(h)
        h = np.matmul(h, weight.T, out=bufs[layer % count])
        h += bias
        # leaky ReLU; bitwise equal to where(h > 0, h, slope * h), signed
        # zeros and NaN included
        np.maximum(h, np.multiply(h, LEAKY_SLOPE, out=bufs[-1]), out=h)
    weight, bias = params[-1]
    out = h @ weight.T
    out += bias
    # a non-finite activation in any layer reaches every output of its row
    # as inf or NaN, so one check here covers the hidden layers too
    if not np.isfinite(out).all():
        raise NumericOverflowError(_first_nonfinite_layer(params, x))

    split = (n + 1) * m
    # softplus, overflow-safe: ln(1 + e^x) = max(x, 0) + ln(1 + e^-|x|);
    # in place unless the scores are saved
    s = np.logaddexp(0.0, out, out=out if saved is None else None)
    shat = s[:, :split].reshape(-1, n + 1, m)
    shat2 = s[:, split:].reshape(-1, n, m + 1)
    # individual rationality: an unacceptable pair scores 0 in both tensors
    accept = acceptable_pairs(x, n, m)
    shat[:, :n, :] *= accept
    shat2[:, :, :m] *= accept
    sums, sums2 = shat.sum(axis=1, keepdims=True), shat2.sum(axis=2, keepdims=True)
    if saved is not None:
        saved += [h, out, s.copy(), sums, sums2]
    shat /= sums
    shat2 /= sums2
    return np.minimum(shat[:, :n, :], shat2[:, :, :m])


def forward_vjp(params, dims: NetworkDims, saved, g: np.ndarray) -> list:
    """Per layer, the (weight, bias) gradients of sum(g * r), where r is the
    _forward_rows output (B, n, m) that filled `saved`.  At the kinks the
    min routes a tie to the column-normalized score and leaky ReLU takes
    its negative-side slope at 0."""
    n, m = dims.n, dims.m
    *inputs, scores, masked, sums, sums2 = saved
    split = (n + 1) * m
    sbar = masked[:, :split].reshape(-1, n + 1, m)
    sbar2 = masked[:, split:].reshape(-1, n, m + 1)
    take = sbar[:, :n, :] / sums <= sbar2[:, :, :m] / sums2
    g_hat = np.zeros(sbar.shape)
    g_hat[:, :n, :] = g * take
    g_hat2 = np.zeros(sbar2.shape)
    g_hat2[:, :, :m] = g * ~take
    # through each normalization, the mask and softplus, whose slope is the
    # logistic function, evaluated without overflow
    e = np.exp(-np.abs(scores))
    slope = np.where(scores >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    g_sbar = g_hat / sums + (-g_hat * sbar / sums ** 2).sum(axis=1, keepdims=True)
    g_sbar2 = g_hat2 / sums2 + (-g_hat2 * sbar2 / sums2 ** 2).sum(axis=2, keepdims=True)
    accept = acceptable_pairs(inputs[0], n, m)
    g_sbar[:, :n, :] *= accept
    g_sbar2[:, :, :m] *= accept
    g_out = np.concatenate([g_sbar.reshape(len(g), -1), g_sbar2.reshape(len(g), -1)],
                           axis=1) * slope
    grads = []
    for layer in range(len(params) - 1, -1, -1):
        h = inputs[layer]
        grads.append(((h.T @ g_out).T, g_out.sum(axis=0)))
        if layer:
            g_out = (g_out @ params[layer][0]) * np.where(h > 0.0, 1.0, LEAKY_SLOPE)
    return grads[::-1]


def _first_nonfinite_layer(params, x: np.ndarray) -> int:
    """Index of the first layer whose activation is not finite: the cold
    path of _forward_rows's single check on the output."""
    h = x
    for layer, (weight, bias) in enumerate(params[:-1]):
        h = h @ weight.T + bias
        if not np.isfinite(h).all():
            return layer
        h = np.maximum(h, LEAKY_SLOPE * h)
    return len(params) - 1


# ---------------------------------------------------------------------------
# Misreport tables and variant inputs

@functools.cache
def misreport_tables(n: int, m: int) -> tuple:
    """A worker's and a firm's misreports in an n x m market as encoded
    utility rows, (Kw, m) and (Kf, n), read-only.  Reports that accept
    nobody are left out: they zero the agent's marginals, so never gain."""
    tables = []
    for side, size in ((Side.WORKER, m), (Side.FIRM, n)):
        orders = [o for o in enumerate_misreports(side, size) if o.acceptable()]
        tables.append(encode_ranks(*rank_arrays(orders, size), size))
        tables[-1].flags.writeable = False
    return tuple(tables)


def _variant_inputs(X: np.ndarray, dims: NetworkDims, tables):
    """Inputs for every (profile, agent, misreport) combination
    of the truthful inputs X (B, 2nm), grouped profile-major, worker agents
    before firm agents, plus the table sizes (Kw, Kf) that locate a row.
    `tables` is a worker's and a firm's report rows, as `misreport_tables`."""
    n, m = dims.n, dims.m
    B = X.shape[0]
    table_w, table_f = tables
    Kw, Kf = len(table_w), len(table_f)
    per_profile = n * Kw + m * Kf
    nm = n * m

    Xv = np.repeat(X, per_profile, axis=0).reshape(B, per_profile, 2 * nm)
    for w in range(n):
        Xv[:, w * Kw:(w + 1) * Kw, w * m:(w + 1) * m] = table_w[None, :, :]
    q_idx = nm + np.arange(n) * m
    for f in range(m):
        rows = slice(n * Kw + f * Kf, n * Kw + (f + 1) * Kf)
        Xv[:, rows, :][:, :, q_idx + f] = table_f[None, :, :]
    return Xv.reshape(-1, 2 * nm), (Kw, Kf)


class NetworkMechanism:
    """Mechanism-interface wrapper around fixed network parameters."""

    label = "learned"

    def __init__(self, params, dims: NetworkDims):
        self.params = params
        self.dims = dims

    def _marginals(self, profiles) -> np.ndarray:
        P, Q, _ = encode_arrays(profiles, profiles[0].n, profiles[0].m)
        return forward_batch(self.params, self.dims, network_input(P, Q, self.dims))

    def evaluate(self, profile: PreferenceProfile) -> RandomizedMatching:
        return RandomizedMatching(self._marginals([profile])[0])

    def evaluate_many(self, profiles) -> list:
        if not profiles:
            return []
        return [RandomizedMatching(r) for r in self._marginals(profiles)]

    def report_marginals(self, P: np.ndarray, Q: np.ndarray):
        """Marginals (B, n, m) of B profiles from their encodings P, Q, the
        marginals (B, n*Kw + m*Kf, n, m) of their misreport variants (each
        worker's Kw `misreport_tables` reports, then each firm's Kf), and
        (Kw, Kf)."""
        n, m = self.dims.n, self.dims.m
        X = network_input(P, Q, self.dims)
        r = forward_batch(self.params, self.dims, X)
        Xv, sizes = _variant_inputs(X, self.dims, misreport_tables(n, m))
        r_var = forward_batch(self.params, self.dims, Xv).reshape(len(X), -1, n, m)
        return r, r_var, sizes


# ---------------------------------------------------------------------------
# Checkpoint format (little-endian): magic 'MTCH', u32 version=1,
# u32 n, m, R, J, u32 round(lambda * 1e6), u64 seed, then per layer the
# weights row-major as f32 followed by the biases as f32.

CHECKPOINT_MAGIC = b"MTCH"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params, dims: NetworkDims, lam: float, seed: int) -> None:
    """Atomic: the checkpoint goes to a temporary file in the same directory
    that replaces `path` only once fully written, so a failed write leaves
    the previous checkpoint in place."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IIIIIIQ", CHECKPOINT_VERSION, dims.n, dims.m,
                                 dims.R, dims.J, round(lam * 1e6), seed))
            for weight, bias in params:
                fh.write(weight.astype("<f4").tobytes())
                fh.write(bias.astype("<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise CheckpointError(f"truncated checkpoint: {what} needs {count} bytes, "
                              f"{len(data)} left")
    return data


def load_checkpoint(path):
    """Returns (params, dims, lambda, seed); parameters come back as f64
    copies of the stored f32 values."""
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a matching-network checkpoint")
        header = _read_exact(fh, struct.calcsize("<IIIIIIQ"), "header")
        version, n, m, R, J, lam_scaled, seed = struct.unpack("<IIIIIIQ", header)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        dims = NetworkDims(n=n, m=m, R=R, J=J)
        params = []
        for layer, (w_shape, b_shape) in enumerate(layer_shapes(dims)):
            w_count = w_shape[0] * w_shape[1]
            weight = np.frombuffer(_read_exact(fh, 4 * w_count, f"layer {layer} weights"),
                                   dtype="<f4").reshape(w_shape)
            bias = np.frombuffer(_read_exact(fh, 4 * b_shape[0], f"layer {layer} biases"),
                                 dtype="<f4")
            params.append((weight.astype(np.float64), bias.astype(np.float64)))
        if fh.read(1):
            raise CheckpointError("trailing bytes in checkpoint")
    return params, dims, lam_scaled / 1e6, seed
