import csv
import gc
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import traincache
from matchfrontier import cli, metrics, net
from matchfrontier.autodiff import Tape, backward
from matchfrontier.net import (NetworkDims, NetworkMechanism, NumericOverflowError,
                               init_params, load_checkpoint)
from matchfrontier.prefs import (AgentId, DistributionConfig,
                                 DistributionKind, PreferenceOrder,
                                 PreferenceProfile, Side, encode_ranks,
                                 enumerate_misreports, parse_profile,
                                 rank_arrays, sample_profiles)
from matchfrontier.train import (HELDOUT_LANE, TrainConfig, _Batch, _defeat_inputs,
                                 _loss_from_batch, _loss_node, _search_defeating,
                                 _variant_inputs, misreport_tables, train)

from conftest import reference_encode

train_module = sys.modules["matchfrontier.train"]


def small_dist(n=2, m=2, seed=7, p_trunc=0.3):
    return DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                              p_trunc=p_trunc, seed=seed)


def small_config(lam=0.4, seed=7, **overrides):
    base = TrainConfig(lam=lam, hidden_layers=2, hidden_units=6, dist=small_dist(seed=seed),
                       batch_size=4, iterations=6, base_lr=0.002,
                       lr_milestones=(4,), weight_decay=0.01, eval_every=3,
                       test_size=8, checkpoint_path="", log_path="")
    return replace(base, **overrides)


def build_loss(params, dims, profiles, lam):
    """_loss_from_batch's (tape, loss, param_nodes) on a batch of profiles."""
    return _loss_from_batch(params, dims, _Batch(profiles, dims), lam)


class TestLossGradient:
    def test_matches_finite_differences(self):
        dims = NetworkDims(2, 2, R=2, J=6)
        dist = small_dist()
        params = init_params(dims, seed=3)
        profiles = sample_profiles(dist, 3, lane=1)
        tape, loss, param_nodes = build_loss(params, dims, profiles, lam=0.4)
        backward(tape, loss)
        grads = [tuple(p.grad for p in group) for group in param_nodes]

        rng = np.random.default_rng(0)
        for _ in range(15):
            li = int(rng.integers(len(params)))
            pj = int(rng.integers(2))
            idx = tuple(int(rng.integers(s)) for s in params[li][pj].shape)
            h = 1e-6

            def loss_at(delta):
                bumped = [list(group) for group in params]
                bumped[li][pj] = params[li][pj].copy()
                bumped[li][pj][idx] += delta
                bumped = [tuple(group) for group in bumped]
                return float(build_loss(bumped, dims, profiles, 0.4)[1].value)

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            assert grads[li][pj][idx] == pytest.approx(fd, abs=1e-7)

    def test_loss_is_convex_combination(self):
        # at lambda 1 the loss is the batch's mean stv, at lambda 0 the mean
        # of the searched regret, and in between their convex combination
        dims = NetworkDims(2, 2, R=2, J=6)
        params = init_params(dims, seed=3)
        profiles = sample_profiles(small_dist(), 3, lane=1)
        batch = _Batch(profiles, dims)
        r_truth = net.forward_batch(params, dims, batch.X)
        variants = _variant_inputs(batch.X, dims, misreport_tables(dims.n, dims.m))
        gains = _search_defeating(params, dims, batch, variants, r_truth)[2]
        stv = metrics.stv_batch(r_truth, batch.P, batch.Q).mean()
        rgt = (gains * metrics.side_weights(2, 2)).sum(axis=1).mean()
        assert rgt > 0.0
        for lam in (0.0, 0.3, 0.7, 1.0):
            loss = float(build_loss(params, dims, profiles, lam)[1].value)
            assert loss == pytest.approx(lam * stv + (1 - lam) * rgt, abs=1e-12)

    @pytest.mark.parametrize("n,m,kind,p_corr", [
        (2, 3, DistributionKind.UNCORRELATED, 0.0),
        (3, 3, DistributionKind.UNCORRELATED, 0.0),
        (4, 4, DistributionKind.CORRELATED, 0.25)])
    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    def test_loss_node_matches_central_differences(self, n, m, kind, p_corr, lam):
        # the loss node's backprop against central differences of its value
        # in the truth and defeat marginals.  stv is quadratic in r_t and the
        # surrogate is piecewise linear, so the differences are exact up to
        # rounding, except for entries whose step moves a selected agent's
        # gain across the relu's kink
        batch, best_k, ind_sel, r_t, r_d = pinned_loss_inputs(n, m, kind, p_corr, lam)
        (leaf_t, leaf_d), (loss, stv, rgt) = loss_node_at(batch, ind_sel, lam, r_t, r_d)
        assert float(loss.value) == pytest.approx(lam * stv + (1 - lam) * rgt, abs=1e-15)
        backward(loss.tape, loss)

        h = 1e-5
        B, A = len(batch.profiles), n + m
        gain = (r_d.reshape(B, A, n, m) * ind_sel).sum(axis=(2, 3)) \
            - (r_t[:, None] * ind_sel).sum(axis=(2, 3))
        chosen = best_k >= 0
        assert np.any(chosen & (gain > 0)) and np.any(chosen & (gain < 0)), \
            "the selection must cover both sides of the relu's kink"
        near_kink = (np.abs(gain) <= 2 * h)[:, :, None, None] & (ind_sel > 0)
        checked = skipped = 0
        for arr, grad, kink in ((r_t, leaf_t.grad, near_kink.any(axis=1)),
                                (r_d, leaf_d.grad, near_kink.reshape(r_d.shape))):
            for idx in np.ndindex(arr.shape):
                if kink[idx]:
                    skipped += 1
                    continue
                values = []
                for step in (h, -h):
                    bumped = arr.copy()
                    bumped[idx] += step
                    args = (bumped, r_d) if arr is r_t else (r_t, bumped)
                    values.append(float(loss_node_at(batch, ind_sel, lam, *args)[1][0].value))
                assert grad[idx] == pytest.approx((values[0] - values[1]) / (2 * h),
                                                  abs=1e-9), idx
                checked += 1
        assert skipped < checked / 10

    def test_loss_node_relu_kink_has_slope_zero(self):
        # a selected agent whose defeat marginals equal the truth's has a
        # gain of exactly 0, where the surrogate's slope is 0
        n, m = 3, 3
        batch, best_k, ind_sel, r_t, r_d = pinned_loss_inputs(
            n, m, DistributionKind.UNCORRELATED, 0.0, 0.0)
        b, a = np.argwhere(best_k >= 0)[0]
        row = b * (n + m) + a
        r_d = r_d.copy()
        r_d[row] = r_t[b]
        (leaf_t, leaf_d), (loss, _, _) = loss_node_at(batch, ind_sel, 0.0, r_t, r_d)
        backward(loss.tape, loss)
        assert ind_sel[b, a].any()
        assert not leaf_d.grad[row].any()


def pinned_loss_inputs(n, m, kind, p_corr, lam):
    """A 12-profile batch, its defeating selection pinned at init_params
    and its truth and defeat marginals at perturbed parameters, so that
    some selected gains are negative: (batch, best_k, ind_sel, r_t, r_d)."""
    dims = NetworkDims(n, m, R=2, J=16)
    dist = DistributionConfig(kind, n, m, p_corr=p_corr, p_trunc=0.3, seed=11)
    rng = np.random.default_rng(5)
    pinned_at = init_params(dims, seed=11)
    params = [(w + 0.3 * rng.standard_normal(w.shape), b + 0.3 * rng.standard_normal(b.shape))
              for w, b in pinned_at]
    profiles = sample_profiles(dist, 12, lane=1)
    batch = _Batch(profiles, dims)
    variants = _variant_inputs(batch.X, dims, misreport_tables(dims.n, dims.m))
    best_k, best_th, _ = _search_defeating(pinned_at, dims, batch, variants,
                                           net.forward_batch(pinned_at, dims, batch.X))
    X_def, ind_sel = _defeat_inputs(batch, dims, variants, best_k, best_th)
    r_t = net.forward_batch(params, dims, batch.X)
    r_d = net.forward_batch(params, dims, X_def.reshape(-1, X_def.shape[2]))
    return batch, best_k, ind_sel, r_t, r_d


def loss_node_at(batch, ind_sel, lam, r_t, r_d):
    """The loss node over two fresh leaves holding r_t and r_d: the leaves
    and _loss_node's (loss, stv, rgt)."""
    tape = Tape()
    leaves = tape.leaf(r_t), tape.leaf(r_d)
    return leaves, _loss_node(*leaves, batch, ind_sel, lam)


def reference_batch(profiles, dims):
    """_Batch's arrays built with per-agent prefers() loops and the old
    per-element encoder: the reference the rank-array construction must
    reproduce bit for bit."""
    n, m = dims.n, dims.m
    B = len(profiles)
    A = n + m
    TH = max(n, m)
    P = np.empty((B, n, m))
    Q = np.empty((B, n, m))
    ind = np.zeros((B, A, TH, n, m))
    thr_valid = np.zeros((B, A, TH), dtype=bool)
    for b, profile in enumerate(profiles):
        P[b], Q[b] = reference_encode(profile)
        for w, order in enumerate(profile.workers):
            for t, threshold in enumerate(order.acceptable()):
                for f in range(m):
                    if f == threshold or order.prefers(f, threshold):
                        ind[b, w, t, w, f] = 1.0
                thr_valid[b, w, t] = True
        for f, order in enumerate(profile.firms):
            for t, threshold in enumerate(order.acceptable()):
                for w in range(n):
                    if w == threshold or order.prefers(w, threshold):
                        ind[b, n + f, t, w, f] = 1.0
                thr_valid[b, n + f, t] = True
    X = np.concatenate([P.reshape(B, -1), Q.reshape(B, -1)], axis=1)
    return dict(P=P, Q=Q, ind=ind, thr_valid=thr_valid, X=X)


class TestBatch:
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (2, 3), (3, 2)])
    @pytest.mark.parametrize("kind,p_corr", [(DistributionKind.UNCORRELATED, 0.0),
                                             (DistributionKind.CORRELATED, 0.5)])
    def test_equals_loop_reference(self, n, m, kind, p_corr):
        dist = DistributionConfig(kind, n, m, p_corr=p_corr, p_trunc=0.5, seed=11)
        profiles = sample_profiles(dist, 64)
        dims = NetworkDims(n, m, R=2, J=4)
        batch = _Batch(profiles, dims)
        for name, expected in reference_batch(profiles, dims).items():
            got = getattr(batch, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name

    def test_invalid_ranking_rejected(self):
        # a worker ranking a firm index outside 0..m-1
        profile = PreferenceProfile((PreferenceOrder((0, 5, -1)),),
                                    (PreferenceOrder((0, -1)), PreferenceOrder((0, -1))))
        with pytest.raises(ValueError):
            _Batch([profile], NetworkDims(1, 2, R=1, J=2))


def reference_defeat_inputs(batch, dims, tables, best_k, best_th):
    """The defeat inputs filled by a per-(profile, agent) loop: the
    reference the vectorized construction must reproduce bit for bit."""
    n, m = dims.n, dims.m
    B = len(batch.profiles)
    A = n + m
    table_w, table_f = tables
    X_def = np.repeat(batch.X, A, axis=0).reshape(B, A, -1)
    ind_sel = np.zeros((B, A, n, m))
    for b in range(B):
        for a in range(A):
            k = best_k[b, a]
            if k < 0:
                continue
            ind_sel[b, a] = batch.ind[b, a, best_th[b, a]]
            if a < n:
                w = a
                X_def[b, a, w * m:(w + 1) * m] = table_w[k]
            else:
                f = a - n
                X_def[b, a, n * m + np.arange(n) * m + f] = table_f[k]
    return X_def, ind_sel


class TestDefeatInputs:
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (2, 3), (3, 2)])
    def test_equals_loop_reference(self, n, m):
        dist = DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                                  p_trunc=0.5, seed=13)
        profiles = sample_profiles(dist, 32)
        dims = NetworkDims(n, m, R=2, J=8)
        batch = _Batch(profiles, dims)
        tables = misreport_tables(n, m)
        params = init_params(dims, seed=3)
        r_truth = net.forward_batch(params, dims, batch.X)
        variants = _variant_inputs(batch.X, dims, tables)
        searched = _search_defeating(params, dims, batch, variants, r_truth)[:2]
        # a random selection also reaches misreports the search never picks
        rng = np.random.default_rng(5)
        sizes = np.array([len(tables[0])] * n + [len(tables[1])] * m)
        random_k = np.floor(rng.random((32, n + m)) * (sizes + 1)).astype(np.int64) - 1
        random_th = rng.integers(0, max(n, m), size=(32, n + m))
        for best_k, best_th in (searched, (random_k, random_th)):
            assert (best_k < 0).any() and (best_k >= 0).any()
            got = _defeat_inputs(batch, dims, variants, best_k, best_th)
            expected = reference_defeat_inputs(batch, dims, tables, best_k, best_th)
            for g, e in zip(got, expected):
                assert g.dtype == e.dtype
                assert np.array_equal(g, e)


def search(params, dims, profiles):
    """_search_defeating's (best_k, best_gain) on a batch of profiles."""
    batch = _Batch(profiles, dims)
    r_truth = net.forward_batch(params, dims, batch.X)
    variants = _variant_inputs(batch.X, dims, misreport_tables(dims.n, dims.m))
    best_k, _, best_gain = _search_defeating(params, dims, batch, variants, r_truth)
    return best_k, best_gain


class TestDefeatingSearch:
    def test_gain_equals_enumerated_regret(self):
        # the searched max gain must equal the independent per-agent regret
        dims = NetworkDims(3, 3, R=2, J=8)
        for seed in (1, 2, 3):
            params = init_params(dims, seed=seed)
            mech = NetworkMechanism(params, dims)
            profiles = sample_profiles(small_dist(3, 3, seed=seed), 3)
            _, best_gain = search(params, dims, profiles)
            for b, profile in enumerate(profiles):
                expected = metrics.regret_gains(mech, profile)
                for a, _ in enumerate(profile.agents()):
                    assert best_gain[b, a] == pytest.approx(expected[a], abs=1e-9)

    def test_truth_returned_when_no_gain(self):
        # an agent with an empty acceptable list can never gain
        profile = parse_profile("_,f1,f2;f1,f2,_|w1,w2,_;w2,w1,_")
        dims = NetworkDims(2, 2, R=2, J=6)
        best_k, best_gain = search(init_params(dims, seed=5), dims, [profile])
        assert best_k[0, 0] == -1
        assert best_gain[0, 0] == 0.0


def full_orders(n, m):
    """A worker's and a firm's (size+1)! misreport orders, the ones no
    partner is acceptable in included."""
    return enumerate_misreports(Side.WORKER, m), enumerate_misreports(Side.FIRM, n)


def full_tables(n, m):
    """The encoded rows of full_orders: the reference the pruned tables
    must match."""
    return tuple(encode_ranks(*rank_arrays(orders, size), size)
                 for orders, size in zip(full_orders(n, m), (m, n)))


def kept(orders):
    """Indices of the orders with at least one acceptable partner."""
    return np.array([k for k, order in enumerate(orders) if order.acceptable()])


MARKETS = [(3, 3), (4, 4), (2, 3), (3, 2)]


class TestPrunedTables:
    @pytest.mark.parametrize("n,m", MARKETS)
    def test_orders_with_an_acceptable_partner(self, n, m):
        tables = misreport_tables(n, m)
        for table, again, orders, full, size in zip(tables, misreport_tables(n, m),
                                                    full_orders(n, m), full_tables(n, m),
                                                    (m, n)):
            assert again is table  # built once per market
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
            assert len(table) == math.factorial(size + 1) - math.factorial(size)
            assert table.tobytes() == full[kept(orders)].tobytes()

    @pytest.mark.parametrize("n,m", MARKETS)
    def test_unacceptable_report_has_zero_marginals(self, n, m):
        # the invariant the pruning rests on: a report that accepts nobody
        # gets exactly 0 on the deviator's row (worker) or column (firm)
        dims = NetworkDims(n, m, R=2, J=16)
        dist = DistributionConfig(DistributionKind.UNCORRELATED, n, m, p_trunc=0.5, seed=17)
        B = 8
        batch = _Batch(sample_profiles(dist, B), dims)
        orders_w, orders_f = full_orders(n, m)
        Xv, (Kw, Kf) = _variant_inputs(batch.X, dims, full_tables(n, m))
        assert (Kw, Kf) == (len(orders_w), len(orders_f))
        r = net.forward_batch(init_params(dims, seed=2), dims, Xv)
        r = r.reshape(B, n * Kw + m * Kf, n, m)
        empty_w = np.setdiff1d(np.arange(Kw), kept(orders_w))
        empty_f = np.setdiff1d(np.arange(Kf), kept(orders_f))
        assert len(empty_w) == math.factorial(m) and len(empty_f) == math.factorial(n)
        for w in range(n):
            assert np.all(r[:, w * Kw + empty_w, w, :] == 0.0)
        for f in range(m):
            assert np.all(r[:, n * Kw + f * Kf + empty_f, :, f] == 0.0)

    @pytest.mark.parametrize("n,m", MARKETS)
    @pytest.mark.parametrize("kind,p_corr", [(DistributionKind.UNCORRELATED, 0.0),
                                             (DistributionKind.CORRELATED, 0.5)])
    def test_search_equals_full_table(self, n, m, kind, p_corr):
        dims = NetworkDims(n, m, R=2, J=64)
        dist = DistributionConfig(kind, n, m, p_corr=p_corr, p_trunc=0.5, seed=19)
        batch = _Batch(sample_profiles(dist, 16), dims)
        params = [(3.0 * w, b) for w, b in init_params(dims, seed=n + m)]
        r_truth = net.forward_batch(params, dims, batch.X)
        full_k, full_th, full_gain = _search_defeating(
            params, dims, batch, _variant_inputs(batch.X, dims, full_tables(n, m)), r_truth)
        best_k, best_th, best_gain = _search_defeating(
            params, dims, batch, _variant_inputs(batch.X, dims, misreport_tables(n, m)), r_truth)
        assert (best_k >= 0).any()
        assert best_gain.tobytes() == full_gain.tobytes()
        assert np.array_equal(best_th, full_th)
        for agents, orders in zip((slice(0, n), slice(n, n + m)), full_orders(n, m)):
            k = best_k[:, agents]
            mapped = np.where(k >= 0, kept(orders)[np.maximum(k, 0)], -1)
            assert np.array_equal(mapped, full_k[:, agents])


class TestForwardChunks:
    def test_desk_search_rows_equal_one_call(self, monkeypatch):
        # forward_batch runs these rows as 14 parts, with this machine's
        # helper threads and then all on the caller; BLAS's small-matrix path
        # gives other bits for calls of at most 50 rows at J=64, so the split
        # is exact only while every part is larger
        config = traincache.desk_config(0.5, 1)
        dims = config.dims
        batch = _Batch(sample_profiles(config.dist, config.batch_size, lane=1), dims)
        Xv, _ = _variant_inputs(batch.X, dims, misreport_tables(dims.n, dims.m))
        assert Xv.shape[0] == 13_824
        params = init_params(dims, seed=1)
        whole = net._forward_rows(params, dims, Xv).tobytes()
        assert net.forward_batch(params, dims, Xv).tobytes() == whole
        monkeypatch.setattr(net, "_helpers", lambda: None)
        assert net.forward_batch(params, dims, Xv).tobytes() == whole


class TestTruthForward:
    def test_one_truth_forward_per_iteration(self, monkeypatch):
        # count the forwards (plain and tape) over the batch's truth rows
        truth, calls = [], []

        def is_truth(x):
            return bool(truth) and (x is truth[-1] or x.base is truth[-1])

        def batch(*args):
            out = _Batch(*args)
            truth.append(out.X)
            return out

        def forward_batch(params, dims, x):
            calls.append(is_truth(x))
            return plain_forward(params, dims, x)

        def forward_tape(tape, param_nodes, dims, x):
            calls.append(is_truth(x))
            return tape_forward(tape, param_nodes, dims, x)

        plain_forward, tape_forward = net.forward_batch, train_module._forward_tape
        monkeypatch.setattr(train_module, "_Batch", batch)
        monkeypatch.setattr(net, "forward_batch", forward_batch)
        monkeypatch.setattr(train_module, "_forward_tape", forward_tape)
        train(small_config(iterations=1, eval_every=0, test_size=0))
        assert len(truth) == 1
        assert sum(calls) == 1

    def test_loss_unchanged_by_sharing(self):
        # the tape's truth values equal the plain forward's bit for bit,
        # so the search picks the same reports either way, and the loss is
        # the one built at the plain forward's selection
        dims = NetworkDims(3, 3, R=2, J=8)
        params = init_params(dims, seed=2)
        profiles = sample_profiles(small_dist(3, 3, seed=4), 16)
        batch = _Batch(profiles, dims)
        _, loss, _ = _loss_from_batch(params, dims, batch, 0.4)
        r_plain = net.forward_batch(params, dims, batch.X)
        assert loss.parents[0].value.tobytes() == r_plain.tobytes()

        variants = _variant_inputs(batch.X, dims, misreport_tables(3, 3))
        best_k, best_th, _ = _search_defeating(params, dims, batch, variants, r_plain)
        X_def, ind_sel = _defeat_inputs(batch, dims, variants, best_k, best_th)
        r_def = net.forward_batch(params, dims, X_def.reshape(-1, X_def.shape[2]))
        _, (expected, _, _) = loss_node_at(batch, ind_sel, 0.4, r_plain, r_def)
        assert float(loss.value) == float(expected.value)


class TestTrainLoop:
    def test_deterministic(self):
        a = train(small_config())
        b = train(small_config())
        for (wa, ba), (wb, bb) in zip(a.params, b.params):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        assert a.heldout_stv == b.heldout_stv
        assert a.heldout_rgt == b.heldout_rgt

    def test_seed_changes_results(self):
        a = train(small_config(seed=7))
        b = train(small_config(seed=8))
        assert not np.array_equal(a.params[0][0], b.params[0][0])

    def test_heldout_matches_metrics_evaluate(self):
        result = train(small_config())
        config = small_config()
        mech = NetworkMechanism(result.params, config.dims)
        heldout = sample_profiles(config.dist, config.test_size, lane=HELDOUT_LANE)
        report = metrics.evaluate(mech, heldout)
        assert result.heldout_stv == pytest.approx(report.stv, abs=1e-9)
        assert result.heldout_rgt == pytest.approx(report.rgt, abs=1e-9)

    def test_heldout_is_mean_of_pass_arrays(self):
        # training's held-out numbers are np.mean of the learned per-profile
        # arrays that metrics.evaluate sums in profile order
        config = small_config(dist=small_dist(3, 3),
                              iterations=2, eval_every=2, test_size=140)
        result = train(config)
        heldout = sample_profiles(config.dist, config.test_size, lane=HELDOUT_LANE)
        arrays = metrics.profile_metrics(NetworkMechanism(result.params, config.dims),
                                         heldout)
        assert result.heldout_stv == float(arrays["stv"].mean())
        assert result.heldout_rgt == float(arrays["rgt"].mean())
        assert result.log[-1][2:4] == (result.heldout_stv, result.heldout_rgt)

    def test_checkpoint_and_log_written(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        log = tmp_path / "run.log"
        config = small_config(checkpoint_path=str(ckpt), log_path=str(log))
        result = train(config)
        params, dims, lam, seed = load_checkpoint(ckpt)
        assert dims == config.dims and lam == pytest.approx(config.lam)
        # stored weights are f32 roundings of the final parameters
        assert np.allclose(params[0][0], result.params[0][0], atol=1e-6)
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "loss", "stv", "rgt", "lr"]
        assert [int(r[0]) for r in rows[1:]] == [3, 6]

    @staticmethod
    def count_eval_points(monkeypatch):
        """Lists that grow by one per held-out evaluation and per checkpoint write."""
        evals, saves = [], []
        heldout, save = train_module._heldout_stv_rgt, net.save_checkpoint

        def counted_heldout(*args):
            evals.append(1)
            return heldout(*args)

        def counted_save(*args):
            saves.append(1)
            return save(*args)

        monkeypatch.setattr(train_module, "_heldout_stv_rgt", counted_heldout)
        monkeypatch.setattr(net, "save_checkpoint", counted_save)
        return evals, saves

    def test_one_evaluation_and_checkpoint_per_eval_point(self, tmp_path, monkeypatch):
        # the last iteration is the eval point at 6: evaluated and saved once
        evals, saves = self.count_eval_points(monkeypatch)
        result = train(small_config(iterations=6, eval_every=3,
                                    checkpoint_path=str(tmp_path / "run.ckpt")))
        assert [row[0] for row in result.log] == [3, 6]
        assert len(evals) == 2
        assert len(saves) == 2

    def test_final_row_logged_and_reported_once(self, tmp_path):
        log = tmp_path / "run.log"
        reported = []
        result = train(small_config(iterations=7, eval_every=3, log_path=str(log)),
                       progress=lambda iteration, *_: reported.append(iteration))
        with open(log) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in rows] == [3, 6, 7]
        assert [row[0] for row in result.log] == [3, 6, 7]
        assert reported == [3, 6, 7]
        assert result.log[-1][2:4] == (result.heldout_stv, result.heldout_rgt)

    def test_row_loss_is_mean_since_previous_row(self):
        # eval points do not touch the parameters, so a run that logs every
        # iteration gives the per-iteration losses of the same trajectory
        losses = [row[1] for row in train(small_config(iterations=7, eval_every=1)).log]
        rows = train(small_config(iterations=7, eval_every=3)).log
        assert [row[1] for row in rows] == [float(np.mean(losses[a:b]))
                                            for a, b in ((0, 3), (3, 6), (6, 7))]
        only = train(small_config(iterations=7, eval_every=0)).log
        assert [row[1] for row in only] == [float(np.mean(losses))]

    def test_truth_forward_overflow_aborts_before_update(self, tmp_path, monkeypatch):
        def huge_first_layer(dims, seed):
            params = init_params(dims, seed)
            params[0] = (np.full_like(params[0][0], 1e308), params[0][1])
            return params

        def unreachable(*args):
            raise AssertionError("the truth forward did not raise")

        # the tape's truth forward raises, before the search and the update
        monkeypatch.setattr(train_module, "init_params", huge_first_layer)
        monkeypatch.setattr(train_module, "_search_defeating", unreachable)
        monkeypatch.setattr(train_module, "adam_step", unreachable)
        log = tmp_path / "run.log"
        with pytest.raises(NumericOverflowError) as info:
            train(small_config(log_path=str(log)))
        assert info.value.layer == 0
        with open(log) as fh:
            assert list(csv.reader(fh)) == [["iter", "loss", "stv", "rgt", "lr"]]

    def test_zero_iterations_checkpoint_initial_params(self, tmp_path, monkeypatch):
        evals, saves = self.count_eval_points(monkeypatch)
        ckpt = tmp_path / "run.ckpt"
        config = small_config(iterations=0, checkpoint_path=str(ckpt))
        result = train(config)
        assert len(evals) == 1 and len(saves) == 1
        assert result.log == []
        assert math.isfinite(result.heldout_stv) and math.isfinite(result.heldout_rgt)
        params, _, _, _ = load_checkpoint(ckpt)
        for (w, b), (w0, b0) in zip(params, init_params(config.dims, seed=config.dist.seed)):
            assert np.array_equal(w, w0.astype(np.float32))
            assert np.array_equal(b, b0.astype(np.float32))

    def test_lr_schedule_applied(self, tmp_path):
        log = tmp_path / "run.log"
        config = small_config(log_path=str(log), lr_milestones=(4,))
        train(config)
        with open(log) as fh:
            rows = list(csv.reader(fh))[1:]
        assert float(rows[0][4]) == pytest.approx(0.002)   # iters 0-2
        assert float(rows[1][4]) == pytest.approx(0.001)   # after milestone 4

    def test_tapes_freed_without_gc(self):
        # each iteration's tape must be freed by reference counting alone
        gc.collect()
        gc.disable()
        try:
            train(small_config(iterations=3, eval_every=0, test_size=0))
            live = [obj for obj in gc.get_objects() if isinstance(obj, Tape)]
        finally:
            gc.enable()
        assert live == []

    def test_lambda_bounds_validated(self):
        with pytest.raises(ValueError):
            small_config(lam=1.5)

    def test_loss_decreases_on_short_run(self):
        # 60 iterations at desk-like lr should improve the running loss
        config = small_config(iterations=60, eval_every=60, base_lr=0.005,
                              batch_size=8, lr_milestones=())
        result = train(config)
        profiles = sample_profiles(config.dist, 32, lane=HELDOUT_LANE)
        first = build_loss(init_params(config.dims, seed=config.dist.seed), config.dims,
                           profiles, config.lam)[1]
        last = build_loss(result.params, config.dims, profiles, config.lam)[1]
        assert float(last.value) < float(first.value)


DESK_LAMBDAS = (0.0, 0.3, 0.5, 0.8, 1.0)


def sweep_config(lam, seed):
    """The TrainConfig `sweep --preset desk --seed <seed>` trains at lambda,
    before the sweep drops its per-run held-out evaluation."""
    args = cli.build_parser().parse_args(
        ["sweep", "--preset", "desk", "--seed", str(seed), "--lambdas", str(lam),
         "--out-dir", "unused"])
    settings = dict(cli.resolve_settings(args), **{"lambda": lam})
    return cli.train_config_from_settings(settings, "run.ckpt", "run.log")


class TestDeskConfig:
    def test_preset_shape(self):
        config = traincache.desk_config(0.5, 2)
        assert config.dims == NetworkDims(3, 3, R=4, J=64)
        assert config.batch_size == 128
        assert config.iterations == 2000
        assert config.test_size == 2048
        assert config.dist.seed == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_sweep_preset(self, seed, monkeypatch):
        expected = {lam: sweep_config(lam, seed) for lam in DESK_LAMBDAS}
        for lam in DESK_LAMBDAS:
            assert traincache.desk_config(lam, seed, "run.ckpt", "run.log") == expected[lam]
        # MATCH_SEED overrides the sweep's seed but never the cached runs'
        monkeypatch.setenv("MATCH_SEED", "99")
        assert sweep_config(0.5, seed).dist.seed == 99
        for lam in DESK_LAMBDAS:
            assert traincache.desk_config(lam, seed, "run.ckpt", "run.log") == expected[lam]


class TestTrainCache:
    def test_missing_checkpoint_is_announced(self, tmp_path, monkeypatch, capsys):
        trained = []

        def fake_train_run(lam, seed, path):
            trained.append((lam, seed, path))
            with open(path, "wb") as fh:
                fh.write(b"ckpt")

        monkeypatch.setattr(traincache, "ARTIFACT_DIR", str(tmp_path / "artifacts"))
        monkeypatch.setattr(traincache, "train_run", fake_train_run)
        path = traincache.ensure_checkpoint(0.5, 1)
        assert trained == [(0.5, 1, path)]
        err = capsys.readouterr().err
        assert "training desk_s1_l0.5" in err and f"no checkpoint at {path}" in err
        # a cached checkpoint is reused without a word
        assert traincache.ensure_checkpoint(0.5, 1) == path
        assert len(trained) == 1 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("names,runs", [([], traincache.ACCEPTANCE_RUNS),
                                            (["desk_s2_l1"], [(1.0, 2)])],
                             ids=["all-nine", "named"])
    def test_check_runs_named_or_all(self, monkeypatch, names, runs):
        checked = []
        monkeypatch.setattr(traincache, "check_runs", lambda runs: checked.append(runs) or 0)
        assert traincache.main(["--check", *names]) == 0
        assert checked == [runs]
