import ctypes
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from matchfrontier import metrics, net
from matchfrontier.net import (LEAKY_SLOPE, CheckpointError, NetworkDims,
                               NetworkMechanism, NumericOverflowError,
                               _variant_inputs, forward_batch, init_params,
                               layer_shapes, load_checkpoint, misreport_tables,
                               network_input, save_checkpoint)
from matchfrontier.prefs import (DistributionConfig, DistributionKind, encode,
                                 encode_arrays, parse_profile, sample_profiles)

from conftest import reference_build_mask


def random_profiles(count, n=4, m=4, seed=0):
    cfg = DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                             p_trunc=0.3, seed=seed)
    return sample_profiles(cfg, count)


def zero_params(dims):
    return [(np.zeros(w), np.zeros(b)) for w, b in layer_shapes(dims)]


def reference_forward(params, dims, x, beta):
    """The forward pass written plainly, one finite check per layer, with
    the (rows, n+1, m+1) masks beta of `profile_inputs`: the reference
    forward_batch must reproduce bit for bit."""
    n, m = dims.n, dims.m
    h = x
    for layer, (weight, bias) in enumerate(params[:-1]):
        z = h @ weight.T + bias
        h = np.where(z > 0.0, z, LEAKY_SLOPE * z)
        if not np.all(np.isfinite(h)):
            raise NumericOverflowError(layer)
    weight, bias = params[-1]
    out = h @ weight.T + bias
    if not np.all(np.isfinite(out)):
        raise NumericOverflowError(len(params) - 1)
    split = (n + 1) * m
    s = out[:, :split].reshape(-1, n + 1, m)
    s2 = out[:, split:].reshape(-1, n, m + 1)
    sbar = beta[:, :, :m] * np.logaddexp(0.0, s)
    sbar2 = beta[:, :n, :] * np.logaddexp(0.0, s2)
    shat = sbar / sbar.sum(axis=1, keepdims=True)
    shat2 = sbar2 / sbar2.sum(axis=2, keepdims=True)
    return np.minimum(shat[:, :n, :], shat2[:, :, :m])


class TestDims:
    def test_widths(self):
        dims = NetworkDims(4, 4, R=4, J=256)
        assert dims.input_width == 32
        assert dims.output_width == 5 * 4 + 4 * 5

    def test_layer_shapes(self):
        shapes = layer_shapes(NetworkDims(3, 3, R=2, J=16))
        assert shapes[0] == ((16, 18), (16,))
        assert shapes[1] == ((16, 16), (16,))
        assert shapes[2] == ((24, 16), (24,))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            NetworkDims(2, 2, R=0, J=4)


class TestInit:
    def test_deterministic(self):
        dims = NetworkDims(3, 3, R=2, J=8)
        a = init_params(dims, seed=5)
        b = init_params(dims, seed=5)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 1, 2 ** 64 - 1])
    def test_philox_key_bitwise(self, seed):
        # Philox keyed on (seed, 0x6E6574) as u64, drawn layer by layer
        dims = NetworkDims(3, 3, R=2, J=8)
        key = np.array([seed, 0x6E6574], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        for (w, _), (w_shape, _) in zip(init_params(dims, seed), layer_shapes(dims)):
            bound = np.sqrt(1.0 / w_shape[1])
            assert np.array_equal(w, rng.uniform(-bound, bound, size=w_shape))

    def test_fan_in_bound(self):
        dims = NetworkDims(3, 3, R=2, J=8)
        for (w, b), (w_shape, _) in zip(init_params(dims, 0), layer_shapes(dims)):
            assert np.all(np.abs(w) <= np.sqrt(1.0 / w_shape[1]))
            assert np.all(b == 0)


class TestMask:
    def test_mutual_acceptability(self):
        # the kernel reads the mask off the encoded input
        profile = parse_profile("f1,_,f2|w1,_;_,w1")
        x, _ = profile_inputs([profile])
        accept = net.acceptable_pairs(x, 1, 2)
        assert accept.dtype == bool
        assert accept[0, 0, 0]       # mutually acceptable
        assert not accept[0, 0, 1]   # w1 rejects f2 and f2 rejects w1
        dims = NetworkDims(1, 2, R=1, J=4)
        r = forward_batch(init_params(dims, seed=1), dims, x)
        assert r[0, 0, 0] > 0.0 and r[0, 0, 1] == 0.0


class TestForward:
    def test_zero_params_all_acceptable_uniform(self):
        # softplus(0) constant scores, column norm over n+1, row norm over
        # m+1, min of two 1/5 tensors
        dims = NetworkDims(4, 4, R=4, J=16)
        r = forward_batch(zero_params(dims), dims, np.ones((1, 32)))
        assert np.allclose(r, 0.2, atol=1e-12)

    def test_zero_params_1x1(self):
        dims = NetworkDims(1, 1, R=2, J=4)
        r = forward_batch(zero_params(dims), dims, np.ones((1, 2)))
        assert np.allclose(r, 0.5, atol=1e-12)

    def test_masked_pairs_exactly_zero(self):
        dims = NetworkDims(3, 3, R=2, J=8)
        params = init_params(dims, seed=1)
        mech = NetworkMechanism(params, dims)
        for profile in random_profiles(20, n=3, m=3, seed=7):
            beta = reference_build_mask(profile)
            r = mech.evaluate(profile).r
            assert np.all(r[beta[:3, :3] == 0.0] == 0.0)

    def test_weakly_doubly_stochastic(self):
        dims = NetworkDims(4, 4, R=2, J=8)
        params = init_params(dims, seed=3)
        mech = NetworkMechanism(params, dims)
        for r in mech.evaluate_many(random_profiles(50, seed=9)):
            r.validate()

    def test_network_outputs_are_ir(self):
        # masked pairs carry no mass, so irv is exactly zero
        dims = NetworkDims(4, 4, R=2, J=8)
        mech = NetworkMechanism(init_params(dims, seed=4), dims)
        profiles = random_profiles(30, seed=10)
        P, Q, _ = encode_arrays(profiles, 4, 4)
        r = np.stack([mech.evaluate(profile).r for profile in profiles])
        assert not metrics.irv_batch(r, P, Q).any()

    def test_batched_equals_single(self):
        dims = NetworkDims(3, 3, R=2, J=8)
        mech = NetworkMechanism(init_params(dims, seed=6), dims)
        profiles = random_profiles(8, n=3, m=3, seed=11)
        batched = mech.evaluate_many(profiles)
        for profile, rb in zip(profiles, batched):
            # BLAS may reorder sums across batch shapes; compare to 1e-12
            assert np.allclose(mech.evaluate(profile).r, rb.r, atol=1e-12)

    def test_overflow_detected(self):
        dims = NetworkDims(2, 2, R=2, J=4)
        params = zero_params(dims)
        params[0] = (np.full_like(params[0][0], 1e300), params[0][1])
        with pytest.raises(NumericOverflowError) as info:
            forward_batch(params, dims, np.full((1, 8), 1e300))
        assert info.value.layer == 0

    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_overflow_layer_reported(self, layer):
        # all-ones weights give activations 8, 32, 128 by hidden layer, so
        # 1e307 weights overflow every layer from 1 on, 3 being the output
        dims = NetworkDims(2, 2, R=3, J=4)
        params = [(np.ones(w), np.zeros(b)) for w, b in layer_shapes(dims)]
        params[layer] = (np.full_like(params[layer][0], 1e307), params[layer][1])
        with pytest.raises(NumericOverflowError) as info:
            forward_batch(params, dims, np.ones((2, 8)))
        assert info.value.layer == layer

    # 9x8 makes the normalizing sums long enough for pairwise summation;
    # 1, 2 and 51 rows straddle BLAS's small-matrix path (at most 50 rows at
    # J=64), and R=4, J=64 is the desk preset's network
    @pytest.mark.parametrize("n,m,R,J,rows", [
        pytest.param(3, 3, 3, 16, 64, id="3-3"),
        pytest.param(4, 4, 3, 16, 64, id="4-4"),
        pytest.param(2, 5, 3, 16, 64, id="2-5"),
        pytest.param(9, 8, 3, 16, 64, id="9-8"),
        *(pytest.param(3, 3, 3, 16, rows, id=f"3-3-rows{rows}") for rows in (1, 2, 51)),
        *(pytest.param(3, 3, 4, 64, rows, id=f"desk-rows{rows}") for rows in (1, 2, 51, 64)),
    ])
    def test_bitwise_equal_to_reference(self, n, m, R, J, rows):
        dims = NetworkDims(n, m, R=R, J=J)
        params = [(3.0 * w, b + 0.1) for w, b in init_params(dims, seed=n * m)]
        x, beta = profile_inputs(random_profiles(rows, n=n, m=m, seed=n + m))
        got = forward_batch(params, dims, x)
        assert got.tobytes() == reference_forward(params, dims, x, beta).tobytes()

    def test_inputs_unchanged(self):
        # the forward works in place on its own buffers, never on x
        dims = NetworkDims(3, 3, R=4, J=64)
        x, _ = profile_inputs(random_profiles(16, n=3, m=3, seed=2))
        x_copy = x.copy()
        forward_batch(init_params(dims, seed=4), dims, x)
        assert x.tobytes() == x_copy.tobytes()


def objective_grads(params, dims, x, g, h=1e-6):
    """Central differences of sum(g * forward_batch) in every parameter."""
    grads = []
    for group in params:
        pair = []
        for arr in group:
            fd = np.zeros_like(arr)
            flat, fd_flat = arr.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                sides = []
                for bumped in (orig + h, orig - h):
                    flat[i] = bumped
                    sides.append(float((g * forward_batch(params, dims, x)).sum()))
                flat[i] = orig
                fd_flat[i] = (sides[0] - sides[1]) / (2 * h)
            pair.append(fd)
        grads.append(tuple(pair))
    return grads


def kink_margins(params, dims, x, beta):
    """The smallest |pre-activation| of any hidden unit, and the smallest gap
    between the two normalized scores of an acceptable pair."""
    n, m = dims.n, dims.m
    h, closest = x, np.inf
    for weight, bias in params[:-1]:
        z = h @ weight.T + bias
        closest = min(closest, float(np.abs(z).min()))
        h = np.where(z > 0.0, z, LEAKY_SLOPE * z)
    out = np.logaddexp(0.0, h @ params[-1][0].T + params[-1][1])
    split = (n + 1) * m
    sbar = beta[:, :, :m] * out[:, :split].reshape(-1, n + 1, m)
    sbar2 = beta[:, :n, :] * out[:, split:].reshape(-1, n, m + 1)
    gap = (sbar / sbar.sum(axis=1, keepdims=True))[:, :n, :] \
        - (sbar2 / sbar2.sum(axis=2, keepdims=True))[:, :, :m]
    return closest, float(np.abs(gap[beta[:, :n, :m] > 0.0]).min())


def vjp_grads(params, dims, x, g):
    saved = []
    net._forward_rows(params, dims, x, saved)
    return net.forward_vjp(params, dims, saved, g)


class TestForwardVJP:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3), (4, 4)])
    def test_matches_finite_differences(self, n, m):
        dims = NetworkDims(n, m, R=2, J=8)
        rng = np.random.default_rng(n * 10 + m)
        params = [(3.0 * w, rng.normal(scale=0.1, size=b.shape))
                  for w, b in init_params(dims, seed=n + m)]
        x, beta = profile_inputs(random_profiles(5, n=n, m=m, seed=n * m))
        g = rng.normal(size=(5, n, m))
        # no leaky-ReLU or min kink within reach of the differences' steps
        assert min(kink_margins(params, dims, x, beta)) > 1e-4
        got = vjp_grads(params, dims, x, g)
        for got_group, fd_group in zip(got, objective_grads(params, dims, x, g)):
            for arr, fd in zip(got_group, fd_group):
                assert arr.shape == fd.shape
                assert np.allclose(arr, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n,m,R,J,rows", [(3, 3, 4, 64, 128), (4, 4, 2, 16, 9),
                                              (2, 5, 1, 8, 3)])
    def test_saving_leaves_output_unchanged(self, n, m, R, J, rows):
        dims = NetworkDims(n, m, R=R, J=J)
        params = [(3.0 * w, b + 0.1) for w, b in init_params(dims, seed=rows)]
        x, _ = profile_inputs(random_profiles(rows, n=n, m=m, seed=R))
        saved = []
        r = net._forward_rows(params, dims, x, saved).tobytes()
        assert len(saved) == R + 5
        assert r == net._forward_rows(params, dims, x).tobytes()
        assert r == forward_batch(params, dims, x).tobytes()

    def test_leaky_relu_kink_takes_slope(self):
        # zero first-layer parameters put every hidden pre-activation at 0
        dims = NetworkDims(2, 2, R=1, J=4)
        rng = np.random.default_rng(5)
        params = [(np.zeros((4, 8)), np.zeros(4)),
                  (rng.normal(size=(12, 4)), rng.normal(size=12))]
        x, _ = profile_inputs(random_profiles(1, n=2, m=2, seed=3))
        grads = vjp_grads(params, dims, x, rng.normal(size=(1, 2, 2)))
        g_scores = grads[1][1]  # one row: the output bias's gradient is the scores'
        expected = LEAKY_SLOPE * (g_scores @ params[1][0])
        assert np.any(expected != 0.0)
        assert np.allclose(grads[0][1], expected, rtol=1e-12, atol=0.0)
        assert np.allclose(grads[0][0], np.outer(expected, x[0]), rtol=1e-12, atol=0.0)

    def test_min_tie_goes_to_column_normalized_score(self):
        # zero parameters and a square all-acceptable market: both
        # normalizations give exactly 1/(n+1) everywhere
        dims = NetworkDims(3, 3, R=2, J=4)
        params = zero_params(dims)
        saved = []
        assert np.all(net._forward_rows(params, dims, np.ones((2, 18)), saved) == 0.25)
        g = np.random.default_rng(6).normal(size=(2, 3, 3))
        g_scores = net.forward_vjp(params, dims, saved, g)[-1][1]
        split = 4 * 3
        assert np.all(g_scores[split:] == 0.0)
        assert np.all(g_scores[:split] != 0.0)

    def test_softplus_slope_finite_at_extremes(self):
        # output scores of +800 and -800 alternate, so every normalization
        # has a positive sum; the slope is 1 at +800 and 0 at -800
        dims = NetworkDims(3, 3, R=1, J=4)
        params = zero_params(dims)
        signs = np.where(np.arange(dims.output_width) % 2 == 0, 1.0, -1.0)
        params[-1] = (params[-1][0], 800.0 * signs)
        saved = []
        assert np.all(np.isfinite(net._forward_rows(params, dims, np.ones((1, 18)), saved)))
        g = np.random.default_rng(7).normal(size=(1, 3, 3))
        grads = net.forward_vjp(params, dims, saved, g)
        assert all(np.all(np.isfinite(arr)) for group in grads for arr in group)
        assert np.all(grads[-1][1][signs < 0] == 0.0)
        assert np.any(grads[-1][1][signs > 0] != 0.0)


@pytest.fixture(params=["helpers", "serial"])
def split(request, monkeypatch):
    """forward_batch's parts on two helper threads beside the caller (more
    than this machine may have), or all on the caller."""
    if request.param == "serial":
        monkeypatch.setattr(net, "_helpers", lambda: None)
    else:
        pool = ThreadPoolExecutor(2)
        request.addfinalizer(pool.shutdown)
        monkeypatch.setattr(net, "_helpers", lambda: (pool, 2))


class TestForwardSplit:
    def test_paper_variant_rows_equal_one_call(self, split):
        # two 4x4 profiles' 768 variants each: 1,536 rows, two parts at J=256
        dims = NetworkDims(4, 4, R=4, J=256)
        dist = DistributionConfig(DistributionKind.CORRELATED, 4, 4, p_corr=0.25,
                                  p_trunc=0.2, seed=3)
        P, Q, _ = encode_arrays(sample_profiles(dist, 2), 4, 4)
        Xv, _ = _variant_inputs(network_input(P, Q, dims), dims, misreport_tables(4, 4))
        assert Xv.shape[0] == 1_536
        params = init_params(dims, seed=5)
        expected = net._forward_rows(params, dims, Xv)
        assert forward_batch(params, dims, Xv).tobytes() == expected.tobytes()

    # all-ones weights on 2x2 inputs of ones give activations 8, 32, 128 and
    # 512 by layer; one row of 1e307 overflows at layer 1, of 1e306 at the
    # output layer 3
    @pytest.mark.parametrize("value,layer", [(1e307, 1), (1e306, 3)])
    def test_overflow_in_last_part_raises_in_caller(self, split, value, layer):
        dims = NetworkDims(2, 2, R=3, J=4)
        params = [(np.ones(w), np.zeros(b)) for w, b in layer_shapes(dims)]
        x = np.ones((3 * 1024, 8))
        x[-1] = value
        with pytest.raises(NumericOverflowError) as info:
            forward_batch(params, dims, x)
        assert info.value.layer == layer

    def test_helpers_run_with_blas_on_one_thread(self):
        # OpenBLAS's own threads would spin against the helpers for the CPUs
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU: the parts run serially")
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None) \
            or getattr(lib, "openblas_get_num_threads", None)
        if getter is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a known thread getter")
        assert net._helpers()[1] == len(os.sched_getaffinity(0)) - 1
        getter.argtypes, getter.restype = [], ctypes.c_int
        assert getter() == 1

    def test_forked_child_splits(self):
        # a child forked after the first split has none of the pool's threads
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        dims = NetworkDims(2, 2, R=1, J=4)
        params = init_params(dims, seed=1)
        x = np.ones((2048, 8))
        forward_batch(params, dims, x)
        child = multiprocessing.get_context("fork").Process(
            target=forward_batch, args=(params, dims, x))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
        assert not hung and child.exitcode == 0

    def test_parts_never_small(self, split, monkeypatch):
        # every part of a split stays above BLAS's small-matrix path (at
        # most 50 rows), whose bits differ; 2,052 rows once left a 4-row tail
        sizes = []

        def rows(params, dims, x):
            sizes.append(x.shape[0])
            return np.zeros((x.shape[0], dims.n, dims.m))

        monkeypatch.setattr(net, "_forward_rows", rows)
        dims = NetworkDims(2, 2, R=1, J=4)
        for total in (1, 50, 1024, 1025, 1075, 2048, 2049, 2052, 3073, 13_824):
            sizes.clear()
            out = forward_batch(None, dims, np.zeros((total, 8)))
            assert out.shape == (total, 2, 2)
            assert sum(sizes) == total
            assert len(sizes) == -(-total // 1024)
            if total > 1024:
                assert min(sizes) > 50 and max(sizes) - min(sizes) <= 1


def profile_inputs(profiles):
    """Network inputs (rows, 2nm) and reference masks (rows, n+1, m+1) of
    profiles, each built without net."""
    x = np.stack([np.concatenate([e.p.reshape(-1), e.q.reshape(-1)])
                  for e in map(encode, profiles)])
    return x, np.stack([reference_build_mask(p) for p in profiles])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        dims = NetworkDims(3, 4, R=3, J=8)
        params = init_params(dims, seed=13)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, dims, lam=0.37, seed=99)
        loaded, ldims, lam, seed = load_checkpoint(path)
        assert ldims == dims and lam == pytest.approx(0.37) and seed == 99
        for (w, b), (lw, lb) in zip(params, loaded):
            # storage is f32, so round-trip is exact only to float precision
            assert np.allclose(w, lw, atol=1e-7)
            assert np.allclose(b, lb, atol=1e-7)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        dims = NetworkDims(2, 2, R=1, J=4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(dims, 0), dims, 0.0, 0)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [10, 4 + 31, 4 + 32 + 10, -8, -4],
                             ids=["header", "header-end", "mid-weights", "minus-8", "minus-4"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        # a 2x2, R=1, J=4 file cut short, within the header, inside the
        # first weights, or within the last bias
        dims = NetworkDims(2, 2, R=1, J=4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(dims, 0), dims, 0.0, 0)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous(self, tmp_path):
        dims = NetworkDims(2, 2, R=2, J=4)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(dims, 1), dims, 0.5, 1)
        before = path.read_bytes()

        class FailingArray:
            def astype(self, dtype):
                return self

            def tobytes(self):
                raise OSError("disk full")

        params = init_params(dims, 2)
        params[1] = (FailingArray(), params[1][1])  # fails after layer 0
        with pytest.raises(OSError):
            save_checkpoint(path, params, dims, 0.5, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_loaded_network_runs(self, tmp_path):
        dims = NetworkDims(3, 3, R=2, J=8)
        params = init_params(dims, seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, dims, 0.5, 21)
        loaded, ldims, _, _ = load_checkpoint(path)
        profile = random_profiles(1, n=3, m=3, seed=22)[0]
        a = NetworkMechanism(params, dims).evaluate(profile).r
        b = NetworkMechanism(loaded, ldims).evaluate(profile).r
        assert np.allclose(a, b, atol=1e-5)
