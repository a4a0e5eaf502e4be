import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchfrontier.net import NetworkDims, acceptable_pairs
from matchfrontier.prefs import (BOTTOM, DistributionConfig, DistributionKind,
                                 EnumerationCapError, PreferenceOrder,
                                 PreferenceProfile, Side, encode, encode_ranks,
                                 enumerate_misreports, format_profile,
                                 parse_profile, profile_stream, rank_arrays,
                                 sample_order, sample_profile, sample_profiles)
from matchfrontier.train import _Batch

from conftest import reference_build_mask, reference_encode, reference_encode_order


def order(*ranking):
    return PreferenceOrder(tuple(ranking))


def encode_rows(orders, size):
    """The encoded utility rows of orders over `size` partners."""
    return encode_ranks(*rank_arrays(orders, size), size)


class TestPreferenceOrder:
    def test_acceptable_split(self):
        o = order(1, 0, BOTTOM, 2)
        assert o.acceptable() == (1, 0)
        assert o.unacceptable() == (2,)
        assert o.is_acceptable(0) and not o.is_acceptable(2)

    def test_prefers_includes_bottom(self):
        o = order(1, BOTTOM, 0)
        assert o.prefers(1, BOTTOM)
        assert o.prefers(BOTTOM, 0)

    def test_rejects_missing_bottom(self):
        with pytest.raises(ValueError):
            order(0, 1, 2)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            order(0, 0, BOTTOM)

    def test_validate_size(self):
        with pytest.raises(ValueError):
            order(0, 1, BOTTOM).validate(3)


class TestEncoding:
    # hand-derivable rows via the indicator-sum definition
    def test_three_firm_truncated(self):
        assert np.allclose(encode_rows([order(0, 1, BOTTOM, 2)], 3)[0],
                           [2 / 3, 1 / 3, -1 / 3])

    def test_four_firm_truncated(self):
        assert np.allclose(encode_rows([order(0, 1, BOTTOM, 2, 3)], 4)[0],
                           [2 / 4, 1 / 4, -1 / 4, -2 / 4])

    def test_full_list(self):
        assert np.allclose(encode_rows([order(1, 0, 2, BOTTOM)], 3)[0],
                           [2 / 3, 1.0, 1 / 3])

    def test_sign_encodes_acceptability(self):
        o = order(2, 0, BOTTOM, 1, 3)
        row = encode_rows([o], 4)[0]
        for j in range(4):
            assert (row[j] > 0) == o.is_acceptable(j)

    def test_rank_monotone(self):
        o = order(3, 1, BOTTOM, 0, 2)
        row = encode_rows([o], 4)[0]
        ordered = [x for x in o.ranking if x != BOTTOM]
        values = [row[j] for j in ordered]
        assert values == sorted(values, reverse=True)

    def test_profile_matrices(self, example1):
        enc = encode(example1)
        # w1 ranks f2 first, f3 second, f1 third, all acceptable
        assert np.allclose(enc.p[0], [1 / 3, 1.0, 2 / 3])
        # f1 ranks w1 > w2 > w3
        assert np.allclose(enc.q[:, 0], [1.0, 2 / 3, 1 / 3])


def _sampled(n, m, p_trunc=0.5, correlated=False, count=48, seed=3):
    kind = DistributionKind.CORRELATED if correlated else DistributionKind.UNCORRELATED
    cfg = DistributionConfig(kind, n, m, p_corr=0.5 if correlated else 0.0,
                             p_trunc=p_trunc, seed=seed)
    return sample_profiles(cfg, count)


SHAPES = [(1, 1), (1, 3), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5)]
SAMPLES = [dict(p_trunc=0.0), dict(p_trunc=0.5), dict(p_trunc=1.0),
           dict(p_trunc=0.2, correlated=True)]


def _assert_same(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


class TestOneEncoder:
    """encode, encode_rows and _Batch all come from the one rank-array
    encoder and must equal the old loops bit for bit, and the network's
    mask, read off the encoding, must equal the old mask loop."""

    @pytest.mark.parametrize("n,m", SHAPES)
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_encode_and_mask_equal_loops(self, n, m, sample):
        profiles = _sampled(n, m, **sample)
        for profile in profiles:
            p, q = reference_encode(profile)
            enc = encode(profile)
            _assert_same(enc.p, p)
            _assert_same(enc.q, q)
            x = np.concatenate([enc.p.reshape(1, -1), enc.q.reshape(1, -1)], axis=1)
            _assert_same(acceptable_pairs(x, n, m)[0],
                         reference_build_mask(profile)[:n, :m] == 1.0)
            _assert_same(encode_rows(profile.workers, m),
                         np.stack([reference_encode_order(o, m) for o in profile.workers]))

    @pytest.mark.parametrize("n,m", SHAPES)
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_batch_arrays_equal_loops(self, n, m, sample):
        profiles = _sampled(n, m, **sample)
        batch = _Batch(profiles, NetworkDims(n, m, R=1, J=2))
        refs = [reference_encode(p) for p in profiles]
        _assert_same(batch.P, np.stack([p for p, _ in refs]))
        _assert_same(batch.Q, np.stack([q for _, q in refs]))
        _assert_same(acceptable_pairs(batch.X, n, m),
                     np.stack([reference_build_mask(p)[:n, :m] == 1.0 for p in profiles]))

    def test_wrong_size_names_both_sizes(self):
        # a worker order over 2 firms in a market of 3 firms
        profile = PreferenceProfile((order(0, 1, BOTTOM),),
                                    tuple(order(0, BOTTOM) for _ in range(3)))
        for call in (lambda: encode(profile), lambda: encode_rows([order(0, 1, BOTTOM)], 3),
                     lambda: _Batch([profile], NetworkDims(1, 3, R=1, J=2))):
            with pytest.raises(ValueError, match="order ranks 2 partners, expected 3"):
                call()

    def test_non_permutation_rejected(self):
        bad = order(0, 5, BOTTOM)   # partner 5 in a market of 2
        with pytest.raises(ValueError, match="not a permutation"):
            encode_rows([bad], 2)
        profile = PreferenceProfile((bad,), (order(0, BOTTOM), order(0, BOTTOM)))
        with pytest.raises(ValueError, match="not a permutation"):
            encode(profile)


class TestMisreportEnumeration:
    def test_count_is_factorial(self):
        assert len(enumerate_misreports(Side.WORKER, 3)) == math.factorial(4)

    def test_orders_unique_and_valid(self):
        orders = enumerate_misreports(Side.FIRM, 2)
        assert len(set(orders)) == 6
        for o in orders:
            o.validate(2)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError):
            enumerate_misreports(Side.WORKER, 6)

    def test_deterministic_order(self):
        assert enumerate_misreports(Side.WORKER, 2) == enumerate_misreports(Side.WORKER, 2)


class TestSampling:
    def test_streams_reproducible(self):
        a = sample_order(4, 0.5, profile_stream(3, 17, lane=1))
        b = sample_order(4, 0.5, profile_stream(3, 17, lane=1))
        assert a == b

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 1, 2 ** 64 - 1])
    def test_stream_key(self, seed):
        # Philox keyed on (seed, lane << 48 | index) as u64
        key = profile_stream(seed, 17, lane=2).bit_generator.state["state"]["key"]
        assert key.dtype == np.uint64
        assert np.array_equal(key, np.array([seed, 2 << 48 | 17], dtype=np.uint64))

    def test_lanes_independent(self):
        cfg = DistributionConfig(DistributionKind.UNCORRELATED, 4, 4, seed=9)
        assert sample_profiles(cfg, 8, lane=1) != sample_profiles(cfg, 8, lane=2)

    def test_truncation_leaves_someone_unacceptable(self):
        # p_trunc=1 always truncates, so each order has >= 1 unacceptable
        for i in range(200):
            o = sample_order(4, 1.0, profile_stream(0, i))
            assert len(o.unacceptable()) >= 1

    def test_no_truncation_all_acceptable(self):
        for i in range(50):
            o = sample_order(4, 0.0, profile_stream(0, i))
            assert len(o.acceptable()) == 4

    def test_truncation_rate(self):
        cfg = DistributionConfig(DistributionKind.UNCORRELATED, 4, 4,
                                 p_trunc=0.2, seed=11)
        profiles = sample_profiles(cfg, 2000)
        orders = [o for p in profiles for o in p.workers + p.firms]
        frac = sum(1 for o in orders if o.unacceptable()) / len(orders)
        # binomial(16000, 0.2): 5 sigma is ~0.016
        assert abs(frac - 0.2) < 0.02

    def test_correlated_replacement_rate(self):
        cfg = DistributionConfig(DistributionKind.CORRELATED, 4, 4,
                                 p_corr=0.75, p_trunc=0.0, seed=4)
        profiles = sample_profiles(cfg, 1000)
        matches = 0
        for p in profiles:
            for side in (p.workers, p.firms):
                top = max(set(side), key=list(side).count)
                matches += sum(1 for o in side if o == top)
        frac = matches / (1000 * 8)
        # modal share >= replacement share; with 24 orders the non-common
        # mass rarely concentrates, so the fraction hugs p_corr from above
        assert 0.72 < frac < 0.85

    def test_uncorrelated_rejects_p_corr(self):
        with pytest.raises(ValueError):
            DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_corr=0.5)

    def test_rectangular_market(self):
        cfg = DistributionConfig(DistributionKind.UNCORRELATED, 2, 5, seed=0)
        profile = sample_profile(cfg, profile_stream(0, 0))
        profile.validate()
        assert profile.n == 2 and profile.m == 5


@st.composite
def profiles(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))

    def one(size):
        ranking = list(range(size)) + [BOTTOM]
        rnd.shuffle(ranking)
        return PreferenceOrder(tuple(ranking))

    from matchfrontier.prefs import PreferenceProfile
    return PreferenceProfile(tuple(one(m) for _ in range(n)),
                             tuple(one(n) for _ in range(m)))


class TestTextFormat:
    @given(profiles())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, profile):
        assert parse_profile(format_profile(profile)) == profile

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_profile("f1,f2;f2,f1")  # no side separator
        with pytest.raises(ValueError):
            parse_profile("x1,_|w1,_")
        # partners are numbered from 1: f0 is no partner, not the unmatched option
        with pytest.raises(ValueError, match="'f0'"):
            parse_profile("f1,f0,f2;f2,f1,_|w1,w2,_;w2,w1,_")
        for token in ("w-1", "w", "wx"):
            with pytest.raises(ValueError, match=f"'{token}'"):
                parse_profile(f"f1,_|{token},_")

    def test_parse_validates(self):
        # worker ranks a firm index that does not exist
        with pytest.raises(ValueError):
            parse_profile("f1,f3,_|w1,_;w1,_")
