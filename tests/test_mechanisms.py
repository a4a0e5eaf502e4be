import math

import numpy as np
import pytest

from matchfrontier import mechanisms, oracle
from matchfrontier.mechanisms import (RSD_CAP, DeterministicMatching,
                                      EnumerationCapError,
                                      InvalidMatchingError, LiftedMechanism,
                                      MechanismKind,
                                      Proposing, RandomizedMatching,
                                      bvn_decompose, da,
                                      format_matching, parse_matching,
                                      rsd_exact)
from matchfrontier.net import NetworkDims, NetworkMechanism, init_params
from matchfrontier.prefs import (BOTTOM, DistributionConfig, DistributionKind,
                                 PreferenceOrder, PreferenceProfile, Side,
                                 parse_profile, profile_ranks, sample_profiles)


def random_profiles(count, n=3, m=3, p_trunc=0.3, seed=0):
    cfg = DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                             p_trunc=p_trunc, seed=seed)
    return sample_profiles(cfg, count)


class TestDeterministicMatching:
    def test_partner_lookup(self):
        mu = DeterministicMatching(frozenset({(0, 2), (1, 0)}), 3, 3)
        assert mu.worker_partner(0) == 2
        assert mu.worker_partner(2) == BOTTOM
        assert mu.firm_partner(0) == 1
        assert mu.firm_partner(1) == BOTTOM

    def test_rejects_double_match(self):
        with pytest.raises(InvalidMatchingError):
            DeterministicMatching(frozenset({(0, 0), (0, 1)}), 2, 2)

    def test_marginals(self):
        mu = DeterministicMatching(frozenset({(1, 0)}), 2, 2)
        assert np.array_equal(mu.to_marginals().r, [[0, 0], [1, 0]])


class TestDeferredAcceptance:
    def test_example_worker_proposing(self, example1):
        assert sorted(da(example1, Proposing.WORKERS).pairs) == [(0, 2), (1, 1), (2, 0)]

    def test_example_truncation_misreport(self, example1):
        # f1 drops w3 to the unacceptable region and gets its favorite
        from matchfrontier.prefs import AgentId, Side
        mis = PreferenceOrder((0, 1, BOTTOM, 2))
        tweaked = example1.with_order(AgentId(Side.FIRM, 0), mis)
        assert sorted(da(tweaked, Proposing.WORKERS).pairs) == [(0, 0), (1, 1), (2, 2)]

    def test_stable_and_ir(self):
        for profile in random_profiles(300, seed=5):
            for proposing in Proposing:
                mu = da(profile, proposing)
                assert oracle.find_blocking_pairs(mu, profile) == []

    def test_in_exhaustive_stable_set(self):
        for profile in random_profiles(40, n=3, m=3, seed=8):
            stable = oracle.exhaustive_stable_set(profile)
            assert da(profile, Proposing.WORKERS) in stable
            assert da(profile, Proposing.FIRMS) in stable

    def test_worker_optimal_dominates(self):
        # worker-proposing DA is weakly better for every worker
        for profile in random_profiles(100, seed=2):
            wda = da(profile, Proposing.WORKERS)
            fda = da(profile, Proposing.FIRMS)
            for w in range(profile.n):
                a, b = wda.worker_partner(w), fda.worker_partner(w)
                if a != b:
                    assert profile.workers[w].prefers(a, b)

    def test_rectangular(self):
        profile = parse_profile("f1,f2,f3,_;f2,_,f1,f3|w1,w2,_;w2,w1,_;_,w1,w2")
        mu = da(profile, Proposing.WORKERS)
        assert oracle.find_blocking_pairs(mu, profile) == []


def mixed_rows(n, m, seed, draws=12):
    """A batch of mixed rows: profiles drawn at three truncation rates, then
    variants of the first of them in which one agent, every worker or
    every firm accepts nobody."""
    profiles = []
    for i, p_trunc in enumerate((0.0, 0.4, 0.9)):
        profiles += random_profiles(draws, n=n, m=m, p_trunc=p_trunc, seed=seed + i)
    base = profiles[0]
    nobody = {Side.WORKER: PreferenceOrder((BOTTOM,) + tuple(range(m))),
              Side.FIRM: PreferenceOrder((BOTTOM,) + tuple(range(n)))}
    profiles += [base.with_order(agent, nobody[agent.side]) for agent in base.agents()]
    profiles.append(PreferenceProfile((nobody[Side.WORKER],) * n, base.firms))
    profiles.append(PreferenceProfile(base.workers, (nobody[Side.FIRM],) * m))
    return profiles


def loop_held(profile, proposing):
    """held[c] of the oracle's loop DA: receiver c's partner, or -1."""
    mu = oracle.da_by_rounds(profile, proposing)
    if proposing is Proposing.WORKERS:
        return [mu.firm_partner(f) for f in range(profile.m)]
    return [mu.worker_partner(w) for w in range(profile.n)]


SHAPES = [(3, 3), (2, 3), (3, 2), (1, 3), (2, 5), (4, 4)]


class TestBatchedKernels:
    @pytest.mark.parametrize("n, m", SHAPES)
    @pytest.mark.parametrize("proposing", list(Proposing))
    def test_da_rows_equal_loop_da(self, n, m, proposing):
        profiles = mixed_rows(n, m, seed=80)
        ranks = profile_ranks(profiles, n, m)
        held = mechanisms.da_rows(ranks, proposing)
        assert np.array_equal(held, [loop_held(p, proposing) for p in profiles])
        # the batched marginals and the one-row API give the loop's matchings
        loops = [oracle.da_by_rounds(p, proposing) for p in profiles]
        assert np.array_equal(mechanisms.da_marginals(ranks, proposing),
                              [mu.to_marginals().r for mu in loops])
        for p, mu in zip(profiles, loops):
            assert da(p, proposing) == mu

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_rsd_rows_bitwise_equal_enumeration(self, n, m):
        # 8! orders per row for 4x4, so fewer draws there
        profiles = mixed_rows(n, m, seed=90, draws=1 if n + m == 8 else 12)
        r = mechanisms.rsd_exact_rows(profile_ranks(profiles, n, m))
        assert np.array_equal(r, [oracle.rsd_by_enumeration(p).r for p in profiles])

    @pytest.mark.parametrize("n, m", [(4, 5), (5, 4)])
    def test_rsd_rows_bitwise_equal_enumeration_past_eight_agents(self, n, m):
        # 9! orders per profile for the oracle, about a second each
        profiles = random_profiles(2, n=n, m=m, seed=94)
        r = mechanisms.rsd_exact_rows(profile_ranks(profiles, n, m))
        assert np.array_equal(r, [oracle.rsd_by_enumeration(p).r for p in profiles])

    def test_rsd_rows_cap(self):
        # the largest market whose order counts are exact float64 integers
        assert math.factorial(RSD_CAP) < 2 ** 53 <= math.factorial(RSD_CAP + 1)
        n = (RSD_CAP + 1) // 2
        m = RSD_CAP + 1 - n
        with pytest.raises(EnumerationCapError):
            mechanisms.rsd_exact_rows(profile_ranks(random_profiles(2, n=n, m=m), n, m))

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_evaluate_many_equals_evaluate(self, kind):
        # one market shape per call; a mixed batch is refused
        mech = LiftedMechanism(kind)
        shapes = {}
        for seed, (n, m) in enumerate([(3, 2), (3, 3), (4, 5)], start=91):
            shapes[n, m] = random_profiles(5, n=n, m=m, seed=seed)
            for r, profile in zip(mech.evaluate_many(shapes[n, m]), shapes[n, m]):
                assert np.array_equal(r.r, mech.evaluate(profile).r)
        with pytest.raises(ValueError):
            mech.evaluate_many(shapes[3, 2] + shapes[3, 3])


class TestSerialDictatorship:
    def test_picker_side_acceptable(self):
        # dictators only ever pick acceptable partners, but the picked side
        # gets no say, which is exactly why RSD violates IR: exact RSD puts
        # mass only on pairs acceptable to at least one side
        for profile in random_profiles(50, seed=3):
            r = rsd_exact(profile).r
            for w, f in zip(*np.nonzero(r)):
                assert (profile.workers[w].is_acceptable(f)
                        or profile.firms[f].is_acceptable(w))


class TestRsd:
    def test_exact_example_matrix(self, example1, rsd_expected):
        assert np.allclose(rsd_exact(example1).r, rsd_expected, atol=1e-12)

    def test_exact_cap(self):
        profile = random_profiles(1, n=RSD_CAP // 2, m=RSD_CAP // 2 + 1)[0]
        with pytest.raises(EnumerationCapError):
            rsd_exact(profile)

    def test_exact_identity_at_nine_by_nine(self):
        # worker i and firm i accept only each other: whichever of them
        # acts first takes the other, under every one of the 18! orders
        size = 9
        workers = tuple(PreferenceOrder((i, BOTTOM) + tuple(j for j in range(size) if j != i))
                        for i in range(size))
        profile = PreferenceProfile(workers, workers)
        assert np.array_equal(rsd_exact(profile).r, np.eye(size))

    def test_exact_example_bitwise(self, example1, rsd_expected):
        assert np.array_equal(rsd_exact(example1).r, rsd_expected)

    @pytest.mark.parametrize("cfg, count", [
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.0, seed=21), 40),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.2, seed=22), 40),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.5, seed=23), 40),
        (DistributionConfig(DistributionKind.CORRELATED, 3, 3, p_corr=0.5, seed=24), 40),
        (DistributionConfig(DistributionKind.UNCORRELATED, 2, 3, seed=25), 30),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 2, seed=26), 30),
        (DistributionConfig(DistributionKind.UNCORRELATED, 1, 3, seed=27), 20),
        (DistributionConfig(DistributionKind.UNCORRELATED, 2, 2, seed=28), 20),
        (DistributionConfig(DistributionKind.UNCORRELATED, 4, 4, seed=29), 2),
        (DistributionConfig(DistributionKind.CORRELATED, 4, 4, p_corr=0.25, seed=30), 2),
    ])
    def test_exact_bitwise_equals_enumeration(self, cfg, count):
        for profile in sample_profiles(cfg, count):
            assert np.array_equal(rsd_exact(profile).r,
                                  oracle.rsd_by_enumeration(profile).r)

    def test_exact_repeatable(self, example1):
        profile = random_profiles(1, n=4, m=4, seed=31)[0]
        for p in (example1, profile):
            assert np.array_equal(rsd_exact(p).r, rsd_exact(p).r)

    def test_lifted_evaluate_calls_exact_once(self, example1, monkeypatch):
        # one row handed to the exact kernel, which is what rsd_exact runs
        rows = []
        inner = mechanisms.rsd_exact_rows

        def counted(ranks):
            rows.append(ranks[1].shape[0] // example1.n)
            return inner(ranks)

        monkeypatch.setattr(mechanisms, "rsd_exact_rows", counted)
        r = LiftedMechanism(MechanismKind.RSD).evaluate(example1)
        assert rows == [1]
        assert np.array_equal(r.r, oracle.rsd_by_enumeration(example1).r)


class TestLiftedMechanisms:
    def test_labels(self):
        assert LiftedMechanism(MechanismKind.WDA).label == "wda"

    def test_wda_fda_marginals_deterministic(self, example1):
        r = LiftedMechanism(MechanismKind.WDA).evaluate(example1).r
        assert set(np.unique(r)) <= {0.0, 1.0}

    def test_rsd_exact_under_cap(self, example1, rsd_expected):
        r = LiftedMechanism(MechanismKind.RSD).evaluate(example1).r
        assert np.allclose(r, rsd_expected, atol=1e-12)


class TestRandomizedMatchingValidation:
    def test_accepts_weakly_doubly_stochastic(self):
        RandomizedMatching(np.array([[0.5, 0.2], [0.1, 0.3]])).validate()

    def test_rejects_row_overflow(self):
        with pytest.raises(InvalidMatchingError):
            RandomizedMatching(np.array([[0.9, 0.3], [0.0, 0.1]])).validate()

    def test_rejects_negative(self):
        with pytest.raises(InvalidMatchingError):
            RandomizedMatching(np.array([[-0.2, 0.3], [0.0, 0.1]])).validate()


def random_weakly_doubly_stochastic(n, m, rng):
    """Convex combination of random partial matchings: correct by construction."""
    r = np.zeros((n, m))
    remaining = 1.0
    for _ in range(rng.integers(1, 8)):
        weight = remaining * rng.uniform(0.1, 0.9)
        k = int(rng.integers(0, min(n, m) + 1))
        ws = rng.permutation(n)[:k]
        fs = rng.permutation(m)[:k]
        for w, f in zip(ws, fs):
            r[w, f] += weight
        remaining -= weight
    return RandomizedMatching(r)


def checked_decomposition(rm):
    """`bvn_decompose(rm)`, after checking every property a decomposition
    keeps: it reconstructs rm, has at most nm + n + m + 1 components of
    positive weight summing to 1, puts mass only where rm does, and is
    the same on a second call."""
    dec = bvn_decompose(rm)
    n, m = rm.n, rm.m
    assert np.max(np.abs(dec.reconstruct() - rm.r)) <= 1e-12
    assert len(dec.components) <= n * m + n + m + 1
    weights = np.array([w for w, _ in dec.components])
    assert (weights > 0).all() and abs(weights.sum() - 1.0) <= 1e-12
    for _, mu in dec.components:
        assert mu.n == n and mu.m == m
        assert all(rm.r[w, f] > 0 for w, f in mu.pairs)
    assert bvn_decompose(rm) == dec
    return dec


class TestBvnDecomposition:
    def test_sampled_matrices(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            checked_decomposition(random_weakly_doubly_stochastic(n, m, rng))

    @pytest.mark.parametrize("n, m, count", [(3, 3, 20), (4, 4, 10), (2, 5, 20),
                                             (4, 5, 4), (5, 5, 3)])
    def test_mechanism_outputs(self, n, m, count):
        dims = NetworkDims(n, m, R=2, J=16)
        net_mech = NetworkMechanism(init_params(dims, seed=n * m), dims)
        for profile in random_profiles(count, n=n, m=m, seed=140 + n * m):
            checked_decomposition(rsd_exact(profile))
            checked_decomposition(net_mech.evaluate(profile))

    def test_at_rsd_cap(self):
        # worker i and firm i accept only each other, so RSD matches them
        size = RSD_CAP // 2
        workers = tuple(PreferenceOrder((i, BOTTOM) + tuple(j for j in range(size) if j != i))
                        for i in range(size))
        dec = checked_decomposition(rsd_exact(PreferenceProfile(workers, workers)))
        assert dec.components == ((1.0, DeterministicMatching(
            frozenset((i, i) for i in range(size)), size, size)),)
        rng = np.random.default_rng(18)
        for _ in range(20):
            checked_decomposition(random_weakly_doubly_stochastic(size, size, rng))

    def test_reconstructs_rsd(self, example1, rsd_expected):
        dec = bvn_decompose(rsd_exact(example1))
        assert np.allclose(dec.reconstruct(), rsd_expected, atol=1e-12)

    def test_weights_form_convex_combination(self, example1):
        dec = bvn_decompose(rsd_exact(example1))
        weights = [w for w, _ in dec.components]
        assert all(w > 0 for w in weights)
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_random_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            rm = random_weakly_doubly_stochastic(n, m, rng)
            dec = bvn_decompose(rm)
            assert np.allclose(dec.reconstruct(), rm.r, atol=1e-9)
            assert len(dec.components) <= n * m + n + m + 1
            for _, mu in dec.components:
                assert mu.n == n and mu.m == m  # validity enforced in ctor

    @pytest.mark.parametrize("transpose", [False, True])
    def test_exhausted_slot_covers_empty_row(self, transpose):
        # after two steps worker 1 still holds 1.5e-12 at firm 0, while
        # worker 0's row is empty (its 1e-12 at firm 2 is never extracted)
        # and its unmatched margin of 5e-13 covers it in the last step; the
        # transpose is the same case for firm 0's column
        r = np.array([[0.5, 0.5 - 1.5e-12, 1e-12], [0.5, 0.5, 0.0]])
        rm = RandomizedMatching(r.T.copy() if transpose else r)
        dec = bvn_decompose(rm)
        assert len(dec.components) == 3
        assert np.max(np.abs(dec.reconstruct() - rm.r)) <= 1e-9
        assert sum(w for w, _ in dec.components) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        dec = bvn_decompose(RandomizedMatching(np.zeros((2, 3))))
        assert len(dec.components) == 1
        assert dec.components[0][1].pairs == frozenset()

    def test_permutation_matrix_single_component(self):
        dec = bvn_decompose(RandomizedMatching(np.eye(3)))
        assert len(dec.components) == 1
        assert dec.components[0][0] == pytest.approx(1.0)


class TestMatchingTextFormat:
    def test_round_trip(self):
        mu = DeterministicMatching(frozenset({(0, 2), (2, 1)}), 3, 3)
        assert parse_matching(format_matching(mu), 3, 3) == mu

    def test_unmatched_token(self):
        mu = DeterministicMatching(frozenset(), 2, 2)
        assert format_matching(mu) == "w1:_ w2:_"
