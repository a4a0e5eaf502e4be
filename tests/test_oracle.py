import math

import numpy as np
import pytest

from matchfrontier import oracle
from matchfrontier.mechanisms import (DeterministicMatching, LiftedMechanism,
                                      MechanismKind, Proposing, da)
from matchfrontier.prefs import (BOTTOM, DistributionConfig, DistributionKind,
                                 AgentId, PreferenceOrder, Side, parse_profile,
                                 sample_profiles)


def random_profiles(count, n=3, m=3, seed=0):
    cfg = DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                             p_trunc=0.3, seed=seed)
    return sample_profiles(cfg, count)


class TestEnumerateMatchings:
    def test_count_2x2(self):
        # sum over k of C(2,k) * P(2,k): 1 + 4 + 2 = 7
        assert len(oracle.enumerate_matchings(2, 2)) == 7

    def test_count_formula(self):
        got = len(oracle.enumerate_matchings(3, 2))
        expected = sum(math.comb(3, k) * math.perm(2, k) for k in range(3))
        assert got == expected

    def test_all_distinct(self):
        ms = oracle.enumerate_matchings(3, 3)
        assert len({m.pairs for m in ms}) == len(ms)

    def test_cap(self):
        with pytest.raises(ValueError):
            oracle.enumerate_matchings(6, 2)


class TestBlockingPairs:
    def test_stable_matching_clean(self, example1):
        mu = da(example1, Proposing.WORKERS)
        assert oracle.find_blocking_pairs(mu, example1) == []

    def test_mutual_envy_detected(self, example1):
        # match w2 to its worst firm f3 and f2 to its middle worker w3;
        # w2 and f2 then prefer each other, a textbook blocking pair
        mu = DeterministicMatching(frozenset({(0, 0), (1, 2), (2, 1)}), 3, 3)
        kinds = {(b.worker, b.firm): b.kind
                 for b in oracle.find_blocking_pairs(mu, example1)}
        assert kinds.get((1, 1)) == oracle.BlockingKind.MUTUAL_ENVY

    def test_unmatched_agents_can_block(self):
        profile = parse_profile("f1,_;f1,_|w1,w2,_")
        empty = DeterministicMatching(frozenset(), 2, 1)
        found = oracle.find_blocking_pairs(empty, profile)
        assert oracle.BlockingPair(0, 0, oracle.BlockingKind.MUTUAL_ENVY) in found

    def test_ir_violations_reported(self):
        profile = parse_profile("_,f1|w1,_")
        mu = DeterministicMatching(frozenset({(0, 0)}), 1, 1)
        kinds = {b.kind for b in oracle.find_blocking_pairs(mu, profile)}
        assert kinds == {oracle.BlockingKind.WORKER_IR_VIOLATION}


class TestStableSet:
    def test_nonempty_for_random_profiles(self):
        # stable matchings always exist (DA constructs one)
        for profile in random_profiles(30, seed=14):
            assert oracle.exhaustive_stable_set(profile)

    def test_single_stable_matching_case(self):
        # aligned preferences: unique stable matching is assortative
        profile = parse_profile("f1,f2,_;f1,f2,_|w1,w2,_;w1,w2,_")
        stable = oracle.exhaustive_stable_set(profile)
        assert len(stable) == 1
        assert stable[0].pairs == frozenset({(0, 0), (1, 1)})


class TestRsdByEnumeration:
    def test_example_matrix(self, example1, rsd_expected):
        assert np.array_equal(oracle.rsd_by_enumeration(example1).r, rsd_expected)

    def test_one_sided_acceptability(self):
        # w1 finds no firm acceptable but stays free for f1, so f1 gets w1
        # whenever it acts before w2 (half the orders); else w2 takes f1
        profile = parse_profile("_,f1;f1,_|w1,w2,_")
        assert np.array_equal(oracle.rsd_by_enumeration(profile).r,
                              [[0.5], [0.5]])


class TestFosdAudit:
    def test_wda_example_gains(self, example1):
        gains = oracle.fosd_audit(LiftedMechanism(MechanismKind.WDA), example1)
        # workers (proposers) cannot gain; f1 and f3 gain a full unit by
        # truncating, f2 already gets its favorite
        for w in range(3):
            assert gains[AgentId(Side.WORKER, w)] == pytest.approx(0.0, abs=1e-12)
        assert gains[AgentId(Side.FIRM, 0)] == pytest.approx(1.0, abs=1e-12)
        assert gains[AgentId(Side.FIRM, 1)] == pytest.approx(0.0, abs=1e-12)
        assert gains[AgentId(Side.FIRM, 2)] == pytest.approx(1.0, abs=1e-12)

    def test_agent_with_empty_list_has_no_regret(self):
        profile = parse_profile("_,f1|w1,_")
        gains = oracle.fosd_audit(LiftedMechanism(MechanismKind.WDA), profile)
        assert gains[AgentId(Side.WORKER, 0)] == 0.0

    def test_cumulative_weak_inclusion(self):
        r = np.array([[0.3, 0.5, 0.2]])
        order = PreferenceOrder((1, 2, 0, BOTTOM))
        got = oracle._cumulative(r, Side.WORKER, 0, order, 2)
        assert got == pytest.approx(0.7)
