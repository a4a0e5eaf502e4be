from dataclasses import fields

import numpy as np
import pytest

from matchfrontier import metrics, net
from matchfrontier.mechanisms import (LiftedMechanism, MechanismKind, Proposing,
                                      RandomizedMatching, da, rsd_exact)
from matchfrontier.net import NetworkDims, NetworkMechanism, init_params
from matchfrontier.prefs import (DistributionConfig, DistributionKind,
                                 Side, encode, encode_arrays, enumerate_misreports,
                                 parse_profile, rank_arrays, sample_profiles)

from conftest import reference_stv_pair


def random_profiles(count, n=3, m=3, seed=0):
    cfg = DistributionConfig(DistributionKind.UNCORRELATED, n, m,
                             p_trunc=0.3, seed=seed)
    return sample_profiles(cfg, count)


class TestStabilityViolation:
    def test_pair_value_on_rsd(self, example1, rsd_expected):
        # hand computation: firm f2's envy mass toward w2 is 1/6, worker
        # w2's envy mass toward f2 is 1/9, product 1/54
        got = reference_stv_pair(RandomizedMatching(rsd_expected),
                                 encode(example1), 1, 1)
        assert got == pytest.approx(1 / 54, abs=1e-12)

    def test_profile_is_weighted_pair_sum(self):
        # independent oracle: the vectorized profile total must equal the
        # scalar per-pair implementation summed by hand
        for profile in random_profiles(20, seed=21):
            enc = encode(profile)
            r = rsd_exact(profile)
            total = sum(reference_stv_pair(r, enc, w, f)
                        for w in range(profile.n) for f in range(profile.m))
            expected = 0.5 * (1 / profile.m + 1 / profile.n) * total
            assert metrics.stv_profile(r, enc) == pytest.approx(expected, abs=1e-12)

    def test_zero_for_stable_matching(self, example1):
        r = da(example1, Proposing.WORKERS).to_marginals()
        assert metrics.stv_profile(r, encode(example1)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_rsd_example(self, example1, rsd_expected):
        assert metrics.stv_profile(RandomizedMatching(rsd_expected),
                                   encode(example1)) > 0

    def test_dimension_mismatch(self, example1):
        with pytest.raises(ValueError):
            metrics.stv_profile(RandomizedMatching(np.zeros((2, 2))), encode(example1))

    @pytest.mark.parametrize("n,m", [(3, 3), (2, 3), (3, 2), (4, 4), (2, 5)])
    def test_batch_equals_per_profile_formula(self, n, m):
        # reference: the single-profile einsum formula; the batched kernel
        # must reproduce it bit for bit on every row of a stack
        def reference(r, p, q):
            g_bot_f = 1.0 - r.sum(axis=0)
            g_w_bot = 1.0 - r.sum(axis=1)
            dq = np.maximum(q[:, None, :] - q[None, :, :], 0.0)
            firm = np.einsum("af,waf->wf", r, dq) + g_bot_f[None, :] * np.maximum(q, 0.0)
            dp = np.maximum(p[:, :, None] - p[:, None, :], 0.0)
            worker = np.einsum("wb,wfb->wf", r, dp) + g_w_bot[:, None] * np.maximum(p, 0.0)
            return 0.5 * (1.0 / m + 1.0 / n) * float((firm * worker).sum())

        rng = np.random.default_rng(n * 10 + m)
        rs, ps, qs = [], [], []
        for profile in random_profiles(12, n, m, seed=n + m):
            enc = encode(profile)
            for kind in MechanismKind:
                rs.append(LiftedMechanism(kind).evaluate(profile).r)
                ps.append(enc.p)
                qs.append(enc.q)
            rs.append(rng.dirichlet(np.ones(m + 1), size=n)[:, :m] / 2)
            ps.append(enc.p)
            qs.append(enc.q)
        got = metrics.stv_batch(np.array(rs), np.array(ps), np.array(qs))
        assert np.array_equal(got, [reference(*row) for row in zip(rs, ps, qs)])


def one_profile(kernel, r, profile):
    """A (r, P, Q) batch kernel's value on one profile's marginals r."""
    P, Q, _ = encode_arrays([profile], profile.n, profile.m)
    return kernel(r[None], P, Q)[0]


class TestIrViolation:
    def test_zero_when_mass_on_acceptable(self, example1):
        r = da(example1, Proposing.WORKERS).to_marginals().r
        assert one_profile(metrics.irv_batch, r, example1) == 0.0

    def test_hand_value(self):
        # w1 finds f2 unacceptable (p = -1/2); full mass there gives
        # (1/2) / (2n) = 1/4 from the worker side only
        profile = parse_profile("f1,_,f2|w1,_;w1,_")
        r = np.array([[0.0, 1.0]])
        assert one_profile(metrics.irv_batch, r, profile) == pytest.approx(
            0.5 / (2 * 1), abs=1e-12)


def example_sets(profile):
    """threshold_sets of one profile."""
    return metrics.threshold_sets(*rank_arrays(profile.workers, profile.m),
                                  *rank_arrays(profile.firms, profile.n),
                                  profile.n, profile.m)


class TestCumulativeProb:
    def test_weak_includes_threshold(self, example1, rsd_expected):
        ind, valid = example_sets(example1)
        cum = metrics.cumulative_prob(rsd_expected[None, None, None], ind)
        # w1's order is f2 > f3 > f1; slot 1's threshold f3 includes f2 and f3
        assert valid[0, 0, 1]
        assert cum[0, 0, 0, 1] == pytest.approx(1 / 4 + 7 / 24, abs=1e-12)


def one_profile_search(r_truth, r_var, ind, valid, n, m, Kw, Kf):
    best_k, best_th, best_gain = metrics.fosd_search(
        np.array(r_truth, dtype=float)[None], np.array(r_var, dtype=float)[None],
        ind, valid, n, m, Kw, Kf)
    return best_k[0], best_th[0], best_gain[0]


class TestFosdSearch:
    """The one FOSD kernel on hand-built marginals of a 1x2 market: w1
    ranks f1 > f2, so its slot 0 holds {f1} and slot 1 {f1, f2}; each firm
    accepts w1 only, so its slot 1 is padding."""

    PROFILE = "f1,f2,_|w1,_;w1,_"
    TRUTH = [[0.5, 0.25]]

    def sets(self):
        ind, valid = example_sets(parse_profile(self.PROFILE))
        assert valid[0].tolist() == [[True, True], [True, False], [True, False]]
        return ind, valid

    def test_variant_tying_truth_keeps_truth(self):
        ind, valid = self.sets()
        # one report per agent, each with the truthful marginals
        best_k, best_th, best_gain = one_profile_search(
            self.TRUTH, [self.TRUTH] * 3, ind, valid, 1, 2, 1, 1)
        assert best_k.tolist() == [-1, -1, -1]
        assert best_th.tolist() == [0, 0, 0]
        assert best_gain.tolist() == [0.0, 0.0, 0.0]

    def test_first_of_equal_gains_wins(self):
        ind, valid = self.sets()
        # w1's reports: a loss, +1/4 at slot 0, then +1/4 at slot 1
        worker = [[[0.25, 0.25]], [[0.75, 0.0]], [[0.5, 0.5]]]
        firms = [self.TRUTH] * 3 * 2
        best_k, best_th, best_gain = one_profile_search(
            self.TRUTH, worker + firms, ind, valid, 1, 2, 3, 3)
        assert (best_k[0], best_th[0], best_gain[0]) == (1, 0, 0.25)
        # swapping the two winners swaps the index and the slot
        best_k, best_th, best_gain = one_profile_search(
            self.TRUTH, [worker[0], worker[2], worker[1]] + firms, ind, valid, 1, 2, 3, 3)
        assert (best_k[0], best_th[0], best_gain[0]) == (1, 1, 0.25)
        assert best_k[1:].tolist() == [-1, -1]

    def test_padded_slots_ignored(self):
        ind, valid = self.sets()
        # f1's report loses at its one valid slot (1/2 -> 1/4 on w1); its
        # padded slot 1, filled with the (w1, f2) cell, would show +1/2
        ind[0, 1, 1, 0, :] = [0.0, 1.0]
        report = [[0.25, 0.75]]
        r_var = [self.TRUTH, report, self.TRUTH]
        best_k, _, best_gain = one_profile_search(self.TRUTH, r_var, ind, valid, 1, 2, 1, 1)
        assert best_k.tolist() == [-1, -1, -1]
        assert best_gain.tolist() == [0.0, 0.0, 0.0]
        valid[0, 1, 1] = True
        best_k, best_th, best_gain = one_profile_search(self.TRUTH, r_var, ind, valid,
                                                        1, 2, 1, 1)
        assert (best_k[1], best_th[1], best_gain[1]) == (0, 1, 0.5)


class TestRegret:
    def test_f1_truncation_gain(self, example1):
        mech = LiftedMechanism(MechanismKind.WDA)
        got = metrics.regret_gains(mech, example1)[example1.n + 0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_proposers_never_gain_under_da(self):
        mech = LiftedMechanism(MechanismKind.WDA)
        for profile in random_profiles(15, seed=31):
            for got in metrics.regret_gains(mech, profile)[:profile.n]:
                assert got <= 1e-12

    def test_rsd_strategyproof(self):
        mech = LiftedMechanism(MechanismKind.RSD)
        assert metrics.profile_metrics(mech, random_profiles(5, seed=32))["rgt"].max() <= 1e-12

    def test_profile_average_structure(self, example1):
        mech = LiftedMechanism(MechanismKind.WDA)
        gains = metrics.regret_gains(mech, example1)
        workers, firms = gains[:3], gains[3:]
        assert gains.shape == (6,) and gains.max() > 0.0
        expected = 0.5 * (np.mean(workers) + np.mean(firms))
        assert metrics.profile_metrics(mech, [example1])["rgt"][0] == \
            pytest.approx(expected, abs=1e-12)


class Delegating:
    """The same mechanism behind a plain wrapper, so regret_gains
    enumerates every misreport; it keeps every profile it evaluates."""

    def __init__(self, mech):
        self.mech = mech
        self.seen = []

    def evaluate(self, profile):
        self.seen.append(profile)
        return self.mech.evaluate(profile)


class Recording(LiftedMechanism):
    """A lifted mechanism that keeps every profile it evaluates, one at a
    time or as a row of a batched kernel call."""

    def __init__(self, kind):
        super().__init__(kind)
        self.seen = []

    def evaluate(self, profile):
        self.seen.append(profile)
        return super().evaluate(profile)

    def evaluate_many(self, profiles):
        self.seen.extend(profiles)
        return super().evaluate_many(profiles)


def count_evaluations(monkeypatch, cls):
    """The number of profiles in each call of a mechanism class's
    `evaluate` (1) or `evaluate_many` (its rows), in call order."""
    calls = []
    inner, inner_many = cls.evaluate, cls.evaluate_many

    def counted(self, profile):
        calls.append(1)
        return inner(self, profile)

    def counted_many(self, profiles):
        calls.append(len(profiles))
        return inner_many(self, profiles)

    monkeypatch.setattr(cls, "evaluate", counted)
    monkeypatch.setattr(cls, "evaluate_many", counted_many)
    return calls


EXACT_KINDS = [MechanismKind.WDA, MechanismKind.FDA, MechanismKind.RSD]


class TestPrefixRegret:
    """DA and exact RSD read acceptable prefixes only, so regret_gains
    evaluates one misreport per prefix and reuses the truth for its own."""

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    @pytest.mark.parametrize("cfg, count", [
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.0, seed=61), 8),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.2, seed=62), 8),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 3, p_trunc=0.5, seed=63), 8),
        (DistributionConfig(DistributionKind.UNCORRELATED, 2, 3, p_trunc=0.3, seed=64), 10),
        (DistributionConfig(DistributionKind.UNCORRELATED, 3, 2, p_trunc=0.3, seed=65), 10),
        (DistributionConfig(DistributionKind.UNCORRELATED, 1, 3, p_trunc=0.3, seed=66), 10),
        (DistributionConfig(DistributionKind.CORRELATED, 4, 4, p_corr=0.25, seed=67), 1),
    ], ids=["3x3-t0", "3x3-t0.2", "3x3-t0.5", "2x3", "3x2", "1x3", "4x4-corr"])
    def test_equals_full_enumeration(self, kind, cfg, count):
        mech = LiftedMechanism(kind)
        full = Delegating(mech)
        for profile in sample_profiles(cfg, count):
            gains = metrics.regret_gains(mech, profile)
            assert gains.tolist() == metrics.regret_gains(full, profile).tolist()

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_same_prefix_same_outcome(self, kind):
        # the fact the dedupe rests on: reports that differ only in the
        # order of their unacceptable partners give bitwise-equal marginals
        mech = LiftedMechanism(kind)
        for profile in random_profiles(3, seed=68):
            for agent in profile.agents():
                outcomes = {}
                for order in enumerate_misreports(agent.side, 3):
                    r = mech.evaluate(profile.with_order(agent, order)).r
                    first = outcomes.setdefault(order.acceptable(), r)
                    assert np.array_equal(r, first)

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_one_misreport_per_prefix(self, kind, example1):
        # 16 acceptable prefixes over 3 partners (the empty one included),
        # each a row of the batched call, except the truth's
        mech = Recording(kind)
        metrics.regret_gains(mech, example1)
        assert mech.seen[0] == example1
        assert len(mech.seen) == 1 + 6 * 15
        for a, agent in enumerate(example1.agents()):
            variants = mech.seen[1 + 15 * a:1 + 15 * (a + 1)]
            assert all(p.with_order(agent, example1.order_of(agent)) == example1
                       for p in variants)
            truth = example1.order_of(agent).acceptable()
            prefixes = [p.order_of(agent).acceptable() for p in variants]
            assert len(prefixes) == len(set(prefixes)) == 15
            assert truth not in prefixes and () in prefixes

    @pytest.mark.parametrize("wrap, per_agent", [
        (Recording, 4), (lambda kind: Delegating(Recording(kind)), 6),
    ], ids=["prefixes", "every-misreport"])
    def test_agent_accepting_nobody_costs_no_evaluation(self, wrap, per_agent):
        # w1 accepts nobody: its regret is 0 and none of its reports is run;
        # each other agent runs its 5 prefixes less the truth's (4), or all
        # 3! = 6 misreports
        profile = parse_profile("_,f1,f2;f1,f2,_|w1,w2,_;w2,w1,_")
        mech = wrap(MechanismKind.WDA)
        assert metrics.regret_gains(mech, profile)[0] == 0.0
        assert all(p.workers[0] == profile.workers[0] for p in mech.seen)
        assert len(mech.seen) == 1 + 3 * per_agent

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_market_accepting_nobody_runs_no_variant(self, kind):
        # every report reuses the truth, so the batched call gets no rows
        profile = parse_profile("_,f1,f2;_,f2,f1|_,w1,w2;_,w2,w1")
        mech = Recording(kind)
        assert metrics.regret_gains(mech, profile).tolist() == [0.0] * 4
        assert mech.seen == [profile]

    def test_reporting_nobody_still_matched_under_rsd(self):
        # w1 truly ranks f1 > f2 and gets f1 with 2/3 (w1 or f1 acts
        # first) and f2 with 1/3.  Reporting nobody, w1 is still taken by
        # whichever firm acts first: 1/2 each.  So the empty prefix has its
        # own outcome and is evaluated
        profile = parse_profile("f1,f2,_|w1,_;w1,_")
        mech = Recording(MechanismKind.RSD)
        assert metrics.regret_gains(mech, profile)[0] == 0.0
        outcomes = {p.workers[0].acceptable(): mech.evaluate(p).r[0].tolist()
                    for p in mech.seen[1:] if p.firms == profile.firms}
        assert sorted(outcomes) == [(), (0,), (1,), (1, 0)]
        assert outcomes[()] == [0.5, 0.5]
        assert mech.evaluate(profile).r[0].tolist() == [2 / 3, 1 / 3]

    @pytest.mark.parametrize("kind", EXACT_KINDS)
    def test_evaluate_calls_per_profile(self, kind, example1, monkeypatch):
        # one truth, then 15 misreports for each of the 6 agents, all in
        # one batched call
        calls = count_evaluations(monkeypatch, LiftedMechanism)
        metrics.evaluate(LiftedMechanism(kind), [example1])
        assert calls == [1, 6 * 15]

    def test_rsd_past_eight_agents_batches_every_prefix(self, monkeypatch):
        profile = sample_profiles(DistributionConfig(
            DistributionKind.UNCORRELATED, 4, 5, p_trunc=0.0, seed=70), 1)[0]
        calls = count_evaluations(monkeypatch, LiftedMechanism)
        report = metrics.evaluate(LiftedMechanism(MechanismKind.RSD), [profile])
        # RSD is ordinally strategy-proof.  Workers rank 5 firms (326
        # prefixes), firms rank 4 workers (65); each agent's variants are
        # every prefix but its truth's, all in one batched call
        assert report.rgt <= 1e-12
        assert calls == [1, 4 * 325 + 5 * 64]

    def test_network_forwards_its_own_tables(self, example1, monkeypatch):
        # a network's variants come from its misreport tables, 18 reports
        # per agent at 3x3 (the 24 orders less the 6 that accept nobody),
        # in one forward call after the truth's; `evaluate` is never called
        dims = NetworkDims(3, 3, R=2, J=8)
        mech = NetworkMechanism(init_params(dims, seed=3), dims)
        calls = count_evaluations(monkeypatch, NetworkMechanism)
        rows, forward = [], net.forward_batch

        def counted(params, dims, x):
            rows.append(x.shape[0])
            return forward(params, dims, x)

        monkeypatch.setattr(net, "forward_batch", counted)
        metrics.profile_metrics(mech, [example1])
        assert calls == []
        assert rows == [1, 6 * 18]


class TestWelfare:
    def test_example_wda(self, example1):
        r = da(example1, Proposing.WORKERS).to_marginals().r
        assert one_profile(metrics.welfare_batch, r, example1) == pytest.approx(
            7 / 9, abs=1e-12)

    def test_empty_matching_zero(self, example1):
        assert one_profile(metrics.welfare_batch, np.zeros((3, 3)), example1) == 0.0


class TestSimilarity:
    def test_da_output_scores_one(self, example1):
        r = da(example1, Proposing.WORKERS).to_marginals()
        assert metrics.similarity(r, example1) == pytest.approx(1.0)

    def test_disjoint_mass_scores_zero(self, example1):
        # WDA is {(w1,f3),(w2,f2),(w3,f1)}, FDA the identity; (w1,f2) is
        # in neither, so mass there counts for nothing
        r = RandomizedMatching(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                        dtype=float))
        assert metrics.similarity(r, example1) == pytest.approx(0.0)

    def test_empty_da_both_sides(self):
        profile = parse_profile("_,f1|_,w1")
        r = RandomizedMatching(np.zeros((1, 1)))
        assert metrics.similarity(r, profile) == 1.0


class TestEntropy:
    def test_deterministic_is_zero(self, example1):
        r = da(example1, Proposing.WORKERS).to_marginals().r
        assert metrics.entropy_batch(r[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_value(self):
        # every row and column uniform over m+1 / n+1 outcomes
        n = m = 3
        r = np.full((1, n, m), 1.0 / (m + 1))
        per_worker = np.log2(m + 1) / np.log2(m)
        per_firm = np.log2(n + 1) / np.log2(n)
        expected = per_worker / 2 + per_firm / 2
        assert metrics.entropy_batch(r)[0] == pytest.approx(expected, abs=1e-12)

    def test_single_agent_warns(self):
        with pytest.warns(UserWarning):
            assert metrics.entropy_batch(np.zeros((1, 1, 1)))[0] == 0.0

    def test_rsd_positive(self, rsd_expected):
        assert metrics.entropy_batch(rsd_expected[None])[0] > 0


class TestEvaluate:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            metrics.evaluate(LiftedMechanism(MechanismKind.WDA), [])

    def test_batched_matches_unbatched(self):
        # a wrapper exposing only evaluate takes the per-profile path:
        # marginals one at a time, regret by enumerated misreports.  Unequal
        # sides exercise the side split of the misreport tables; 130
        # profiles cross a search block boundary
        for n, m, count in ((3, 3, 6), (2, 3, 8), (3, 2, 8), (3, 3, 130)):
            dims = NetworkDims(n, m, R=2, J=8)
            mech = NetworkMechanism(init_params(dims, seed=2), dims)

            class Unbatched:
                evaluate = mech.evaluate

            profiles = random_profiles(count, n, m, seed=40)
            a = metrics.evaluate(mech, profiles)
            b = metrics.evaluate(Unbatched(), profiles)
            assert a.rgt > 0.0
            for field in fields(metrics.EvalReport):
                name = field.name
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, (n, m, name)

    @pytest.mark.parametrize("kind", [MechanismKind.WDA, MechanismKind.RSD])
    def test_mixed_shapes_match_evaluate_only_reference(self, kind):
        # profiles of three shapes, interleaved: each shape is its own block,
        # and the arrays come back in profile order
        groups = [random_profiles(4, n, m, seed=50 + n) for n, m in ((2, 3), (3, 2), (3, 3))]
        profiles = [p for trio in zip(*groups) for p in trio]
        mech = LiftedMechanism(kind)
        got = metrics.profile_metrics(mech, profiles)
        expected = metrics.profile_metrics(Delegating(mech), profiles)
        for name in got:
            assert got[name].shape == (len(profiles),)
            assert np.abs(got[name] - expected[name]).max() <= 1e-12, name
        for i, profile in enumerate(profiles):
            one = metrics.profile_metrics(mech, [profile])
            for name in got:
                assert abs(got[name][i] - one[name][0]) <= 1e-12, name
        report = metrics.evaluate(mech, profiles)
        reference = metrics.evaluate(Delegating(mech), profiles)
        for field in fields(metrics.EvalReport):
            assert abs(getattr(report, field.name) - getattr(reference, field.name)) <= 1e-12

    def test_network_refuses_other_shape(self, example1):
        dims = NetworkDims(2, 2, R=2, J=8)
        mech = NetworkMechanism(init_params(dims, seed=2), dims)
        with pytest.raises(ValueError, match="a 2x2 network cannot evaluate 3x3 profiles"):
            metrics.evaluate(mech, [example1])

    def test_error_annotated_with_profile_index(self, example1):
        class Broken:
            def evaluate(self, profile):
                raise ArithmeticError("boom")

        with pytest.raises(RuntimeError, match="profile 0"):
            metrics.evaluate(Broken(), [example1])

    def test_report_counts_profiles(self, example1):
        report = metrics.evaluate(LiftedMechanism(MechanismKind.WDA), [example1])
        assert report.profiles_evaluated == 1
