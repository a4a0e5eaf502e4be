"""Acceptance suite: the fourteen release criteria, one test each.

Each test prints a single `[criterion NN] PASS/FAIL` line before asserting.
The frontier criteria (12, 13) consume desk-scale training runs cached in
tests/artifacts by traincache.ensure_checkpoint; a cold cache trains them
on demand (roughly five minutes per run, nine runs).
"""
import itertools
import math

import numpy as np
import pytest

import traincache
from matchfrontier import cli, metrics, oracle
from matchfrontier.mechanisms import (MechanismKind, RandomizedMatching,
                                      LiftedMechanism, bvn_decompose, da,
                                      rsd_exact, Proposing)
from matchfrontier.net import (NetworkDims, NetworkMechanism, forward_batch,
                               init_params, layer_shapes, load_checkpoint,
                               misreport_tables)
from matchfrontier.prefs import (BOTTOM, AgentId, DistributionConfig,
                                 DistributionKind, PreferenceOrder, Side,
                                 encode, encode_arrays, encode_ranks, rank_arrays,
                                 sample_profiles)
from matchfrontier.train import (HELDOUT_LANE, _Batch, _defeat_inputs, _heldout_stv_rgt,
                                 _loss_from_batch, _loss_node, _search_defeating,
                                 _variant_inputs)
from matchfrontier.autodiff import Tape, backward

from conftest import EXAMPLE1_TEXT, RSD_EXPECTED, reference_build_mask


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f": {detail}" if detail else ""))


class _Memo:
    """Evaluation cache for fosd_audit, whose truthful misreports repeat
    the truthful profile."""

    def __init__(self, mech):
        self.mech = mech
        self.cache = {}

    def evaluate(self, profile):
        key = profile
        if key not in self.cache:
            self.cache[key] = self.mech.evaluate(profile)
        return self.cache[key]


# ---------------------------------------------------------------------------
# Desk-scale artifacts (criteria 12, 13)

DESK_SEEDS = (1, 2, 3)
INTERMEDIATE_LAMBDAS = (0.3, 0.5, 0.8)


@pytest.fixture(scope="session")
def desk_heldout():
    """Per seed: the held-out profiles."""
    out = {}
    for seed in DESK_SEEDS:
        config = traincache.desk_config(0.0, seed)
        out[seed] = sample_profiles(config.dist, config.test_size, lane=HELDOUT_LANE)
    return out


def _learned_heldout(lam, seed, desk_heldout):
    params, dims, _, _ = load_checkpoint(traincache.ensure_checkpoint(lam, seed))
    return _heldout_stv_rgt(params, dims, desk_heldout[seed])


@pytest.fixture(scope="session")
def rsd_heldout_stats(desk_heldout):
    """Per seed: mean stv + irv of exact RSD on the held-out set."""
    stats = {}
    for seed in DESK_SEEDS:
        profiles = desk_heldout[seed]
        P, Q, _ = encode_arrays(profiles, 3, 3)
        r = np.stack([rsd_exact(profile).r for profile in profiles])
        stats[seed] = float(np.mean(metrics.stv_batch(r, P, Q) + metrics.irv_batch(r, P, Q)))
    return stats


@pytest.fixture(scope="session")
def da_best_rgt_seed1(desk_heldout):
    profiles = desk_heldout[1]
    best = math.inf
    for kind in (MechanismKind.WDA, MechanismKind.FDA):
        rgt = metrics.profile_metrics(LiftedMechanism(kind), profiles)["rgt"]
        best = min(best, float(np.mean(rgt)))
    return best


# ---------------------------------------------------------------------------

class TestAcceptance:
    def test_01_encoding_fidelity(self):
        rows = [
            (PreferenceOrder((0, 1, BOTTOM, 2)), [2 / 3, 1 / 3, -1 / 3]),
            (PreferenceOrder((0, 1, BOTTOM, 2, 3)), [2 / 4, 1 / 4, -1 / 4, -2 / 4]),
            (PreferenceOrder((1, 0, 2, BOTTOM)), [2 / 3, 1.0, 1 / 3]),
        ]
        worst = max(np.max(np.abs(encode_ranks(*rank_arrays([order], len(want)), len(want))[0]
                                  - np.asarray(want)))
                    for order, want in rows)
        report(1, "encoding fidelity", worst <= 1e-15, f"max err {worst:.2e}")
        assert worst <= 1e-15

    def test_02_da_oracle(self, example1):
        wda = sorted(da(example1, Proposing.WORKERS).pairs)
        mis = example1.with_order(AgentId(Side.FIRM, 0),
                                  PreferenceOrder((0, 1, BOTTOM, 2)))
        wda_mis = sorted(da(mis, Proposing.WORKERS).pairs)
        ok = wda == [(0, 2), (1, 1), (2, 0)] and wda_mis == [(0, 0), (1, 1), (2, 2)]
        report(2, "DA worked example", ok, f"truth {wda}, misreport {wda_mis}")
        assert ok

    def test_03_da_stability(self):
        envs = [
            dict(kind=DistributionKind.UNCORRELATED, p_corr=0.0, p_trunc=0.2),
            dict(kind=DistributionKind.CORRELATED, p_corr=0.25, p_trunc=0.2),
            dict(kind=DistributionKind.CORRELATED, p_corr=0.5, p_trunc=0.2),
            dict(kind=DistributionKind.CORRELATED, p_corr=0.75, p_trunc=0.2),
            dict(kind=DistributionKind.CORRELATED, p_corr=0.25, p_trunc=0.0),
            dict(kind=DistributionKind.CORRELATED, p_corr=0.25, p_trunc=0.5),
        ]
        worst = 0.0
        differ = 0  # profiles where the batched DA and the oracle's loop DA differ
        for env_index, env in enumerate(envs):
            cfg = DistributionConfig(n=4, m=4, seed=100 + env_index, **env)
            profiles = sample_profiles(cfg, 10_000)
            P, Q, _ = encode_arrays(profiles, 4, 4)
            for kind, proposing in ((MechanismKind.WDA, Proposing.WORKERS),
                                    (MechanismKind.FDA, Proposing.FIRMS)):
                r = np.array([x.r for x in LiftedMechanism(kind).evaluate_many(profiles)])
                worst = max(worst, metrics.stv_batch(r, P, Q).max(),
                            metrics.irv_batch(r, P, Q).max())
                loop = np.array([oracle.da_by_rounds(p, proposing).to_marginals().r
                                 for p in profiles])
                differ += int((r != loop).any(axis=(1, 2)).sum())
        ok = worst <= 1e-12 and differ == 0
        report(3, "DA stability across environments", ok,
               f"worst stv/irv {worst:.2e}, {differ} profiles differ from the loop DA")
        assert ok

    def test_04_rsd_marginals(self, example1):
        exact = rsd_exact(example1).r
        exact_err = np.max(np.abs(exact - RSD_EXPECTED))
        ok = exact_err <= 1e-12
        report(4, "RSD exact marginals", ok, f"exact err {exact_err:.2e}")
        assert ok

    def test_05_rsd_ordinal_sp(self):
        cfg = DistributionConfig(DistributionKind.UNCORRELATED, 3, 3,
                                 p_trunc=0.3, seed=55)
        mech = _Memo(LiftedMechanism(MechanismKind.RSD))
        worst = 0.0
        for profile in sample_profiles(cfg, 100):
            gains = oracle.fosd_audit(mech, profile)
            worst = max(worst, max(gains.values()))
        report(5, "RSD FOSD audit", worst <= 1e-12, f"worst gain {worst:.2e}")
        assert worst <= 1e-12

    def test_06_rsd_instability(self, example1):
        enc = encode(example1)
        r = RandomizedMatching(RSD_EXPECTED)
        stv = metrics.stv_profile(r, enc)
        _, firm_side, worker_side, _ = metrics.stv_terms(r.r[None], enc.p[None], enc.q[None])
        pair = firm_side[0, 1, 1] * worker_side[0, 1, 1]
        # independent scalar oracle: raw sums straight from the definitions
        q, p = enc.q, enc.p
        firm_mass = sum(r.r[i, 1] * max(q[1, 1] - q[i, 1], 0.0) for i in range(3)) \
            + (1 - r.r[:, 1].sum()) * max(q[1, 1], 0.0)
        worker_mass = sum(r.r[1, j] * max(p[1, 1] - p[1, j], 0.0) for j in range(3)) \
            + (1 - r.r[1, :].sum()) * max(p[1, 1], 0.0)
        naive = firm_mass * worker_mass
        ok = stv > 0 and abs(pair - 1 / 54) <= 1e-12 and abs(naive - pair) <= 1e-12
        report(6, "RSD instability at (w2, f2)", ok,
               f"stv {stv:.4f}, pair err {abs(pair - 1 / 54):.2e}")
        assert ok

    def test_07_network_invariants(self):
        dims = NetworkDims(4, 4, R=2, J=32)
        worst_sum = 0.0
        worst_neg = 0.0
        masked_clean = True
        irv_zero = True
        for draw in range(100):
            params = init_params(dims, seed=700 + draw)
            cfg = DistributionConfig(DistributionKind.UNCORRELATED, 4, 4,
                                     p_trunc=0.3, seed=700 + draw)
            profiles = sample_profiles(cfg, 100)
            X = np.stack([np.concatenate([e.p.reshape(-1), e.q.reshape(-1)])
                          for e in map(encode, profiles)])
            betas = np.stack([reference_build_mask(p) for p in profiles])
            P, Q, _ = encode_arrays(profiles, 4, 4)
            r = forward_batch(params, dims, X)
            worst_sum = max(worst_sum, float(r.sum(axis=1).max()),
                            float(r.sum(axis=2).max()))
            worst_neg = min(worst_neg, float(r.min()))
            masked_clean &= bool(np.all(r[betas[:, :4, :4] == 0.0] == 0.0))
            irv_zero &= bool(np.all(metrics.irv_batch(r, P, Q) == 0.0))
        ok = worst_sum <= 1 + 1e-6 and worst_neg >= 0.0 and masked_clean and irv_zero
        report(7, "network output invariants", ok,
               f"max margin sum {worst_sum:.8f}, min entry {worst_neg:.1e}")
        assert ok

    def test_08_analytic_forward(self):
        dims = NetworkDims(4, 4, R=4, J=32)
        params = [(np.zeros(w), np.zeros(b)) for w, b in layer_shapes(dims)]
        r = forward_batch(params, dims, np.ones((1, 32)))
        err = float(np.max(np.abs(r - 0.2)))
        report(8, "zero-parameter forward is uniform 1/5", err <= 1e-12,
               f"max err {err:.2e}")
        assert err <= 1e-12

    def test_09_gradient_correctness(self):
        # The loss is piecewise smooth (elementwise min, relu); a central
        # difference at the stated h=1e-3 straddling one of those kinks
        # measures the kink, not the gradient.  Coordinates where the h and
        # h/2 estimates disagree are skipped as kink-straddling; they must
        # stay a small fraction, and FD at shrinking h converges to the
        # analytic gradient on them too.
        dims = NetworkDims(2, 2, R=2, J=16)
        h = 1e-3
        worst = 0.0
        checked = skipped = 0
        for draw in range(20):
            cfg = DistributionConfig(DistributionKind.UNCORRELATED, 2, 2,
                                     p_trunc=0.3, seed=900 + draw)
            profiles = sample_profiles(cfg, 2)
            lam = (draw % 5) / 4.0
            params = init_params(dims, seed=900 + draw)
            batch, tables = _Batch(profiles, dims), misreport_tables(dims)
            tape, loss, param_nodes = _loss_from_batch(params, dims, batch, lam, tables)
            backward(tape, loss)
            grads = [tuple(p.grad for p in group) for group in param_nodes]
            # pin the defeating-report selection: the loss differentiates
            # through the marginals only, never through the argmax
            variants = _variant_inputs(batch.X, dims, tables)
            best_k, best_th, _ = _search_defeating(params, dims, batch, variants,
                                                   forward_batch(params, dims, batch.X))
            X_def, ind_sel = _defeat_inputs(batch, dims, variants, best_k, best_th)
            X_def = X_def.reshape(-1, X_def.shape[2])

            def loss_at(bumped):
                tape = Tape()
                r_t, r_d = (tape.leaf(forward_batch(bumped, dims, x)) for x in (batch.X, X_def))
                return float(_loss_node(r_t, r_d, batch, ind_sel, lam)[0].value)

            for li, group in enumerate(params):
                for pj, arr in enumerate(group):
                    flat = arr.reshape(-1)
                    gflat = grads[li][pj].reshape(-1)
                    for idx in range(flat.size):
                        orig = flat[idx]
                        fds = []
                        for step in (h, h / 2):
                            flat[idx] = orig + step
                            up = loss_at(params)
                            flat[idx] = orig - step
                            down = loss_at(params)
                            flat[idx] = orig
                            fds.append((up - down) / (2 * step))
                        checked += 1
                        if abs(fds[0] - fds[1]) > 1e-5 * max(1.0, abs(fds[1])):
                            skipped += 1  # kink inside the FD interval
                            continue
                        an = gflat[idx]
                        worst = max(worst,
                                    abs(fds[0] - an) / max(1.0, abs(fds[0]), abs(an)))
        frac = skipped / checked
        ok = worst < 1e-4 and frac < 0.02
        report(9, "loss gradient vs finite differences", ok,
               f"max rel err {worst:.2e}, {skipped}/{checked} kink skips")
        assert worst < 1e-4
        assert frac < 0.02, "too many kink-straddling coordinates"

    def test_10_oracle_equivalence(self):
        dims = NetworkDims(3, 3, R=2, J=16)
        mechs = [LiftedMechanism(MechanismKind.WDA),
                 LiftedMechanism(MechanismKind.FDA),
                 LiftedMechanism(MechanismKind.RSD)] + \
            [NetworkMechanism(init_params(dims, seed=s), dims) for s in range(3)]
        worst = 0.0
        pairs = 0
        for i in range(100):
            cfg = DistributionConfig(DistributionKind.UNCORRELATED, 3, 3,
                                     p_trunc=0.3, seed=1000 + i)
            profile = sample_profiles(cfg, 1)[0]
            mech = mechs[i % len(mechs)]
            gains = oracle.fosd_audit(_Memo(mech), profile)
            ours = metrics.regret_gains(mech, profile)
            for i, agent in enumerate(profile.agents()):
                worst = max(worst, abs(ours[i] - gains[agent]))
            pairs += 1
        report(10, "regret_gains vs fosd_audit", worst <= 1e-12,
               f"{pairs} pairs, max diff {worst:.2e}")
        assert worst <= 1e-12

    def test_11_bvn_reconstruction(self, example1):
        dims = NetworkDims(3, 3, R=2, J=16)
        net_mech = NetworkMechanism(init_params(dims, seed=11), dims)
        cfg = DistributionConfig(DistributionKind.UNCORRELATED, 3, 3,
                                 p_trunc=0.3, seed=1100)
        cases = [(example1, rsd_exact(example1))]
        for profile in sample_profiles(cfg, 25):
            cases.append((profile, rsd_exact(profile)))
            cases.append((profile, net_mech.evaluate(profile)))
        worst = 0.0
        structure_ok = True
        for profile, r in cases:
            dec = bvn_decompose(r)
            worst = max(worst, float(np.max(np.abs(dec.reconstruct() - r.r))))
            structure_ok &= len(dec.components) <= r.n * r.m + r.n + r.m + 1
            for _, mu in dec.components:
                for w, f in mu.pairs:
                    # IR over the support: mass only where r is positive,
                    # which the mechanisms place only on acceptable pairs
                    structure_ok &= r.r[w, f] > 0
                    structure_ok &= (profile.workers[w].is_acceptable(f)
                                     or profile.firms[f].is_acceptable(w))
        ok = worst <= 1e-9 and structure_ok
        report(11, "BvN reconstruction and component validity", ok,
               f"max reconstruction err {worst:.2e}")
        assert ok

    def test_12_frontier_shape(self, desk_heldout, rsd_heldout_stats,
                               da_best_rgt_seed1):
        details = []
        ok_a = ok_b = True
        for seed in DESK_SEEDS:
            _, rgt0 = _learned_heldout(0.0, seed, desk_heldout)
            stv1, _ = _learned_heldout(1.0, seed, desk_heldout)
            rsd_ref = rsd_heldout_stats[seed]
            ok_a &= rgt0 < 0.01
            ok_b &= stv1 < 0.5 * rsd_ref
            details.append(f"seed {seed}: rgt(l=0)={rgt0:.4f}"
                           f" stv(l=1)={stv1:.4f} rsd={rsd_ref:.4f}")
        S = rsd_heldout_stats[1]
        R = da_best_rgt_seed1
        ok_c = False
        for lam in INTERMEDIATE_LAMBDAS:
            stv, rgt = _learned_heldout(lam, 1, desk_heldout)
            below = stv < S and rgt < R * (1.0 - stv / S)
            ok_c |= below
            details.append(f"l={lam}: ({stv:.4f}, {rgt:.4f})"
                           f" segment allows {R * (1 - min(stv, S) / S):.4f}")
        ok = ok_a and ok_b and ok_c
        report(12, "desk-scale frontier shape", ok, "; ".join(details))
        assert ok_a, "lambda=0 runs must reach held-out rgt < 0.01"
        assert ok_b, "lambda=1 runs must halve RSD stability violation"
        assert ok_c, "an intermediate lambda must beat the DA-RSD segment"

    def test_13_monotone_trends(self, desk_heldout):
        lams = (0.0,) + INTERMEDIATE_LAMBDAS + (1.0,)
        profiles = desk_heldout[1]
        sims, ents = [], []
        for lam in lams:
            params, dims, _, _ = load_checkpoint(traincache.ensure_checkpoint(lam, 1))
            mech = NetworkMechanism(params, dims)
            rs = mech.evaluate_many(profiles)
            sims.append(float(np.mean([metrics.similarity(r, p)
                                       for r, p in zip(rs, profiles)])))
            ents.append(float(np.mean(metrics.entropy_batch(np.stack([r.r for r in rs])))))

        def spearman(x, y):
            rx = np.argsort(np.argsort(x)).astype(float)
            ry = np.argsort(np.argsort(y)).astype(float)
            rx -= rx.mean()
            ry -= ry.mean()
            return float((rx * ry).sum() / np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))

        rho_sim = spearman(lams, sims)
        rho_ent = spearman(lams, ents)
        ok = rho_sim > 0 and rho_ent < 0
        report(13, "similarity rises, entropy falls with lambda", ok,
               f"rho(sim)={rho_sim:.2f}, rho(entropy)={rho_ent:.2f}, "
               f"sim={['%.3f' % s for s in sims]}, "
               f"ent={['%.3f' % e for e in ents]}")
        assert ok

    def test_14_reproducibility(self, tmp_path):
        cfg = tmp_path / "repro.cfg"
        cfg.write_text("n = 2\nm = 2\nseed = 14\nbatch_size = 4\n"
                       "iterations = 8\neval_every = 4\ntest_size = 16\n"
                       "hidden_layers = 2\nhidden_units = 6\n")
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert cli.main(["sweep", "--config", str(cfg), "--lambdas", "0,0.7",
                            "--out-dir", str(out_dir)]) == 0
            outputs.append((out_dir / "frontier.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        report(14, "sweep CSVs bit-identical across runs", ok,
               f"{len(outputs[0])} bytes")
        assert ok
