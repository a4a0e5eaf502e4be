import csv
import dataclasses
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import matchfrontier
from matchfrontier import cli, metrics, prefs
from matchfrontier.autodiff import NumericError
from matchfrontier.mechanisms import LiftedMechanism, MechanismKind, parse_matching
from matchfrontier.net import NetworkDims, init_params, save_checkpoint
from matchfrontier.prefs import (DistributionConfig, DistributionKind, encode_arrays,
                                 read_profiles, sample_profiles, write_profiles)

TINY_CFG = """\
# smallest usable training setup
n = 2
m = 2
kind = uncorrelated
p_trunc = 0.3
seed = 3
batch_size = 4
iterations = 8
base_lr = 0.002
eval_every = 4
test_size = 8
hidden_layers = 2
hidden_units = 6
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture
def profile_file(tmp_path, tiny_cfg):
    out = tmp_path / "profiles.txt"
    assert cli.main(["gen", "--config", tiny_cfg, "--count", "6",
                     "--out", str(out)]) == 0
    return str(out)


class TestConfigParsing:
    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 3\nbogus = 1\n")
        with pytest.raises(cli.ConfigError, match=r"bad\.cfg:2: unknown key"):
            cli.parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n 3\n")
        with pytest.raises(cli.ConfigError, match="expected key = value"):
            cli.parse_config_file(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = many\n")
        with pytest.raises(cli.ConfigError, match="bad value for n"):
            cli.parse_config_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# full line comment\nn = 5  # trailing comment\n")
        assert cli.parse_config_file(path) == {"n": 5}

    def test_exit_code_on_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert cli.main(["gen", "--config", str(path), "--count", "1",
                        "--out", str(tmp_path / "x")]) == 1

    def test_presets_known(self):
        assert set(cli.PRESETS) == {"paper-uncorrelated", "paper-correlated", "desk"}


class TestSeedOverride:
    def test_match_seed_env_wins(self, tmp_path, tiny_cfg, monkeypatch):
        out_a, out_b, out_c = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
        monkeypatch.setenv("MATCH_SEED", "41")
        cli.main(["gen", "--config", tiny_cfg, "--count", "4", "--out", str(out_a)])
        monkeypatch.setenv("MATCH_SEED", "42")
        cli.main(["gen", "--config", tiny_cfg, "--count", "4", "--out", str(out_b)])
        cli.main(["gen", "--config", tiny_cfg, "--count", "4", "--out", str(out_c)])
        assert out_a.read_text() != out_b.read_text()
        assert out_b.read_text() == out_c.read_text()

    def test_match_seed_not_an_integer(self, tmp_path, tiny_cfg, monkeypatch, capsys):
        out = tmp_path / "p.txt"
        monkeypatch.setenv("MATCH_SEED", "abc")
        assert cli.main(["gen", "--config", tiny_cfg, "--count", "1", "--out", str(out)]) == 1
        assert "error: MATCH_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_gen_rejects_seed(self, tmp_path, seed, capsys):
        out = tmp_path / "p.txt"
        assert cli.main(["gen", "--seed", seed, "--count", "2", "--out", str(out)]) == 1
        assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seeds_keep_their_low_bits(self, tmp_path):
        # seeds of 2**63 and more key the profile streams exactly
        texts = []
        for seed in (2 ** 64 - 1, 2 ** 64 - 2):
            out = tmp_path / f"{seed}.txt"
            assert cli.main(["gen", "--seed", str(seed), "--count", "2",
                             "--out", str(out)]) == 0
            texts.append(out.read_text().split("\n", 1)[1])
        assert texts[0] != texts[1]

    def test_train_rejects_seed_before_training(self, tmp_path, tiny_cfg, capsys):
        ckpt = tmp_path / "run.ckpt"
        assert cli.main(["train", "--config", tiny_cfg, "--seed", "-1",
                         "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert "error: seed must lie in [0, 2**64)" in captured.err
        assert "iter" not in captured.out and not ckpt.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_eval_rejects_seed(self, tmp_path, profile_file, seed, capsys):
        out = tmp_path / "matchings.txt"
        assert cli.main(["eval", "--mechanism", "rsd", "--profiles", profile_file,
                         "--matchings-out", str(out), "--seed", seed]) == 1
        assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_largest_seeds_sample_exactly(self, tmp_path):
        # seeds of 2**63 and more key the matchings sampler exactly, so
        # neighbouring seeds sample different matchings
        path = tmp_path / "profiles.txt"
        write_profiles(path, sample_profiles(DistributionConfig(
            DistributionKind.UNCORRELATED, 3, 3, seed=7), 20))
        texts = []
        for seed in (2 ** 63 + 1, 2 ** 63 + 2):
            out = tmp_path / f"{seed}.txt"
            assert cli.main(["eval", "--mechanism", "rsd", "--profiles", str(path),
                             "--matchings-out", str(out), "--seed", str(seed)]) == 0
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("seed", [1, 2 ** 63 + 1])
    def test_eval_sampler_key(self, tmp_path, profile_file, seed, monkeypatch):
        # the --matchings-out sampler is Philox keyed on (seed, 0xB45E) as u64
        keys = []

        def recorded(*args):
            rng = prefs.philox(*args)
            keys.append(rng.bit_generator.state["state"]["key"])
            return rng

        monkeypatch.setattr(cli, "philox", recorded)
        assert cli.main(["eval", "--mechanism", "rsd", "--profiles", profile_file,
                         "--matchings-out", str(tmp_path / "m.txt"),
                         "--seed", str(seed)]) == 0
        assert len(keys) == 1 and keys[0].dtype == np.uint64
        assert np.array_equal(keys[0], np.array([seed, 0xB45E], dtype=np.uint64))

    def test_config_and_env_seed_checked(self, tmp_path, tiny_cfg, monkeypatch):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("seed = 3", "seed = -1"))
        ckpt = tmp_path / "run.ckpt"
        assert cli.main(["train", "--config", str(bad), "--checkpoint", str(ckpt)]) == 1
        monkeypatch.setenv("MATCH_SEED", "-1")
        assert cli.main(["train", "--config", tiny_cfg, "--checkpoint", str(ckpt)]) == 1
        assert not ckpt.exists()


class TestEnumerationCap:
    """An agent ranking 6 partners (a worker of a 3x6 market, a firm of a
    6x2 one) has 7! = 5040 misreports, over the cap: every command that
    enumerates them exits 1."""

    @pytest.mark.parametrize("command", ["eval", "audit"])
    def test_baseline_commands(self, tmp_path, command, capsys):
        path = tmp_path / "wide.txt"
        write_profiles(path, sample_profiles(DistributionConfig(
            DistributionKind.UNCORRELATED, 3, 6, p_trunc=0.0, seed=5), 1))
        assert cli.main([command, "--mechanism", "wda", "--profiles", str(path)]) == 1
        assert "error: enumerating 5040 orders exceeds cap" in capsys.readouterr().err

    def test_train_refuses_before_any_iteration(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TINY_CFG.replace("n = 2", "n = 6"))
        ckpt = tmp_path / "run.ckpt"
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert "error: enumerating 5040 orders exceeds cap" in captured.err
        assert "iter" not in captured.out and not ckpt.exists()


class TestProcess:
    def test_parser_built_once(self, tmp_path, profile_file, capsys):
        # the cached parser serves one subcommand after another
        out = tmp_path / "more.txt"
        assert cli.main(["gen", "--seed", "5", "--count", "3", "--out", str(out)]) == 0
        assert cli.main(["eval", "--mechanism", "rsd", "--profiles", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "wrote 3 profiles to " + str(out)
        assert lines[-1].startswith("rsd,,") and lines[-1].endswith(",3")
        assert cli.build_parser() is cli.build_parser()

    def test_import_leaves_networkx_out(self, profile_file):
        # no module of the package uses networkx, decompositions included
        src = os.path.dirname(os.path.dirname(matchfrontier.__file__))
        code = ("import sys, matchfrontier; from matchfrontier import cli; "
                "print('networkx' in sys.modules); "
                f"code = cli.main(['decompose', '--mechanism', 'rsd', '--profiles', {profile_file!r}]); "
                "print(code, 'networkx' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        lines = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.splitlines()
        assert lines[0] == "False" and lines[-1] == "0 False"
        assert len(lines) == 2 + len(read_profiles(profile_file))


class TestGen:
    def test_output_parses(self, profile_file):
        profiles = read_profiles(profile_file)
        assert len(profiles) == 6
        for p in profiles:
            p.validate()


class TestEval:
    def test_baseline_row(self, tmp_path, profile_file, capsys):
        out = tmp_path / "rows.csv"
        assert cli.main(["eval", "--mechanism", "wda", "--profiles", profile_file,
                        "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.EVAL_HEADER
        assert rows[1][0] == "wda" and rows[1][1] == ""
        assert int(rows[1][8]) == 6

    @pytest.mark.parametrize("existing", [False, True])
    def test_out_header_in_missing_or_empty_file(self, tmp_path, profile_file, existing):
        # the header goes into a file that is missing or empty, once
        out = tmp_path / "rows.csv"
        if existing:
            out.write_text("")
        for _ in range(2):
            assert cli.main(["eval", "--mechanism", "wda", "--profiles", profile_file,
                             "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.EVAL_HEADER
        assert [row[0] for row in rows[1:]] == ["wda", "wda"]

    def test_requires_some_mechanism(self, profile_file):
        assert cli.main(["eval", "--profiles", profile_file]) == 1

    @pytest.mark.parametrize("command", ["eval", "audit", "decompose"])
    def test_mechanism_and_checkpoint_rejected(self, tmp_path, profile_file, command,
                                               capsys):
        dims = NetworkDims(2, 2, R=2, J=6)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, init_params(dims, seed=4), dims, 0.5, 4)
        assert cli.main([command, "--mechanism", "wda", "--checkpoint", str(ckpt),
                         "--profiles", profile_file]) == 1
        assert "not both" in capsys.readouterr().err

    def test_malformed_line_names_file_and_line(self, tmp_path, profile_file, capsys):
        good = read_profiles(profile_file)[0]
        bad = tmp_path / "bad.txt"
        bad.write_text("# header\n" + prefs.format_profile(good) + "\n"
                       + "f1,f0|w1,_;w1,_\n")
        assert cli.main(["eval", "--mechanism", "wda", "--profiles", str(bad)]) == 1
        assert f"error: {bad}:3: bad token 'f0'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["eval", "--matchings-out", "m.txt"],
                                         ["audit"], ["decompose"]],
                             ids=["eval", "eval-matchings", "audit", "decompose"])
    @pytest.mark.parametrize("n,m", [(2, 3), (4, 4)])
    def test_network_refuses_other_shape(self, tmp_path, monkeypatch, command, n, m, capsys):
        # the network's shape check, not the profile encoder, names the mismatch
        monkeypatch.chdir(tmp_path)
        dims = NetworkDims(3, 3, R=1, J=4)
        save_checkpoint(tmp_path / "net.ckpt", init_params(dims, seed=4), dims, 0.5, 4)
        dist = DistributionConfig(DistributionKind.UNCORRELATED, n, m, p_trunc=0.3, seed=2)
        write_profiles(tmp_path / "p.txt", sample_profiles(dist, 2))
        assert cli.main([command[0], "--checkpoint", "net.ckpt", "--profiles", "p.txt",
                         *command[1:]]) == 1
        assert f"error: a 3x3 network cannot evaluate {n}x{m} profiles" \
            in capsys.readouterr().err

    def test_missing_profile_file_is_io_error(self, tmp_path):
        assert cli.main(["eval", "--mechanism", "wda", "--profiles",
                        str(tmp_path / "nope.txt")]) == 3

    def test_unknown_mechanism(self, profile_file):
        assert cli.main(["eval", "--mechanism", "xda",
                        "--profiles", profile_file]) == 1

    def test_matchings_sidecar(self, tmp_path, profile_file):
        # one matching per profile, for a baseline and for a checkpoint,
        # and the same matchings again with the same seed
        dims = NetworkDims(2, 2, R=2, J=6)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, init_params(dims, seed=4), dims, 0.5, 4)
        profiles = read_profiles(profile_file)
        for source in (["--mechanism", "rsd"], ["--checkpoint", str(ckpt)]):
            runs = []
            for run in ("a", "b"):
                out = tmp_path / f"{run}.txt"
                assert cli.main(["eval", *source, "--profiles", profile_file,
                                "--matchings-out", str(out), "--seed", "1"]) == 0
                runs.append(out.read_text())
            assert runs[0] == runs[1]
            lines = runs[0].splitlines()
            assert len(lines) == len(profiles)
            for line, profile in zip(lines, profiles):
                parse_matching(line, profile.n, profile.m)

    def test_overflowing_checkpoint_is_numeric_failure(self, tmp_path, profile_file):
        dims = NetworkDims(2, 2, R=2, J=6)
        params = init_params(dims, seed=4)
        params[0] = (np.full_like(params[0][0], np.inf), params[0][1])
        ckpt = tmp_path / "inf.ckpt"
        save_checkpoint(ckpt, params, dims, 0.5, 4)
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                        "--profiles", profile_file]) == 2


    def test_truncated_checkpoint_is_validation_error(self, tmp_path, profile_file, capsys):
        dims = NetworkDims(2, 2, R=2, J=6)
        ckpt = tmp_path / "cut.ckpt"
        save_checkpoint(ckpt, init_params(dims, seed=4), dims, 0.5, 4)
        ckpt.write_bytes(ckpt.read_bytes()[:-4])
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                        "--profiles", profile_file]) == 1
        assert "error: truncated checkpoint" in capsys.readouterr().err


class TestSettingsRange:
    """Settings that cannot run make `train` exit 1, naming the field,
    before any profile is sampled; 0 stays valid where it means
    something (no iterations, the last eval point only, no held-out set)."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def sampled(*args):
            raise AssertionError("a profile was sampled")
        monkeypatch.setattr(prefs, "sample_order", sampled)

    @pytest.mark.parametrize("old, new", [
        ("iterations = 8", "iterations = -3"), ("eval_every = 4", "eval_every = -1"),
        ("test_size = 8", "test_size = -5"), ("batch_size = 4", "batch_size = 0"),
        ("n = 2", "n = 0"), ("m = 2", "m = 0"),
        ("hidden_layers = 2", "hidden_layers = 0"), ("hidden_units = 6", "hidden_units = 0"),
    ])
    def test_train_rejects(self, tmp_path, old, new, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG.replace(old, new))
        ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.log"
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--log", str(log)]) == 1
        captured = capsys.readouterr()
        assert f"error: {new.split()[0]} must be at least" in captured.err
        assert "iter" not in captured.out and "checkpoint" not in captured.out
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("line", ["base_lr = nan", "base_lr = inf", "base_lr = -0.005",
                                      "weight_decay = nan", "weight_decay = inf",
                                      "weight_decay = -1"])
    def test_train_rejects_learning_settings(self, tmp_path, line, capsys):
        # NaN and infinite values once trained a step, then failed as numeric
        # errors; negative ones trained silently
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + line + "\n")
        ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.log"
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--log", str(log)]) == 1
        captured = capsys.readouterr()
        assert f"error: {line.split()[0]} must be finite and at least 0" in captured.err
        assert "iter" not in captured.out
        assert not ckpt.exists() and not log.exists()

    @pytest.mark.parametrize("text,bad", [("-5", -5), ("4,-1", -1)])
    def test_train_rejects_negative_milestone(self, tmp_path, text, bad, capsys):
        # a negative milestone once halved base_lr from the first iteration
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CFG + f"lr_milestones = {text}\n")
        ckpt = tmp_path / "run.ckpt"
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert f"error: lr_milestones must be at least 0, got {bad}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_train_rejects_negative_iterations_flag(self, tmp_path, capsys):
        ckpt = tmp_path / "neg.ckpt"
        assert cli.main(["train", "--preset", "desk", "--iterations", "-3",
                         "--checkpoint", str(ckpt)]) == 1
        assert "error: iterations must be at least 0, got -3" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_gen_rejects_empty_side(self, tmp_path, capsys):
        cfg, out = tmp_path / "empty.cfg", tmp_path / "p.txt"
        cfg.write_text("m = 0\n")
        assert cli.main(["gen", "--config", str(cfg), "--count", "2", "--out", str(out)]) == 1
        assert "error: m must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_rejects_count_below_one(self, tmp_path, capsys):
        out = tmp_path / "neg.txt"
        assert cli.main(["gen", "--preset", "desk", "--count", "-3", "--out", str(out)]) == 1
        assert "error: count must be at least 1, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_empty_heldout_set(self, tmp_path, capsys):
        # every point is evaluated on the held-out set, so none is trained
        cfg, out_dir = tmp_path / "bad.cfg", tmp_path / "sweep"
        cfg.write_text(TINY_CFG.replace("test_size = 8", "test_size = 0"))
        assert cli.main(["sweep", "--config", str(cfg), "--lambdas", "0,1",
                         "--out-dir", str(out_dir)]) == 1
        assert "error: sweep needs test_size of at least 1" in capsys.readouterr().err
        assert not out_dir.exists()


def config_leaves(settings) -> dict:
    """The TrainConfig that `train` builds from these settings, as its
    fields with `dist` expanded into its own."""
    config = cli.train_config_from_settings(settings, "run.ckpt", "run.log")
    leaves = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    dist = leaves.pop("dist")
    leaves.update({f"dist.{f.name}": getattr(dist, f.name) for f in dataclasses.fields(dist)})
    return leaves


class TestSettingsTable:
    def test_each_key_sets_one_leaf(self):
        # from the paper-correlated preset, where p_corr is live: changing
        # one settings key changes exactly one leaf, a different one per key
        base = {**cli._DEFAULTS, **cli.PRESETS["paper-correlated"]}
        before = config_leaves(base)
        changed = {int: lambda v: v + 1, float: lambda v: v / 2,
                   str: lambda v: v + ",40000"}
        owner = {}
        for key, value_type in cli._CONFIG_KEYS.items():
            if key == "kind":
                continue
            after = config_leaves(dict(base, **{key: changed[value_type](base[key])}))
            moved = [leaf for leaf in before if after[leaf] != before[leaf]]
            assert len(moved) == 1, (key, moved)
            owner[moved[0]] = key
        assert len(owner) == len(cli._CONFIG_KEYS) - 1
        assert set(before) - set(owner) == {"dist.kind", "checkpoint_path", "log_path"}

    def test_kind_zeroes_p_corr(self):
        base = {**cli._DEFAULTS, **cli.PRESETS["paper-correlated"]}
        before = config_leaves(base)
        after = config_leaves(dict(base, kind="uncorrelated"))
        assert {leaf for leaf in before if after[leaf] != before[leaf]} \
            == {"dist.kind", "dist.p_corr"}
        assert after["dist.kind"] is DistributionKind.UNCORRELATED
        assert after["dist.p_corr"] == 0.0

    def test_network_shape_read_from_dist(self):
        settings = {**cli._DEFAULTS, **cli.PRESETS["desk"]}
        config = cli.train_config_from_settings(settings, "")
        assert "dims" not in {f.name for f in dataclasses.fields(config)}
        assert config.dims == NetworkDims(3, 3, R=4, J=64)


class TestTrainCommand:
    def test_bad_lr_milestones_named(self, tmp_path, capsys):
        cfg, ckpt = tmp_path / "bad.cfg", tmp_path / "run.ckpt"
        cfg.write_text(TINY_CFG + "lr_milestones = 10,x\n")
        assert cli.main(["train", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 1
        assert "error: lr_milestones must be comma-separated integers, got '10,x'" \
            in capsys.readouterr().err
        assert not ckpt.exists()

    def test_writes_checkpoint_and_log(self, tmp_path, tiny_cfg):
        ckpt = tmp_path / "run.ckpt"
        log = tmp_path / "run.log"
        assert cli.main(["train", "--config", tiny_cfg, "--lambda", "0.5",
                        "--checkpoint", str(ckpt), "--log", str(log)]) == 0
        assert ckpt.exists() and log.exists()
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                        "--profiles", str(tmp_path / "missing")]) == 3


class TestSweep:
    def test_frontier_outputs(self, tmp_path, tiny_cfg):
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0,1",
                        "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "frontier.csv") as fh:
            rows = list(csv.reader(fh))
        labels = [r[0] for r in rows[1:]]
        assert labels == ["learned", "learned", "wda", "fda", "rsd", "da-best"]
        ET.parse(out_dir / "frontier.svg")  # well-formed XML

    def test_rsd_row_includes_irv(self, tmp_path, tiny_cfg):
        out_dir = tmp_path / "sweep"
        cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                  "--out-dir", str(out_dir)])
        with open(out_dir / "frontier.csv") as fh:
            row = next(r for r in csv.reader(fh) if r[0] == "rsd")
        settings = cli.parse_config_file(tiny_cfg)
        merged = dict(cli._DEFAULTS, **settings)
        dist = cli.dist_from_settings(merged)
        from matchfrontier.prefs import sample_profiles
        from matchfrontier.train import HELDOUT_LANE
        heldout = sample_profiles(dist, merged["test_size"], lane=HELDOUT_LANE)
        mech = LiftedMechanism(MechanismKind.RSD)
        P, Q, _ = encode_arrays(heldout, dist.n, dist.m)
        r = np.stack([mech.evaluate(p).r for p in heldout])
        stv = np.mean(metrics.stv_batch(r, P, Q))
        irv = np.mean(metrics.irv_batch(r, P, Q))
        assert float(row[2]) == pytest.approx(stv + irv, abs=1e-9)
        assert float(row[4]) == pytest.approx(irv, abs=1e-9)

    def test_lambda_out_of_range(self, tmp_path, tiny_cfg):
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "1.5",
                        "--out-dir", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("lambdas,message", [
        (",", "--lambdas lists no lambda"), ("", "--lambdas lists no lambda"),
        ("0.5,0.50", "--lambdas repeats 0.5"), ("0,1,0.0,1", "--lambdas repeats 0, 1"),
        ("0.5,abc", "--lambdas entries must be numbers, got 'abc' in '0.5,abc'"),
    ], ids=["comma", "empty", "0.5-twice", "two-repeats", "not-a-number"])
    def test_lambda_list_rejected(self, tmp_path, tiny_cfg, capsys, lambdas, message):
        # checked before any training: the output directory is never made
        out_dir = tmp_path / "s"
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", lambdas,
                         "--out-dir", str(out_dir)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_failed_point_exits_nonzero(self, tmp_path, tiny_cfg):
        out_dir = tmp_path / "sweep"
        out_dir.mkdir()
        (out_dir / "lambda_0.ckpt").write_bytes(b"corrupt")
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                        "--out-dir", str(out_dir)]) == cli.SWEEP_POINTS_FAILED
        with open(out_dir / "frontier.csv") as fh:
            labels = [r[0] for r in list(csv.reader(fh))[1:]]
        assert labels == ["wda", "fda", "rsd", "da-best"]

    def test_truncated_checkpoint_fails_its_point(self, tmp_path, tiny_cfg, capsys):
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                        "--out-dir", str(out_dir)]) == 0
        ckpt = out_dir / "lambda_0.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
        capsys.readouterr()
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                        "--out-dir", str(out_dir)]) == cli.SWEEP_POINTS_FAILED
        assert "truncated checkpoint" in capsys.readouterr().err
        with open(out_dir / "frontier.csv") as fh:
            labels = [r[0] for r in list(csv.reader(fh))[1:]]
        assert labels == ["wda", "fda", "rsd", "da-best"]

    @pytest.mark.parametrize("line,stale", [
        ("seed = 99", "seed=3 (settings: 99)"), ("n = 3", "n=2 (settings: 3)"),
        ("hidden_layers = 1", "hidden_layers=2 (settings: 1)"),
        ("hidden_units = 5", "hidden_units=6 (settings: 5)"),
    ], ids=["seed", "n", "hidden_layers", "hidden_units"])
    def test_stale_checkpoint_refused(self, tmp_path, tiny_cfg, capsys, line, stale):
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                        "--out-dir", str(out_dir)]) == 0
        ckpt = out_dir / "lambda_0.ckpt"
        before = (ckpt.read_bytes(), ckpt.stat().st_mtime_ns)
        changed = tmp_path / "changed.cfg"
        changed.write_text(TINY_CFG + line + "\n")
        capsys.readouterr()
        assert cli.main(["sweep", "--config", str(changed), "--lambdas", "0",
                        "--out-dir", str(out_dir)]) == cli.SWEEP_POINTS_FAILED
        assert (ckpt.read_bytes(), ckpt.stat().st_mtime_ns) == before
        err = capsys.readouterr().err
        assert stale in err
        assert err.count("(settings: ") == 1
        with open(out_dir / "frontier.csv") as fh:
            labels = [r[0] for r in list(csv.reader(fh))[1:]]
        assert labels == ["wda", "fda", "rsd", "da-best"]

    @pytest.mark.parametrize("lam,seed,stale", [
        (0.0, 12345678901234567, "seed=12345678901234567 (settings: 12345678901234568)"),
        (0.1234567, 12345678901234568, "lambda=0.123457 (settings: 0.0)"),
    ], ids=["seed", "lambda"])
    def test_stale_fields_printed_exactly(self, tmp_path, tiny_cfg, capsys, lam, seed, stale):
        # two seeds that differ in the last digit read differently
        out_dir = tmp_path / "sweep"
        out_dir.mkdir()
        dims = NetworkDims(2, 2, R=2, J=6)
        save_checkpoint(out_dir / "lambda_0.ckpt", init_params(dims, seed=4), dims, lam, seed)
        assert cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                         "--seed", "12345678901234568",
                         "--out-dir", str(out_dir)]) == cli.SWEEP_POINTS_FAILED
        assert stale in capsys.readouterr().err

    def test_failed_training_leaves_no_checkpoint(self, tmp_path, tiny_cfg, monkeypatch):
        # the run checkpoints at iteration 2, then fails at step 3: the
        # half-trained network stays a .partial file, and a rerun retrains
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY_CFG.replace("iterations = 8", "iterations = 4")
                       .replace("eval_every = 4", "eval_every = 2"))
        train_module = sys.modules["matchfrontier.train"]
        steps = []
        adam_step = train_module.adam_step

        def counted(fail_at):
            def step(*args):
                steps.append(1)
                if len(steps) == fail_at:
                    raise NumericError("injected")
                return adam_step(*args)
            return step

        monkeypatch.setattr(train_module, "adam_step", counted(3))
        out_dir, clean_dir = tmp_path / "sweep", tmp_path / "clean"
        command = ["sweep", "--config", str(cfg), "--lambdas", "0.5", "--out-dir"]
        assert cli.main(command + [str(out_dir)]) == 2
        assert not (out_dir / "lambda_0.5.ckpt").exists()
        assert (out_dir / "lambda_0.5.ckpt.partial").exists()
        steps.clear()
        monkeypatch.setattr(train_module, "adam_step", counted(0))
        assert cli.main(command + [str(out_dir)]) == 0
        assert len(steps) == 4
        assert not (out_dir / "lambda_0.5.ckpt.partial").exists()
        assert cli.main(command + [str(clean_dir)]) == 0
        assert (out_dir / "lambda_0.5.ckpt").read_bytes() \
            == (clean_dir / "lambda_0.5.ckpt").read_bytes()

    def test_checkpoints_reused(self, tmp_path, tiny_cfg):
        out_dir = tmp_path / "sweep"
        cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                  "--out-dir", str(out_dir)])
        ckpt = out_dir / "lambda_0.ckpt"
        before = ckpt.stat().st_mtime_ns
        cli.main(["sweep", "--config", tiny_cfg, "--lambdas", "0",
                  "--out-dir", str(out_dir)])
        assert ckpt.stat().st_mtime_ns == before


class TestAudit:
    def test_rsd_passes(self, profile_file):
        assert cli.main(["audit", "--mechanism", "rsd",
                        "--profiles", profile_file]) == 0

    def test_manipulable_mechanism_flagged(self, tmp_path, capsys):
        # WDA with a firm that can gain by truncating
        path = tmp_path / "one.txt"
        path.write_text("f2,f3,f1,_;f2,f1,f3,_;f1,f3,f2,_"
                        "|w1,w2,w3,_;w2,w3,w1,_;w3,w1,w2,_\n")
        assert cli.main(["audit", "--mechanism", "wda",
                        "--profiles", str(path)]) == 1
        assert "FOSD gain" in capsys.readouterr().out


class TestDecompose:
    def test_weights_sum_to_one(self, profile_file, capsys):
        assert cli.main(["decompose", "--mechanism", "rsd",
                        "--profiles", profile_file]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            weights = [float(part.split()[0]) for part in line.split(" | ")]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
