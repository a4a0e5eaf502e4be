"""The benchmark's workloads: set-up, the timed loop and the correctness
checks.  The program is driven only through its public entry points,
`train.train` with its `progress` hook and `cli.main(["eval", ...])`.

desk-train   the `desk` preset (3x3 uncorrelated, p_trunc 0.2, R=4, J=64,
             B=128, lambda 0.5), trained as `sweep` trains: no held-out
             set, no checkpoint, no log.  Bound by Python overhead.
paper-train  the paper's network (4x4 correlated, p_corr 0.25, R=4, J=256)
             at B=16.  Bound by the matmuls of the misreport search.
desk-eval    `eval` on the desk held-out set, split into files of two
             profiles: per file, three learned checkpoints, then wda, fda
             and rsd, as `sweep` evaluates once training is done.  Bound by
             the metrics/mechanisms Python loops and exact RSD enumeration;
             autodiff is unused.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from layers import modules

TOL = 1e-12
WARM_ITERATIONS = 3
MAX_MEASURE_S = 120.0          # keeps a run well inside its time limit
CHECKPOINT_LAMBDAS = (0.0, 0.5, 1.0)
CHECKPOINT_ITERATIONS = 3
CHECKPOINT_BATCH = 16
ORACLE_PROFILES = 2
# The desk-eval held-out set is split into small files, one per round of
# commands: small, so that a round (~0.5 s) seldom straddles a change of the
# host's speed and a run holds enough rounds for a p90; many, so that a run
# averages over enough profiles to be steady from seed to seed.
PROFILES_PER_FILE = 2
HELDOUT_FILES = 96


@dataclass
class Outcome:
    """One measured phase.  `samples` are wall times in seconds of single
    operations, SGD iterations or eval commands; `operations` counts those
    completed, sampled or not.  Eval phases also keep (profiles, seconds)
    per round of commands on one file, and per command under its mechanism
    group."""
    samples: list = field(default_factory=list)
    operations: int = 0
    profiles: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    groups: dict = field(default_factory=dict)  # eval group -> [(profiles, seconds)]

    def __add__(self, other: "Outcome") -> "Outcome":
        names = sorted(set(self.groups) | set(other.groups))
        return Outcome(
            samples=self.samples + other.samples,
            operations=self.operations + other.operations,
            profiles=self.profiles + other.profiles,
            wall_s=self.wall_s + other.wall_s,
            attempted=self.attempted + other.attempted,
            failures=self.failures + other.failures,
            rounds=self.rounds + other.rounds,
            groups={g: self.groups.get(g, []) + other.groups.get(g, []) for g in names})

    @property
    def rates(self) -> dict:
        """Median profiles per second of one command, per eval group."""
        return {g: _median_rate(runs) for g, runs in self.groups.items() if runs}

    @property
    def step_s(self) -> list:
        """The steps the end-to-end percentiles are taken over: one SGD
        iteration, or one round of every command on one held-out file."""
        return [seconds for _, seconds in self.rounds] if self.rounds else self.samples

    @property
    def profiles_per_s(self) -> float:
        """Eval: the median rate of a round, so a burst of load on the host
        moves a few rounds and not the figure.  Train: all profiles over
        the wall time of `train`."""
        if self.rounds:
            return _median_rate(self.rounds)
        return self.profiles / self.wall_s if self.wall_s > 0 else 0.0


def _median_rate(runs) -> float:
    return statistics.median(profiles / seconds for profiles, seconds in runs)


def _settings(preset: str, seed: int, **overrides) -> dict:
    """The program's own preset, with the seed and overrides applied."""
    cli = modules()["cli"]
    settings = cli.resolve_settings(argparse.Namespace(preset=preset))
    settings.update(seed=seed, **overrides)
    return settings


class TrainWorkload:
    kind = "train"

    def __init__(self, preset: str, batch_size: int, seed: int, smoke: bool):
        overrides = dict(batch_size=batch_size, test_size=0, eval_every=1)
        if smoke:
            overrides.update(batch_size=4, hidden_units=16)
        self.config = modules()["cli"].train_config_from_settings(
            _settings(preset, seed, **overrides), checkpoint_path="", log_path="")
        self.warm_iteration_s = []

    def setup(self, workdir) -> None:
        """Warm-up iterations; the last one of each set-up feeds the
        iteration estimate that sizes the timed run."""
        stamps = [time.perf_counter()]
        modules()["train"].train(replace(self.config, iterations=WARM_ITERATIONS),
                                 progress=lambda *_: stamps.append(time.perf_counter()))
        self.warm_iteration_s.append(stamps[-1] - stamps[-2])

    def run(self, seconds: float, min_steps: int, tracer=None) -> Outcome:
        """About `seconds` of training, at least `min_steps` sampled
        iterations.  `tracer` is unused: the layer wrappers record spans."""
        mods = modules()
        errors = (mods["autodiff"].NumericError, mods["net"].NumericOverflowError)
        iteration_s = statistics.median(self.warm_iteration_s)
        wanted = max(min_steps, math.ceil(seconds / iteration_s))
        # +1: samples are taken between successive progress calls
        iterations = min(wanted, math.ceil(MAX_MEASURE_S / iteration_s)) + 1
        config = replace(self.config, iterations=iterations)
        stamps, losses = [], []

        def progress(iteration, loss, stv, rgt):
            stamps.append(time.perf_counter())
            losses.append(loss)

        out = Outcome(attempted=iterations + 1)  # + the final-parameter check
        start = time.perf_counter()
        try:
            result = mods["train"].train(config, progress=progress)
        except errors as err:
            result = None
            out.failures.append(f"iteration {len(losses) + 1}: {type(err).__name__}: {err}")
        out.wall_s = time.perf_counter() - start
        out.samples = list(np.diff(stamps))
        out.operations = len(losses)
        out.profiles = config.batch_size * len(losses)
        out.failures += [f"non-finite loss at iteration {i + 1}"
                         for i, loss in enumerate(losses) if not math.isfinite(loss)]
        if result is None or not all(np.all(np.isfinite(a)) for group in result.params
                                     for a in group):
            out.failures.append("final parameters missing or not finite")
        return out

    def verify(self) -> Outcome:
        return Outcome()


class EvalWorkload:
    kind = "eval"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.count = 2 if smoke else PROFILES_PER_FILE
        self.files = 2 if smoke else HELDOUT_FILES
        self.commands = []
        self.heldout = []
        self.subset = None
        self.checkpoints = []

    def setup(self, workdir) -> None:
        """Held-out files, learned checkpoints from short training runs, and
        one warm-up command per mechanism kind."""
        mods = modules()
        cli, prefs, train = mods["cli"], mods["prefs"], mods["train"]
        os.makedirs(workdir, exist_ok=True)
        settings = _settings("desk", self.seed)
        dist = cli.dist_from_settings(settings)
        profiles = prefs.sample_profiles(dist, self.count * self.files, lane=train.HELDOUT_LANE)
        self.heldout = []
        for i in range(self.files):
            path = os.path.join(workdir, f"heldout{i:02d}.txt")
            prefs.write_profiles(path, profiles[i * self.count:(i + 1) * self.count],
                                 header=f"desk held-out seed={self.seed} part={i}")
            self.heldout.append(path)
        self.subset = os.path.join(workdir, "subset.txt")
        prefs.write_profiles(self.subset, profiles[:ORACLE_PROFILES])

        self.checkpoints = []
        for lam in CHECKPOINT_LAMBDAS:
            path = os.path.join(workdir, f"lambda_{lam:g}.ckpt")
            config = cli.train_config_from_settings(
                dict(settings, **{"lambda": lam}, iterations=CHECKPOINT_ITERATIONS,
                     batch_size=CHECKPOINT_BATCH, test_size=0, eval_every=0), path)
            train.train(config)
            self.checkpoints.append(path)

        self.commands = [("learned", ["--checkpoint", path]) for path in self.checkpoints]
        self.commands += [(label, ["--mechanism", label]) for label in ("wda", "fda", "rsd")]
        for label, source in self.commands[len(self.checkpoints) - 1:]:
            _eval_command(source, self.subset)

    def run(self, seconds: float, min_steps: int, tracer=None) -> Outcome:
        """Whole rounds of the command list, each round on the next held-out
        file, until both `seconds` and `min_steps` commands are reached."""
        out = Outcome()
        start = time.perf_counter()
        for heldout in itertools.cycle(self.heldout):
            round_s, round_ok = 0.0, True
            for label, source in self.commands:
                wall, rc, row, err = _eval_command(source, heldout, tracer)
                out.attempted += 1
                out.operations += 1
                out.samples.append(wall)
                round_s += wall
                problem = _check_row(label, rc, row, err, self.count)
                if problem:
                    out.failures.append(f"eval {label}: {problem}")
                    round_ok = False
                    continue
                group = "da" if label in ("wda", "fda") else label
                out.groups.setdefault(group, []).append((self.count, wall))
                out.profiles += self.count
            if round_ok:
                out.rounds.append((self.count, round_s))
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(out.samples) >= min_steps):
                break
        out.wall_s = time.perf_counter() - start
        return out

    def verify(self) -> Outcome:
        """Learned nets' stv and rgt on the subset against the independent
        references: metrics.stv_profile and oracle.fosd_audit."""
        mods = modules()
        metrics, net, prefs = mods["metrics"], mods["net"], mods["prefs"]
        oracle = importlib.import_module("matchfrontier.oracle")
        worker_side = prefs.Side.WORKER
        out = Outcome()
        profiles = prefs.read_profiles(self.subset)
        for path in self.checkpoints:
            out.attempted += 1
            _, rc, row, err = _eval_command(["--checkpoint", path], self.subset)
            problem = _check_row("learned", rc, row, err, len(profiles))
            if problem:
                out.failures.append(f"oracle subset {os.path.basename(path)}: {problem}")
                continue
            params, dims, _, _ = net.load_checkpoint(path)
            mech = net.NetworkMechanism(params, dims)
            stv = np.mean([metrics.stv_profile(mech.evaluate(p), prefs.encode(p))
                           for p in profiles])
            rgt = []
            for p in profiles:
                gains = oracle.fosd_audit(mech, p)
                worker = np.mean([g for a, g in gains.items() if a.side is worker_side])
                firm = np.mean([g for a, g in gains.items() if a.side is not worker_side])
                rgt.append(0.5 * (worker + firm))
            for name, reference in (("stv", stv), ("rgt", float(np.mean(rgt)))):
                if abs(float(row[name]) - reference) > TOL:
                    out.failures.append(f"oracle subset {os.path.basename(path)}: {name} "
                                        f"{row[name]} != reference {reference!r}")
        return out


def _eval_command(source, profiles_path, tracer=None):
    """One `matchfrontier eval` through cli.main.  Returns wall seconds,
    exit code, the printed row as a dict, and stderr."""
    cli = modules()["cli"]
    argv = ["eval", *source, "--profiles", profiles_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    span = tracer.open("cli.eval") if tracer else None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    finally:
        if tracer:
            tracer.close(span)
    wall = time.perf_counter() - start
    lines = stdout.getvalue().splitlines()
    row = dict(zip(*csv.reader(lines[-2:]))) if len(lines) >= 2 else {}
    return wall, rc, row, stderr.getvalue().strip()


def _check_row(label, rc, row, err, count):
    """The reason a command's result is wrong, or '' when it is right."""
    if rc != 0:
        return f"exit code {rc}: {err}"
    try:
        values = {k: float(row[k]) for k in ("stv", "rgt", "profiles")}
    except (KeyError, ValueError):
        return f"unreadable result row {row!r}"
    if row.get("label") != label:
        return f"label {row.get('label')!r}"
    if values["profiles"] != count:
        return f"evaluated {values['profiles']:g} profiles, file holds {count}"
    if not all(math.isfinite(v) for v in values.values()):
        return f"non-finite result {row!r}"
    if label in ("wda", "fda") and values["stv"] > TOL:
        return f"DA stv {values['stv']!r} > {TOL}"
    if label == "rsd" and values["rgt"] > TOL:
        return f"RSD rgt {values['rgt']!r} > {TOL}"
    return ""


def make(name: str, seed: int, smoke: bool):
    if name == "desk-train":
        return TrainWorkload("desk", 128, seed, smoke)
    if name == "paper-train":
        return TrainWorkload("paper-correlated", 16, seed, smoke)
    if name == "desk-eval":
        return EvalWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
