"""Shared cache of desk-scale training runs for the acceptance suite.

Checkpoints live in tests/artifacts and are keyed by (lambda, seed); a
missing checkpoint is trained on demand (a few minutes per run), with a
line on stderr naming the run and the missing file.  Each run is trained
with the settings `sweep --preset desk --seed <seed>` resolves at that
lambda; the MATCH_SEED environment variable does not affect them.  Running
this module directly pre-builds every run the acceptance tests need.

The `.ckpt` files are not tracked by git (only their `.ckpt.log` files
are), so a fresh checkout, such as a copy of a parent commit for a
parent-vs-change comparison, has none: copy `tests/artifacts/*.ckpt` into
it first, or every command below that reads the cache trains all nine
runs before it starts.

`python3 tests/traincache.py --check desk_s1_l0 desk_s1_l0.5` instead
retrains the named runs into a temporary directory and compares their
checkpoint and log byte for byte with the cached ones; it exits non-zero
on any difference and never writes to the cache.

`python3 tests/traincache.py --reports OUT.json` writes every EvalReport
field of the nine cached runs, each on its seed's desk held-out set, and
of wda, fda and rsd on the seed-1 set (JSON numbers are float reprs, so
they read back exactly).  `--compare A.json B.json` prints the largest
|difference| of each row of two such files and exits 1 above 1e-12, or
when their rows or fields differ.
"""
import argparse
import dataclasses
import filecmp
import json
import os
import re
import sys
import tempfile
import time

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")

# (lambda, seed) pairs used by the frontier acceptance checks
ACCEPTANCE_RUNS = [(0.0, 1), (0.0, 2), (0.0, 3), (1.0, 1), (1.0, 2), (1.0, 3),
                   (0.3, 1), (0.5, 1), (0.8, 1)]


def run_name(lam: float, seed: int) -> str:
    return f"desk_s{seed}_l{lam:g}"


def checkpoint_path(lam: float, seed: int, directory: str = "") -> str:
    return os.path.join(directory or ARTIFACT_DIR, run_name(lam, seed) + ".ckpt")


def desk_config(lam: float, seed: int, checkpoint: str = "", log: str = ""):
    """The desk preset's TrainConfig at (lambda, seed), built from the CLI's
    own settings table, not through resolve_settings, so that MATCH_SEED
    cannot override the seed."""
    from matchfrontier import cli

    settings = {**cli._DEFAULTS, **cli.PRESETS["desk"], "lambda": lam, "seed": seed}
    return cli.train_config_from_settings(settings, checkpoint, log)


def train_run(lam: float, seed: int, path: str) -> None:
    """Train one desk run: checkpoint at `path`, log at `path`.log."""
    from matchfrontier.train import train

    tmp = path + ".partial"
    train(desk_config(lam, seed, checkpoint=tmp, log=path + ".log"))
    os.replace(tmp, path)


def ensure_checkpoint(lam: float, seed: int) -> str:
    path = checkpoint_path(lam, seed)
    if os.path.exists(path):
        return path
    print(f"traincache: training {run_name(lam, seed)}: no checkpoint at {path}",
          file=sys.stderr, flush=True)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    train_run(lam, seed, path)
    return path


def parse_run_name(name: str):
    """(lambda, seed) from a run name such as desk_s1_l0.5."""
    match = re.fullmatch(r"desk_s(\d+)_l(\d+(?:\.\d+)?)", name)
    if not match or run_name(float(match.group(2)), int(match.group(1))) != name:
        raise ValueError(f"bad run name {name!r}, expected desk_s<seed>_l<lambda>")
    return float(match.group(2)), int(match.group(1))


def check_runs(runs) -> int:
    """Retrain each (lambda, seed) run into a temporary directory and
    compare its checkpoint and log with the cached ones.  Returns the number
    of files that differ or have no cached copy."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp_dir:
        for lam, seed in runs:
            cached = checkpoint_path(lam, seed)
            fresh = checkpoint_path(lam, seed, tmp_dir)
            start = time.perf_counter()
            train_run(lam, seed, fresh)
            elapsed = time.perf_counter() - start
            for suffix in ("", ".log"):
                label = os.path.basename(cached + suffix)
                if not os.path.exists(cached + suffix):
                    verdict = "MISSING from the cache"
                elif filecmp.cmp(fresh + suffix, cached + suffix, shallow=False):
                    verdict = "identical"
                else:
                    verdict = "DIFFERS"
                if verdict != "identical":
                    failed += 1
                print(f"{label}: {verdict} (retrained in {elapsed:.0f} s)", flush=True)
    return failed


COMPARE_TOLERANCE = 1e-12


def eval_reports() -> dict:
    """Row name -> EvalReport fields: the nine acceptance runs on their
    seeds' held-out sets, then the baselines on seed 1's (as `sweep`
    builds them)."""
    from matchfrontier import metrics, net
    from matchfrontier.mechanisms import LiftedMechanism, MechanismKind
    from matchfrontier.prefs import sample_profiles
    from matchfrontier.train import HELDOUT_LANE

    heldout = {}
    for seed in sorted({seed for _, seed in ACCEPTANCE_RUNS}):
        config = desk_config(0.0, seed)
        heldout[seed] = sample_profiles(config.dist, config.test_size, lane=HELDOUT_LANE)
    rows = {}
    for lam, seed in ACCEPTANCE_RUNS:
        params, dims, _, _ = net.load_checkpoint(ensure_checkpoint(lam, seed))
        rows[run_name(lam, seed)] = metrics.evaluate(net.NetworkMechanism(params, dims),
                                                     heldout[seed])
    for label in ("wda", "fda", "rsd"):
        rows[f"{label}_s1"] = metrics.evaluate(LiftedMechanism(MechanismKind(label)),
                                               heldout[1])
    return {name: dataclasses.asdict(report) for name, report in rows.items()}


def compare_reports(path_a: str, path_b: str) -> int:
    """Prints each row's largest |difference| over its fields; returns the
    number of rows above COMPARE_TOLERANCE or not in both files."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    failed = 0
    for name in sorted(set(a) | set(b)):
        if a.get(name, {}).keys() != b.get(name, {}).keys():
            print(f"{name}: missing from one file, or its fields differ")
            failed += 1
            continue
        worst = max(abs(a[name][field] - b[name][field]) for field in a[name])
        bad = worst > COMPARE_TOLERANCE
        failed += bad
        print(f"{name}: max |diff| {worst:.3g}" + (" ABOVE 1e-12" if bad else ""))
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="RUN",
                        help="retrain these runs and compare with the cache")
    parser.add_argument("--reports", metavar="OUT.json",
                        help="write the EvalReports of the cached runs and baselines")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --reports files to 1e-12")
    args = parser.parse_args(argv)
    if args.compare:
        failed = compare_reports(*args.compare)
        print("within 1e-12" if not failed else f"{failed} row(s) differ")
        return 1 if failed else 0
    if args.reports:
        reports = eval_reports()
        with open(args.reports, "w") as fh:
            json.dump(reports, fh, indent=1)
        print(f"wrote {len(reports)} reports to {args.reports}")
        return 0
    if args.check:
        try:
            runs = [parse_run_name(name) for name in args.check]
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        failed = check_runs(runs)
        print("byte-identical" if not failed else f"{failed} file(s) differ")
        return 1 if failed else 0
    for lam, seed in ACCEPTANCE_RUNS:
        print(f"lambda={lam} seed={seed}", flush=True)
        ensure_checkpoint(lam, seed)
    print("all checkpoints ready")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    sys.exit(main())
