"""Experiment runner CLI: data generation, training, evaluation of learned
and classical mechanisms, lambda sweeps, audits, and decomposition.

Subcommands: gen, train, eval, sweep, audit, decompose.
Config files are flat ``key = value`` text with ``#`` comments; unknown
keys are hard errors.  The MATCH_SEED environment variable overrides the
config seed.  Exit codes: 0 success, 1 validation, 2 numeric failure,
3 I/O, 4 sweep with failed lambda points.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import replace

from . import metrics, oracle
from .autodiff import NumericError
from .mechanisms import (LiftedMechanism, MechanismKind, bvn_decompose,
                         format_matching)
from .net import CheckpointError, NetworkMechanism, NumericOverflowError, load_checkpoint
from .prefs import (DistributionConfig, DistributionKind, philox, read_profiles,
                    require_at_least, sample_profiles, write_profiles)
from .train import HELDOUT_LANE, TrainConfig, train

EVAL_HEADER = ["label", "lambda", "stv", "rgt", "irv", "welfare", "sim",
               "entropy", "profiles"]

BASELINE_LABELS = ("wda", "fda", "rsd")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config files

PRESETS = {
    "paper-uncorrelated": {
        "n": 4, "m": 4, "kind": "uncorrelated", "p_trunc": 0.2,
        "lambda": 0.5, "batch_size": 1024, "iterations": 50_000,
        "base_lr": 0.005, "lr_milestones": "10000,25000",
        "hidden_layers": 4, "hidden_units": 256, "test_size": 204_800,
        "eval_every": 2000,
    },
    "paper-correlated": {
        "n": 4, "m": 4, "kind": "correlated", "p_corr": 0.25, "p_trunc": 0.2,
        "lambda": 0.5, "batch_size": 1024, "iterations": 50_000,
        "base_lr": 0.002, "lr_milestones": "10000,25000",
        "hidden_layers": 4, "hidden_units": 256, "test_size": 204_800,
        "eval_every": 2000,
    },
    "desk": {
        "n": 3, "m": 3, "kind": "uncorrelated", "p_trunc": 0.2,
        "lambda": 0.5, "batch_size": 128, "iterations": 2_000,
        "base_lr": 0.005, "lr_milestones": "10000,25000",
        "hidden_layers": 4, "hidden_units": 64, "test_size": 2_048,
        "eval_every": 500,
    },
}

_DEFAULTS = {
    "n": 4, "m": 4, "kind": "uncorrelated", "p_corr": 0.0, "p_trunc": 0.2,
    "seed": 0, "lambda": 0.5, "batch_size": 1024, "iterations": 50_000,
    "base_lr": 0.005, "lr_milestones": "10000,25000", "weight_decay": 0.01,
    "eval_every": 2000, "test_size": 2048, "hidden_layers": 4,
    "hidden_units": 256,
}

# a config file's value for a key is parsed with the type of its default
_CONFIG_KEYS = {key: type(value) for key, value in _DEFAULTS.items()}


def parse_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}")
    return values


def resolve_settings(args) -> dict:
    settings = dict(_DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        settings.update(PRESETS[preset])
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    if getattr(args, "lam", None) is not None:
        settings["lambda"] = args.lam
    if getattr(args, "seed", None) is not None:
        settings["seed"] = args.seed
    if getattr(args, "iterations", None) is not None:
        settings["iterations"] = args.iterations
    if "MATCH_SEED" in os.environ:
        text = os.environ["MATCH_SEED"]
        try:
            settings["seed"] = int(text)
        except ValueError:
            raise ConfigError(f"MATCH_SEED must be an integer, got {text!r}") from None
    check_seed(settings["seed"])
    return settings


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2 ** 64:  # streams and checkpoints hold a u64
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")


def dist_from_settings(settings) -> DistributionConfig:
    kind_text = settings["kind"].lower()
    try:
        kind = DistributionKind(kind_text)
    except ValueError:
        raise ConfigError(f"kind must be uncorrelated or correlated, got {kind_text!r}")
    p_corr = settings["p_corr"] if kind is DistributionKind.CORRELATED else 0.0
    return DistributionConfig(kind=kind, n=settings["n"], m=settings["m"],
                              p_corr=p_corr, p_trunc=settings["p_trunc"],
                              seed=settings["seed"])


def train_config_from_settings(settings, checkpoint_path, log_path="") -> TrainConfig:
    text = str(settings["lr_milestones"])
    try:
        milestones = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise ConfigError(f"lr_milestones must be comma-separated integers, "
                          f"got {text!r}") from None
    return TrainConfig(lam=settings["lambda"], hidden_layers=settings["hidden_layers"],
                       hidden_units=settings["hidden_units"],
                       dist=dist_from_settings(settings),
                       batch_size=settings["batch_size"],
                       iterations=settings["iterations"],
                       base_lr=settings["base_lr"], lr_milestones=milestones,
                       weight_decay=settings["weight_decay"],
                       eval_every=settings["eval_every"],
                       test_size=settings["test_size"],
                       checkpoint_path=checkpoint_path, log_path=log_path)


def load_source(args):
    """The mechanism of --mechanism or --checkpoint, its lambda (None for
    baselines), and the profiles of --profiles, of which there must be
    at least one."""
    if args.mechanism and args.checkpoint:
        raise ConfigError("give --mechanism or --checkpoint, not both")
    if args.mechanism:
        label = args.mechanism.lower()
        if label not in BASELINE_LABELS:
            raise ConfigError(f"mechanism must be one of {BASELINE_LABELS}")
        mech, lam = LiftedMechanism(MechanismKind(label)), None
    elif args.checkpoint:
        params, dims, lam, _seed = load_checkpoint(args.checkpoint)
        mech = NetworkMechanism(params, dims)
    else:
        raise ConfigError("need --mechanism or --checkpoint")
    profiles = read_profiles(args.profiles)
    if not profiles:
        raise ConfigError(f"no profiles in {args.profiles}")
    return mech, lam, profiles


def fmt(x) -> str:
    return f"{x:.12g}"


def frontier_report(label, report):
    """A report as the frontier shows it: RSD's stability violation
    includes its IR violation."""
    return replace(report, stv=report.stv + report.irv) if label == "rsd" else report


def eval_row(label, lam, report) -> list:
    return [label, "" if lam is None else fmt(lam), fmt(report.stv),
            fmt(report.rgt), fmt(report.irv), fmt(report.welfare_per_agent),
            fmt(report.sim), fmt(report.entropy), str(report.profiles_evaluated)]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen(args) -> int:
    require_at_least(args, 1, "count")
    settings = resolve_settings(args)
    dist = dist_from_settings(settings)
    profiles = sample_profiles(dist, args.count)
    header = (f"profiles kind={dist.kind.value} n={dist.n} m={dist.m} "
              f"p_corr={dist.p_corr} p_trunc={dist.p_trunc} seed={dist.seed} "
              f"count={args.count}")
    write_profiles(args.out, profiles, header=header)

    agents = [(o, dist.m) for p in profiles for o in p.workers] \
        + [(o, dist.n) for p in profiles for o in p.firms]
    truncated = sum(1 for o, _ in agents if o.unacceptable())
    print(f"wrote {len(profiles)} profiles to {args.out}")
    print(f"truncation fraction: {truncated / len(agents):.4f}")
    for side_name, orders in (("worker", [p.workers for p in profiles]),
                              ("firm", [p.firms for p in profiles])):
        flat = [o for group in orders for o in group]
        counts = {}
        for o in flat:
            counts[o.ranking] = counts.get(o.ranking, 0) + 1
        modal = max(counts.values())
        print(f"{side_name} modal-order fraction: {modal / len(flat):.4f}")
    return 0


def cmd_train(args) -> int:
    settings = resolve_settings(args)
    config = train_config_from_settings(settings, args.checkpoint, args.log or "")

    def progress(iteration, loss, stv, rgt):
        print(f"iter {iteration}: loss={loss:.6f} heldout stv={stv:.6f} rgt={rgt:.6f}",
              flush=True)

    result = train(config, progress=progress)
    print(f"done: heldout stv={result.heldout_stv:.6f} rgt={result.heldout_rgt:.6f}")
    print(f"checkpoint: {config.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    seed = args.seed or 0
    check_seed(seed)
    mech, lam, profiles = load_source(args)
    report = metrics.evaluate(mech, profiles)
    label = args.label or getattr(mech, "label", "mechanism")
    row = eval_row(label, lam, report)
    print(",".join(EVAL_HEADER))
    print(",".join(row))
    if args.out:
        new_file = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
        with open(args.out, "a", newline="") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(EVAL_HEADER)
            writer.writerow(row)
    if args.matchings_out:
        rng = philox(seed, 0xB45E)
        with open(args.matchings_out, "w") as fh:
            for profile in profiles:
                components = bvn_decompose(mech.evaluate(profile)).components
                pick = rng.choice(len(components), p=[w for w, _ in components])
                fh.write(format_matching(components[pick][1]) + "\n")
    return 0


# exit code of a sweep that wrote frontier.csv without some lambda points
SWEEP_POINTS_FAILED = 4


def _stale_fields(settings, lam, dims, ckpt_lam, ckpt_seed) -> list:
    """The checkpoint header's fields that differ from what the sweep's
    settings ask for at this lambda, named by their settings keys."""
    header = {"n": dims.n, "m": dims.m, "hidden_layers": dims.R, "hidden_units": dims.J,
              "lambda": ckpt_lam, "seed": ckpt_seed}
    wanted = dict(settings, **{"lambda": round(lam * 1e6) / 1e6})
    # plain str: integers exactly, lambda as its shortest round-trip float
    return [f"{key}={header[key]} (settings: {wanted[key]})"
            for key in header if header[key] != wanted[key]]


def cmd_sweep(args) -> int:
    settings = resolve_settings(args)
    lambdas = []
    for text in filter(str.strip, args.lambdas.split(",")):
        try:
            lambdas.append(float(text))
        except ValueError:
            raise ConfigError(f"--lambdas entries must be numbers, got {text.strip()!r} "
                              f"in {args.lambdas!r}") from None
    if not lambdas:
        raise ConfigError(f"--lambdas lists no lambda: {args.lambdas!r}")
    if any(not 0.0 <= lam <= 1.0 for lam in lambdas):
        raise ConfigError("every lambda must lie in [0, 1]")
    names = [fmt(lam) for lam in lambdas]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"--lambdas repeats {', '.join(repeated)}")
    if settings["test_size"] < 1:
        # every point is evaluated on the shared held-out set: fail before training
        raise ConfigError(f"sweep needs test_size of at least 1 for its held-out set, "
                          f"got {settings['test_size']}")
    os.makedirs(args.out_dir, exist_ok=True)

    for lam in lambdas:
        ckpt = os.path.join(args.out_dir, f"lambda_{fmt(lam)}.ckpt")
        if not os.path.exists(ckpt):
            # trained under another name, so a run that fails leaves no ckpt to reuse
            config = train_config_from_settings(dict(settings, **{"lambda": lam}),
                                                ckpt + ".partial")
            # the sweep reports on a shared held-out set afterwards; skip per-run eval
            train(replace(config, test_size=0))
            os.replace(config.checkpoint_path, ckpt)

    dist = dist_from_settings(settings)
    heldout = sample_profiles(dist, settings["test_size"], lane=HELDOUT_LANE)

    rows = []
    failures = []
    for lam in lambdas:
        ckpt = os.path.join(args.out_dir, f"lambda_{fmt(lam)}.ckpt")
        try:
            params, dims, ckpt_lam, ckpt_seed = load_checkpoint(ckpt)
            stale = _stale_fields(settings, lam, dims, ckpt_lam, ckpt_seed)
            if stale:
                raise ConfigError(f"{ckpt} does not match the settings: "
                                  f"{', '.join(stale)}; remove it to retrain")
            report = metrics.evaluate(NetworkMechanism(params, dims), heldout)
            rows.append(("learned", lam, report))
        except Exception as err:  # keep sweeping; record the failure
            failures.append((lam, err))
            print(f"lambda={lam}: FAILED ({err})", file=sys.stderr)

    baseline_reports = {}
    for label in BASELINE_LABELS:
        report = metrics.evaluate(LiftedMechanism(MechanismKind(label)), heldout)
        baseline_reports[label] = report
        rows.append((label, None, report))
    da_best_label = min(("wda", "fda"), key=lambda l: baseline_reports[l].rgt)
    rows.append(("da-best", None, baseline_reports[da_best_label]))

    frontier_csv = os.path.join(args.out_dir, "frontier.csv")
    with open(frontier_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_HEADER)
        for label, lam, report in rows:
            writer.writerow(eval_row(label, lam, frontier_report(label, report)))
    write_frontier_svg(os.path.join(args.out_dir, "frontier.svg"), rows)
    print(f"wrote {frontier_csv}")
    if failures:
        print(f"{len(failures)} lambda runs failed", file=sys.stderr)
        return SWEEP_POINTS_FAILED
    return 0


def cmd_audit(args) -> int:
    mech, _, profiles = load_source(args)
    worst = 0.0
    for idx, profile in enumerate(profiles):
        gains = oracle.fosd_audit(mech, profile)
        for agent, gain in gains.items():
            if gain > args.tolerance:
                print(f"profile {idx}: {agent.side.value} {agent.index + 1} "
                      f"FOSD gain {gain:.6g}")
            worst = max(worst, gain)
        for weight, matching in bvn_decompose(mech.evaluate(profile)).components:
            for bp in oracle.find_blocking_pairs(matching, profile):
                print(f"profile {idx}: component weight {weight:.4g} "
                      f"{bp.kind.value} (w{bp.worker + 1}, f{bp.firm + 1})")
    print(f"worst FOSD gain: {worst:.6g}")
    return 0 if worst <= args.tolerance else 1


def cmd_decompose(args) -> int:
    mech, _, profiles = load_source(args)
    for profile in profiles:
        decomposition = bvn_decompose(mech.evaluate(profile))
        parts = [f"{fmt(weight)} {format_matching(matching)}"
                 for weight, matching in decomposition.components]
        print(" | ".join(parts))
    return 0


# ---------------------------------------------------------------------------
# SVG frontier plot (self-contained, no external assets)

def write_frontier_svg(path, rows) -> None:
    width, height, pad = 640, 480, 60
    points = []
    for label, lam, report in rows:
        points.append((label, lam, frontier_report(label, report).stv, report.rgt))
    xmax = max(max((p[2] for p in points), default=0.0), 1e-9) * 1.1
    ymax = max(max((p[3] for p in points), default=0.0), 1e-9) * 1.1

    def sx(x):
        return pad + (width - 2 * pad) * x / xmax

    def sy(y):
        return height - pad - (height - 2 * pad) * y / ymax

    buf = io.StringIO()
    buf.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buf.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
              f'height="{height}" viewBox="0 0 {width} {height}">\n')
    buf.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    buf.write(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
              f'y2="{height - pad}" stroke="black"/>\n')
    buf.write(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
              f'stroke="black"/>\n')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val, y_val = frac * xmax, frac * ymax
        buf.write(f'<text x="{sx(x_val):.1f}" y="{height - pad + 18}" '
                  f'font-size="10" text-anchor="middle">{x_val:.3g}</text>\n')
        buf.write(f'<text x="{pad - 8}" y="{sy(y_val):.1f}" font-size="10" '
                  f'text-anchor="end">{y_val:.3g}</text>\n')
    buf.write(f'<text x="{width / 2}" y="{height - 14}" font-size="12" '
              f'text-anchor="middle">stability violation</text>\n')
    buf.write(f'<text x="16" y="{height / 2}" font-size="12" text-anchor="middle" '
              f'transform="rotate(-90 16 {height / 2})">regret</text>\n')
    colors = {"learned": "crimson", "wda": "royalblue", "fda": "seagreen",
              "rsd": "darkorange", "da-best": "purple"}
    for label, lam, stv, rgt in points:
        color = colors.get(label, "gray")
        x, y = sx(stv), sy(rgt)
        if label == "learned":
            buf.write(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}"/>\n')
            buf.write(f'<text x="{x + 6:.1f}" y="{y - 4:.1f}" font-size="9">'
                      f'&#955;={lam:g}</text>\n')
        else:
            buf.write(f'<rect x="{x - 4:.1f}" y="{y - 4:.1f}" width="8" height="8" '
                      f'fill="{color}"/>\n')
            buf.write(f'<text x="{x + 6:.1f}" y="{y - 4:.1f}" font-size="9">'
                      f'{label}</text>\n')
    buf.write('</svg>\n')
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


# ---------------------------------------------------------------------------

@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchfrontier",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named defaults; config file overrides")
        p.add_argument("--seed", type=int)

    def add_source(p, mechanism_help=None):
        p.add_argument("--checkpoint")
        p.add_argument("--mechanism", help=mechanism_help)
        p.add_argument("--profiles", required=True)

    p = sub.add_parser("gen", help="sample preference profiles to a file")
    add_common(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one matching network")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--checkpoint", default="matching.ckpt")
    p.add_argument("--log", default="")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a mechanism on a profile file")
    add_source(p, "wda | fda | rsd")
    p.add_argument("--out", help="CSV to append the row to")
    p.add_argument("--label")
    p.add_argument("--matchings-out", help="write one sampled matching per profile here")
    p.add_argument("--seed", type=int, help="seed for sampling --matchings-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate a lambda sweep + baselines")
    add_common(p)
    p.add_argument("--lambdas", required=True, help="comma-separated lambda list")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="brute-force FOSD and stability audit")
    add_source(p)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("decompose", help="BvN-decompose mechanism outputs")
    add_source(p)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericError, NumericOverflowError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
