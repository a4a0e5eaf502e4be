"""matchfrontier benchmark.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  With `--trace 0` the whole run is measured untraced and the last
line of standard output is a JSON object with the end-to-end metrics.
With `--trace 1` the first and last quarter of the time are measured
untraced and the middle half with the layer wrappers installed; the JSON
carries the per-layer metrics, including the tracing overhead.  `--workload all` runs every
workload in turn, each in its own process, prints their metrics and exits
non-zero when any correctness check fails.  `--smoke` shrinks every size so
the whole benchmark runs in seconds; its numbers are not comparable.

The exit code is 0 when every correctness check passed, 1 when one failed,
2 when the checkout holds no matchfrontier sources.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("desk-train", "paper-train", "desk-eval")
SETUP_REPEATS = 5
MIN_STEPS = 110      # p90 needs at least ten samples beyond it
SMOKE_MIN_STEPS = 3

# (name, unit) in the result line; the names are shared by all workloads.
# A shared VM can switch every few seconds between a fast and a ~1.6x
# slower state, with a share of time in each that varies from run to run.  A median or
# a throughput follows that share; the p90 of a short step lands in the slow
# state in every run.  So the result line holds only the p90, and the median
# and throughput are printed for people.
END_TO_END = [("setup_s", "s"), ("step_ms_p90", "ms"), ("peak_rss_mb", "MB")]

# what each shared name means on each workload kind, as printed for people
ALIASES = {
    "train": {"step_ms_p50": "train_iter_ms_p50", "step_ms_p90": "train_iter_ms_p90",
              "profiles_per_s": "train_profiles_per_s"},
    "eval": {"step_ms_p50": "eval_round_ms_p50", "step_ms_p90": "eval_round_ms_p90",
             "profiles_per_s": "eval_profiles_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def find_package():
    """Puts the checkout's src/ first on the import path and imports the
    package from there; None when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "matchfrontier" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import matchfrontier
    if Path(matchfrontier.__file__).resolve().parent != src / "matchfrontier":
        return None
    return matchfrontier


def provenance(args, package) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "matchfrontier": package.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "git_rev": git_rev(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself;
    None when it cannot be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_rev():
    """HEAD of the checkout, read from .git without running git; the
    checkout need not be a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(samples, q):
    import numpy as np
    return float(np.percentile(samples, q)) if samples else 0.0


def run_workload(args, package, import_s: float) -> int:
    import layers
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke)
    min_steps = SMOKE_MIN_STEPS if args.smoke else MIN_STEPS
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for repeat in range(1 if args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(str(workdir / f"setup{repeat}"))
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        tracer = None
        if args.trace:
            # untraced, traced, untraced: drift over the run cancels out of
            # the overhead estimate
            before = workload.run(args.seconds / 4, 1)
            tracer = spans.Tracer()
            instruments = layers.Instruments(tracer)
            instruments.install()
            try:
                traced = workload.run(args.seconds / 2, 1, tracer=tracer)
            finally:
                tracer.restore()
            plain = before + workload.run(args.seconds / 4, 1)
            phases = [plain, traced]
        else:
            plain = workload.run(args.seconds, min_steps)
            phases = [plain]
        phases.append(workload.verify())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    if args.trace:
        attempted += 1  # the self-test: every named span was reached
        missing = layers.missing_spans(tracer, workload.kind)
        if missing:
            failures.append(f"traced spans recorded no calls: {', '.join(missing)}")
        overhead = (statistics.median(traced.step_s) / statistics.median(plain.step_s)
                    - 1.0) * 100 if traced.step_s and plain.step_s else 0.0
        values = layers.per_layer_metrics(tracer, instruments, traced.operations,
                                          traced.profiles if workload.kind == "eval" else 0,
                                          overhead, plain.rates)
        units = dict(layers.PER_LAYER)
    else:
        steps_ms = [s * 1e3 for s in plain.step_s]
        values = {
            "setup_s": setup_s,
            "step_ms_p90": percentile(steps_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        readable = {"step_ms_p50": (percentile(steps_ms, 50), "ms"),
                    "profiles_per_s": (plain.profiles_per_s, "profiles/s")}

    correct = not failures
    info = provenance(args, package)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    report = {"provenance": info, "setup_times_s": setup_times, "import_s": import_s,
              "step_samples_s": plain.samples, "eval_rounds": plain.rounds,
              "eval_rates": plain.rates,
              "failures": failures, "values": values}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"provenance {json.dumps(info, sort_keys=True)}")
    print(f"operations={plain.operations} steps={len(plain.step_s)} "
          f"profiles={plain.profiles} wall_s={plain.wall_s:.3f}")
    if args.trace:
        print(f"traced steps={traced.operations} profiles={traced.profiles}")
    aliases = ALIASES[workload.kind]
    for name, value in values.items():
        label = aliases.get(name, name)
        shown = f"{label} ({name})" if label != name else name
        print(f"metric {shown} = {value:.6g} {units[name]}")
    if not args.trace:
        for name, (value, unit) in readable.items():
            print(f"metric {aliases[name]} = {value:.6g} {unit}")
    if workload.kind == "eval" and not args.trace:
        for group, rate in plain.rates.items():
            print(f"metric eval_{group}_profiles_per_s = {rate:.6g} profiles/s")
    print(f"metric error_rate = {len(failures) / max(attempted, 1):.6g} fraction "
          f"({len(failures)} of {attempted})")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            if line.startswith("metric "):
                print(f"  {line[7:]}")
        if child.returncode != 0:
            print(f"  {name}: exit code {child.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    package = find_package()
    import_s = time.perf_counter() - start
    if package is None:
        print(f"perfbench: no matchfrontier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, package, import_s)


if __name__ == "__main__":
    sys.exit(main())
