"""Benchmark of the unfold-ssc pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload a5-cube --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout. The workload's input sets are drawn
from the seed in a separate process first (gen.py). Each timed run is then
a fresh process that calls ``cli.run_pipeline`` on one of those sets
(child.py), with the BLAS thread count fixed in its environment. Runs cycle
through the sets until the time budget is used; every set runs at least
once and the first one twice. Every run's outputs are checked: labels in
range, metrics.json equal to the scores the call returned, and
byte-identical labels.csv and loss_history.csv for runs on the same set.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians over the runs for times and memory, and means over the input sets
for the clustering scores. With ``--trace 1`` traced and untraced runs
alternate, and it reports the per-layer metrics of the traced runs plus the
tracing overhead. The line before it is the platform fingerprint. A record
of every run goes to .perfbench_run/results/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_run"

# Fixed so that runs are comparable across machines with more cores; two
# threads halve large-n's dense products on a two-core machine.
THREADS = "2"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Leave room inside the 180 s a single invocation may take.
HARD_LIMIT_S = 165.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "acc": "ratio",
    "nmi": "ratio",
    "kappa": "ratio",
    "ok_frac": "ratio",
}
DIGESTED = ("labels.csv", "loss_history.csv")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "unfold_ssc").glob("*.py")))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_outputs(result, out_dir, k):
    """Return a problem description, or None when the run's outputs hold."""
    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        return f"package imported from {package}, not from this checkout"
    summary = result["summary"]
    n = summary["n_samples"]
    lines = (out_dir / "labels.csv").read_text().split()
    if len(lines) != n:
        return f"labels.csv has {len(lines)} labels for {n} samples"
    if not all(s.isdigit() and int(s) < k for s in lines):
        return f"labels.csv holds a label outside 0..{k - 1}"
    scores = json.loads((out_dir / "metrics.json").read_text())
    if scores != summary["metrics"]:
        return f"metrics.json {scores} differs from the returned {summary['metrics']}"
    if scores["n"] != n or not all(math.isfinite(scores[m]) for m in ("acc", "nmi", "kappa")):
        return f"implausible scores {scores}"
    return None


def one_run(index, workdir, config_path, k, traced, timeout):
    out_dir = workdir / f"run{index}"
    result_path = workdir / f"run{index}.json"
    command = [sys.executable, str(BENCH / "child.py"), "--config", str(config_path),
               "--out-dir", str(out_dir), "--result", str(result_path)]
    if traced:
        command.append("--trace")
    spawned = time.monotonic()
    run = {"traced": traced, "ok": False}
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        run["problem"] = f"timed out after {timeout:.0f} s"
        return run
    finally:
        run["wall_s"] = time.monotonic() - spawned
    if proc.returncode != 0:
        run["problem"] = f"exit code {proc.returncode}"
        return run
    try:
        result = json.loads(result_path.read_text())
        problem = check_outputs(result, out_dir, k)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problem = f"unreadable outputs: {exc!r}"
    if problem:
        run["problem"] = problem
        return run
    run.update(
        ok=True,
        run_s=result["run_s"],
        setup_s=result["entered"] - spawned,
        peak_rss_mb=result["peak_rss_kb"] / 1024.0,
        scores={m: result["summary"]["metrics"][m] for m in ("acc", "nmi", "kappa")},
        digests={name: digest(out_dir / name) for name in DIGESTED},
        artifact_bytes=sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
    )
    if traced:
        run["layers"] = layer_metrics(result["spans"], result["counters"])
        run["spans"] = result["spans"]
    shutil.rmtree(out_dir)
    return run


def timed_runs(workdir, configs, k, seconds, trace, started):
    """Run fresh processes until the budget is used, cycling through the
    input sets so that each runs at least once and the first twice."""
    runs = []
    window = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        if now - started + longest > HARD_LIMIT_S:
            break
        if len(runs) > len(configs) and now - window + longest > seconds:
            break
        dataset = len(runs) % len(configs)
        traced = trace and len(runs) % 2 == 1
        timeout = HARD_LIMIT_S + 10.0 - (now - started)
        run = one_run(len(runs), workdir, configs[dataset], k, traced, timeout)
        run["dataset"] = dataset
        runs.append(run)
        longest = max(longest, run["wall_s"])
    first = {}
    for run in runs:
        if run["ok"] and first.setdefault(run["dataset"], run["digests"]) != run["digests"]:
            run.update(ok=False, problem="outputs differ from an earlier run on the same input")
    return runs


def median_of(runs, key):
    values = [r[key] for r in runs]
    return statistics.median(values) if values else 0.0


def end_to_end(runs):
    ok = [r for r in runs if r["ok"]]
    values = {
        "run_s": median_of(ok, "run_s"),
        "setup_s": median_of(ok, "setup_s"),
        "peak_rss_mb": median_of(ok, "peak_rss_mb"),
        "ok_frac": len(ok) / len(runs),
    }
    scores = {}
    for run in ok:
        scores.setdefault(run["dataset"], run["scores"])
    for score in ("acc", "nmi", "kappa"):
        values[score] = statistics.fmean(s[score] for s in scores.values()) if scores else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(runs):
    ok = [r for r in runs if r["ok"]]
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    values = ({name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]} if traced else {})
    values["cli.artifact_bytes"] = median_of(traced, "artifact_bytes")
    values["trace.overhead_s"] = median_of(traced, "run_s") - median_of(untraced, "run_s")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    started = time.monotonic()

    if not (ROOT / "src" / "unfold_ssc" / "__init__.py").is_file():
        print(f"perfbench: no unfold_ssc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = workdir / "inputs"
        gen = subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
                              "--seed", str(args.seed), "--out", str(inputs)],
                             env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                             stdout=sys.stderr, timeout=60)
        if gen.returncode != 0:
            print(f"perfbench: input generation failed (exit {gen.returncode})", file=sys.stderr)
            return 1
        fingerprint = json.loads((inputs / "fingerprint.json").read_text())
        fingerprint.update(
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            threads={var: THREADS for var in THREAD_VARS},
            git_commit=git_commit(),
            src_lines=src_lines(),
        )
        workload = WORKLOADS[args.workload]
        configs = [inputs / str(i) / "config.json" for i in range(workload["datasets"])]
        runs = timed_runs(workdir, configs, workload["config"]["k_clusters"], args.seconds,
                          bool(args.trace), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for run in runs:
        if not run["ok"]:
            print(f"perfbench: run failed: {run['problem']}", file=sys.stderr)
    failed = sum(not r["ok"] for r in runs)
    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    report = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint, "runs": runs, **report}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
