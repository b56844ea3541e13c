"""randcol benchmark: acceptance experiments at their real sizes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop, one caller, RANDCOL_THREADS=1):

  two_round_suite  randcol.verify.run_suite("two_round"): 10^5 two-round and
                   10^5 one-round samples of one 50-edge graph. A trial is
                   one sample. The suite pins its own seeds, so --seed does
                   not change its input.
  core_death       core_emptiness (acceptance criterion 10): two-round
                   sampling on the 800-vertex 12-regular blow-up of a
                   cubic graph, t-core and super-vertex classification.
  thm3_sweep       thm3_sweep (criterion 7) on a cubic expander, n=2000.

Each measurement is a fresh interpreter (perfbench/workload.py), started
one at a time. A run of --trace 0 starts SETUP_SAMPLES - 1 processes that
only set up, then one that sets up and runs chunks (one run_experiment
call of the acceptance trial count, or one suite call) until --seconds
have passed, with a fixed reference loop before and after each chunk
that scales the chunk's rate to a reference core (trials_per_ref_s). It
prints the end-to-end metrics; the last stdout line is the JSON result.
A run of --trace 1 starts one untraced timed process and one traced
process that runs chunk 0 with every layer call recorded, and prints the
per-layer metrics, the tracing overhead and whether the traced result
bytes equal the untraced ones.

--seed N makes the inputs from N (the master seed of every chunk-0 config
and the seed of its fixed graph); without it the acceptance criteria's
seeds are used and chunk 0's result bytes must match expected.json. The
invariants are checked at every seed. A failed check or errored trial
makes the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("two_round_suite", "core_death", "thm3_sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

CHILD_ENV = {
    "RANDCOL_THREADS": "1",
    # one core for the eigensolver too: the runs measure a single caller
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def child(workload: str, seed, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    seed_arg = "default" if seed is None else str(seed)
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workload.py"), workload, seed_arg, mode,
           repr(seconds), repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record() -> dict:
    """Which program was measured: git commit when there is one, and
    always a digest of src/randcol."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "randcol").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    rec = {"src_sha256": h.hexdigest(), "git_sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        rec["git_sha"] = git("rev-parse", "HEAD") or None
        rec["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return rec


def environment(seed, versions: dict) -> dict:
    return {**source_record(), **versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "RANDCOL_THREADS": CHILD_ENV["RANDCOL_THREADS"],
            "seed": "default" if seed is None else seed}


def report_failures(run: dict) -> None:
    for f in run["failures"]:
        print(f"FAILED {f['check']}: {f['detail']}", file=sys.stderr)


def untraced(workload: str, seed, seconds: float, deadline: float):
    setups = [child(workload, seed, "setup", seconds, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = child(workload, seed, "timed", seconds, deadline)
    setups.append(run["setup_s"])
    report_failures(run)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_ref_s": (run["trials_per_ref_s"], "1/ref_s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    print(f"{workload}: {run['trials']} trials in {run['timed_s']:.3f} s "
          f"({run['chunks']} chunks); setup median of {len(setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    # Printed, not in BENCHMARK.json: trials_per_s moves with the speed of
    # the host's cores (trials_per_ref_s is it scaled to a reference core),
    # and the suite has no per-sample times.
    print(f"  {'trials_per_s':<16} {run['trials_per_s']:.6g} 1/s")
    for name in ("trial_ms_p50", "trial_ms_p95"):
        value = run[name]
        shown = "n/a (the suite exposes no per-sample times)" if value is None else f"{value:.6g} ms"
        print(f"  {name:<16} {shown}")
    print(f"  {'error_ratio':<16} {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} of {run['attempted']} operations)")
    print(json.dumps({"run": {**environment(seed, run["versions"]), "workload": workload,
                              "trials": run["trials"], "chunks": run["chunks"],
                              "setup_samples_s": setups, "digests": run["digests"],
                              "trial_ms_p50": run["trial_ms_p50"],
                              "trial_ms_p95": run["trial_ms_p95"],
                              "trial_ms_samples": run["trial_ms_samples"],
                              "chunk_trials_per_s": run["chunk_trials_per_s"],
                              "chunk_ref_rates": run["chunk_ref_rates"],
                              "chunk0_config": run["chunk0_config"]}}))
    return run["attempted"], run["failed"], metrics


def traced(workload: str, seed, seconds: float, deadline: float):
    plain = child(workload, seed, "timed", seconds, deadline)
    run = child(workload, seed, "traced", seconds, deadline)
    report_failures(plain)
    report_failures(run)
    attempted = plain["attempted"] + run["attempted"]
    failed = plain["failed"] + run["failed"]

    def check(name, ok):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"FAILED {name}", file=sys.stderr)

    layers = {k: tuple(v) for k, v in run["per_layer"].items()}
    check("traced chunk 0 result bytes equal the untraced ones",
          run["digests"][0] == plain["digests"][0])
    # chunk 0 against chunk 0: the same trials with and without spans
    layers["trace.overhead_ratio"] = (
        run["chunk_trials_per_s"][0] / plain["chunk_trials_per_s"][0], "ratio")
    print(f"{workload} traced: {run['trials']} trials, {layers['trace.spans'][0]} spans, "
          f"{run['bindings']} bindings wrapped; traced/untraced trials_per_s "
          f"{layers['trace.overhead_ratio'][0]:.4f}")
    print(json.dumps({"run": {**environment(seed, run["versions"]), "workload": workload,
                              "trials": run["trials"], "digests": run["digests"],
                              "untraced_digests": plain["digests"]}}))
    return attempted, failed, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "randcol" / "__init__.py").is_file():
        print(f"no randcol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    measure = traced if args.trace else untraced
    try:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
