"""Benchmark of normaloid's classify and verify commands.

Run from the repository root:

    python3 perfbench/run.py --workload classify-members --seed 1 --seconds 20 --trace 0

Each workload runs in fresh child processes (child.py) with BLAS pinned to
one thread and the package imported from ./src.  ``--trace 0`` prints the
end-to-end metrics, every time in them scaled to the reference speed
(reference.py); ``--trace 1`` prints the per-layer metrics of a traced
run plus its overhead against an untraced replay of the same first round.
The last line of standard output is the result as one JSON object; a
readable summary goes to standard error.  The exit code is 0 only when
every output was correct (and, traced, the work counts repeated exactly).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the reference kernel runs here too, and must run on one thread as in the children
os.environ.update(PINNED)

import reference  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# setup-only processes per untraced run; with the run's own process the
# reported set-up time is the median of SETUP_PROBES + 1 fresh starts
SETUP_PROBES = 2
# every child must finish within this many seconds of the benchmark's start
DEADLINE_S = 170.0


def child_env(src: str) -> dict:
    """The parent's environment, minus tolerance overrides, plus the pins.

    NORMALOID_* knobs would change tolerances and so the work done; only the
    backend selector is kept, as the test suite's conftest does.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NORMALOID_") or k == "NORMALOID_BACKEND"}
    env.update(PINNED)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Children:
    """Starts child.py processes one at a time and collects their results."""

    def __init__(self, root: str, workdir: str, args):
        self.root, self.workdir, self.args = root, workdir, args
        self.src = os.path.join(root, "src")
        self.env = child_env(self.src)
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        reference.kernel()  # warm, so the first timed pass is like the rest

    def run(self, mode: str) -> dict:
        """Run one child to completion; its result carries ``spawned``."""
        self.count += 1
        calldir = os.path.join(self.workdir, f"c{self.count}")
        os.mkdir(calldir)
        result_path = os.path.join(self.workdir, f"c{self.count}.json")
        log_path = os.path.join(self.workdir, f"c{self.count}.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode, "--src", self.src,
               "--workdir", calldir, "--result", result_path]
        kernel_s = reference.time_kernel()
        with open(log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log, stderr=log)
            try:
                rc = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{mode} child overran the {DEADLINE_S:.0f} s deadline")
        if rc != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-3000:]
            raise RuntimeError(f"{mode} child exited {rc}:\n{tail}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["spawned"] = spawned
        # seconds from spawn to the end of set-up, less the child's kernel
        # samples, as is and at the reference speed
        result["setup_wall_s"] = result["ready"] - spawned - result["setup_paused_s"]
        result["setup_s"] = result["setup_wall_s"] * reference.scale([kernel_s] + result["setup_kernel_s"])
        return result


def untraced(children: Children) -> dict:
    """End-to-end metrics; every time is at the reference speed (reference.py).

    The wall-clock figures are kept in the details.
    """
    starts = [children.run("setup") for _ in range(SETUP_PROBES)]
    res = children.run("run")
    starts.append(res)
    lat, wall = res["scaled_latencies"], res["latencies"]
    tail_s, tail_pct, n = stats.tail(lat)
    scaled_timed_s = sum(t * f for t, f in zip(res["call_latencies"], res["call_factors"]))
    metrics = {
        "throughput_ops_s": (res["ops"] / scaled_timed_s, "ops/s"),
        "latency_p50_s": (stats.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (stats.median([s["setup_s"] for s in starts]), "s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    details = {
        "failed_frac": res["failed"] / res["ops"],
        "skipped": res["skipped"],
        "tail_percentile": tail_pct,
        "latency_samples": n,
        "rounds": res["rounds"],
        "timed_s": sum(res["round_s"]),
        "setup_samples_s": [s["setup_s"] for s in starts],
        "wall": {
            "throughput_ops_s": res["ops"] / sum(res["round_s"]),
            "latency_p50_s": stats.median(wall),
            "latency_tail_s": stats.tail(wall)[0],
            "setup_s": stats.median([s["setup_wall_s"] for s in starts]),
        },
        "reference_s": {"median": stats.median(res["kernel_s"]), "min": min(res["kernel_s"]),
                        "max": max(res["kernel_s"]), "count": len(res["kernel_s"]),
                        "REF_S": reference.REF_S},
        "env": res["env"],
        "notes": res["notes"],
    }
    return {"metrics": metrics, "details": details, "attempted": res["ops"],
            "failed": res["failed"], "correct": res["failed"] == 0}


def traced(children: Children) -> dict:
    res = children.run("traced")
    check = children.run("check")
    mismatches = [
        f"call {call} {key}: {value} then {check['counts'][call][key]}"
        for call, counts in res["counts"].items()
        for key, value in counts.items()
        if check["counts"][call][key] != value
    ]
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    # both round-0 timings come from the check process, one right after the
    # other, so host speed drifting between processes does not enter
    metrics["trace_overhead_frac"] = (check["round0_s"] / check["base_round0_s"] - 1.0, "ratio")
    wall = res["wall_s"]
    shares = {layer: s / wall for layer, s in res["layer_self_s"].items()}
    shares["client"] = res["client_s"] / wall
    details = {
        "failed_frac": res["failed"] / res["ops"],
        "skipped": res["skipped"],
        "rounds": res["rounds"],
        "traced_wall_s": wall,
        "self_share": shares,
        "self_share_total": sum(shares.values()),
        "spans": res["spans"],
        "count_mismatches": mismatches,
        "env": res["env"],
        "notes": res["notes"] + check["notes"],
    }
    correct = res["failed"] == 0 and check["failed"] == 0 and not mismatches
    return {"metrics": metrics, "details": details, "attempted": res["ops"],
            "failed": res["failed"], "correct": correct}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "normaloid", "__init__.py")):
        sys.stderr.write("no src/normaloid here: run from the root of a normaloid checkout\n")
        return 2
    runs = os.path.join(root, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        children = Children(root, workdir, args)
        report = traced(children) if args.trace else untraced(children)
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass

    details = report["details"]
    sys.stderr.write(f"{args.workload} seed={args.seed} trace={args.trace}\n")
    for name, (value, unit) in report["metrics"].items():
        sys.stderr.write(f"  {name:32s} {value:.6g} {unit}\n")
    sys.stderr.write(f"  {'failed_frac':32s} {details['failed_frac']:.6g} ratio\n")
    if "tail_percentile" in details:
        sys.stderr.write(f"  latency_tail_s is p{details['tail_percentile']:.1f} of "
                         f"{details['latency_samples']} samples\n")
    for note in details["notes"]:
        sys.stderr.write(f"  ! {note}\n")
    for note in details.get("count_mismatches", []):
        sys.stderr.write(f"  ! work count changed: {note}\n")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
