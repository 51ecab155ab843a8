"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload classify-nonmembers --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
BENCHMARK.json unless --seconds is given) and prints, per metric, the
median and the interquartile distance as a share of the median, next to
the bound BENCHMARK.json fixes for it.  Each run's result line is appended
to --log when one is given.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--log", default=None)
    args = parser.parse_args(argv)

    values: dict = {}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - start:.0f} s): "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        line = f"{name:20s} median {stats.median(vals):.5g}  bound {bounds.get(name)}"
        if len(vals) >= 2:
            line += f"  spread {stats.spread(vals):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
