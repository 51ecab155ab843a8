"""One fresh benchmark process: set up, run rounds, write a JSON result.

Started by ``run.py`` with the package on PYTHONPATH and BLAS pinned to one
thread.  Modes:

  setup    set up, report when the first timed op could begin, exit
  run      set up, then time whole rounds until --seconds have passed
  traced   TRACED_ROUNDS rounds with every layer wrapped in spans (tracer.py)
  check    round 0 untraced twice (the second is the tracing-overhead
           base), then round 0 traced (the work counts must repeat exactly)
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import reference
import tracer as tracing
import workloads

_NOTE_LIMIT = 20
# wall seconds between two timings of the reference kernel during a round
SAMPLE_EVERY_S = 0.3
# rounds a traced run makes: its times have no bound, and its counts come
# from round 0; two rounds keep a traced member run well inside 180 s
TRACED_ROUNDS = 2


def _env_info(np, kernels) -> dict:
    import importlib.util
    import platform

    import scipy

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Program:
    """The package's entry points, imported from the checkout under test."""

    def __init__(self, src: str):
        start = time.perf_counter()
        from normaloid import cli

        self.import_s = time.perf_counter() - start
        import numpy as np
        import normaloid
        from normaloid import generators, harness, kernels, matrixio

        where = os.path.realpath(normaloid.__file__)
        if not where.startswith(os.path.realpath(src) + os.sep):
            raise SystemExit(f"normaloid imported from {where}, not from {src}")
        self.cli, self.gen, self.harness = cli, generators, harness
        self.kernels, self.save_matrix = kernels, matrixio.save_matrix
        self.env = _env_info(np, kernels)

    def set_up(self, sizes, workdir: str) -> None:
        """Warm the kernels and run one cheap classify per matrix size.

        A nilpotent matrix is refuted on the first optimizer start, yet the
        call still builds pencil's per-size Sobol start cache that every
        later call at that size reuses.
        """
        self.kernels.warmup()
        for n in sizes:
            path = os.path.join(workdir, f"setup{n}.json")
            out = os.path.join(workdir, f"setup{n}.out.json")
            self.save_matrix(path, self.gen.gen_nilpotent(n, n))
            rc = self.cli.main(["classify", path, "--out", out])
            if rc != 0:
                raise SystemExit(f"set-up classify at n={n} exited {rc}")
            os.remove(path)
            os.remove(out)


def _time_trials(harness, sink: list, sampler) -> None:
    """Append each suite trial's latency to ``sink``.

    A trial ends when its suite records it; the first trial of a suite
    starts when run_suite does.  One clock read per trial is the only
    instrumentation an untimed verify run carries.  Reference samples taken
    during a trial are left out of its latency.
    """
    suite_cls = harness._Suite
    record, run_suite = suite_cls.record, harness.run_suite
    last = [0.0, 0.0]

    def timed_record(self, *args, **kwargs):
        try:
            return record(self, *args, **kwargs)
        finally:
            now, paused = time.perf_counter(), sampler.paused
            sink.append(now - last[0] - (paused - last[1]))
            last[:] = [now, paused]

    def timed_run_suite(*args, **kwargs):
        last[:] = [time.perf_counter(), sampler.paused]
        return run_suite(*args, **kwargs)

    suite_cls.record = timed_record
    harness.run_suite = timed_run_suite


def run_rounds(prog: Program, wl, seed: int, workdir: str, *, seconds=None, rounds=None,
               tracer=None, sampler=None, after_call=None) -> dict:
    """Run ``rounds`` rounds, or whole rounds until both ``wl.min_rounds``
    rounds and ``seconds`` of timed work are done.

    Inputs are written before a round and outputs checked after it, so the
    timed segments hold nothing but back-to-back program calls.

    With a ``sampler`` (reference.Sampler) the reference kernel is timed at
    the start and end of each round and every ``sampler.every_s`` in
    between, inside calls too.  A call's latency excludes the samples taken
    during it.  ``call_factors`` holds, for each call, the factor from wall
    seconds to seconds at the reference speed: from the kernel times taken
    during the call and the last one before and the first one after it.
    A round's time is the sum of its calls' latencies.  ``after_call``
    runs after each call, outside its latency.
    """
    round_s, round_ops, latencies, factors, notes = [], [], [], [], []
    failed = skipped = 0
    call = 0
    r = 0
    while (r < rounds) if rounds is not None else (r < wl.min_rounds or sum(round_s) < seconds):
        plan = wl.plan(seed, r)
        prepared = [wl.prepare(prog.gen, prog.save_matrix, op, workdir, i) for i, op in enumerate(plan)]
        codes, windows = [], []
        if sampler is not None:
            sampler.sample()
            sampler.start()
        for argv, _ in prepared:
            if tracer is not None:
                tracer.call = call
            t0 = time.perf_counter()
            if sampler is not None:
                paused, before = sampler.paused, len(sampler.times) - 1
            try:
                rc = prog.cli.main(argv)
            except Exception:  # a traceback is a failed op, not a crashed run
                rc = None
                notes.append(traceback.format_exc(limit=3))
            latency = time.perf_counter() - t0
            if sampler is not None:
                latency -= sampler.paused - paused
                windows.append((before, len(sampler.times)))
            latencies.append(latency)
            if tracer is not None:
                tracer.call = None
            codes.append(rc)
            call += 1
            if after_call is not None:
                after_call()
        if sampler is not None:
            sampler.stop()
            sampler.sample()  # the first sample after the round's last call
            factors.extend(reference.scale(sampler.times[lo:hi + 1]) for lo, hi in windows)
        round_s.append(sum(latencies[len(latencies) - len(prepared):]))
        round_ops.append(0)
        for op, (argv, out), rc in zip(plan, prepared, codes):
            outcome = wl.check(op, rc, out)
            round_ops[-1] += outcome["ops"]
            failed += outcome["failed"]
            skipped += outcome["skipped"]
            notes.extend(f"round {r} {op[:2]}: {p}" for p in outcome["problems"])
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        r += 1
    return {
        "rounds": r, "round_s": round_s, "round_ops": round_ops, "call_latencies": latencies,
        "call_factors": factors,
        "ops": sum(round_ops), "failed": failed, "skipped": skipped, "notes": notes[:_NOTE_LIMIT],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "traced", "check"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    # set-up is sampled like a round; nothing of the package is imported yet,
    # and the first, cold pass of the kernel is timed but not kept
    sampler = reference.Sampler(SAMPLE_EVERY_S)
    sampler.sample(keep=False)
    sampler.sample()
    sampler.start()
    prog = Program(args.src)
    prog.set_up(wl.sizes, args.workdir)
    sampler.stop()
    ready, setup_paused = time.monotonic(), sampler.paused
    sampler.sample()
    result = {"ready": ready, "setup_paused_s": setup_paused,
              "setup_kernel_s": list(sampler.times), "env": prog.env}

    if args.mode == "run":
        # a verify op is one suite trial, not the whole command
        ops_are_trials = isinstance(wl, workloads.VerifyWorkload)
        trials: list = []
        trials_after_call: list = []
        if ops_are_trials:
            _time_trials(prog.harness, trials, sampler)
        out = run_rounds(prog, wl, args.seed, args.workdir, seconds=args.seconds, sampler=sampler,
                         after_call=lambda: trials_after_call.append(len(trials)))
        out["kernel_s"] = sampler.times[len(result["setup_kernel_s"]):]
        if ops_are_trials:
            # a verify command is one call: its trials share the call's factor
            out["latencies"] = trials
            out["scaled_latencies"] = [
                lat * factor
                for factor, lo, hi in zip(out["call_factors"], [0] + trials_after_call, trials_after_call)
                for lat in trials[lo:hi]
            ]
        else:
            out["latencies"] = out["call_latencies"]
            out["scaled_latencies"] = [
                lat * factor for lat, factor in zip(out["call_latencies"], out["call_factors"])]
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(out)
    elif args.mode in ("traced", "check"):
        window = range(len(wl.plan(args.seed, 0)))
        base_s = None
        if args.mode == "check":
            # the first pass warms what set-up left cold; the second is the base
            run_rounds(prog, wl, args.seed, args.workdir, rounds=1)
            base_s = run_rounds(prog, wl, args.seed, args.workdir, rounds=1)["round_s"][0]
        tr = tracing.Tracer()
        tracing.install(tr)
        start = time.perf_counter()
        if args.mode == "traced":
            out = run_rounds(prog, wl, args.seed, args.workdir, rounds=TRACED_ROUNDS, tracer=tr)
        else:
            out = run_rounds(prog, wl, args.seed, args.workdir, rounds=1, tracer=tr)
        summary = tracing.summarize(tr.spans, time.perf_counter() - start)
        result.update(
            rounds=out["rounds"], round0_s=out["round_s"][0], base_round0_s=base_s,
            ops=out["ops"], failed=out["failed"], skipped=out["skipped"], notes=out["notes"],
            counts=tracing.exact_counts(summary, window),
            wall_s=summary["wall_s"], client_s=summary["client_s"],
            layer_self_s=summary["layer_self_s"], spans=summary["spans"],
        )
        if args.mode == "traced":
            suites = prog.harness.THEOREM_IDS if isinstance(wl, workloads.VerifyWorkload) else ()
            result["metrics"] = tracing.layer_metrics(
                summary, out["ops"], window, out["round_ops"][0], prog.import_s, suites)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
