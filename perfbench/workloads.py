"""The three workloads: what one round runs and how its outputs are checked.

Every workload is a closed loop with one client: the next program call
starts only after the previous one returned, because a user or a CI job
waits for each verdict.  A run repeats whole rounds, so every run measures
the same mix of kinds and sizes; the seed only changes the matrices.

Inputs are built with the package's seeded generators, each with a
membership it guarantees by construction.  That construction, not the package's own
verdict, is the reference each ``classify`` report is checked against.
"""
from __future__ import annotations

import json
import os

import numpy as np

MEMBER_SIZES = (2, 3, 4, 6, 8, 12, 16)
MEMBER_KINDS = ("normal", "hermitian", "psd")
NONMEMBER_SIZES = (4, 8, 16, 32, 64)
NONMEMBER_KINDS = ("gaussian", "nilpotent", "normaloid", "binormal", "partial-isometry")
# the suites draw n = 2..6
VERIFY_SIZES = (2, 3, 4, 5, 6)
# 15 trials cycle through CHAIN_CONSISTENCY's ten matrix kinds 1.5 times
# and MONOTONICITY's five 3 times, so each command holds ~12 member-heavy
# trials of 1-2.5 s and the tail (10 trials beyond) falls inside them
VERIFY_TRIALS = 15
# member eigenvalue moduli: evenly spaced on this interval
MODULI = (0.3, 2.0)
SUITE_COUNT = 14

# normal => every class along the inclusion chain, normal through normaloid
_CHAIN = (
    "normal", "quasinormal", "subnormal", "hyponormal", "p-hyponormal",
    "class-A", "paranormal", "absolute-k-paranormal", "absolute-pr-paranormal",
    "normaloid",
)
# kind -> {class id: membership guaranteed by construction}
EXPECTED = {
    "normal": dict.fromkeys(_CHAIN, True),
    "hermitian": dict.fromkeys(_CHAIN, True),
    "psd": dict.fromkeys(_CHAIN, True),
    # absolute-(p,r)-paranormal collapses to normal in finite dimension
    "gaussian": {"normal": False, "normaloid": False, "absolute-pr-paranormal": False},
    "nilpotent": {"normal": False, "normaloid": False, "absolute-pr-paranormal": False},
    "normaloid": {"normaloid": True, "normal": False},
    "binormal": {"binormal": True, "normal": False},
    "partial-isometry": {"partial-isometry": True, "quasinormal": False},
}
CHAIN_CONSISTENT_KINDS = ("normal", "hermitian", "psd")


def sub_seed(seed: int, *path: int) -> int:
    """A 63-bit seed derived from the run seed and a position in the run."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1, np.uint64)[0] >> 1)


def member_matrix(gen, kind: str, n: int, seed: int) -> np.ndarray:
    """U diag(d) U* with Haar U and the moduli |d| evenly spaced on MODULI.

    The seed draws U and the phases (normal) or signs (Hermitian) of d;
    the moduli are fixed per n.  The optimizer's cost on a member follows
    the gaps between moduli: with random moduli one call at n = 3..6 took
    2-8x as long as another, more than a run of ~20 member calls averages
    out, while with fixed gaps calls of one size and kind differ by ~20%.
    """
    u = gen.gen_unitary(n, sub_seed(seed, 1))
    rng = np.random.Generator(np.random.PCG64(sub_seed(seed, 2)))
    moduli = np.linspace(*MODULI, n)
    if kind == "normal":
        d = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    elif kind == "hermitian":
        d = moduli * rng.choice((-1.0, 1.0), n)
    elif kind == "psd":
        d = moduli
    else:
        raise ValueError(f"unknown member kind {kind!r}")
    t = (u * d) @ u.conj().T
    return t if kind == "normal" else (t + t.conj().T) / 2.0


def make_matrix(gen, kind: str, n: int, seed: int) -> np.ndarray:
    """The seeded input of one op; ``gen`` is the package's generators module."""
    if kind in MEMBER_KINDS:
        return member_matrix(gen, kind, n, seed)
    if kind == "gaussian":
        return gen.gen_random(n, seed)
    if kind == "nilpotent":
        return gen.gen_nilpotent(n, seed)
    if kind == "normaloid":
        return gen.gen_normaloid(n, seed)
    if kind == "binormal":
        # a nontrivial permutation with distinct weights keeps it non-normal
        return gen.gen_binormal(n, seed)
    if kind == "partial-isometry":
        return gen.gen_partial_isometry(n, n // 2, seed)
    raise ValueError(f"unknown matrix kind {kind!r}")


def check_report(report: dict, kind: str, expected=EXPECTED) -> tuple[bool, bool, list]:
    """(failed, skipped, problems) for one classify report.

    Every verdict of an expected class, at every parameter, must match the
    construction; a marginal verdict is not judged and marks the op skipped.
    """
    problems = []
    skipped = False
    want = expected[kind]
    seen = set()
    for v in report["verdicts"]:
        cid = v["class_id"]
        if cid not in want:
            continue
        if cid == "absolute-k-paranormal" and v["parameters"]["k"] < 1:
            continue
        seen.add(cid)
        if v["marginal"]:
            skipped = True
        elif v["member"] != want[cid]:
            problems.append(f"{cid} {v['parameters']}: member={v['member']}, expected {want[cid]}")
    for cid in sorted(set(want) - seen):
        problems.append(f"no verdict for {cid}")
    if kind in CHAIN_CONSISTENT_KINDS and not report["chain_consistent"]:
        problems.append("chain_consistent is false")
    return bool(problems), skipped, problems


class ClassifyWorkload:
    """``normaloid classify`` through ``cli.main`` on one matrix per op."""

    def __init__(self, name: str, sizes, kinds, rotate: bool, min_rounds: int):
        self.name = name
        self.sizes = tuple(sizes)
        self.kinds = tuple(kinds)
        self.rotate = rotate
        self.min_rounds = min_rounds

    def plan(self, seed: int, round_index: int) -> list:
        """(kind, n, matrix seed) of every op in one round.

        Members rotate one kind per size each round (a member call takes
        seconds); non-members run every kind at every size.
        """
        ops = []
        if self.rotate:
            for i, n in enumerate(self.sizes):
                kind = self.kinds[(round_index + i) % len(self.kinds)]
                ops.append((kind, n, sub_seed(seed, round_index, i)))
        else:
            for i, n in enumerate(self.sizes):
                for j, kind in enumerate(self.kinds):
                    ops.append((kind, n, sub_seed(seed, round_index, i, j)))
        return ops

    def prepare(self, gen, save_matrix, op, workdir: str, index: int) -> tuple:
        """Write the op's matrix file; return (argv, output path)."""
        kind, n, mseed = op
        path = os.path.join(workdir, f"m{index}.json")
        out = os.path.join(workdir, f"r{index}.json")
        save_matrix(path, make_matrix(gen, kind, n, mseed))
        return ["classify", path, "--out", out], out

    def check(self, op, rc: int, out_path: str) -> dict:
        """Op outcome: trials 1, failed/skipped flags, and any problems."""
        if rc != 0:
            return {"ops": 1, "failed": 1, "skipped": 0, "problems": [f"exit code {rc}"]}
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        failed, skipped, problems = check_report(report, op[0])
        return {"ops": 1, "failed": int(failed), "skipped": int(skipped), "problems": problems}


class VerifyWorkload:
    """``normaloid verify --suite all --trials 15``, one command per round.

    An op, for throughput and latency, is one suite trial.  BENCHMARK.json
    does not list this workload: its metrics do not repeat from run to run
    (see README.md), but a traced run of it is the only one that measures
    the harness, fixtures and transforms layers.
    """

    name = "verify-suites"
    sizes = VERIFY_SIZES
    min_rounds = 2

    def plan(self, seed: int, round_index: int) -> list:
        return [("verify", VERIFY_TRIALS, sub_seed(seed, round_index) % 2**31)]

    def prepare(self, gen, save_matrix, op, workdir: str, index: int) -> tuple:
        _, trials, vseed = op
        out = os.path.join(workdir, f"v{index}.json")
        return ["verify", "--suite", "all", "--trials", str(trials), "--seed", str(vseed),
                "--out", out], out

    def check(self, op, rc: int, out_path: str) -> dict:
        """Failed trials are suite failures; a bad exit fails the whole command."""
        n_trials = op[1] * SUITE_COUNT
        if rc not in (0, 1) or not os.path.exists(out_path):
            return {"ops": n_trials, "failed": n_trials, "skipped": 0, "problems": [f"exit code {rc}"]}
        with open(out_path, encoding="utf-8") as fh:
            results = json.load(fh)
        trials = sum(r["trials"] for r in results)
        failed = sum(r["failures"] for r in results)
        problems = [f"{r['theorem_id']}: {r['failures']} failures" for r in results if r["failures"]]
        if len(results) != SUITE_COUNT:
            problems.append(f"{len(results)} suite results, expected {SUITE_COUNT}")
        if rc != 0 and not failed:
            problems.append(f"exit code {rc} without a suite failure")
            failed = trials
        return {"ops": trials, "failed": failed,
                "skipped": sum(r["skipped"] for r in results), "problems": problems}


# min_rounds fixes the number of calls a run makes as long as that many
# rounds take longer than --seconds, so the tail percentile (set by the
# sample count) stays put from run to run; faster code runs more rounds.
WORKLOADS = {
    "classify-members": ClassifyWorkload(
        "classify-members", MEMBER_SIZES, MEMBER_KINDS, rotate=True, min_rounds=4),
    "classify-nonmembers": ClassifyWorkload(
        "classify-nonmembers", NONMEMBER_SIZES, NONMEMBER_KINDS, rotate=False, min_rounds=8),
    "verify-suites": VerifyWorkload(),
}
