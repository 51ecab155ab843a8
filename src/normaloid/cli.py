"""Command-line front end.

Subcommands: classify a matrix file, run theorem suites, generate class
members, scan the pencil's minimum eigenvalue over a lambda grid, and
list the bundled fixtures.  All file outputs are UTF-8 with LF endings
and byte-stable for fixed inputs, seeds, and flags.

Exit codes: 0 success / all suites pass, 1 suite failure or fixture
mismatch, 2 input or usage error, 3 numerical failure or out of memory.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .classes import DEFAULT_K_GRID, DEFAULT_P_GRID, DEFAULT_R_GRID, classify
from .config import PROFILES, ToleranceConfig, from_env
from .errors import FixtureMismatch, NumericalFailure, UsageError
from .fixtures import fixture_registry, load_fixtures
from .generators import GENERATOR_CLASSES, generate
from .harness import THEOREM_IDS, run_all, run_suite
from .matrixio import dumps_json, dumps_matrix, gc_paused, load_matrix, save_matrix
from .reference import pencil_scan


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_classify(args, cfg: ToleranceConfig) -> int:
    t = load_matrix(args.matrix)
    report = classify(
        t,
        p_list=args.p,
        r_list=args.r,
        k_list=args.k,
        cfg=cfg,
    )
    # the witness vectors' [re, im] lists are freed before a collection could count them
    with gc_paused():
        text = dumps_json(report.to_json_dict()) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_verify(args, cfg: ToleranceConfig) -> int:
    # fixtures gate the run: a tampered fixture is itself a failure
    load_fixtures(cfg)
    if args.suite == "all":
        results = run_all(args.trials, args.seed, cfg)
    else:
        results = [run_suite(args.suite, args.trials, args.seed, cfg)]
    text = dumps_json([r.to_json_dict() for r in results]) + "\n"
    _write_text(args.out, text)
    failed = False
    for r in results:
        status = "PASS" if r.failures == 0 else "FAIL"
        failed = failed or r.failures > 0
        sys.stderr.write(
            f"{status} {r.theorem_id}: trials={r.trials} failures={r.failures} "
            f"skipped={r.skipped}\n"
        )
    return 1 if failed else 0


def cmd_generate(args, cfg: ToleranceConfig) -> int:
    t = generate(args.class_id, args.n, args.seed, args.rank)
    if args.out is None:
        sys.stdout.write(dumps_matrix(t))
    else:
        save_matrix(args.out, t)
    return 0


def cmd_pencil_scan(args, cfg: ToleranceConfig) -> int:
    lams, minima = pencil_scan(load_matrix(args.matrix), args.p, args.r, args.points, cfg)
    lines = ["lambda,min_eig"] + [f"{lam!r},{w!r}" for lam, w in zip(lams.tolist(), minima.tolist())]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_fixtures(args, cfg: ToleranceConfig) -> int:
    rows = [
        {
            "name": fx.name,
            "dimension": int(fx.matrix.shape[0]),
            "provenance": fx.provenance,
        }
        for fx in fixture_registry()
    ]
    _write_text(args.out, dumps_json(rows) + "\n")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="normaloid",
        description="Membership tests for the normaloid operator hierarchy.",
    )
    parser.add_argument(
        "--tolerance",
        choices=sorted(PROFILES),
        default="default",
        help="tolerance profile (individual knobs via NORMALOID_* env vars)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify a matrix JSON file")
    p_cls.add_argument("matrix")
    p_cls.add_argument("--p", type=float, nargs="+", default=list(DEFAULT_P_GRID))
    p_cls.add_argument("--r", type=float, nargs="+", default=list(DEFAULT_R_GRID))
    p_cls.add_argument("--k", type=int, nargs="+", default=list(DEFAULT_K_GRID))
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run theorem property suites")
    p_ver.add_argument("--suite", choices=("all",) + THEOREM_IDS, default="all")
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="generate a member of a class")
    p_gen.add_argument("--class", dest="class_id", required=True,
                       choices=GENERATOR_CLASSES)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--rank", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_scan = sub.add_parser(
        "pencil-scan", help="minimum pencil eigenvalue over a lambda grid"
    )
    p_scan.add_argument("matrix")
    p_scan.add_argument("--p", type=float, default=1.0)
    p_scan.add_argument("--r", type=float, default=1.0)
    p_scan.add_argument("--points", type=int, default=50)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_pencil_scan)

    p_fix = sub.add_parser("fixtures", help="list the bundled fixture registry")
    p_fix.add_argument("--out", default=None)
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; its code is 2 on usage errors
        return int(exc.code) if exc.code else 0
    try:
        cfg = from_env(args.tolerance)
        return args.func(args, cfg)
    except FixtureMismatch as exc:
        sys.stderr.write(f"fixture mismatch: {exc}\n")
        return 1
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    # a float or an array that does not fit (||T|| itself, generate --n
    # 100000000) is a numerical failure too
    except (NumericalFailure, OverflowError, MemoryError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
