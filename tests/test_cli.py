import json
import os
import subprocess
import sys

import numpy as np
import pytest

import normaloid.fixtures as fixtures_mod
from normaloid import cli
from normaloid.cli import main
from normaloid.errors import (
    ConvergenceFailure,
    FixtureMismatch,
    InvalidParameter,
    MatrixFormatError,
    NoAscentWithinBound,
    NonHermitianInput,
    NormaloidError,
    NotBinormal,
    NotPositive,
    NotUnit,
    NumericalFailure,
    PremiseViolated,
    UnknownTheoremId,
    UsageError,
)
from normaloid.fixtures import get_fixture
from normaloid.matrixio import load_matrix, save_matrix
from normaloid.reference import FAMILY_FORMS


@pytest.fixture()
def swap3_file(tmp_path):
    path = tmp_path / "swap3.json"
    save_matrix(path, get_fixture("normaloid_swap3").matrix)
    return str(path)


def _clean_env():
    env = dict(os.environ)
    for key in list(env):
        if key.startswith("NORMALOID_"):
            del env[key]
    return env


def test_classify_stdout_json(swap3_file, capsys):
    assert main(["classify", swap3_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dimension"] == 3
    assert rep["operator_norm"] == pytest.approx(2.0, abs=1e-12)
    verdicts = {
        (v["class_id"], json.dumps(v.get("parameters"), sort_keys=True)): v["member"]
        for v in rep["verdicts"]
    }
    assert verdicts[("normaloid", "null")] is True
    assert verdicts[("normal", "null")] is False


def test_classify_out_file(swap3_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["classify", swap3_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["spectral_radius"] == pytest.approx(2.0, abs=1e-12)
    raw = out.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw


def test_classify_encodes_its_report_with_no_garbage_collection(tmp_path, monkeypatch):
    # the report of a 64 x 64 random matrix turns each witness vector into
    # 64 [re, im] lists; at a gen-0 threshold of 10 the collector starts
    # while classify decides, and from a collection at classify's return
    # none starts until the report is encoded as text
    import gc

    from normaloid.generators import gen_random

    path, out = tmp_path / "m.json", tmp_path / "r.json"
    save_matrix(path, gen_random(64, 3))
    starts, marks = [], {}

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def classify(*args, **kwargs):
        report = real_classify(*args, **kwargs)
        gc.collect()
        marks["classified"] = len(starts)
        return report

    def dumps_json(obj):
        text = real_dumps(obj)
        marks["encoded"] = len(starts)
        return text

    real_classify, real_dumps = cli.classify, cli.dumps_json
    monkeypatch.setattr(cli, "classify", classify)
    monkeypatch.setattr(cli, "dumps_json", dumps_json)
    threshold = gc.get_threshold()
    assert gc.isenabled()
    gc.callbacks.append(count)
    gc.set_threshold(10)
    try:
        assert main(["classify", str(path), "--out", str(out)]) == 0
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert gc.isenabled() and marks["classified"] > 0
    assert marks["encoded"] == marks["classified"]
    assert len(json.loads(out.read_text())["witnesses"]) > 1


def test_classify_takes_no_seed(swap3_file, tmp_path, capsys):
    # classify's decisions draw no random numbers, so it has no --seed and
    # its report no seed
    assert main(["classify", swap3_file, "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["classify", swap3_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["report_version"] == 2
    assert set(rep["parameters"]) == {"p_list", "r_list", "k_list"}


def test_classify_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "data": [[1')
    assert main(["classify", str(bad)]) == 2


def test_classify_missing_file_exit_2(tmp_path):
    assert main(["classify", str(tmp_path / "ghost.json")]) == 2


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "--suite", "BOGUS"]) == 2
    assert main([]) == 2
    assert main(["generate", "--class", "normal"]) == 2  # missing --n


def test_generate_then_classify(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main([
        "generate", "--class", "quasinormal-partial-isometry",
        "--n", "4", "--rank", "2", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    t = load_matrix(out)
    assert t.shape == (4, 4)
    assert main(["classify", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    members = {v["class_id"]: v["member"] for v in rep["verdicts"]
               if not v.get("parameters")}
    assert members["quasinormal"] is True
    assert members["partial-isometry"] is True


def test_generate_invalid_rank_exit_2():
    assert main(["generate", "--class", "normal", "--n", "4", "--rank", "5"]) == 2


def test_generate_too_large_for_memory_exit_3(capsys):
    # the first array asks for 8e16 bytes (71 PiB), past the address
    # space, so the request fails at once and nothing is allocated
    assert main(["generate", "--class", "normal", "--n", "100000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def test_generate_one_by_one(capsys):
    assert main(["generate", "--class", "normal", "--n", "1", "--seed", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 1


def test_verify_single_suite_pass(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = main([
        "verify", "--suite", "TWO_BY_TWO_NORMALOID",
        "--trials", "50", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    results = json.loads(out.read_text())
    assert len(results) == 1
    assert results[0]["theorem_id"] == "TWO_BY_TWO_NORMALOID"
    assert results[0]["failures"] == 0
    assert results[0]["rng"] == "numpy-PCG64"


def test_verify_tampered_fixture_exit_1(monkeypatch, tmp_path):
    # corrupt one registry expectation: detection must gate the run
    tampered = []
    for name, members, provenance in fixtures_mod._REGISTRY:
        if name == "identity3":
            members = members - {"unitary"}
        tampered.append((name, members, provenance))
    monkeypatch.setattr(fixtures_mod, "_REGISTRY", tampered)
    code = main([
        "verify", "--suite", "TWO_BY_TWO_NORMALOID",
        "--trials", "10", "--seed", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1


def test_pencil_scan_golden_against_diagonal_formula(tmp_path):
    # independent oracle: for diagonal T the pencil is diagonal, so each
    # row's minimum eigenvalue is the entrywise scalar expression minimum
    d = np.array([1.5, 0.8, 0.2])
    t = np.diag(d).astype(complex)
    tfile = tmp_path / "diag.json"
    save_matrix(tfile, t)
    out = tmp_path / "scan.csv"
    p, r, points = 0.5, 2.0, 50
    code = main([
        "pencil-scan", str(tfile), "--p", str(p), "--r", str(r),
        "--points", str(points), "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,min_eig"
    assert len(lines) == points + 1
    norm_sq = float(np.max(d) ** 2)
    grid = np.logspace(np.log10(norm_sq) - 6.0, np.log10(norm_sq), points)
    a = d**2  # T*T diagonal
    b = d**2  # TT* diagonal
    for line, lam in zip(lines[1:], grid):
        lam_s, eig_s = line.split(",")
        assert float(lam_s) == pytest.approx(lam, rel=1e-12)
        expected = np.min(r * a**p * b**r - (p + r) * lam**p * b**r
                          + p * lam ** (p + r))
        assert float(eig_s) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [5, 150])
@pytest.mark.parametrize("p, r", [(0.25, 0.75), (3.0, 1.0)])
def test_pencil_scan_lines_are_the_builders_single_pencils(tmp_path, n, p, r):
    # pencil-scan stacks its pencils into eigvalsh calls (two at n = 150);
    # each line is, by repr, the bottom eigenvalue of the one pencil the
    # builder gives for that lambda alone, on T's raw-scale forms
    from normaloid.generators import gen_random
    from normaloid.linalg import snapshot
    from normaloid.reference import modulus_adjoint_power, modulus_power, pencil_stacks

    t = gen_random(n, 7 + n)
    path, out = tmp_path / "t.json", tmp_path / "scan.csv"
    save_matrix(path, t)
    assert main(["pencil-scan", str(path), "--p", str(p), "--r", str(r), "--out", str(out)]) == 0
    s = snapshot(load_matrix(str(path)))
    assert s.normality_defect > 1e-3 and np.abs(t - np.diag(np.diag(t))).max() > 0.0
    mod_r = s.norm**r * modulus_adjoint_power(s, r)
    a = mod_r @ (s.norm ** (2.0 * p) * modulus_power(s, 2.0 * p)) @ mod_r
    b = s.norm ** (2.0 * r) * modulus_adjoint_power(s, 2.0 * r)
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,min_eig" and len(lines) == 51
    for line in lines[1:]:
        lam = float(line.split(",")[0])
        (m,) = pencil_stacks(a, b, p, r, [lam])
        assert line == f"{lam!r},{float(np.linalg.eigvalsh(m[0])[0])!r}"


def test_pencil_scan_zero_matrix_rows_positive(tmp_path):
    tfile = tmp_path / "zero.json"
    save_matrix(tfile, np.zeros((2, 2)))
    out = tmp_path / "scan.csv"
    assert main(["pencil-scan", str(tfile), "--points", "10", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for lam_s, eig_s in rows:
        lam = float(lam_s)
        assert float(eig_s) == pytest.approx(lam**2, rel=1e-12)  # p=r=1


def test_fixtures_listing(capsys):
    assert main(["fixtures"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) >= 7
    assert {"name", "dimension", "provenance"} <= set(rows[0])


def test_tolerance_profile_flag(swap3_file, capsys):
    assert main(["--tolerance", "strict", "classify", swap3_file]) == 0
    assert main(["--tolerance", "loose", "classify", swap3_file]) == 0


def test_env_override_rejected_value(swap3_file, monkeypatch):
    monkeypatch.setenv("NORMALOID_PSD_TOL", "not-a-number")
    assert main(["classify", swap3_file]) == 2


def _run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "normaloid", *args],
        capture_output=True, env=env, timeout=600,
    )


def test_subprocess_entry_point_and_byte_stability(tmp_path, swap3_file):
    env = _clean_env()
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = _run_cli(
            ["verify", "--suite", "SCALAR_ROOT", "--trials", "40",
             "--seed", "1", "--out", str(out)],
            env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    assert out1.read_bytes() == out2.read_bytes()

    # classify golden byte-stability on the same input
    r1 = _run_cli(["classify", swap3_file], env)
    r2 = _run_cli(["classify", swap3_file], env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_classify_in_one_process_writes_what_a_fresh_process_writes(tmp_path, capsys):
    # classify keeps what its grids and the matrix size decide for the
    # process's life; a run of calls at other grids and sizes, a rejected
    # grid among them, leaves each report byte for byte what a fresh
    # process, with nothing kept, writes for the same command
    from normaloid import classes, pencil
    from normaloid.generators import gen_binormal, gen_normal, gen_random

    files = {}
    for name, t in (("n4", gen_normal(4, 1)), ("b5", gen_binormal(5, 3)), ("r16", gen_random(16, 2))):
        files[name] = str(tmp_path / f"{name}.json")
        save_matrix(files[name], t)
    commands = [
        ["classify", files["n4"]],
        ["classify", files["b5"], "--p", "0.25", "3", "--r", "0.75", "--k", "3", "7"],
        ["classify", files["r16"]],
        ["classify", files["n4"], "--p", "0"],
        ["classify", files["n4"], "--k", "0"],
        ["classify", files["n4"]],
    ]
    classes._family_grid.cache_clear()
    pencil._row_plan.cache_clear()
    capsys.readouterr()
    outputs = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"in{i}.json"
        rc = main(argv + ["--out", str(out)])
        if "--p" in argv and argv[argv.index("--p") + 1] == "0":
            assert rc == 2 and not out.exists()
            assert capsys.readouterr().err.startswith("error: absolute-pr-paranormal: ")
            continue
        assert rc == 0
        outputs.append((argv, out.read_bytes()))
    assert outputs[0][1] == outputs[-1][1]
    env = _clean_env()
    for i, (argv, text) in enumerate(outputs[:-1]):
        fresh = tmp_path / f"fresh{i}.json"
        proc = _run_cli(argv + ["--out", str(fresh)], env)
        assert proc.returncode == 0, proc.stderr.decode()
        assert fresh.read_bytes() == text, argv


def test_env_override_applies_in_subprocess(tmp_path, swap3_file):
    env = _clean_env()
    env["NORMALOID_PSD_TOL"] = "1e-8"
    proc = _run_cli(["classify", swap3_file], env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["operator_norm"] == pytest.approx(2.0, abs=1e-12)
    hyponormal = next(v for v in rep["verdicts"] if v["class_id"] == "hyponormal")
    assert hyponormal["threshold"] == 1e-8


def test_classify_does_not_import_scipy_stats(swap3_file):
    # scipy.stats takes about a second to import and only the dense
    # oracle needs it, so the CLI's cold start must not pay for it
    code = (
        "import sys\n"
        "from normaloid import cli\n"
        f"assert cli.main(['classify', {swap3_file!r}]) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_clean_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()


def test_cli_import_loads_no_scipy():
    # the reference module's sphere draw imports scipy on first use only
    code = "import sys, normaloid.cli; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_clean_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()


def test_classify_paranormal_witness_carries_lambda(swap3_file, capsys):
    assert main(["classify", swap3_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    para = next(v for v in rep["verdicts"] if v["class_id"] == "paranormal")
    assert para["member"] is False
    # swap3 / 2 maps e3 to e2 and e2 to e3 / 2: ||T e3|| = 1 and
    # ||T^2 e3|| = 1/2, so f(e3) = -3/4 at lam = ||T e3||^2 = 1
    assert para["witness"]["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert para["witness"]["value"] == pytest.approx(-0.75, abs=1e-12)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


JORDAN = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("scale", [1e80, 1e160])
def test_classify_huge_matrix_keeps_scale_invariant_verdicts(tmp_path, scale):
    from normaloid.classes import SCALE_INVARIANT_CLASSES, classify

    path = tmp_path / "big.json"
    save_matrix(path, scale * JORDAN)
    out = tmp_path / "report.json"
    assert main(["classify", str(path), "--out", str(out)]) == 0
    rep = _strict_json(out.read_text())
    assert rep["operator_norm"] == pytest.approx(scale, rel=1e-15)
    expected = [(v.class_id, v.member) for v in classify(JORDAN).verdicts
                if v.class_id in SCALE_INVARIANT_CLASSES]
    assert [(v["class_id"], v["member"]) for v in rep["verdicts"]
            if v["class_id"] in SCALE_INVARIANT_CLASSES] == expected
    unitary = next(v for v in rep["verdicts"] if v["class_id"] == "unitary")
    assert unitary["member"] is False
    if scale == 1e160:
        # ||T*T - I|| = 1e320 does not fit a float: the margin saturates
        assert unitary["margin"] == -sys.float_info.max


@pytest.mark.parametrize("scale, argv, power", [
    (1e160, [], "||T||^2"),
    (1e100, ["--p", "3"], "||T||^(2p)"),
    (1e60, ["--r", "5"], "||T||^(2r)"),
    (1e77, [], "a pencil entry"),  # ||T||^4 = 1e308 fits, 2 lam B at lam = ||T||^2 does not
], ids=["1e160", "1e100-p3", "1e60-r5", "1e77"])
def test_pencil_scan_overflow_exit_3(tmp_path, capsys, scale, argv, power):
    # T's scale overflows a power or the pencil itself: one line naming what
    # overflowed and ||T||, exit 3, and no warning on the way
    import warnings

    path = tmp_path / "big.json"
    save_matrix(path, scale * JORDAN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pencil-scan", str(path), "--points", "5", *argv]) == 3
    err = capsys.readouterr().err
    assert err == f"numerical failure: {power} overflows at ||T|| = {scale!r}\n", err


def test_pencil_scan_large_matrix_keeps_its_grid(tmp_path, capsys):
    # at 1e70 ||T||^4 = 1e280 and every pencil entry fits
    import warnings

    path = tmp_path / "large.json"
    save_matrix(path, 1e70 * JORDAN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pencil-scan", str(path), "--points", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,min_eig" and lines[1].startswith("1e+134,") and len(lines) == 6, lines


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-320])
def test_pencil_scan_tiny_matrix_exit_3(tmp_path, capsys, scale):
    # 1e-6 ||T||^2 underflows to 0 (at 1e-160, where ||T||^2 = 1e-320 is
    # subnormal) or ||T||^2 itself does: no lambda grid on T's own scale
    # exists, a numerical failure naming ||T||^2, not a usage error
    path = tmp_path / "tiny.json"
    save_matrix(path, scale * JORDAN)
    assert main(["pencil-scan", str(path), "--points", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ||T||^2 ") and err.count("\n") == 1, err


def test_pencil_scan_small_matrix_keeps_its_grid(tmp_path, capsys):
    # at 1e-150 the grid's first sample, 1e-306, is still a normal float
    path = tmp_path / "small.json"
    save_matrix(path, 1e-150 * JORDAN)
    assert main(["pencil-scan", str(path), "--points", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,min_eig" and lines[1].startswith("1e-306,") and len(lines) == 6, lines


def _error_classes(cls=NormaloidError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_maps_to_an_exit_code(monkeypatch, capsys):
    # every NormaloidError, and a float or array that does not fit, ends in
    # one stderr line and exit 1, 2 or 3 by its base class, never a traceback
    expected = {FixtureMismatch: 1, UsageError: 2, NumericalFailure: 3}
    named = {MatrixFormatError: 2, InvalidParameter: 2, UnknownTheoremId: 2, ConvergenceFailure: 3,
             NonHermitianInput: 3, NotPositive: 3, NotBinormal: 3, NotUnit: 3, PremiseViolated: 3,
             NoAscentWithinBound: 3, OverflowError: 3, MemoryError: 3}
    classes = list(_error_classes()) + [OverflowError, MemoryError]
    assert set(named) <= set(classes)
    for cls in classes:
        def fail(cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "fixture_registry", fail)
        code = main(["fixtures"])
        err = capsys.readouterr().err
        assert code in (1, 2, 3) and err.count("\n") == 1, (cls, code, err)
        want = named.get(cls) or next(c for base, c in expected.items() if issubclass(cls, base))
        assert code == want, (cls, code)


@pytest.mark.parametrize("k", [10**9, 10**18])
def test_huge_k_margins_stay_at_least_minus_one_without_warnings(tmp_path, k):
    # b(x) comes out a few ulps above 1 at a singular vector of this
    # non-normal binormal matrix; clamped to 1, b(x)^(k+1) neither
    # overflows nor pushes f = a - b^(k+1) below -1
    import warnings

    path = str(tmp_path / "m.json")
    out = tmp_path / "r.json"
    assert main(["generate", "--class", "binormal", "--n", "5", "--seed", "3", "--out", path]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["classify", path, "--k", str(k), "--out", str(out)]) == 0
    assert not caught, [str(w.message) for w in caught]
    verdicts = json.loads(out.read_text())["verdicts"]
    huge = [v for v in verdicts if v["class_id"] in ("k-paranormal", "absolute-k-paranormal")
            and v["parameters"]["k"] == k]
    assert len(huge) == 2
    assert all(v["margin"] >= -1.0 and not v["member"] for v in huge), huge


@pytest.mark.parametrize("argv", [["--r", "1e-300"], ["--p", "1e300"]], ids=" ".join)
def test_huge_gamma_on_a_normal_matrix_raises_no_warning(tmp_path, argv):
    # gamma = (p+r)/r is near 1e300: the Weyl bound clamps d to 1 before it
    # takes mu = d^(gamma-1), so a d a few ulps above 1 cannot overflow;
    # every class of the family holds for a normal T
    import warnings

    path, out = str(tmp_path / "n.json"), tmp_path / "r.json"
    assert main(["generate", "--class", "normal", "--n", "16", "--seed", "3", "--out", path]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", path, *argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    family = [v for v in report["verdicts"] if v["class_id"] in FAMILY_FORMS]
    assert report["chain_consistent"] and len(family) == 8
    assert all(v["member"] or v["marginal"] for v in family), family


def test_huge_k_power_overflow_is_a_numerical_failure(tmp_path, capsys):
    # at k = 1e18 roundoff grows (C Sigma)^(k-1) C of a unit-norm normal T
    # until it overflows: one message naming the power, and no warning
    import warnings

    path = str(tmp_path / "n.json")
    assert main(["generate", "--class", "normal", "--n", "16", "--seed", "3", "--out", path]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", path, "--k", str(10**18)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
    assert f"T_hat^{10**18} " in err, err


@pytest.mark.parametrize("points", ["-1", "0"])
def test_pencil_scan_points_below_one_is_a_usage_error(swap3_file, capsys, points):
    assert main(["pencil-scan", swap3_file, "--points", points]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


NONFINITE_ARGV = [
    ["classify", "--p", "inf"],
    ["classify", "--k", "1", "--p", "1e308"],  # 2p overflows
    ["classify", "--p", "1", "--r", "1e-320"],  # gamma = (p+r)/r overflows
    ["classify", "--r", "inf"],
    ["classify", "--p", "nan"],
    ["pencil-scan", "--p", "inf"],
    ["pencil-scan", "--r", "1e308"],
    ["pencil-scan", "--p", "1", "--r", "1e-320"],
]


@pytest.mark.parametrize(
    "matrix, argv",
    [pytest.param("swap3", argv, id=" ".join(argv)) for argv in NONFINITE_ARGV]
    + [pytest.param("nilpotent3", argv, id="nilpotent3 " + " ".join(argv)) for argv in NONFINITE_ARGV],
)
def test_nonfinite_exponents_are_usage_errors_without_warnings(swap3_file, tmp_path, capsys, matrix, argv):
    # an infinite or nan form would reach LAPACK, which warns and fails;
    # swap3 is a permutation, so normal, and the 3x3 Jordan block takes
    # the paranormal family's non-normal path
    import warnings

    path = swap3_file
    if matrix == "nilpotent3":
        path = str(tmp_path / "nilpotent3.json")
        save_matrix(path, np.eye(3, k=1, dtype=complex))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], path, *argv[1:]]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_classify_k_zero_reports_the_trivial_k_paranormal_member(swap3_file, tmp_path):
    # k-paranormal at k = 0 is ||T x|| >= ||T x||, held by every T;
    # absolute-k-paranormal needs k > 0 and is not reported at k = 0
    out = tmp_path / "r.json"
    assert main(["classify", swap3_file, "--k", "0", "2", "--out", str(out)]) == 0
    verdicts = json.loads(out.read_text())["verdicts"]
    k0 = [v for v in verdicts if v["class_id"] == "k-paranormal" and v["parameters"] == {"k": 0}]
    assert len(k0) == 1 and k0[0]["member"] and k0[0]["margin"] == 0.0, k0
    absolute = [v["parameters"] for v in verdicts if v["class_id"] == "absolute-k-paranormal"]
    assert absolute == [{"k": 2.0}], absolute


@pytest.mark.parametrize("argv, head", [
    (["--p", "0"], "error: absolute-pr-paranormal: exponents must be positive"),
    (["--r", "-1"], "error: absolute-pr-paranormal: exponents must be positive"),
    (["--k", "-1"], "error: k-paranormal: k must be a nonnegative integer"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_family_parameter_error_names_its_class(swap3_file, capsys, argv, head):
    assert main(["classify", swap3_file, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(head) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["--p", "1e-300"], ["--r", "1e300"]], ids=" ".join)
def test_gamma_that_rounds_to_one_is_a_usage_error_naming_p_and_r(swap3_file, capsys, argv):
    # each exponent is a finite positive float, but gamma = (p+r)/r rounds
    # to 1 against the other grid's values; the message names the class, p and r
    assert main(["classify", swap3_file, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: absolute-pr-paranormal: p is too small against r") and err.count("\n") == 1, err
    assert "p=" in err and "r=" in err, err


@pytest.mark.parametrize("routine", ["svd", "eigh", "eigvalsh", "eigvals"])
def test_lapack_failure_in_classify_exit_3(routine, swap3_file, tmp_path, near_normal, monkeypatch, capsys):
    # classify reaches eigh only for a semidefinite witness that no column
    # of [V W] gives: hyponormal's at distance 1e-8 from normal does not,
    # while swap3's every refuting column does
    path = swap3_file
    if routine == "eigh":
        path = str(tmp_path / "near_normal.json")
        save_matrix(path, near_normal(3, 1, 1e-8))

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} forced to fail")

    monkeypatch.setattr(np.linalg, routine, broken)
    assert main(["classify", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        b'{"n": 1, "data": [[1' + b"0" * 400 + b", 0]]}",  # int beyond the float range
        b'{"n": 1, "data": [[' + b"1" * 5000 + b", 0]]}",  # beyond int's digit limit
        b'\xff\xfe{"n": 1, "data": [[1, 0]]}',  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested too deeply to parse
    ],
    ids=["int-overflow", "int-digits", "not-utf8", "deep-nesting"],
)
@pytest.mark.parametrize("command", ["classify", "pencil-scan"])
def test_unloadable_matrix_file_exit_2(tmp_path, capsys, command, raw):
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_outputs_never_take_json_indent_path(tmp_path, monkeypatch, swap3_file):
    import json.encoder

    def slow_path(*args, **kwargs):
        raise AssertionError("json's pure-Python indent encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
    assert main(["classify", swap3_file, "--out", str(tmp_path / "r.json")]) == 0
    assert main(["verify", "--suite", "TWO_BY_TWO_NORMALOID", "--trials", "2",
                 "--out", str(tmp_path / "v.json")]) == 0
    assert main(["fixtures", "--out", str(tmp_path / "f.json")]) == 0
    assert main(["generate", "--class", "normal", "--n", "3",
                 "--out", str(tmp_path / "g.json")]) == 0


def test_every_output_is_compact_json(tmp_path, capsys, swap3_file):
    # each JSON output is the text json.dumps gives without whitespace
    # between tokens, plus a final newline, to the byte
    outputs = {
        "classify": ["classify", swap3_file],
        "verify": ["verify", "--suite", "TWO_BY_TWO_NORMALOID", "--trials", "2"],
        "fixtures": ["fixtures"],
        "generate": ["generate", "--class", "normal", "--n", "3"],
    }
    for name, argv in outputs.items():
        path = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(path)]) == 0
        assert main(argv) == 0
        for text in (path.read_text(encoding="utf-8"), capsys.readouterr().out):
            assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n", name


def test_repeated_main_calls_start_from_fresh_arguments(swap3_file, tmp_path):
    from normaloid.classes import DEFAULT_P_GRID

    out = tmp_path / "r.json"
    assert main(["classify", swap3_file, "--p", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["p_list"] == [0.5]
    assert main(["classify", swap3_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["p_list"] == list(DEFAULT_P_GRID)
    assert main(["classify"]) == 2
    assert main(["classify", swap3_file, "--out", str(out)]) == 0


def test_generate_negative_seed_exit_2(capsys):
    assert main(["generate", "--class", "normal", "--n", "3", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err


def test_verify_negative_seed_exit_2(capsys, tmp_path):
    # a negative seed would otherwise alias its absolute value's trials
    out = tmp_path / "v.json"
    for suite in ("all", "ASCENT_ONE"):
        assert main(["verify", "--suite", suite, "--trials", "2", "--seed", "-5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err
        assert not out.exists()
