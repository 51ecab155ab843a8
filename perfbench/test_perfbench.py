"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import child  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tr = tracing.Tracer(clock=_ticks(0.0, 1.0, 2.0, 4.0, 5.0, 9.0))
    inner = tr.wrap("linalg", "np.linalg.svd", lambda: None)

    def middle():
        inner()  # 2.0 .. 4.0

    def outer():
        wrapped_middle()  # 1.0 .. 5.0

    wrapped_middle = tr.wrap("pencil", "pencil.check", middle)
    tr.wrap("classes", "classes.is_paranormal", outer)()  # 0.0 .. 9.0
    summary = tracing.summarize(tr.spans, wall_s=10.0)
    selfs = summary["layer_self_s"]
    assert selfs["classes"] == pytest.approx(5.0)
    assert selfs["pencil"] == pytest.approx(2.0)
    assert selfs["linalg"] == pytest.approx(2.0)
    assert summary["client_s"] == pytest.approx(1.0)
    assert sum(selfs.values()) + summary["client_s"] == pytest.approx(10.0)
    assert summary["paranormal_family_s"] == pytest.approx(9.0)


def test_span_recorded_when_the_call_raises():
    tr = tracing.Tracer(clock=_ticks(0.0, 3.0))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("kernels", "kernels.boom", boom)()
    assert tr.spans == [("kernels.boom", "kernels", -1, None, 0.0, 3.0, None)]


def test_counts_are_attributed_to_the_call_in_progress():
    tr = tracing.Tracer(clock=_ticks(*range(12)))
    svd = tr.wrap("linalg", "np.linalg.svd", lambda: None)
    eigvalsh = tr.wrap("linalg", "np.linalg.eigvalsh", lambda: None)

    def paranormal():
        eigvalsh()

    check = tr.wrap("pencil", "pencil.check_paranormal", paranormal)
    svd()  # outside any call: time only
    tr.call = 0
    svd()
    check()
    tr.call = 1
    svd()
    tr.call = None
    summary = tracing.summarize(tr.spans, wall_s=20.0)
    assert summary["calls"]["0"] == {
        "linalg.svd_calls": 1, "linalg.eigvalsh_calls": 1, "pencil.grid_eigvalsh": 1}
    assert summary["calls"]["1"] == {"linalg.svd_calls": 1}


def test_tail_percentile_rule_and_sample_count():
    value, pct, n = stats.tail(range(1, 101))
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = stats.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100.0 / 11)
    assert stats.tail([3.0, 2.0]) == (2.0, 0.0, 2)
    with pytest.raises(ValueError):
        stats.tail([])


def test_scale_is_the_reference_time_over_the_mean_kernel_time():
    assert reference.scale([reference.REF_S, reference.REF_S]) == pytest.approx(1.0)
    # a host running at half speed doubles the kernel's time and halves the scale
    assert reference.scale([reference.REF_S, 3 * reference.REF_S]) == pytest.approx(0.5)


class _FakeWorkload:
    min_rounds = 2

    def plan(self, seed, round_index):
        return [("x", 2, i) for i in range(3)]

    def prepare(self, gen, save_matrix, op, workdir, index):
        return [str(index)], None

    def check(self, op, rc, out_path):
        return {"ops": 1, "failed": int(rc != 0), "skipped": 0, "problems": []}


class _FakeProgram:
    """Each call takes ``in_call[i]`` reference samples, as alarms during it would."""

    gen = save_matrix = None

    def __init__(self, sampler, in_call):
        program = self

        class cli:  # noqa: N801 - stands in for the module
            @staticmethod
            def main(argv):
                for _ in range(program.in_call[int(argv[0])]):
                    sampler.sample()
                return 0

        self.cli, self.in_call = cli, in_call


def test_each_call_is_scaled_by_the_kernel_times_during_and_around_it(monkeypatch, tmp_path):
    times = iter(reference.REF_S * k for k in (1, 3, 5, 3, 4, 8, 2, 2))
    monkeypatch.setattr(reference, "time_kernel", lambda: next(times))
    sampler = reference.Sampler(every_s=60.0)  # no alarm fires in this test
    prog = _FakeProgram(sampler, in_call=[0, 2, 0])
    out = child.run_rounds(prog, _FakeWorkload(), 1, str(tmp_path), seconds=0.0, sampler=sampler)
    assert len(sampler.times) == 8
    # round 0: 1 opens it; call 0 runs between 1 and 3, call 1's first sample;
    # call 1 takes 3 and 5 after 1; call 2 runs between 5 and 3, which closes it
    assert out["call_factors"][:3] == pytest.approx([1 / 2, 1 / 3, 1 / 4])
    # round 1: 4 opens it; call 0 runs between 4 and 8; call 1 takes 8 and 2
    # after 4, and 2 closes the round after call 2
    assert out["call_factors"][3:] == pytest.approx([1 / 6, 1 / 4, 1 / 2])
    assert out["ops"] == 6 and out["failed"] == 0
    assert out["round_s"] == pytest.approx(
        [sum(out["call_latencies"][:3]), sum(out["call_latencies"][3:])])


def test_samples_taken_during_a_call_are_not_part_of_its_latency(monkeypatch, tmp_path):
    def slow_kernel():
        time.sleep(0.05)
        return reference.REF_S

    monkeypatch.setattr(reference, "time_kernel", slow_kernel)
    sampler = reference.Sampler(every_s=60.0)
    prog = _FakeProgram(sampler, in_call=[2, 0, 0])
    out = child.run_rounds(prog, _FakeWorkload(), 1, str(tmp_path), rounds=1, sampler=sampler)
    assert sampler.paused >= 4 * 0.05
    assert max(out["call_latencies"]) < 0.04
    assert out["call_factors"] == pytest.approx([1.0, 1.0, 1.0])


def _report(member: bool, marginal: bool = False) -> dict:
    verdicts = [
        {"class_id": cid, "member": member, "marginal": marginal, "parameters": None}
        for cid in ("normal", "quasinormal", "subnormal", "hyponormal", "class-A",
                    "paranormal", "normaloid")
    ]
    verdicts += [
        {"class_id": "p-hyponormal", "member": member, "marginal": False, "parameters": {"p": 0.5}},
        {"class_id": "absolute-k-paranormal", "member": member, "marginal": False,
         "parameters": {"k": 1.0}},
        {"class_id": "absolute-pr-paranormal", "member": member, "marginal": False,
         "parameters": {"p": 1.0, "r": 1.0}},
    ]
    return {"verdicts": verdicts, "chain_consistent": True}


def test_correct_report_passes():
    assert workloads.check_report(_report(True), "normal") == (False, False, [])


def test_check_catches_a_planted_wrong_expectation():
    planted = dict(workloads.EXPECTED)
    planted["normal"] = {**planted["normal"], "paranormal": False}
    failed, skipped, problems = workloads.check_report(_report(True), "normal", planted)
    assert failed and not skipped
    assert problems == ["paranormal None: member=True, expected False"]


def test_check_catches_a_wrong_verdict_and_a_missing_class():
    report = _report(True)
    report["verdicts"] = [v for v in report["verdicts"] if v["class_id"] != "normaloid"]
    report["chain_consistent"] = False
    failed, _, problems = workloads.check_report(report, "gaussian")
    assert failed
    assert "no verdict for normaloid" in problems
    assert "normal None: member=True, expected False" in problems
    failed, _, problems = workloads.check_report(report, "hermitian")
    assert "chain_consistent is false" in problems


def test_marginal_verdict_is_skipped_not_failed():
    failed, skipped, _ = workloads.check_report(_report(False, marginal=True), "normaloid")
    assert skipped
    # 'normal' is expected False and is marginal; 'normaloid' is marginal too
    assert not failed


_DIGEST = """
import hashlib, sys
sys.path[:0] = [{here!r}, {src!r}]
import workloads
from normaloid import generators
h = hashlib.sha256()
for name, wl in sorted(workloads.WORKLOADS.items()):
    if not hasattr(wl, "kinds"):
        continue
    for r in (0, 1):
        for kind, n, seed in wl.plan(7, r):
            if n <= 16:
                h.update(workloads.make_matrix(generators, kind, n, seed).tobytes())
print(h.hexdigest())
"""


def test_seeded_inputs_are_byte_stable_across_processes():
    script = _DIGEST.format(here=HERE, src=SRC)
    digests = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}).stdout
        for _ in range(2)
    }
    assert len(digests) == 1
    from normaloid import generators

    a = workloads.make_matrix(generators, "normal", 4, workloads.sub_seed(7, 0, 0))
    b = workloads.make_matrix(generators, "normal", 4, workloads.sub_seed(8, 0, 0))
    assert a.tobytes() != b.tobytes()


def test_rounds_have_a_fixed_mix():
    members = workloads.WORKLOADS["classify-members"]
    for seed in (1, 2):
        for r in range(3):
            plan = members.plan(seed, r)
            assert [n for _, n, _ in plan] == list(workloads.MEMBER_SIZES)
            assert [k for k, _, _ in plan] == [
                workloads.MEMBER_KINDS[(r + i) % 3] for i in range(len(plan))]
    assert members.plan(1, 0) == members.plan(1, 0)
    assert members.plan(1, 0) != members.plan(2, 0)
    nonmembers = workloads.WORKLOADS["classify-nonmembers"].plan(1, 0)
    assert len(nonmembers) == len(workloads.NONMEMBER_SIZES) * len(workloads.NONMEMBER_KINDS)


_TRACED_CLASSIFY = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import tracer as tracing
from normaloid import classes, generators
t = generators.gen_nilpotent(3, 5)
plain = classes.classify(t).to_json_dict()
tr = tracing.Tracer()
tracing.install(tr)
for call in (0, 1):
    tr.call = call
    traced = classes.classify(t).to_json_dict()
    tr.call = None
summary = tracing.summarize(tr.spans, 1.0)
print(json.dumps({{"same": plain == traced,
                  "counts": tracing.exact_counts(summary, (0, 1))}}))
"""


def test_tracing_changes_no_output_and_counts_repeat():
    script = _TRACED_CLASSIFY.format(here=HERE, src=SRC)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}).stdout
    result = json.loads(out)
    assert result["same"]
    first, second = result["counts"]["0"], result["counts"]["1"]
    assert first == second
    assert first["linalg.svd_calls"] > 0 and first["pencil.decisions"] > 0
