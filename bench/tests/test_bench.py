"""Self-tests of the benchmark: metric coverage, miss counting, trace neutrality.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import coded_pir as cp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Shorter than any job, so that each run times exactly one job.
ONE_JOB = "0.001"


def bench(capsys, workload, trace, seed=5):
    """Run one job of the benchmark in-process; return exit code, final JSON and results file."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace),
                     "--seconds", ONE_JOB])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    stem = f"{workload}-seed{seed}-trace{trace}.json"
    return code, json.loads(last), json.loads((run.RESULTS / stem).read_text())


def _check_metrics(out, kind):
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(out["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(out["metrics"][name]["value"], float | int)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_end_to_end_metric(capsys, workload):
    code, out, report = bench(capsys, workload, 0)
    assert report["jobs"] == 1
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] >= 1
    _check_metrics(out, "end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["reference", "fault-sweep"])
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    # A traced run compares each traced job with its untraced twin and
    # counts any difference in outcomes or counts as a miss, so a correct
    # run also shows that tracing changed nothing.
    code, out, report = bench(capsys, workload, 1)
    assert code == 0 and out["correct"] and report["failures"] == []
    _check_metrics(out, "per_layer")
    assert report["absent"] == []


def test_traced_twin_that_differs_is_counted(capsys, monkeypatch):
    honest = workloads._json_round_trip

    def inflated_when_traced(res, plan):
        js, problems = honest(res, plan)
        if isinstance(res.tracer, tracing.Tracer):
            res.counts["json_bytes"] += 1
        return js, problems

    monkeypatch.setattr(workloads, "_json_round_trip", inflated_when_traced)
    code, out, report = bench(capsys, "reference", 1, seed=7)
    assert code == 1 and out["failed"] == 1
    assert report["failures"] == ["job 0: traced outcome differs from untraced"]


def test_overhead_ratio_cancels_the_second_place_advantage():
    # Whichever copy runs second takes 0.9 of the time; tracing itself adds 10%.
    pairs = [((None, 1.0), (None, 1.1 * 0.9)), ((None, 0.9), (None, 1.1)),
             ((None, 1.0), (None, 1.1 * 0.9))]
    assert run.overhead_ratio(pairs) == pytest.approx(1.1)


def test_sustained_rate_takes_the_slow_quartile_of_full_cycles():
    # Cycles of two jobs: 1 s a cycle at the sustained speed, 0.5 s in a burst;
    # the trailing partial cycle is left out.
    walls = [0.5, 0.5] * 3 + [0.25, 0.25] + [0.5]
    assert run.sustained_rate(walls, 2) == pytest.approx(2.0)
    # Shorter than two full cycles: the mean rate.
    assert run.sustained_rate([0.5, 0.25, 0.25], 2) == pytest.approx(3.0)


def test_wrong_decode_is_counted_not_fatal(capsys, monkeypatch):
    honest = cp.reconstruct

    def off_by_one(plan, transcript, *args):
        files = honest(plan, transcript, *args)
        for f in files.values():
            f[0, 0] = (f[0, 0] + 1) % plan.params.modulus
        return files

    monkeypatch.setattr(cp, "reconstruct", off_by_one)
    code, out, report = bench(capsys, "reference", 0, seed=6)
    retrievals = sum(1 for job in report["outcomes"] for what, _ in job
                     if what.endswith(" retrieve"))
    assert code == 1 and out["correct"] is False
    assert retrievals == len(workloads.REFERENCE)
    # Every retrieval misses, in the set-ups and in the job; nothing else does.
    assert out["failed"] == retrievals * (1 + run.SETUP_REPEATS)
    assert all("not bit-exact" in f for f in report["failures"])
    assert report["metrics"]["fail_rate"] == out["failed"] / out["attempted"]


@pytest.mark.parametrize("inst", workloads.REFERENCE, ids=lambda i: i.name)
def test_dense_bytes_matches_built_plan(inst):
    plan = cp.build_plan(inst.params(1))
    m, l_rows = plan.params.n_files, plan.l_rows
    held = sum(q.vector.nbytes for q in plan.queries) + sum(x.nbytes for x in plan.masks)
    assert held == len(plan.queries) * m * l_rows * 8 + m * l_rows * l_rows * 8
    assert workloads.dense_bytes(plan.params) == held


def test_memory_guard_refuses_prototype_m5():
    big = workloads.Instance("proto-m5", dict(variant="prototype", n_servers=4, code_dim=2,
                                              n_files=5, desired=(0,), collusion_size=2),
                             None, 0, 7776)
    assert workloads.dense_bytes(big.params(0)) > workloads.MEMORY_BUDGET_BYTES
    with pytest.raises(workloads.MemoryBudgetExceeded):
        workloads.check_memory([big])
    workloads.check_memory([workloads.SCALE, *workloads.REFERENCE])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a, b = workloads.FaultSweep(9), workloads.FaultSweep(9)
    assert [(k, w, adv.byzantine_set, adv.robust_set, adv.seed, e)
            for k, w, adv, e in a.placements] == \
        [(k, w, adv.byzantine_set, adv.robust_set, adv.seed, e)
         for k, w, adv, e in b.placements]
    params = workloads.BY_NAME["robust"].params(4)
    d1, d2 = (workloads.make_database(params, 100, 17) for _ in range(2))
    assert all(np.array_equal(x, y) for x, y in zip(d1.files, d2.files))
