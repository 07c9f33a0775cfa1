import json
from dataclasses import astuple
from itertools import combinations

import pytest

import coded_pir as cp
from coded_pir import cli
from conftest import FACTORIES, cli_argv


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_prototype(capsys):
    code, out, _ = run(["rate", "--variant", "prototype", "--n", "4", "--k", "2",
                        "--t", "2", "--m", "3"], capsys)
    assert code == 0
    assert "36/91" in out


def test_rate_byzantine(capsys):
    code, out, _ = run(["rate", "--variant", "byzantine", "--n", "8", "--b", "1",
                        "--k", "2", "--t", "2", "--m", "2"], capsys)
    assert code == 0
    assert "7/27" in out


def test_rate_infeasible_robust_exits_2(capsys):
    code, _, err = run(["rate", "--variant", "robust", "--n", "6", "--s", "3",
                        "--k", "2", "--t", "2", "--m", "2"], capsys)
    assert code == 2
    assert "C(N-S,K) > C(N,K) - C(N-T,K)" in err


def test_simulate_robust_sweep(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run(["simulate", "--variant", "robust", "--n", "6", "--s", "1",
                        "--k", "2", "--t", "2", "--m", "2", "--sweep-adversaries",
                        "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["closed_form"] == "8/19"
    assert len(doc["runs"]) == 6
    assert all(r["achieved"] == "8/19" and r["exact_recovery"] for r in doc["runs"])


def test_simulate_multifile(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(["simulate", "--variant", "multifile", "--n", "4", "--k", "2",
                      "--t", "2", "--m", "3", "--p", "2", "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["closed_form"] == "12/17"
    assert doc["all_exact"]


def test_simulate_byzantine_over_budget_exits_1(capsys):
    code, out, _ = run(["simulate", "--variant", "byzantine", "--n", "8", "--b", "1",
                        "--k", "2", "--t", "2", "--m", "2",
                        "--adv-byzantine", "0,1"], capsys)
    assert code == 1
    doc = json.loads(out.splitlines()[0])
    assert doc["all_exact"] is False


def test_audit_prototype(capsys):
    code, out, err = run(["audit", "--variant", "prototype", "--n", "4", "--k", "2",
                          "--t", "2", "--m", "3"], capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["all_pass"] and len(doc["audits"]) == 6
    assert all(a["per_file_rank"] == [180, 180, 180] for a in doc["audits"])


def test_audit_pattern_all_pairs_warns_but_passes(tmp_path, capsys):
    pattern_file = tmp_path / "pentagon.json"
    pattern_file.write_text("[[0,1],[1,2],[2,3],[3,4],[0,4]]")
    family_file = tmp_path / "triples.json"
    family_file.write_text("[[0,1,2],[1,2,3],[2,3,4],[0,3,4],[0,1,4]]")
    code, out, err = run(["audit", "--variant", "pattern", "--n", "5", "--k", "3",
                          "--m", "2", "--pattern", str(pattern_file),
                          "--family", str(family_file), "--all-pairs"], capsys)
    assert code == 0
    assert "warning" in err
    doc = json.loads(out.splitlines()[0])
    assert doc["all_pass"]
    assert len(doc["outside_pattern"]) == 5
    assert all(not a["pass"] for a in doc["outside_pattern"])


def test_audit_all_pairs_batch_matches_per_set_calls(tmp_path, capsys):
    # ``--all-pairs`` audits the pairs outside the pattern in one batch,
    # through ``audit_report``; each must read as the one-set call on the
    # same plan, and each failing one must be warned about by name.
    params = FACTORIES["pattern"](seed=3)
    code, out, err = run(cli_argv("audit", params, tmp_path) + ["--all-pairs"], capsys)
    plan = cp.build_plan(params)
    outside = [s for s in combinations(range(params.n_servers), 2) if s not in plan.maximal_collusion_sets()]
    got = json.loads(out.splitlines()[0])["outside_pattern"]
    assert code == 0 and got == cp.audit_report(plan, outside)["outside_pattern"]
    per_set = [cp.collusion_view_ranks(plan, s) for s in outside]
    assert [(tuple(a["collusion_set"]), tuple(a["per_file_rank"]), a["expected_rank"], a["pass"]) for a in got] == [
        astuple(a) for a in per_set
    ]
    warned = [f"warning: non-pattern set {a.collusion_set} distinguishes files (ranks {a.per_file_rank}); "
              "the pattern does not protect it" for a in per_set if not a.passed]
    assert len(warned) == 5 and [line for line in err.splitlines() if line.startswith("warning")] == warned


def test_pattern_opt_pentagon(tmp_path, capsys):
    pattern_file = tmp_path / "pentagon.json"
    pattern_file.write_text("[[0,1],[1,2],[2,3],[3,4],[0,4]]")
    code, out, _ = run(["pattern-opt", "--pattern", str(pattern_file), "--k", "3",
                        "--n", "5"], capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["ratio"] == "4/5"
    assert doc["rate"] == "5/9"
    assert doc["b"] == 5 and doc["delta"] == 4


def test_pattern_opt_all_pairs_pattern(tmp_path, capsys):
    pattern_file = tmp_path / "pairs.json"
    pattern_file.write_text("[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]")
    code, out, _ = run(["pattern-opt", "--pattern", str(pattern_file), "--k", "2",
                        "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["ratio"] == "5/6"
    # matches the uniform-collusion rate at these parameters
    assert doc["rate"] == "6/11"


def test_pattern_opt_infeasible_exits_2(tmp_path, capsys):
    pattern_file = tmp_path / "blanket.json"
    pattern_file.write_text("[[0,1,2,3]]")
    code, _, err = run(["pattern-opt", "--pattern", str(pattern_file), "--k", "2",
                        "--n", "4"], capsys)
    assert code == 2


def test_bounds_table(tmp_path, capsys):
    out_file = tmp_path / "bounds.json"
    code, out, _ = run(["bounds", "--n", "4", "--t", "2", "--m", "3",
                        "--out", str(out_file)], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    table = {row["p_files"]: row for row in doc["table"]}
    assert table[2]["bound"] == "4/5"
    assert table[2]["scheme_rate"] == "4/5" and table[2]["meets_bound"]
    assert table[3]["bound"] == "1/1"


def test_bounds_requires_one_case(capsys):
    code, _, err = run(["bounds", "--n", "4", "--m", "3"], capsys)
    assert code == 2


def test_build_deterministic(tmp_path, capsys):
    args = ["build", "--variant", "robust", "--n", "6", "--s", "1", "--k", "2",
            "--t", "2", "--m", "2", "--seed", "5"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    from coded_pir import plan_from_json, validate_plan

    plan = plan_from_json(f1.read_text())
    assert validate_plan(plan) == []


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    args = ["simulate", "--variant", "byzantine", "--n", "8", "--b", "1", "--k", "2",
            "--t", "2", "--m", "2", "--seed", "9", "--corruption-seeds", "2"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_remaining_examples(tmp_path, capsys):
    prototype = ["simulate", "--variant", "prototype", "--n", "4", "--k", "2",
                 "--t", "2", "--m", "3"]
    code, out, _ = run(prototype, capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["closed_form"] == "36/91"

    byzantine = ["simulate", "--variant", "byzantine", "--n", "8", "--b", "1",
                 "--k", "2", "--t", "2", "--m", "2"]
    code, out, _ = run(byzantine, capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["closed_form"] == "7/27"

    pattern_file = tmp_path / "pentagon.json"
    pattern_file.write_text("[[0,1],[1,2],[2,3],[3,4],[0,4]]")
    pattern = ["simulate", "--variant", "pattern", "--n", "5", "--k", "3", "--m", "2",
               "--pattern", str(pattern_file)]
    code, out, _ = run(pattern, capsys)
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["closed_form"] == "5/9" and doc["all_exact"]


# The one-line stderr summary of ``build`` on the five worked examples.
BUILD_SUMMARIES = {
    "prototype": "plan: variant=prototype alpha=5 beta=1 L=216 blocks=91 queries=546",
    "robust": "plan: variant=robust alpha=9 beta=1 L=100 blocks=19 queries=285",
    "byzantine": "plan: variant=byzantine alpha=13 beta=1 L=196 blocks=27 queries=756",
    "multifile": "plan: variant=multifile alpha=5 beta=1 L=36 blocks=17 queries=102",
    "pattern": "plan: variant=pattern alpha=4 beta=1 L=25 blocks=9 queries=45",
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_build_summary_pinned(name, tmp_path, capsys):
    argv = cli_argv("build", FACTORIES[name](), tmp_path) + ["--out", str(tmp_path / "plan.json")]
    assert run(argv, capsys) == (0, "", BUILD_SUMMARIES[name] + "\n")
