"""Heavier parameter sets than the worked examples: multiple faults,
beta > 1 groups under erasure, the 2P = M scope boundary, and patterns
whose collusion sets differ in size."""

from fractions import Fraction
from itertools import combinations

import numpy as np

import coded_pir as cp


def test_robust_two_absent_servers_beta_two():
    # (N=8, S=2, K=2, T=2, M=2) forces alpha=13, beta=2: groups carry two
    # mixed blocks, and decoding completes with any two servers silent
    params = cp.SchemeParams(variant="robust", n_servers=8, code_dim=2, n_files=2,
                             desired=(0,), collusion_size=2, s_robust=2, seed=8)
    plan = cp.build_plan(params)
    assert (plan.layout.ab.alpha, plan.layout.ab.beta) == (13, 2)
    assert plan.l_rows == 225
    assert cp.validate_plan(plan) == []

    db = cp.database_for_plan(plan, seed=9)
    downloads = set()
    for absent in [(0, 1), (2, 5), (6, 7), (0, 7), (3, 4)]:
        tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=absent))
        out = cp.reconstruct(plan, tr)
        assert np.array_equal(out[0], db.files[0]), absent
        assert cp.achieved_rate(plan, tr) == Fraction(75, 196)
        downloads.add(tr.downloaded_symbols)
    # download volume is placement-invariant
    for absent in combinations(range(8), 2):
        tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=absent))
        downloads.add(tr.downloaded_symbols)
    assert downloads == {28 * 6 * 7}

    audits = cp.full_privacy_sweep(plan)
    assert all(a.passed for a in audits)
    assert audits[0].expected_rank == 15 * 13  # (alpha+beta)^(M-1) * (C(N,K)-C(N-T,K))


def test_byzantine_two_liars():
    params = cp.SchemeParams(variant="byzantine", n_servers=12, code_dim=2, n_files=2,
                             desired=(0,), collusion_size=2, b_byzantine=2, seed=10)
    plan = cp.build_plan(params)
    assert (plan.layout.ab.alpha, plan.layout.ab.beta) == (7, 1)
    assert plan.l_rows == 192
    assert cp.validate_plan(plan) == []

    db = cp.database_for_plan(plan, seed=11)
    for liars, corruption_seed in [((0, 1), 0), ((4, 9), 1), ((10, 11), 2)]:
        adv = cp.Adversary(byzantine_set=liars, seed=corruption_seed)
        tr = cp.run_session(plan, db, adversary=adv)
        out = cp.reconstruct(plan, tr)
        assert np.array_equal(out[0], db.files[0]), liars
        assert cp.achieved_rate(plan, tr) == cp.closed_form_rate(params)

    # two liars touch at most 2 * (C(N,K) - C(N-B,K)) symbols per block;
    # the per-block code corrects exactly that many
    assert plan.layout.small_code.max_errors == 21
    record = cp.recovered_atoms(
        plan, cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(0, 1), seed=3))
    )
    flags = list(record.flags[0].values())
    per_block_liar_hits = 21  # symbols meeting server 0 or 1: C(12,2)-C(10,2)
    assert flags.count("error-corrected") == per_block_liar_hits * 8


def test_multifile_at_scope_boundary_2p_equals_m():
    params = cp.SchemeParams(variant="multifile", n_servers=4, code_dim=2, n_files=4,
                             desired=(0, 2), collusion_size=2, seed=12)
    plan = cp.build_plan(params)
    assert len(plan.layout.blocks) == 4 * 5 + 2
    assert cp.validate_plan(plan) == []
    db = cp.database_for_plan(plan, seed=13)
    out = cp.reconstruct(plan, cp.run_session(plan, db))
    for f in params.desired:
        assert np.array_equal(out[f], db.files[f])
    audits = cp.full_privacy_sweep(plan)
    assert all(a.passed for a in audits)


def test_pattern_with_mixed_size_collusion_sets():
    pattern = cp.CollusionPattern(((0, 1, 2), (3,), (2, 4)))
    family, ev = cp.optimize_family(pattern, 2, 5)
    assert ev.b > ev.delta
    params = cp.SchemeParams(variant="pattern", n_servers=5, code_dim=2, n_files=2,
                             desired=(0,), pattern=pattern, family=family, seed=14)
    plan = cp.build_plan(params)
    assert cp.validate_plan(plan) == []
    db = cp.database_for_plan(plan, seed=15)
    out = cp.reconstruct(plan, cp.run_session(plan, db))
    assert np.array_equal(out[0], db.files[0])
    for audit in cp.full_privacy_sweep(plan):
        assert audit.passed, audit
    assert cp.achieved_rate(plan, cp.run_session(plan, db)) == cp.closed_form_rate(params)


def test_degenerate_k1_robust_and_byzantine():
    # K = 1: every symbol lives on a single server, storage is replication
    robust = cp.SchemeParams(variant="robust", n_servers=4, code_dim=1, n_files=2,
                             desired=(0,), collusion_size=2, s_robust=1, seed=16)
    plan = cp.build_plan(robust)
    assert plan.l_rows == 9 and cp.validate_plan(plan) == []
    db = cp.database_for_plan(plan, seed=17)
    for absent in range(4):
        tr = cp.run_session(plan, db, adversary=cp.Adversary(robust_set=(absent,)))
        out = cp.reconstruct(plan, tr)
        assert np.array_equal(out[0], db.files[0])

    byz = cp.SchemeParams(variant="byzantine", n_servers=5, code_dim=1, n_files=2,
                          desired=(0,), collusion_size=2, b_byzantine=1, seed=18)
    plan = cp.build_plan(byz)
    assert cp.validate_plan(plan) == []
    db = cp.database_for_plan(plan, seed=19)
    for liar in range(5):
        tr = cp.run_session(plan, db, adversary=cp.Adversary(byzantine_set=(liar,), seed=liar))
        out = cp.reconstruct(plan, tr)
        assert np.array_equal(out[0], db.files[0])


def test_zero_fault_budgets_degenerate_to_consistency_checks():
    # S = 0 and B = 0 collapse the per-block codes to full dimension:
    # decoding becomes exact solving plus consistency verification
    for kwargs in (dict(variant="robust", s_robust=0), dict(variant="byzantine", b_byzantine=0)):
        params = cp.SchemeParams(n_servers=4, code_dim=2, n_files=2, desired=(0,),
                                 collusion_size=2, seed=20, **kwargs)
        plan = cp.build_plan(params)
        assert plan.layout.small_code.n == plan.layout.small_code.k == 6
        assert cp.validate_plan(plan) == []
        db = cp.database_for_plan(plan, seed=21)
        out = cp.reconstruct(plan, cp.run_session(plan, db))
        assert np.array_equal(out[0], db.files[0])
        assert cp.achieved_rate(plan, cp.run_session(plan, db)) == cp.closed_form_rate(params)
