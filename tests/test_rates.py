from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

import coded_pir as cp
from conftest import (
    byzantine_params,
    multifile_params,
    pattern_params,
    prototype_params,
    robust_params,
)
from feasible import feasible_params
from coded_pir import rates
from oracles import counted_view_ranks, dense_view_ranks, expected_view_dim


# --- closed forms ----------------------------------------------------------------


def test_closed_form_examples():
    assert cp.closed_form_rate(prototype_params()) == Fraction(36, 91)
    assert cp.closed_form_rate(robust_params()) == Fraction(8, 19)
    assert cp.closed_form_rate(byzantine_params()) == Fraction(7, 27)
    assert cp.closed_form_rate(multifile_params()) == Fraction(12, 17)
    assert cp.closed_form_rate(pattern_params()) == Fraction(5, 9)


def test_closed_form_single_file_is_prefactor():
    # with M = 1 the geometric sum is 1, leaving the prefactor alone
    assert cp.closed_form_rate(
        cp.SchemeParams(variant="prototype", n_servers=4, code_dim=2, n_files=1,
                        collusion_size=2)
    ) == 1
    assert cp.closed_form_rate(
        cp.SchemeParams(variant="byzantine", n_servers=8, code_dim=2, n_files=1,
                        collusion_size=2, b_byzantine=1)
    ) == Fraction(14, 28)


def test_closed_form_robust_k1_degenerate():
    for n in range(3, 9):
        for t in range(1, n - 1):
            for s in range(0, n - t):
                for m in range(1, 5):
                    params = cp.SchemeParams(variant="robust", n_servers=n, code_dim=1,
                                             n_files=m, collusion_size=t, s_robust=s)
                    want = cp.inverse_geometric_sum(Fraction(t, n - s), m)
                    assert cp.closed_form_rate(params) == want


def test_closed_form_monotone_decreasing_in_m():
    for factory in (prototype_params, robust_params, byzantine_params):
        base = factory()
        rates = [
            cp.closed_form_rate(
                cp.SchemeParams(
                    variant=base.variant, n_servers=base.n_servers, code_dim=base.code_dim,
                    n_files=m, collusion_size=base.collusion_size,
                    s_robust=base.s_robust, b_byzantine=base.b_byzantine,
                )
            )
            for m in range(1, 7)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def test_closed_form_rejects_bad_params():
    with pytest.raises(cp.PreconditionViolated):
        cp.closed_form_rate(
            cp.SchemeParams(variant="robust", n_servers=6, code_dim=2, n_files=2,
                            collusion_size=2, s_robust=3)
        )


# --- achieved rates -----------------------------------------------------------------


def test_achieved_rate_examples(proto_plan, robust_plan, multi_plan):
    db = cp.database_for_plan(proto_plan, seed=1)
    tr = cp.run_session(proto_plan, db)
    assert cp.achieved_rate(proto_plan, tr) == Fraction(36, 91)

    db = cp.database_for_plan(robust_plan, seed=1)
    tr = cp.run_session(robust_plan, db, adversary=cp.Adversary(robust_set=(5,)))
    assert cp.achieved_rate(robust_plan, tr) == Fraction(8, 19)

    db = cp.database_for_plan(multi_plan, seed=1)
    tr = cp.run_session(multi_plan, db)
    assert cp.achieved_rate(multi_plan, tr) == Fraction(12, 17)


def test_rate_report_match(byz_plan):
    db = cp.database_for_plan(byz_plan, seed=1)
    tr = cp.run_session(byz_plan, db, adversary=cp.Adversary(byzantine_set=(7,), seed=1))
    report = cp.rate_report(byz_plan, tr)
    assert report.match
    assert report.achieved == report.closed_form == Fraction(7, 27)


# --- privacy audits ------------------------------------------------------------------


def test_collusion_view_ranks_prototype(proto_plan):
    audit = cp.collusion_view_ranks(proto_plan, (0, 1))
    assert audit.per_file_rank == (180, 180, 180)
    assert audit.expected_rank == 180
    assert audit.passed


def test_collusion_view_ranks_byzantine(byz_plan):
    audit = cp.collusion_view_ranks(byz_plan, (2, 6))
    assert audit.per_file_rank == (182, 182)
    assert audit.passed


def test_collusion_view_ranks_multifile(multi_plan):
    audit = cp.collusion_view_ranks(multi_plan, (1, 2))
    assert audit.per_file_rank == (30, 30, 30)
    assert audit.passed


def test_collusion_view_ranks_pattern_outside_pair_fails(pattern_plan):
    audit = cp.collusion_view_ranks(pattern_plan, (0, 2))
    assert audit.per_file_rank == (25, 20)
    assert not audit.passed


def test_full_privacy_sweep_examples(proto_plan, robust_plan, pattern_plan):
    audits = cp.full_privacy_sweep(proto_plan)
    assert len(audits) == 6 and all(a.passed for a in audits)

    audits = cp.full_privacy_sweep(robust_plan)
    assert len(audits) == 15
    assert all(a.per_file_rank == (90, 90) for a in audits)

    audits = cp.full_privacy_sweep(pattern_plan)
    assert len(audits) == 5 and all(a.passed for a in audits)
    assert all(a.per_file_rank == (20, 20) for a in audits)


def test_rank_symmetry_invariant(multi_plan):
    for audit in cp.full_privacy_sweep(multi_plan):
        assert max(audit.per_file_rank) == min(audit.per_file_rank)


def test_desired_identity_invariance():
    # same seed, different desired file: identical label multiset and
    # identical per-collusion-set rank vectors
    a = cp.build_plan(prototype_params(desired=(0,)))
    b = cp.build_plan(prototype_params(desired=(1,)))
    assert sorted(len(x.label) for x in a.layout.blocks) == sorted(len(x.label) for x in b.layout.blocks)
    for t in a.maximal_collusion_sets():
        ra = cp.collusion_view_ranks(a, t)
        rb = cp.collusion_view_ranks(b, t)
        assert ra.per_file_rank == rb.per_file_rank
        assert ra.expected_rank == rb.expected_rank


def test_collusion_view_ranks_rejects_unknown_servers(pattern_plan):
    for servers in [(9,), (-1,), (0, 5), ()]:
        with pytest.raises(ValueError):
            cp.collusion_view_ranks(pattern_plan, servers)


def _assert_counts_match_dense(plan):
    """Counted ranks equal dense ranks on every nonempty server subset.

    A view's rank only grows with the server set and stops at the rank
    of the whole view.  So once a subset shows that top rank for a file,
    every superset must show it too, and the dense rank runs only where
    some file is still below its top.
    """
    n = plan.params.n_servers
    top = dense_view_ranks(plan, range(n))
    saturated = [[] for _ in top]
    for size in range(1, n + 1):
        for servers in combinations(range(n), size):
            view = set(servers)
            if all(any(s <= view for s in sat) for sat in saturated):
                want = top
            else:
                want = dense_view_ranks(plan, servers)
                for sat, rank, most in zip(saturated, want, top):
                    if rank == most:
                        sat.append(view)
            assert cp.collusion_view_ranks(plan, servers).per_file_rank == want, (
                plan.params, servers,
            )


@pytest.mark.parametrize(
    "factory",
    [prototype_params, robust_params, byzantine_params, multifile_params, pattern_params],
)
@pytest.mark.parametrize("seed", [3, 7])
def test_view_ranks_match_dense_on_every_server_subset(factory, seed):
    _assert_counts_match_dense(cp.build_plan(factory(seed=seed)))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(params=feasible_params())
def test_view_ranks_match_dense_on_drawn_plans(params):
    plan = cp.build_plan(params)
    assert cp.validate_plan(plan) == []
    _assert_counts_match_dense(plan)


def _outside_sets(plan):
    """Every server set of the largest maximal set's size that is not maximal."""
    maximal = plan.maximal_collusion_sets()
    width = max(len(s) for s in maximal)
    return [s for s in combinations(range(plan.params.n_servers), width) if s not in maximal]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(params=feasible_params())
def test_one_pass_matches_per_set_counts_on_drawn_plans(params):
    # The sweep counts every maximal set in one pass; the one-set-at-a-time
    # count, the public one-set call, and the batch of sets outside the
    # maximal ones (as ``audit --all-pairs`` passes them) must all agree.
    plan = cp.build_plan(params)
    maximal = plan.maximal_collusion_sets()
    sweep = cp.full_privacy_sweep(plan)
    assert [a.collusion_set for a in sweep] == list(maximal)
    assert [a.per_file_rank for a in sweep] == [counted_view_ranks(plan, s) for s in maximal]
    assert [a.expected_rank for a in sweep] == [expected_view_dim(plan, s) for s in maximal]
    assert sweep == [cp.collusion_view_ranks(plan, s) for s in maximal]
    outside = _outside_sets(plan)
    extras = rates._view_ranks(plan, outside)
    assert extras == [cp.collusion_view_ranks(plan, s) for s in outside]
    assert [a.per_file_rank for a in extras] == [counted_view_ranks(plan, s) for s in outside]


def test_multifile_shared_atoms_count_once(multi_plan):
    # The P mixed blocks of a round share their atom starts: an atom seen
    # through two of them is still one atom of the view.
    plan, b = multi_plan, multi_plan.layout.array.n_symbols
    for f, (counts, ks) in enumerate(rates._view_counts(plan)[1]):
        starts = [blk.atom_start[f] for blk in plan.layout.blocks if f in blk.atom_start]
        assert len(set(starts)) < len(starts)
        assert counts.sum() == len(set(starts)) * b
    for servers in [(0,), (1, 2), (0, 1, 2), (0, 1, 2, 3)]:
        want = dense_view_ranks(plan, servers)
        assert counted_view_ranks(plan, servers) == want
        assert cp.collusion_view_ranks(plan, servers).per_file_rank == want
        assert rates._view_ranks(plan, [servers])[0].per_file_rank == want


def test_audit_report_shape(pattern_plan):
    doc = cp.audit_report(pattern_plan)
    assert doc["all_pass"] is True
    assert len(doc["audits"]) == 5
    assert {"collusion_set", "per_file_rank", "expected_rank", "pass"} <= set(doc["audits"][0])


# --- capacity bounds and naive comparison ----------------------------------------------


def test_capacity_bound_p_equals_m_is_one():
    assert cp.multifile_capacity_bound(5, 2, 4, 4, "T=1") == 1
    assert cp.multifile_capacity_bound(5, 2, 4, 4, "K=1") == 1


def test_capacity_bound_case_symmetry():
    # the two degenerate cases share one formula shape: swapping which
    # parameter is named gives the same value for the same numbers
    assert cp.multifile_capacity_bound(6, 3, 4, 2, "K=1") == cp.multifile_capacity_bound(
        6, 3, 4, 2, "T=1"
    )


def test_capacity_bound_example_value():
    # (1 + T(M-P) / (P N))^-1 at N=4, T=2, M=3, P=2 is 4/5
    assert cp.multifile_capacity_bound(4, 2, 3, 2, "K=1") == Fraction(4, 5)


def test_capacity_bound_small_m_closed_form():
    for n in range(2, 7):
        for x in range(1, n):
            for p_files in range(1, 5):
                for m in range(p_files, 2 * p_files + 1):
                    got = cp.multifile_capacity_bound(n, x, m, p_files)
                    want = 1 / (1 + Fraction(x * (m - p_files), p_files * n))
                    assert got == want


def test_capacity_bound_general_matches_manual_sum():
    q = Fraction(2, 5)
    # N=5, x=2, M=7, P=2: floor(M/P)=3, fractional part 1/2
    want = 1 / (1 + q + q**2 + Fraction(1, 2) * q**3)
    assert cp.multifile_capacity_bound(5, 2, 7, 2) == want


def test_naive_comparison_example():
    cmp = cp.naive_comparison(multifile_params())
    assert cmp.naive == Fraction(61, 91)
    assert cmp.adapted == Fraction(12, 17)
    assert cmp.better


def test_naive_comparison_degenerate_equalities():
    # retrieving every file means downloading everything: both routes
    # hit rate exactly 1, so "better" is provably an equality here
    both = cp.naive_comparison(
        cp.SchemeParams(variant="multifile", n_servers=4, code_dim=2, n_files=2,
                        desired=(0, 1), collusion_size=2)
    )
    assert both.adapted == both.naive == 1
    assert not both.better

    single = cp.naive_comparison(
        cp.SchemeParams(variant="multifile", n_servers=4, code_dim=2, n_files=1,
                        desired=(0,), collusion_size=2)
    )
    assert single.adapted == single.naive == 1


def test_naive_comparison_strict_for_proper_subsets():
    for m, p_files in [(3, 2), (4, 2), (4, 3), (5, 3), (6, 3)]:
        cmp = cp.naive_comparison(
            cp.SchemeParams(variant="multifile", n_servers=5, code_dim=2, n_files=m,
                            desired=tuple(range(p_files)), collusion_size=2)
        )
        assert cmp.better, (m, p_files)


def test_desired_identity_invariance_multifile():
    a = cp.build_plan(multifile_params(desired=(0, 1)))
    b = cp.build_plan(multifile_params(desired=(1, 2)))
    assert sorted(x.label for x in a.layout.blocks) == sorted(x.label for x in b.layout.blocks)
    for t in a.maximal_collusion_sets():
        ra = cp.collusion_view_ranks(a, t)
        rb = cp.collusion_view_ranks(b, t)
        assert ra.per_file_rank == rb.per_file_rank
        assert ra.expected_rank == rb.expected_rank
