import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import coded_pir as cp
from coded_pir import plans
from conftest import (
    FACTORIES,
    byzantine_params,
    multifile_params,
    pattern_params,
    prototype_params,
    robust_params,
)
from feasible import SMALL_FEASIBLE
from oracles import atom_coeffs, bookkeeping, expected_view_dim, plan_json


# --- ratio --------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,y,alpha,beta",
    [(6, 5, 5, 1), (10, 9, 9, 1), (14, 13, 13, 1), (4, 2, 1, 1), (5, 2, 2, 3), (12, 8, 2, 1)],
)
def test_compute_alpha_beta(x, y, alpha, beta):
    ab = cp.compute_alpha_beta(x, y)
    assert (ab.alpha, ab.beta) == (alpha, beta)
    assert ab.alpha * x == ab.total * y


def test_compute_alpha_beta_minimality():
    from math import gcd

    for x in range(2, 30):
        for y in range(1, x):
            ab = cp.compute_alpha_beta(x, y)
            assert gcd(ab.alpha, ab.beta) == 1
            assert ab.alpha * x == (ab.alpha + ab.beta) * y


def test_compute_alpha_beta_infeasible():
    with pytest.raises(cp.InfeasibleRatio):
        cp.compute_alpha_beta(5, 5)
    with pytest.raises(cp.InfeasibleRatio):
        cp.compute_alpha_beta(5, 6)


# --- assisting array ------------------------------------------------------------


def test_assisting_array_all_pairs_of_four():
    array = cp.build_assisting_array(4, cp.BlockFamily.all_subsets(4, 2))
    assert array.n_symbols == 6
    assert all(len(col) == 3 for col in array.columns)
    # the symbol on servers {0, 1} appears in exactly those two columns
    sym = array.symbols.index((0, 1))
    assert sym in array.columns[0] and sym in array.columns[1]
    assert sym not in array.columns[2] and sym not in array.columns[3]
    # every symbol appears K = 2 times across the array
    flat = [s for col in array.columns for s in col]
    assert Counter(flat) == {s: 2 for s in range(6)}


def test_assisting_array_single_symbol():
    array = cp.build_assisting_array(2, cp.BlockFamily(((0, 1),), 2))
    assert array.columns == ((0,), (0,))


def test_assisting_array_pentagon_three_rows_per_column():
    array = cp.build_assisting_array(5, cp.BlockFamily(
        ((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)), 3))
    assert all(len(col) == 3 for col in array.columns)
    assert array.entries == 15


# --- plan construction -----------------------------------------------------------


def test_prototype_plan_shape(proto_plan):
    assert (proto_plan.layout.ab.alpha, proto_plan.layout.ab.beta) == (5, 1)
    assert proto_plan.l_rows == 216
    assert len(proto_plan.layout.blocks) == 91
    sizes = Counter(len(b.label) for b in proto_plan.layout.blocks)
    assert sizes == {1: 75, 2: 15, 3: 1}
    assert len(proto_plan.queries) == 91 * 6


def test_prototype_block_total_formula(proto_plan):
    ab = proto_plan.layout.ab
    m = proto_plan.params.n_files
    total = (ab.total**m - ab.alpha**m) // ab.beta
    assert len(proto_plan.layout.blocks) == total


def test_robust_plan_shape(robust_plan):
    assert (robust_plan.layout.ab.alpha, robust_plan.layout.ab.beta) == (9, 1)
    assert robust_plan.l_rows == 100
    assert len(robust_plan.layout.blocks) == 19
    assert robust_plan.layout.small_code.n == 15 and robust_plan.layout.small_code.k == 10
    assert robust_plan.layout.big_code.n == 150 and robust_plan.layout.big_code.k == 90


def test_byzantine_plan_shape(byz_plan):
    assert (byz_plan.layout.ab.alpha, byz_plan.layout.ab.beta) == (13, 1)
    assert byz_plan.l_rows == 196
    assert len(byz_plan.layout.blocks) == 27
    assert byz_plan.layout.small_code.n == 28 and byz_plan.layout.small_code.k == 14
    assert byz_plan.layout.big_code.n == 392 and byz_plan.layout.big_code.k == 182


def test_multifile_plan_shape(multi_plan):
    assert (multi_plan.layout.ab.alpha, multi_plan.layout.ab.beta) == (5, 1)
    assert multi_plan.l_rows == 36
    assert len(multi_plan.layout.blocks) == 17
    singles = [b for b in multi_plan.layout.blocks if b.mix_row is None]
    mixed = [b for b in multi_plan.layout.blocks if b.mix_row is not None]
    assert len(singles) == 15 and len(mixed) == 2
    assert multi_plan.mix_matrix.shape == (2, 3)
    # first mixing row comes from the constant polynomial: all ones
    assert multi_plan.mix_matrix[0].tolist() == [1, 1, 1]


def test_pattern_plan_shape(pattern_plan):
    assert (pattern_plan.layout.ab.alpha, pattern_plan.layout.ab.beta) == (4, 1)
    assert pattern_plan.l_rows == 25
    assert len(pattern_plan.layout.blocks) == 9


@pytest.mark.parametrize(
    "factory",
    [prototype_params, robust_params, byzantine_params, multifile_params, pattern_params],
)
def test_validate_plan_clean(factory):
    plan = cp.build_plan(factory())
    assert cp.validate_plan(plan) == []
    assert cp.validate_plan(cp.plan_from_json(cp.plan_to_json(plan))) == []


@pytest.mark.parametrize("factory", [robust_params, multifile_params])
def test_validate_plan_catches_singular_mask(factory):
    plan = cp.build_plan(factory())
    mask = plan.masks[0].copy()
    mask[1] = mask[0]
    broken = replace(plan, masks=(mask,) + plan.masks[1:])
    assert "mask of file 0 is not invertible" in cp.validate_plan(broken)


def test_validate_plan_catches_singular_mixing_matrix():
    # A loaded document can carry a mixing matrix that construction never
    # draws: row 1 equal to row 0 is singular on any desired columns.
    plan = cp.build_plan(multifile_params())
    doc = json.loads(cp.plan_to_json(plan))
    doc["mix_matrix"][1] = doc["mix_matrix"][0]
    loaded = cp.plan_from_json(json.dumps(doc))
    assert cp.validate_plan(loaded) == ["mixing matrix is singular on the desired columns"]
    # The decode reuses the factor that validation left, and still refuses.
    assert "mix_factors" in loaded.__dict__
    transcript = cp.run_session(loaded, cp.database_for_plan(loaded, seed=5))
    with pytest.raises(cp.DecodingFailure, match="^mixing matrix is singular on the desired columns$"):
        cp.reconstruct(loaded, transcript)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_plan_from_json_refuses_v1_documents(name):
    # The oracle still writes v1, with its bookkeeping and atoms; the
    # loader names the schema and the way to the identical v2 plan.
    doc = plan_json(cp.build_plan(FACTORIES[name]()))
    message = r"^plan schema 'coded-pir-plan/1' is no longer read; `coded-pir build` with the document's params"
    with pytest.raises(cp.SchemeError, match=message):
        cp.plan_from_json(doc)


V1_REFUSED = r"^plan schema 'coded-pir-plan/1' is no longer read"


@pytest.mark.parametrize("factory", [prototype_params, robust_params, multifile_params])
@pytest.mark.parametrize("file", [0, -1])
def test_validate_plan_catches_changed_atom_coeffs(factory, file):
    # A plan derives its atoms from its masks, so changed atoms can only
    # come in stored: a v1 document is refused by its schema, and a v2
    # document that carries them has a field too many.  The v2 round trip
    # derives the built plan's atoms again.
    plan = cp.build_plan(factory())
    f = file % plan.params.n_files
    v1 = json.loads(plan_json(plan))
    v1["atom_coeffs"][f][3][5] = (v1["atom_coeffs"][f][3][5] + 1) % plan.params.modulus
    with pytest.raises(cp.SchemeError, match=V1_REFUSED):
        cp.plan_from_json(json.dumps(v1))
    v2 = json.loads(cp.plan_to_json(plan))
    v2["atom_coeffs"] = v1["atom_coeffs"]
    with pytest.raises(cp.SchemeError, match=r"has the fields \['atom_coeffs', 'masks'"):
        cp.plan_from_json(json.dumps(v2))
    loaded = cp.plan_from_json(cp.plan_to_json(plan))
    assert np.array_equal(atom_coeffs(loaded)[f], atom_coeffs(plan)[f])


def test_validate_plan_catches_block_multiplicity():
    # Blocks are derived from the parameters, so stored bookkeeping that
    # disagrees with them cannot be loaded: not from a v1 document, nor as
    # a stray field of a v2 one.  A loaded plan's blocks are the built ones.
    plan = cp.build_plan(robust_params())
    v1 = json.loads(plan_json(plan))
    v1["blocks"][-1]["atoms"]["1"][0] += 1
    with pytest.raises(cp.SchemeError, match=V1_REFUSED):
        cp.plan_from_json(json.dumps(v1))
    v1["blocks"].pop()
    with pytest.raises(cp.SchemeError, match=V1_REFUSED):
        cp.plan_from_json(json.dumps(v1))
    v2 = json.loads(cp.plan_to_json(plan))
    v2["blocks"] = v1["blocks"]
    with pytest.raises(cp.SchemeError, match=r"has the fields \['blocks', 'masks'"):
        cp.plan_from_json(json.dumps(v2))
    loaded = cp.plan_from_json(cp.plan_to_json(plan))
    assert bookkeeping(loaded.params, loaded.layout) == bookkeeping(plan.params, plan.layout)


def test_atoms_are_derived_not_stored(monkeypatch):
    # A plan holds its masks only: building, answering and decoding all
    # succeed with the one helper that derives an atom matrix refused.
    def refuse(*args):
        raise AssertionError("an atom matrix was derived")

    monkeypatch.setattr(plans, "_atom_matrix", refuse)
    for name, factory in sorted(FACTORIES.items()):
        built = cp.build_plan(factory())
        for plan in (built, cp.plan_from_json(cp.plan_to_json(built))):
            db = cp.database_for_plan(plan, seed=1)
            files = cp.reconstruct(plan, cp.run_session(plan, db))
            assert sorted(files) == list(plan.params.desired), name
            assert all(np.array_equal(files[f], db.files[f]) for f in files), name
        assert not hasattr(built, "atom_coeffs")


def test_plan_to_json_refuses_masks_outside_the_field(robust_plan):
    p = robust_plan.params.modulus
    for bad in (p, -1):
        mask = robust_plan.masks[1].copy()
        mask[2, 3] = bad
        with pytest.raises(cp.SchemeError, match=rf"plan masks are not 2 matrices 100 x 100 over \[0, {p}\)"):
            cp.plan_to_json(replace(robust_plan, masks=(robust_plan.masks[0], mask)))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_pipeline_never_builds_the_dense_query_view(name):
    built = cp.build_plan(FACTORIES[name]())
    loaded = cp.plan_from_json(cp.plan_to_json(built))
    for plan in (built, loaded):
        transcript = cp.run_session(plan, cp.database_for_plan(plan, seed=1))
        cp.reconstruct(plan, transcript)
        cp.recovered_atoms(plan, transcript)
        cp.full_privacy_sweep(plan)
        assert cp.validate_plan(plan) == []
        cp.plan_to_json(plan)
        assert "queries" not in plan.__dict__


def test_build_plan_deterministic():
    a = cp.plan_to_json(cp.build_plan(prototype_params(seed=3)))
    b = cp.plan_to_json(cp.build_plan(prototype_params(seed=3)))
    assert a == b
    c = cp.plan_to_json(cp.build_plan(prototype_params(seed=4)))
    assert a != c


def test_plan_json_roundtrip():
    for factory in (robust_params, multifile_params, pattern_params):
        plan = cp.build_plan(factory())
        text = cp.plan_to_json(plan)
        back = cp.plan_from_json(text)
        assert cp.plan_to_json(back) == text
        assert cp.validate_plan(back) == []
        for q1, q2 in zip(plan.queries, back.queries):
            assert np.array_equal(q1.vector, q2.vector)


def test_desired_atoms_cover_all_mask_rows(proto_plan, robust_plan):
    # prototype: desired atoms are the mask rows themselves
    des = proto_plan.params.desired[0]
    assert np.array_equal(atom_coeffs(proto_plan)[des], proto_plan.masks[des])
    # robust: one small-code chunk per desired block; their rows tile [0, L)
    chunks = robust_plan.layout.chunks[robust_plan.params.desired[0]]
    assert all(c.code is robust_plan.layout.small_code for c in chunks)
    rows = sorted(r for c in chunks for r in range(*c.rows))
    assert rows == list(range(robust_plan.l_rows))


def test_undesired_row_slices_disjoint(proto_plan):
    for f in range(proto_plan.params.n_files):
        if f == proto_plan.params.desired[0]:
            continue
        used = set()
        touched = 0
        for g in proto_plan.layout.groups:
            if f in g.chunks:
                touched += 1
                lo, hi = g.chunks[f].rows
                span = set(range(lo, hi))
                assert not (used & span)
                used |= span
        # a file is met once per group whose base label contains it
        assert touched == proto_plan.layout.ab.total ** (proto_plan.params.n_files - 2)
        assert len(used) == touched * proto_plan.layout.big_code.k


@pytest.mark.parametrize("variant", sorted(SMALL_FEASIBLE))
def test_layout_chunks_tile_atoms_and_rows(variant):
    for params in SMALL_FEASIBLE[variant]:
        layout = cp.derive_layout(params)
        b, l_rows = layout.array.n_symbols, layout.l_rows
        for f, chunks in enumerate(layout.chunks):
            # in order, from atom 0, with no gap; disjoint rows of the mask
            assert [c.atoms[0] for c in chunks] == [0] + [c.atoms[1] for c in chunks[:-1]]
            rows = [r for c in chunks for r in range(*c.rows)]
            assert len(set(rows)) == len(rows) and set(rows) <= set(range(l_rows))
            for c in chunks:
                shape = (c.atoms[1] - c.atoms[0], c.k)
                assert shape[0] == shape[1] if c.code is None else (c.code.n, c.code.k) == shape
            # every block's atoms of the file lie inside one chunk, and every atom is used
            used = set()
            for blk in layout.blocks:
                if f in blk.atom_start:
                    a = blk.atom_start[f]
                    assert any(c.atoms[0] <= a and a + b <= c.atoms[1] for c in chunks)
                    used.update(range(a, a + b))
            assert used == set(range(chunks[-1].atoms[1]))


def test_query_vectors_live_in_label_slices(multi_plan):
    l_rows = multi_plan.l_rows
    for q in multi_plan.queries[:40]:
        blk = multi_plan.layout.blocks[q.block]
        for f in range(multi_plan.params.n_files):
            segment = q.vector[f * l_rows : (f + 1) * l_rows]
            if f in blk.label:
                assert segment.any()
            else:
                assert not segment.any()


def test_field_too_small_raises():
    params = byzantine_params()
    with pytest.raises(cp.FieldTooSmall):
        cp.build_plan(replace(params, modulus=389))  # needs length 392


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(variant="prototype", n_servers=4, code_dim=3, n_files=2,
              collusion_size=2), "T + K <= N"),
        (dict(variant="robust", n_servers=6, code_dim=2, n_files=2,
              collusion_size=2, s_robust=3), "C(N-S,K)"),
        (dict(variant="byzantine", n_servers=8, code_dim=2, n_files=2,
              collusion_size=2, b_byzantine=3), "2*C(N-B,K)"),
        (dict(variant="multifile", n_servers=4, code_dim=2, n_files=5,
              desired=(0, 1), collusion_size=2), "2P >= M"),
    ],
)
def test_precondition_messages(kwargs, message):
    with pytest.raises(cp.PreconditionViolated) as err:
        cp.build_plan(cp.SchemeParams(**kwargs))
    assert message in str(err.value)


def test_pattern_requires_feasible_family():
    pat = cp.CollusionPattern(((0, 1, 2, 3),))
    fam = cp.BlockFamily.all_subsets(4, 2)
    with pytest.raises(cp.PreconditionViolated):
        cp.build_plan(cp.SchemeParams(
            variant="pattern", n_servers=4, code_dim=2, n_files=2,
            pattern=pat, family=fam))


def test_beta_greater_than_one_instances_build():
    # N=5, K=1, T=2 gives alpha=2, beta=3: exercises multi-block groups.
    proto = cp.SchemeParams(variant="prototype", n_servers=5, code_dim=1,
                            n_files=2, collusion_size=2, seed=1)
    plan = cp.build_plan(proto)
    assert (plan.layout.ab.alpha, plan.layout.ab.beta) == (2, 3)
    assert plan.l_rows == 5 * 5
    assert cp.validate_plan(plan) == []

    multi = cp.SchemeParams(variant="multifile", n_servers=5, code_dim=1,
                            n_files=3, desired=(0, 1), collusion_size=2, seed=1)
    mplan = cp.build_plan(multi)
    assert (mplan.layout.ab.alpha, mplan.layout.ab.beta) == (2, 3)
    assert mplan.l_rows == 25
    assert len(mplan.layout.blocks) == 3 * 2 + 2 * 3
    assert cp.validate_plan(mplan) == []


def test_single_file_degenerate_plan():
    params = cp.SchemeParams(variant="prototype", n_servers=4, code_dim=2,
                             n_files=1, collusion_size=2, seed=0)
    plan = cp.build_plan(params)
    assert plan.l_rows == 6
    assert len(plan.layout.blocks) == 1
    assert cp.validate_plan(plan) == []


def test_expected_view_dim_examples(proto_plan, multi_plan, pattern_plan):
    for plan, servers, dim in [
        (proto_plan, (0, 1), 180),
        (multi_plan, (1, 3), 30),
        (pattern_plan, (0, 1), 20),
        (pattern_plan, (0, 2), 25),  # outside the pattern
    ]:
        assert cp.collusion_view_ranks(plan, servers).expected_rank == dim
        assert expected_view_dim(plan, servers) == dim
